#include "avltree_wl.hh"

#include "registry.hh"

#include <algorithm>
#include <functional>
#include <sstream>

#include "sim/logging.hh"

namespace proteus {

namespace {

constexpr unsigned offKey = 0;
constexpr unsigned offLeft = 8;
constexpr unsigned offRight = 16;
constexpr unsigned offHeight = 24;

} // namespace

AvlTreeWorkload::AvlTreeWorkload(PersistentHeap &heap, LogScheme scheme,
                                 const WorkloadParams &params)
    : CloneableWorkload(heap, scheme, params)
{
}

void
AvlTreeWorkload::allocateStructures()
{
    for (unsigned t = 0; t < numTrees; ++t) {
        const Addr root = _heap->alloc(blockSize, blockSize);
        _heap->write<std::uint64_t>(root, 0);
        _roots.push_back(root);
        _locks.push_back(_heap->allocVolatile(blockSize, blockSize));
    }
}

std::uint64_t
AvlTreeWorkload::keyRange() const
{
    return initOps() * _params.threads * 2 + 64;
}

std::uint64_t
AvlTreeWorkload::heightOf(TraceBuilder &tb, Addr node, Value dep)
{
    if (node == 0)
        return 0;
    return tb.load(node + offHeight, 8, dep).v;
}

void
AvlTreeWorkload::fixHeight(TraceBuilder &tb, Addr node)
{
    const Value l = tb.load(node + offLeft, 8);
    const Value r = tb.load(node + offRight, 8);
    const std::uint64_t h =
        1 + std::max(heightOf(tb, l.v, l), heightOf(tb, r.v, r));
    tb.store(node + offHeight, 8, h);
}

Addr
AvlTreeWorkload::rotateRight(TraceBuilder &tb, Addr z)
{
    const Value y = tb.load(z + offLeft, 8);
    const Value t = tb.load(y.v + offRight, 8, y);
    tb.store(z + offLeft, 8, t.v, t);
    tb.store(y.v + offRight, 8, z, y);
    fixHeight(tb, z);
    fixHeight(tb, y.v);
    return y.v;
}

Addr
AvlTreeWorkload::rotateLeft(TraceBuilder &tb, Addr z)
{
    const Value y = tb.load(z + offRight, 8);
    const Value t = tb.load(y.v + offLeft, 8, y);
    tb.store(z + offRight, 8, t.v, t);
    tb.store(y.v + offLeft, 8, z, y);
    fixHeight(tb, z);
    fixHeight(tb, y.v);
    return y.v;
}

Addr
AvlTreeWorkload::fixup(TraceBuilder &tb, Addr node)
{
    fixHeight(tb, node);
    const Value l = tb.load(node + offLeft, 8);
    const Value r = tb.load(node + offRight, 8);
    const std::int64_t balance =
        static_cast<std::int64_t>(heightOf(tb, l.v, l)) -
        static_cast<std::int64_t>(heightOf(tb, r.v, r));
    tb.branch(site(10), balance > 1 || balance < -1);

    if (balance > 1) {
        const Value ll = tb.load(l.v + offLeft, 8, l);
        const Value lr = tb.load(l.v + offRight, 8, l);
        if (heightOf(tb, ll.v, ll) >= heightOf(tb, lr.v, lr))
            return rotateRight(tb, node);
        tb.store(node + offLeft, 8, rotateLeft(tb, l.v));
        return rotateRight(tb, node);
    }
    if (balance < -1) {
        const Value rl = tb.load(r.v + offLeft, 8, r);
        const Value rr = tb.load(r.v + offRight, 8, r);
        if (heightOf(tb, rr.v, rr) >= heightOf(tb, rl.v, rl))
            return rotateLeft(tb, node);
        tb.store(node + offRight, 8, rotateRight(tb, r.v));
        return rotateLeft(tb, node);
    }
    return node;
}

Addr
AvlTreeWorkload::insertRec(TraceBuilder &tb, Addr node,
                           std::uint64_t key, Addr new_node, bool &used,
                           Value dep)
{
    if (node == 0) {
        used = true;
        tb.store(new_node + offKey, 8, key);
        tb.store(new_node + offLeft, 8, 0);
        tb.store(new_node + offRight, 8, 0);
        tb.store(new_node + offHeight, 8, 1);
        for (unsigned off = 32; off < nodeBytes; off += 8)
            tb.store(new_node + off, 8, 0); // padding init
        return new_node;
    }

    const Value k = tb.load(node + offKey, 8, dep);
    tb.branch(site(0), key < k.v, k);
    if (key == k.v)
        return node;    // already present

    if (key < k.v) {
        const Value l = tb.load(node + offLeft, 8, dep);
        const Addr nl = insertRec(tb, l.v, key, new_node, used, l);
        if (nl != l.v)
            tb.store(node + offLeft, 8, nl);
    } else {
        const Value r = tb.load(node + offRight, 8, dep);
        const Addr nr = insertRec(tb, r.v, key, new_node, used, r);
        if (nr != r.v)
            tb.store(node + offRight, 8, nr);
    }
    return fixup(tb, node);
}

Addr
AvlTreeWorkload::deleteRec(TraceBuilder &tb, Addr node,
                           std::uint64_t key, std::vector<Addr> &freed,
                           Value dep)
{
    if (node == 0)
        return 0;

    const Value k = tb.load(node + offKey, 8, dep);
    tb.branch(site(1), key < k.v, k);

    if (key < k.v) {
        const Value l = tb.load(node + offLeft, 8, dep);
        const Addr nl = deleteRec(tb, l.v, key, freed, l);
        if (nl != l.v)
            tb.store(node + offLeft, 8, nl);
    } else if (key > k.v) {
        const Value r = tb.load(node + offRight, 8, dep);
        const Addr nr = deleteRec(tb, r.v, key, freed, r);
        if (nr != r.v)
            tb.store(node + offRight, 8, nr);
    } else {
        const Value l = tb.load(node + offLeft, 8, dep);
        const Value r = tb.load(node + offRight, 8, dep);
        if (l.v == 0 || r.v == 0) {
            freed.push_back(node);
            return l.v != 0 ? l.v : r.v;
        }
        // Two children: replace the key with the successor's, then
        // delete the successor from the right subtree.
        Addr succ = r.v;
        Value cur = r;
        while (true) {
            const Value sl = tb.load(succ + offLeft, 8, cur);
            tb.branch(site(2), sl.v != 0, sl);
            if (sl.v == 0)
                break;
            succ = sl.v;
            cur = sl;
        }
        const Value sk = tb.load(succ + offKey, 8, cur);
        tb.store(node + offKey, 8, sk.v, sk);
        const Addr nr = deleteRec(tb, r.v, sk.v, freed, r);
        if (nr != r.v)
            tb.store(node + offRight, 8, nr);
    }
    return fixup(tb, node);
}

void
AvlTreeWorkload::treeOp(unsigned thread, bool insert_only)
{
    TraceBuilder &tb = builder(thread);
    Random &r = rng(thread);
    const std::uint64_t key = r.nextBelow(keyRange());
    const unsigned t = static_cast<unsigned>(key % numTrees);
    const bool is_insert = insert_only || r.nextBool(0.5);
    const Addr root_ptr = _roots[t];

    // Allocation happens outside the mutation so the dry-run and the
    // recorded run use the same addresses.
    const Addr new_node =
        is_insert ? allocNode(thread, nodeBytes) : 0;
    bool used = false;
    std::vector<Addr> freed;

    acquire(thread, _locks[t]);
    tb.beginTx();
    padPrologue(thread);
    if (is_insert)
        padAlloc(thread);
    else
        padFree(thread);

    auto mutate = [&]() {
        used = false;
        freed.clear();
        const Value root = tb.load(root_ptr, 8);
        Addr new_root;
        if (is_insert) {
            new_root =
                insertRec(tb, root.v, key, new_node, used, root);
        } else {
            new_root = deleteRec(tb, root.v, key, freed, root);
        }
        if (new_root != root.v)
            tb.store(root_ptr, 8, new_root);
    };
    mutateWithConservativeLog(thread, mutate);

    tb.endTx();
    release(thread, _locks[t]);

    if (is_insert && !used)
        freeNode(thread, new_node, nodeBytes);
    for (Addr a : freed)
        freeNode(thread, a, nodeBytes);
}

void
AvlTreeWorkload::doInitOp(unsigned thread)
{
    treeOp(thread, true);
}

void
AvlTreeWorkload::doOp(unsigned thread)
{
    treeOp(thread, false);
}

std::string
AvlTreeWorkload::serialize(const MemoryImage &image) const
{
    std::ostringstream os;
    for (unsigned t = 0; t < numTrees; ++t) {
        os << "t" << t << ":";
        std::function<void(Addr)> walk = [&](Addr node) {
            if (node == 0)
                return;
            walk(image.read64(node + offLeft));
            os << " " << image.read64(node + offKey);
            walk(image.read64(node + offRight));
        };
        walk(image.read64(_roots[t]));
        os << "\n";
    }
    return os.str();
}

std::string
AvlTreeWorkload::checkInvariants(const MemoryImage &image) const
{
    std::ostringstream err;
    for (unsigned t = 0; t < numTrees; ++t) {
        // Returns subtree height, or -1 on violation.
        std::function<std::int64_t(Addr, std::uint64_t, std::uint64_t)>
            check = [&](Addr node, std::uint64_t lo,
                        std::uint64_t hi) -> std::int64_t {
            if (node == 0)
                return 0;
            const std::uint64_t key = image.read64(node + offKey);
            if (key < lo || key >= hi) {
                err << "t" << t << ": BST violation at key " << key
                    << "\n";
                return -1;
            }
            const std::int64_t hl =
                check(image.read64(node + offLeft), lo, key);
            const std::int64_t hr =
                check(image.read64(node + offRight), key + 1, hi);
            if (hl < 0 || hr < 0)
                return -1;
            const std::int64_t h = 1 + std::max(hl, hr);
            if (static_cast<std::int64_t>(
                    image.read64(node + offHeight)) != h) {
                err << "t" << t << ": stale height at key " << key
                    << "\n";
                return -1;
            }
            if (hl - hr > 1 || hr - hl > 1) {
                err << "t" << t << ": imbalance at key " << key << "\n";
                return -1;
            }
            return h;
        };
        check(image.read64(_roots[t]), 0,
              std::numeric_limits<std::uint64_t>::max());
    }
    return err.str();
}


WorkloadRegistration
avlTreeWorkloadRegistration()
{
    return {WorkloadKind::AvlTree, "AT", "avltree",
            "insert or delete nodes in 16 AVL trees (Table 2)",
            "", true,
            [](PersistentHeap &heap, LogScheme scheme,
               const WorkloadParams &params,
               const WorkloadExtras &)
                -> std::unique_ptr<Workload> {
                return std::make_unique<AvlTreeWorkload>(heap, scheme, params);
            }};
}

} // namespace proteus
