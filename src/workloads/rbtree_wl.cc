#include "rbtree_wl.hh"

#include "registry.hh"

#include <functional>
#include <limits>
#include <sstream>

#include "sim/logging.hh"

namespace proteus {

namespace {

constexpr unsigned offKey = 0;
constexpr unsigned offLeft = 8;
constexpr unsigned offRight = 16;
constexpr unsigned offColor = 24;
constexpr std::uint64_t red = 1;
constexpr std::uint64_t black = 0;

} // namespace

RbTreeWorkload::RbTreeWorkload(PersistentHeap &heap, LogScheme scheme,
                               const WorkloadParams &params)
    : CloneableWorkload(heap, scheme, params)
{
}

void
RbTreeWorkload::allocateStructures()
{
    for (unsigned t = 0; t < numTrees; ++t) {
        const Addr root = _heap->alloc(blockSize, blockSize);
        _heap->write<std::uint64_t>(root, 0);
        _roots.push_back(root);
        _locks.push_back(_heap->allocVolatile(blockSize, blockSize));
    }
}

std::uint64_t
RbTreeWorkload::keyRange() const
{
    return initOps() * _params.threads * 2 + 64;
}

bool
RbTreeWorkload::isRed(TraceBuilder &tb, Addr node)
{
    if (node == 0)
        return false;
    return tb.load(node + offColor, 8).v == red;
}

Addr
RbTreeWorkload::rotateLeft(TraceBuilder &tb, Addr h)
{
    const Value x = tb.load(h + offRight, 8);
    const Value xl = tb.load(x.v + offLeft, 8, x);
    const Value hc = tb.load(h + offColor, 8);
    tb.store(h + offRight, 8, xl.v, xl);
    tb.store(x.v + offLeft, 8, h, x);
    tb.store(x.v + offColor, 8, hc.v, hc);
    tb.store(h + offColor, 8, red);
    return x.v;
}

Addr
RbTreeWorkload::rotateRight(TraceBuilder &tb, Addr h)
{
    const Value x = tb.load(h + offLeft, 8);
    const Value xr = tb.load(x.v + offRight, 8, x);
    const Value hc = tb.load(h + offColor, 8);
    tb.store(h + offLeft, 8, xr.v, xr);
    tb.store(x.v + offRight, 8, h, x);
    tb.store(x.v + offColor, 8, hc.v, hc);
    tb.store(h + offColor, 8, red);
    return x.v;
}

void
RbTreeWorkload::colorFlip(TraceBuilder &tb, Addr h)
{
    const Value hc = tb.load(h + offColor, 8);
    const Value l = tb.load(h + offLeft, 8);
    const Value r = tb.load(h + offRight, 8);
    tb.store(h + offColor, 8, hc.v ^ 1, hc);
    if (l.v != 0) {
        const Value lc = tb.load(l.v + offColor, 8, l);
        tb.store(l.v + offColor, 8, lc.v ^ 1, lc);
    }
    if (r.v != 0) {
        const Value rc = tb.load(r.v + offColor, 8, r);
        tb.store(r.v + offColor, 8, rc.v ^ 1, rc);
    }
}

Addr
RbTreeWorkload::fixUp(TraceBuilder &tb, Addr h)
{
    const Value r = tb.load(h + offRight, 8);
    if (isRed(tb, r.v)) {
        const Value l = tb.load(h + offLeft, 8);
        if (!isRed(tb, l.v))
            h = rotateLeft(tb, h);
    }
    const Value l2 = tb.load(h + offLeft, 8);
    if (isRed(tb, l2.v) && l2.v != 0) {
        const Value ll = tb.load(l2.v + offLeft, 8, l2);
        if (isRed(tb, ll.v))
            h = rotateRight(tb, h);
    }
    const Value l3 = tb.load(h + offLeft, 8);
    const Value r3 = tb.load(h + offRight, 8);
    if (isRed(tb, l3.v) && isRed(tb, r3.v))
        colorFlip(tb, h);
    return h;
}

Addr
RbTreeWorkload::moveRedLeft(TraceBuilder &tb, Addr h)
{
    colorFlip(tb, h);
    const Value r = tb.load(h + offRight, 8);
    if (r.v != 0) {
        const Value rl = tb.load(r.v + offLeft, 8, r);
        if (isRed(tb, rl.v)) {
            tb.store(h + offRight, 8, rotateRight(tb, r.v));
            h = rotateLeft(tb, h);
            colorFlip(tb, h);
        }
    }
    return h;
}

Addr
RbTreeWorkload::moveRedRight(TraceBuilder &tb, Addr h)
{
    colorFlip(tb, h);
    const Value l = tb.load(h + offLeft, 8);
    if (l.v != 0) {
        const Value ll = tb.load(l.v + offLeft, 8, l);
        if (isRed(tb, ll.v)) {
            h = rotateRight(tb, h);
            colorFlip(tb, h);
        }
    }
    return h;
}

Addr
RbTreeWorkload::insertRec(TraceBuilder &tb, Addr h, std::uint64_t key,
                          Addr new_node, bool &used)
{
    if (h == 0) {
        used = true;
        tb.store(new_node + offKey, 8, key);
        tb.store(new_node + offLeft, 8, 0);
        tb.store(new_node + offRight, 8, 0);
        tb.store(new_node + offColor, 8, red);
        for (unsigned off = 32; off < nodeBytes; off += 8)
            tb.store(new_node + off, 8, 0); // padding init
        return new_node;
    }

    const Value k = tb.load(h + offKey, 8);
    tb.branch(site(0), key < k.v, k);
    if (key < k.v) {
        const Value l = tb.load(h + offLeft, 8);
        const Addr nl = insertRec(tb, l.v, key, new_node, used);
        if (nl != l.v)
            tb.store(h + offLeft, 8, nl);
    } else if (key > k.v) {
        const Value r = tb.load(h + offRight, 8);
        const Addr nr = insertRec(tb, r.v, key, new_node, used);
        if (nr != r.v)
            tb.store(h + offRight, 8, nr);
    }
    return fixUp(tb, h);
}

std::uint64_t
RbTreeWorkload::minKey(TraceBuilder &tb, Addr node)
{
    Value cur{node, noReg};
    Addr m = node;
    while (true) {
        const Value l = tb.load(m + offLeft, 8, cur);
        tb.branch(site(1), l.v != 0, l);
        if (l.v == 0)
            break;
        m = l.v;
        cur = l;
    }
    return tb.load(m + offKey, 8, cur).v;
}

Addr
RbTreeWorkload::deleteMin(TraceBuilder &tb, Addr h,
                          std::vector<Addr> &freed)
{
    const Value l = tb.load(h + offLeft, 8);
    if (l.v == 0) {
        freed.push_back(h);
        return 0;
    }
    if (!isRed(tb, l.v)) {
        const Value ll = tb.load(l.v + offLeft, 8, l);
        if (!isRed(tb, ll.v))
            h = moveRedLeft(tb, h);
    }
    const Value l2 = tb.load(h + offLeft, 8);
    const Addr nl = deleteMin(tb, l2.v, freed);
    if (nl != l2.v)
        tb.store(h + offLeft, 8, nl);
    return fixUp(tb, h);
}

Addr
RbTreeWorkload::deleteRec(TraceBuilder &tb, Addr h, std::uint64_t key,
                          std::vector<Addr> &freed)
{
    const Value k = tb.load(h + offKey, 8);
    tb.branch(site(2), key < k.v, k);
    if (key < k.v) {
        const Value l = tb.load(h + offLeft, 8);
        if (!isRed(tb, l.v) && l.v != 0) {
            const Value ll = tb.load(l.v + offLeft, 8, l);
            if (!isRed(tb, ll.v))
                h = moveRedLeft(tb, h);
        }
        const Value l2 = tb.load(h + offLeft, 8);
        const Addr nl = deleteRec(tb, l2.v, key, freed);
        if (nl != l2.v)
            tb.store(h + offLeft, 8, nl);
    } else {
        const Value l = tb.load(h + offLeft, 8);
        if (isRed(tb, l.v))
            h = rotateRight(tb, h);

        const Value k2 = tb.load(h + offKey, 8);
        const Value r2 = tb.load(h + offRight, 8);
        if (key == k2.v && r2.v == 0) {
            freed.push_back(h);
            return tb.load(h + offLeft, 8).v;
        }

        const Value r3 = tb.load(h + offRight, 8);
        if (r3.v != 0 && !isRed(tb, r3.v)) {
            const Value rl = tb.load(r3.v + offLeft, 8, r3);
            if (!isRed(tb, rl.v))
                h = moveRedRight(tb, h);
        }

        const Value k3 = tb.load(h + offKey, 8);
        const Value r4 = tb.load(h + offRight, 8);
        if (key == k3.v) {
            // Replace with the successor and delete it below.
            const std::uint64_t succ = minKey(tb, r4.v);
            tb.store(h + offKey, 8, succ);
            const Addr nr = deleteMin(tb, r4.v, freed);
            if (nr != r4.v)
                tb.store(h + offRight, 8, nr);
        } else {
            const Addr nr = deleteRec(tb, r4.v, key, freed);
            if (nr != r4.v)
                tb.store(h + offRight, 8, nr);
        }
    }
    return fixUp(tb, h);
}

bool
RbTreeWorkload::contains(TraceBuilder &tb, Addr node, std::uint64_t key)
{
    Value cur{node, noReg};
    Addr n = node;
    while (n != 0) {
        const Value k = tb.load(n + offKey, 8, cur);
        tb.branch(site(3), key < k.v, k);
        if (key == k.v)
            return true;
        const unsigned off = key < k.v ? offLeft : offRight;
        const Value next = tb.load(n + off, 8, cur);
        n = next.v;
        cur = next;
    }
    return false;
}

void
RbTreeWorkload::treeOp(unsigned thread, bool insert_only)
{
    TraceBuilder &tb = builder(thread);
    Random &r = rng(thread);
    const std::uint64_t key = r.nextBelow(keyRange());
    const unsigned t = static_cast<unsigned>(key % numTrees);
    const bool is_insert = insert_only || r.nextBool(0.5);
    const Addr root_ptr = _roots[t];

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
        Addr new_root = root.v;
        if (is_insert) {
            new_root = insertRec(tb, root.v, key, new_node, used);
        } else if (root.v != 0 && contains(tb, root.v, key)) {
            new_root = deleteRec(tb, root.v, key, freed);
        }
        if (new_root != root.v)
            tb.store(root_ptr, 8, new_root);
        if (new_root != 0) {
            const Value c = tb.load(new_root + offColor, 8);
            if (c.v != black)
                tb.store(new_root + offColor, 8, black, c);
        }
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
RbTreeWorkload::doInitOp(unsigned thread)
{
    treeOp(thread, true);
}

void
RbTreeWorkload::doOp(unsigned thread)
{
    treeOp(thread, false);
}

std::string
RbTreeWorkload::serialize(const MemoryImage &image) const
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
RbTreeWorkload::checkInvariants(const MemoryImage &image) const
{
    std::ostringstream err;
    for (unsigned t = 0; t < numTrees; ++t) {
        const Addr root = image.read64(_roots[t]);
        if (root != 0 && image.read64(root + offColor) == red) {
            err << "t" << t << ": red root\n";
            continue;
        }
        // Returns black height, or -1 on violation.
        std::function<std::int64_t(Addr, std::uint64_t, std::uint64_t)>
            check = [&](Addr node, std::uint64_t lo,
                        std::uint64_t hi) -> std::int64_t {
            if (node == 0)
                return 1;
            const std::uint64_t key = image.read64(node + offKey);
            if (key < lo || key >= hi) {
                err << "t" << t << ": BST violation at key " << key
                    << "\n";
                return -1;
            }
            const Addr left = image.read64(node + offLeft);
            const Addr right = image.read64(node + offRight);
            const bool node_red =
                image.read64(node + offColor) == red;
            const bool right_red =
                right != 0 && image.read64(right + offColor) == red;
            const bool left_red =
                left != 0 && image.read64(left + offColor) == red;
            if (right_red) {
                err << "t" << t << ": red right link at key " << key
                    << "\n";
                return -1;
            }
            if (node_red && left_red) {
                err << "t" << t << ": double red at key " << key
                    << "\n";
                return -1;
            }
            const std::int64_t bl = check(left, lo, key);
            const std::int64_t br = check(right, key + 1, hi);
            if (bl < 0 || br < 0)
                return -1;
            if (bl != br) {
                err << "t" << t << ": black height mismatch at key "
                    << key << "\n";
                return -1;
            }
            return bl + (node_red ? 0 : 1);
        };
        check(root, 0, std::numeric_limits<std::uint64_t>::max());
    }
    return err.str();
}


WorkloadRegistration
rbTreeWorkloadRegistration()
{
    return {WorkloadKind::RbTree, "RT", "rbtree",
            "insert or delete nodes in 16 red-black trees (Table 2)",
            "", true,
            [](PersistentHeap &heap, LogScheme scheme,
               const WorkloadParams &params,
               const WorkloadExtras &)
                -> std::unique_ptr<Workload> {
                return std::make_unique<RbTreeWorkload>(heap, scheme, params);
            }};
}

} // namespace proteus
