#include "btree_wl.hh"

#include "registry.hh"

#include <algorithm>
#include <functional>
#include <limits>
#include <sstream>

#include "sim/logging.hh"

namespace proteus {

namespace {

constexpr unsigned offCount = 0;
constexpr unsigned offKeys = 8;
constexpr unsigned offChildren = 32;
/** A node is moved as this many 8-byte words: count, keys, children. */
constexpr unsigned nodeWords = BTreeWorkload::nodeBytes / 8;
static_assert(offCount == 0 && offKeys == 8 &&
                  offChildren == offKeys + BTreeWorkload::maxKeys * 8 &&
                  offChildren + (BTreeWorkload::maxKeys + 1) * 8 ==
                      BTreeWorkload::nodeBytes,
              "count, keys and children fill the node's words exactly");

} // namespace

BTreeWorkload::BTreeWorkload(PersistentHeap &heap, LogScheme scheme,
                             const WorkloadParams &params)
    : CloneableWorkload(heap, scheme, params)
{
}

void
BTreeWorkload::allocateStructures()
{
    for (unsigned t = 0; t < numTrees; ++t) {
        const Addr root = _heap->alloc(blockSize, blockSize);
        _heap->write<std::uint64_t>(root, 0);
        _roots.push_back(root);
        _locks.push_back(_heap->allocVolatile(blockSize, blockSize));
    }
}

std::uint64_t
BTreeWorkload::keyRange() const
{
    return initOps() * _params.threads * 2 + 64;
}

BTreeWorkload::Node
BTreeWorkload::readNode(TraceBuilder &tb, Addr a, Value dep)
{
    std::uint64_t w[nodeWords];
    tb.loadWords(a, w, nodeWords, dep);
    Node n;
    n.a = a;
    n.count = w[offCount / 8];
    std::copy_n(w + offKeys / 8, maxKeys, n.keys);
    std::copy_n(w + offChildren / 8, maxKeys + 1, n.child);
    return n;
}

void
BTreeWorkload::writeNode(TraceBuilder &tb, const Node &n)
{
    std::uint64_t w[nodeWords];
    w[offCount / 8] = n.count;
    std::copy_n(n.keys, maxKeys, w + offKeys / 8);
    std::copy_n(n.child, maxKeys + 1, w + offChildren / 8);
    tb.storeWords(n.a, w, nodeWords);
}

Addr
BTreeWorkload::poolTake()
{
    if (_poolNext >= _pool.size())
        panic("BTreeWorkload: node pool exhausted");
    return _pool[_poolNext++];
}

void
BTreeWorkload::splitChild(TraceBuilder &tb, Node &parent, unsigned i)
{
    Node y = readNode(tb, parent.child[i]);
    if (y.count != maxKeys)
        panic("BTreeWorkload: splitting a non-full child");
    Node z;
    z.a = poolTake();

    // The top key moves to the new right sibling, the median rises.
    z.count = 1;
    z.keys[0] = y.keys[2];
    if (!y.leaf()) {
        z.child[0] = y.child[2];
        z.child[1] = y.child[3];
    }
    const std::uint64_t median = y.keys[1];
    y.count = 1;
    y.keys[1] = 0;
    y.keys[2] = 0;
    y.child[2] = 0;
    y.child[3] = 0;

    for (unsigned k = parent.count; k > i; --k) {
        parent.keys[k] = parent.keys[k - 1];
        parent.child[k + 1] = parent.child[k];
    }
    parent.keys[i] = median;
    parent.child[i + 1] = z.a;
    ++parent.count;

    writeNode(tb, y);
    writeNode(tb, z);
    writeNode(tb, parent);
}

bool
BTreeWorkload::insertNonFull(TraceBuilder &tb, Addr a, std::uint64_t key)
{
    Node n = readNode(tb, a);
    while (true) {
        // Position of the first key >= key.
        unsigned i = 0;
        while (i < n.count && key > n.keys[i])
            ++i;
        tb.branch(site(0), i < n.count, {});
        if (i < n.count && n.keys[i] == key)
            return false;   // duplicate

        if (n.leaf()) {
            for (unsigned k = n.count; k > i; --k)
                n.keys[k] = n.keys[k - 1];
            n.keys[i] = key;
            ++n.count;
            writeNode(tb, n);
            return true;
        }

        Node c = readNode(tb, n.child[i]);
        if (c.count == maxKeys) {
            splitChild(tb, n, i);
            if (key == n.keys[i])
                return false;   // the risen median is the key
            if (key > n.keys[i])
                ++i;
        }
        n = readNode(tb, n.child[i]);
        a = n.a;
    }
}

std::uint64_t
BTreeWorkload::maxKeyOf(TraceBuilder &tb, Addr a)
{
    Node n = readNode(tb, a);
    while (!n.leaf())
        n = readNode(tb, n.child[n.count]);
    return n.keys[n.count - 1];
}

std::uint64_t
BTreeWorkload::minKeyOf(TraceBuilder &tb, Addr a)
{
    Node n = readNode(tb, a);
    while (!n.leaf())
        n = readNode(tb, n.child[0]);
    return n.keys[0];
}

void
BTreeWorkload::fillChild(TraceBuilder &tb, Node &parent, unsigned i,
                         std::vector<Addr> &freed)
{
    // Child i has the minimum key count; give it one more key by
    // borrowing from a sibling or merging.
    Node c = readNode(tb, parent.child[i]);
    if (i > 0) {
        Node left = readNode(tb, parent.child[i - 1]);
        if (left.count >= 2) {
            // Rotate a key through the parent from the left sibling.
            for (unsigned k = c.count; k > 0; --k)
                c.keys[k] = c.keys[k - 1];
            if (!c.leaf()) {
                for (unsigned k = c.count + 1; k > 0; --k)
                    c.child[k] = c.child[k - 1];
                c.child[0] = left.child[left.count];
                left.child[left.count] = 0;
            }
            c.keys[0] = parent.keys[i - 1];
            ++c.count;
            parent.keys[i - 1] = left.keys[left.count - 1];
            left.keys[left.count - 1] = 0;
            --left.count;
            writeNode(tb, left);
            writeNode(tb, c);
            writeNode(tb, parent);
            return;
        }
    }
    if (i < parent.count) {
        Node right = readNode(tb, parent.child[i + 1]);
        if (right.count >= 2) {
            c.keys[c.count] = parent.keys[i];
            if (!c.leaf()) {
                c.child[c.count + 1] = right.child[0];
                for (unsigned k = 0; k < right.count; ++k)
                    right.child[k] = right.child[k + 1];
                right.child[right.count] = 0;
            }
            ++c.count;
            parent.keys[i] = right.keys[0];
            for (unsigned k = 1; k < right.count; ++k)
                right.keys[k - 1] = right.keys[k];
            right.keys[right.count - 1] = 0;
            --right.count;
            writeNode(tb, right);
            writeNode(tb, c);
            writeNode(tb, parent);
            return;
        }
    }

    // Merge with a sibling around the separating key.
    const unsigned li = i > 0 ? i - 1 : i;  // merge child[li], child[li+1]
    Node left = readNode(tb, parent.child[li]);
    Node right = readNode(tb, parent.child[li + 1]);
    left.keys[left.count] = parent.keys[li];
    for (unsigned k = 0; k < right.count; ++k)
        left.keys[left.count + 1 + k] = right.keys[k];
    if (!left.leaf()) {
        for (unsigned k = 0; k <= right.count; ++k)
            left.child[left.count + 1 + k] = right.child[k];
    }
    left.count += 1 + right.count;

    for (unsigned k = li; k + 1 < parent.count; ++k)
        parent.keys[k] = parent.keys[k + 1];
    for (unsigned k = li + 1; k < parent.count; ++k)
        parent.child[k] = parent.child[k + 1];
    parent.keys[parent.count - 1] = 0;
    parent.child[parent.count] = 0;
    --parent.count;

    writeNode(tb, left);
    writeNode(tb, parent);
    freed.push_back(right.a);
}

void
BTreeWorkload::deleteRec(TraceBuilder &tb, Addr a, std::uint64_t key,
                         std::vector<Addr> &freed)
{
    Node n = readNode(tb, a);
    unsigned i = 0;
    while (i < n.count && key > n.keys[i])
        ++i;
    const bool found = i < n.count && n.keys[i] == key;
    tb.branch(site(1), found, {});

    if (n.leaf()) {
        if (!found)
            return;
        for (unsigned k = i; k + 1 < n.count; ++k)
            n.keys[k] = n.keys[k + 1];
        n.keys[n.count - 1] = 0;
        --n.count;
        writeNode(tb, n);
        return;
    }

    if (found) {
        Node pred_child = readNode(tb, n.child[i]);
        Node succ_child = readNode(tb, n.child[i + 1]);
        if (pred_child.count >= 2) {
            const std::uint64_t pred = maxKeyOf(tb, pred_child.a);
            n.keys[i] = pred;
            writeNode(tb, n);
            deleteRec(tb, pred_child.a, pred, freed);
        } else if (succ_child.count >= 2) {
            const std::uint64_t succ = minKeyOf(tb, succ_child.a);
            n.keys[i] = succ;
            writeNode(tb, n);
            deleteRec(tb, succ_child.a, succ, freed);
        } else {
            // Refill the right child, then delete again here: after a
            // borrow the successor branch applies, after a merge the key
            // moved down into the merged child.
            fillChild(tb, n, i + 1, freed);
            deleteRec(tb, a, key, freed);
        }
        return;
    }

    // Descend; ensure the target child has at least 2 keys first.
    Node c = readNode(tb, n.child[i]);
    if (c.count < 2) {
        fillChild(tb, n, i, freed);
        n = readNode(tb, a);
        i = 0;
        while (i < n.count && key > n.keys[i])
            ++i;
        if (i < n.count && n.keys[i] == key) {
            // The key moved into this node during the merge.
            deleteRec(tb, a, key, freed);
            return;
        }
    }
    deleteRec(tb, n.child[i], key, freed);
}

void
BTreeWorkload::treeOp(unsigned thread, bool insert_only)
{
    TraceBuilder &tb = builder(thread);
    Random &r = rng(thread);
    const std::uint64_t key = r.nextBelow(keyRange());
    const unsigned t = static_cast<unsigned>(key % numTrees);
    const bool is_insert = insert_only || r.nextBool(0.5);
    const Addr root_ptr = _roots[t];

    // Preallocate enough nodes for a worst-case split chain.
    _pool.clear();
    _poolNext = 0;
    if (is_insert) {
        unsigned depth = 2;
        for (Addr n = _heap->read<std::uint64_t>(root_ptr); n != 0;
             n = _heap->read<std::uint64_t>(n + offChildren)) {
            ++depth;
        }
        for (unsigned k = 0; k < depth + 2; ++k)
            _pool.push_back(allocNode(thread, nodeBytes));
    }

    std::vector<Addr> freed;
    acquire(thread, _locks[t]);
    tb.beginTx();
    padPrologue(thread);
    if (is_insert)
        padAlloc(thread);
    else
        padFree(thread);

    auto mutate = [&]() {
        _poolNext = 0;
        freed.clear();
        const Value root = tb.load(root_ptr, 8);
        if (is_insert) {
            if (root.v == 0) {
                Node n;
                n.a = poolTake();
                n.count = 1;
                n.keys[0] = key;
                writeNode(tb, n);
                tb.store(root_ptr, 8, n.a);
                return;
            }
            Node rn = readNode(tb, root.v, root);
            Addr top = root.v;
            if (rn.count == maxKeys) {
                Node s;
                s.a = poolTake();
                s.count = 0;
                s.child[0] = root.v;
                splitChild(tb, s, 0);
                top = s.a;
                tb.store(root_ptr, 8, top);
            }
            insertNonFull(tb, top, key);
        } else {
            if (root.v == 0)
                return;
            deleteRec(tb, root.v, key, freed);
            // Shrink the root if it emptied out.
            Node rn = readNode(tb, root.v);
            if (rn.count == 0) {
                tb.store(root_ptr, 8, rn.child[0]);
                freed.push_back(root.v);
            }
        }
    };
    mutateWithConservativeLog(thread, mutate);

    tb.endTx();
    release(thread, _locks[t]);

    for (std::size_t k = _poolNext; k < _pool.size(); ++k)
        freeNode(thread, _pool[k], nodeBytes);
    for (Addr a : freed)
        freeNode(thread, a, nodeBytes);
    _pool.clear();
}

void
BTreeWorkload::doInitOp(unsigned thread)
{
    treeOp(thread, true);
}

void
BTreeWorkload::doOp(unsigned thread)
{
    treeOp(thread, false);
}

std::string
BTreeWorkload::serialize(const MemoryImage &image) const
{
    std::ostringstream os;
    for (unsigned t = 0; t < numTrees; ++t) {
        os << "t" << t << ":";
        std::function<void(Addr)> walk = [&](Addr a) {
            if (a == 0)
                return;
            const std::uint64_t count = image.read64(a + offCount);
            for (std::uint64_t i = 0; i < count; ++i) {
                walk(image.read64(a + offChildren + i * 8));
                os << " " << image.read64(a + offKeys + i * 8);
            }
            walk(image.read64(a + offChildren + count * 8));
        };
        walk(image.read64(_roots[t]));
        os << "\n";
    }
    return os.str();
}

std::string
BTreeWorkload::checkInvariants(const MemoryImage &image) const
{
    std::ostringstream err;
    for (unsigned t = 0; t < numTrees; ++t) {
        const Addr root = image.read64(_roots[t]);
        // Returns leaf depth, or -1 on violation.
        std::function<std::int64_t(Addr, std::uint64_t, std::uint64_t,
                                   bool)>
            check = [&](Addr a, std::uint64_t lo, std::uint64_t hi,
                        bool is_root) -> std::int64_t {
            const std::uint64_t count = image.read64(a + offCount);
            if (count > maxKeys || (!is_root && count < 1)) {
                err << "t" << t << ": bad key count " << count << "\n";
                return -1;
            }
            std::uint64_t prev = lo;
            for (std::uint64_t i = 0; i < count; ++i) {
                const std::uint64_t k =
                    image.read64(a + offKeys + i * 8);
                if (k < prev || k >= hi) {
                    err << "t" << t << ": key order violation at " << k
                        << "\n";
                    return -1;
                }
                prev = k + 1;
            }
            const Addr c0 = image.read64(a + offChildren);
            if (c0 == 0)
                return 1;   // leaf
            std::int64_t depth = -2;
            std::uint64_t child_lo = lo;
            for (std::uint64_t i = 0; i <= count; ++i) {
                const std::uint64_t child_hi =
                    i < count ? image.read64(a + offKeys + i * 8) : hi;
                const Addr c =
                    image.read64(a + offChildren + i * 8);
                if (c == 0) {
                    err << "t" << t << ": missing child\n";
                    return -1;
                }
                const std::int64_t d =
                    check(c, child_lo, child_hi, false);
                if (d < 0)
                    return -1;
                if (depth == -2)
                    depth = d;
                else if (d != depth) {
                    err << "t" << t << ": uneven leaf depth\n";
                    return -1;
                }
                child_lo = child_hi + 1;
            }
            return depth + 1;
        };
        if (root != 0)
            check(root, 0,
                  std::numeric_limits<std::uint64_t>::max() - 1, true);
    }
    return err.str();
}


WorkloadRegistration
bTreeWorkloadRegistration()
{
    return {WorkloadKind::BTree, "BT", "btree",
            "insert or delete nodes in 16 B-trees (Table 2)",
            "", true,
            [](PersistentHeap &heap, LogScheme scheme,
               const WorkloadParams &params,
               const WorkloadExtras &)
                -> std::unique_ptr<Workload> {
                return std::make_unique<BTreeWorkload>(heap, scheme, params);
            }};
}

} // namespace proteus
