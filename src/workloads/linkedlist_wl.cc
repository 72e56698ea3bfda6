#include "linkedlist_wl.hh"

#include "registry.hh"

#include <sstream>

#include "sim/logging.hh"

namespace proteus {

LinkedListWorkload::LinkedListWorkload(PersistentHeap &heap,
                                       LogScheme scheme,
                                       const WorkloadParams &params,
                                       const LinkedListOptions &opts)
    : CloneableWorkload(heap, scheme, params), _elements(opts.elementsPerNode)
{
    if (_elements == 0)
        fatal("LinkedListWorkload: need at least one element per node");
}

void
LinkedListWorkload::allocateStructures()
{
    for (unsigned t = 0; t < _params.threads; ++t) {
        Addr head = 0;
        for (unsigned n = 0; n < nodesPerList; ++n) {
            const Addr node = _heap->alloc(nodeBytes(), blockSize);
            _heap->write<std::uint64_t>(node + 0, head);
            _heap->write<std::uint64_t>(node + 8, 0);   // version
            for (unsigned e = 0; e < _elements; ++e)
                _heap->write<std::uint64_t>(node + 16 + e * 8, e);
            head = node;
        }
        _listHeads.push_back(head);
        _cursors.push_back(head);
        _locks.push_back(_heap->allocVolatile(blockSize, blockSize));
    }
}

void
LinkedListWorkload::doOp(unsigned thread)
{
    TraceBuilder &tb = builder(thread);

    // Advance the cursor (pointer chase), wrapping to the head.
    Addr node = _cursors[thread];
    acquire(thread, _locks[thread]);
    tb.beginTx();
    padPrologue(thread);

    const Value next = tb.load(node + 0, 8);
    tb.branch(site(0), next.v != 0, next);
    _cursors[thread] = next.v != 0 ? next.v : _listHeads[thread];

    const Value version = tb.load(node + 8, 8);
    const std::uint64_t new_version = version.v + 1;

    // The whole node is modified: one large transaction.
    tb.declareLogged(node, static_cast<unsigned>(nodeBytes()));
    tb.store(node + 8, 8, new_version, version);
    for (unsigned e = 0; e < _elements; ++e) {
        // Element value is a function of the version so torn updates
        // are detectable.
        tb.store(node + 16 + e * 8, 8, new_version * 1000 + e);
    }

    tb.endTx();
    release(thread, _locks[thread]);
}

std::string
LinkedListWorkload::serialize(const MemoryImage &image) const
{
    std::ostringstream os;
    for (unsigned t = 0; t < _params.threads; ++t) {
        os << "list" << t << ":";
        Addr node = _listHeads[t];
        unsigned walked = 0;
        while (node != 0 && walked <= nodesPerList) {
            os << " v" << image.read64(node + 8);
            node = image.read64(node + 0);
            ++walked;
        }
        os << "\n";
    }
    return os.str();
}

std::string
LinkedListWorkload::checkInvariants(const MemoryImage &image) const
{
    std::ostringstream err;
    for (unsigned t = 0; t < _params.threads; ++t) {
        Addr node = _listHeads[t];
        unsigned idx = 0;
        while (node != 0 && idx <= nodesPerList) {
            const std::uint64_t version = image.read64(node + 8);
            for (unsigned e = 0; e < _elements; ++e) {
                const std::uint64_t v =
                    image.read64(node + 16 + e * 8);
                const std::uint64_t expect =
                    version == 0 ? e : version * 1000 + e;
                if (v != expect) {
                    err << "list" << t << " node" << idx
                        << ": torn element " << e << " (" << v
                        << " != " << expect << ")\n";
                    break;
                }
            }
            node = image.read64(node + 0);
            ++idx;
        }
    }
    return err.str();
}


WorkloadRegistration
linkedListWorkloadRegistration()
{
    return {WorkloadKind::LinkedList, "LL", "linkedlist",
            "Table 3 microbenchmark: large variable-sized transactions",
            "elementsPerNode (WorkloadExtras.ll; Table 3 bench sweeps it)", false,
            [](PersistentHeap &heap, LogScheme scheme,
               const WorkloadParams &params,
               const WorkloadExtras &extras)
                -> std::unique_ptr<Workload> {
                return std::make_unique<LinkedListWorkload>(heap, scheme, params,
                                                          extras.ll);
            }};
}

} // namespace proteus
