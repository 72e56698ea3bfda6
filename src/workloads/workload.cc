#include "workload.hh"

#include "sim/logging.hh"

namespace proteus {

namespace {

std::uint32_t
siteBaseFor(const std::string &name)
{
    // Small stable hash so each workload's branch sites are distinct.
    std::uint32_t h = 2166136261u;
    for (char c : name)
        h = (h ^ static_cast<std::uint8_t>(c)) * 16777619u;
    return (h % 4096u) * 4096u;
}

} // namespace

Workload::Workload(PersistentHeap &heap, LogScheme scheme,
                   const WorkloadParams &params)
    : _heap(&heap), _scheme(scheme), _params(params), _siteBase(0)
{
    if (params.threads == 0 || params.threads > 32)
        fatal("Workload: thread count must be in [1, 32]");
    if (params.scale == 0 || params.initScale == 0)
        fatal("Workload: scale factors must be nonzero");
    _builders.reserve(params.threads);
    for (unsigned t = 0; t < params.threads; ++t) {
        _builders.emplace_back(heap, scheme, static_cast<CoreId>(t));
        _rngs.emplace_back(params.seed * 0x9e3779b9ull + t * 7919ull +
                           1);
        const Addr area = heap.allocLogArea(params.logAreaBytes);
        _builders.back().setLogArea(area, area + params.logAreaBytes);
    }
    _freeLists.resize(params.threads);
}

std::unique_ptr<Workload>
Workload::clone(PersistentHeap &heap, LogScheme scheme) const
{
    std::unique_ptr<Workload> wl = copy();
    wl->_heap = &heap;
    wl->_scheme = scheme;
    for (TraceBuilder &b : wl->_builders)
        b.rebind(heap, scheme);
    return wl;
}

void
Workload::setup()
{
    if (_setupDone)
        panic("Workload::setup called twice");
    _siteBase = siteBaseFor(name());
    allocateStructures();
    const std::uint64_t init = initOps();
    for (std::uint64_t i = 0; i < init; ++i) {
        for (unsigned t = 0; t < _params.threads; ++t)
            doInitOp(t);
    }
    _setupDone = true;
}

void
Workload::generateTraces()
{
    if (!_setupDone)
        panic("Workload::generateTraces before setup");
    for (TraceBuilder &b : _builders)
        b.setRecording(true);
    const std::uint64_t ops = simOps();
    for (std::uint64_t i = 0; i < ops; ++i) {
        for (unsigned t = 0; t < _params.threads; ++t)
            doOp(t);
    }
    for (TraceBuilder &b : _builders)
        b.setRecording(false);
}

void
Workload::replayOps(std::uint64_t ops_per_thread)
{
    if (!_setupDone)
        panic("Workload::replayOps before setup");
    for (std::uint64_t i = 0; i < ops_per_thread; ++i) {
        for (unsigned t = 0; t < _params.threads; ++t)
            doOp(t);
    }
}

Addr
Workload::allocNode(unsigned thread, std::size_t bytes)
{
    auto &bins = _freeLists[thread];
    auto it = bins.find(bytes);
    if (it != bins.end() && !it->second.empty()) {
        const Addr a = it->second.back();
        it->second.pop_back();
        return a;
    }
    return _heap->alloc(bytes, blockSize);
}

void
Workload::freeNode(unsigned thread, Addr addr, std::size_t bytes)
{
    _freeLists[thread][bytes].push_back(addr);
}

void
Workload::acquire(unsigned thread, Addr lock)
{
    TraceBuilder &b = builder(thread);
    if (b.recording())
        b.lockAcquire(lock, _lockTickets[lock]++);
}

void
Workload::release(unsigned thread, Addr lock)
{
    TraceBuilder &b = builder(thread);
    if (b.recording())
        b.lockRelease(lock);
}

void
Workload::mutateWithConservativeLog(
    unsigned thread, const std::function<void()> &mutate)
{
    TraceBuilder &tb = builder(thread);
    const bool conservative_sw =
        tb.recording() && (_scheme == LogScheme::PMEM ||
                           _scheme == LogScheme::PMEMPCommit);
    if (conservative_sw) {
        const auto touched = tb.collectTouched(mutate);
        for (Addr g : touched.readGranules) {
            if (PersistentHeap::isPersistent(g) &&
                !PersistentHeap::isLogArea(g)) {
                tb.declareLogged(g, logDataSize);
            }
        }
        for (Addr g : touched.writtenGranules) {
            if (PersistentHeap::isPersistent(g) &&
                !PersistentHeap::isLogArea(g)) {
                tb.declareLogged(g, logDataSize);
            }
        }
    }
    mutate();
}

// toString / parseWorkload / allPaperWorkloads live in factory.cc,
// implemented over the workload registry (registry.hh).

} // namespace proteus
