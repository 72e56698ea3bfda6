#include "trace_bundle.hh"

#include <sstream>

#include "sim/logging.hh"

namespace proteus {

namespace {

inline void
hashMix(std::size_t &h, std::uint64_t v)
{
    // splitmix64-style avalanche, folded into the running hash.
    v ^= h + 0x9e3779b97f4a7c15ull + (v << 6) + (v >> 2);
    v *= 0xbf58476d1ce4e5b9ull;
    v ^= v >> 27;
    h = static_cast<std::size_t>(v);
}

} // namespace

bool
TraceBundleKey::operator==(const TraceBundleKey &o) const
{
    return kind == o.kind && scheme == o.scheme &&
           params.threads == o.params.threads &&
           params.scale == o.params.scale &&
           params.initScale == o.params.initScale &&
           params.seed == o.params.seed &&
           params.logAreaBytes == o.params.logAreaBytes &&
           llOpts.elementsPerNode == o.llOpts.elementsPerNode &&
           (kind != WorkloadKind::Generated || gen == o.gen);
}

std::size_t
TraceBundleKey::hash() const
{
    std::size_t h = 0;
    hashMix(h, static_cast<std::uint64_t>(kind));
    hashMix(h, static_cast<std::uint64_t>(scheme));
    hashMix(h, params.threads);
    hashMix(h, params.scale);
    hashMix(h, params.initScale);
    hashMix(h, params.seed);
    hashMix(h, params.logAreaBytes);
    hashMix(h, llOpts.elementsPerNode);
    if (kind == WorkloadKind::Generated)
        hashMix(h, gen.hash());
    return h;
}

std::string
TraceBundleKey::describe() const
{
    std::ostringstream os;
    os << toString(kind) << "/" << toString(scheme) << " t"
       << params.threads << " scale" << params.scale << " init"
       << params.initScale << " seed" << params.seed;
    if (kind == WorkloadKind::LinkedList)
        os << " epn" << llOpts.elementsPerNode;
    if (kind == WorkloadKind::Generated)
        os << " [" << gen.canonical() << "]";
    return os.str();
}

TraceBundleKey
TraceBundleKey::populationKey() const
{
    TraceBundleKey k = *this;
    k.scheme = LogScheme::Proteus;
    return k;
}

std::shared_ptr<const PopulatedState>
PopulatedState::build(const TraceBundleKey &key)
{
    auto state = std::make_shared<PopulatedState>();
    state->key = key.populationKey();
    state->_workload =
        makeWorkload(state->key.kind, state->_heap, state->key.scheme,
                     state->key.params, state->key.extras());
    // Populate (InitOps), then fast-forward the NVM image.
    state->_workload->setup();
    state->_heap.syncNvmToVolatile();
    return state;
}

PopulatedState::Instance
PopulatedState::instantiate(LogScheme scheme) const
{
    Instance copy;
    copy.heap = std::make_shared<PersistentHeap>(_heap);
    copy.workload = _workload->clone(*copy.heap, scheme);
    return copy;
}

std::shared_ptr<TraceBundle>
TraceBundle::build(const TraceBundleKey &key,
                   TraceWriteObserver *extra_observer, bool want_history)
{
    return record(*PopulatedState::build(key), key.scheme,
                  extra_observer, want_history);
}

std::shared_ptr<TraceBundle>
TraceBundle::record(const PopulatedState &state, LogScheme scheme,
                    TraceWriteObserver *extra_observer, bool want_history)
{
    auto bundle = std::make_shared<TraceBundle>();
    bundle->key = state.key;
    bundle->key.scheme = scheme;
    PopulatedState::Instance copy = state.instantiate(scheme);
    bundle->heap = std::move(copy.heap);
    bundle->workload = std::move(copy.workload);

    auto history =
        want_history ? std::make_shared<WriteHistory>() : nullptr;
    TeeWriteObserver tee(history.get(), extra_observer);
    const bool observe = history || extra_observer;
    const unsigned threads = bundle->key.params.threads;
    if (observe) {
        for (unsigned t = 0; t < threads; ++t)
            bundle->workload->builder(t).setWriteObserver(&tee);
    }
    bundle->workload->generateTraces();
    if (observe) {
        for (unsigned t = 0; t < threads; ++t)
            bundle->workload->builder(t).setWriteObserver(nullptr);
    }
    bundle->history = std::move(history);

    bundle->threads.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        TraceBuilder &tb = bundle->workload->builder(t);
        ThreadTrace tt;
        tt.trace = tb.takeTrace();
        tt.logStart = tb.logAreaStart();
        tt.logEnd = tb.logAreaEnd();
        tt.logFlag = tb.logFlagAddr();
        tt.txCount = tb.txCount();
        bundle->threads.push_back(std::move(tt));
    }
    bundle->computeLockMap();
    return bundle;
}

void
TraceBundle::computeLockMap()
{
    lockMap.clear();
    for (const ThreadTrace &tt : threads) {
        for (std::size_t i = 0; i < tt.trace.size(); ++i) {
            const MicroOp &op = tt.trace.op(i);
            if (op.op == Op::LockAcquire)
                ++lockMap[op.addr];
        }
    }
}

std::uint64_t
TraceBundle::totalOps() const
{
    std::uint64_t n = 0;
    for (const ThreadTrace &tt : threads)
        n += tt.trace.size();
    return n;
}

std::uint64_t
TraceBundle::totalTxs() const
{
    std::uint64_t n = 0;
    for (const ThreadTrace &tt : threads)
        n += tt.txCount;
    return n;
}

std::uint64_t
TraceBundle::totalPayloads() const
{
    std::uint64_t n = 0;
    for (const ThreadTrace &tt : threads)
        n += tt.trace.payloadCount();
    return n;
}

} // namespace proteus
