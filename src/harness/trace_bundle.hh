/**
 * @file
 * Prebuilt, immutable trace state shared across FullSystem instances.
 *
 * Building a FullSystem used to re-execute the functional workload —
 * InitOps population plus SimOps recording — on every construction,
 * even though the result never depends on the timing configuration.
 * That work splits in two:
 *
 *  - A PopulatedState is the post-setup() heap plus the workload's own
 *    state. Population never reads the logging scheme, so one state
 *    serves every scheme: it depends only on (workload kind, params,
 *    linked-list options, generated-workload spec).
 *  - A TraceBundle is one scheme's recording: a clone of the state,
 *    rebound to the scheme, records the per-thread micro-op traces,
 *    log-area bounds and (optionally) the oracle's write history.
 *
 * Any number of FullSystems can be wired from one bundle, concurrently,
 * each with its own copy of the heap images. Every copy — state to
 * bundle, bundle to machine — shares untouched pages copy-on-write
 * (MemoryImage), so it costs a pointer per page, not the page.
 *
 * Bundles come from three places:
 *  - TraceCache::get() records one per key from a PopulatedState it
 *    also caches, and shares both process-wide; every harness run
 *    (proteus-bench batches, proteus-check, crashtest)
 *    takes its bundle here,
 *  - build() records a private one, through the same PopulatedState
 *    and record() code: FullSystem's convenience constructor (tests,
 *    examples, one-off runs) and tools/proteus-trace use it,
 *  - loadTraceBundle() deserializes one from a .ptrace file recorded
 *    by tools/proteus-trace (such bundles carry no Workload object, so
 *    they can run and be measured but not invariant-checked).
 */

#ifndef PROTEUS_HARNESS_TRACE_BUNDLE_HH
#define PROTEUS_HARNESS_TRACE_BUNDLE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "heap/persistent_heap.hh"
#include "isa/trace.hh"
#include "sim/config.hh"
#include "trace/write_history.hh"
#include "workloads/workload.hh"

namespace proteus {

/** Everything trace generation depends on; the cache/file identity. */
struct TraceBundleKey
{
    WorkloadKind kind = WorkloadKind::Queue;
    LogScheme scheme = LogScheme::Proteus;
    WorkloadParams params;
    LinkedListOptions llOpts;
    wlgen::GenSpec gen;

    WorkloadExtras extras() const { return {llOpts, gen}; }

    /** This key with the scheme set to a fixed placeholder: the
     *  identity of the scheme-independent PopulatedState. */
    TraceBundleKey populationKey() const;

    bool operator==(const TraceBundleKey &o) const;
    std::size_t hash() const;

    /** e.g. "QE/Proteus t4 scale20 init1 seed1" (labels, stats). */
    std::string describe() const;
};

/**
 * The post-setup() state of one workload: its heap, with the NVM image
 * fast-forwarded to the volatile one, and the workload that populated
 * it. Immutable once built; instantiate() hands out private copies.
 */
class PopulatedState
{
  public:
    /** The populated key (populationKey(): the scheme is a placeholder). */
    TraceBundleKey key;

    /** Construct the workload and run its InitOps. */
    static std::shared_ptr<const PopulatedState>
    build(const TraceBundleKey &key);

    /** A private mutable copy: the heap shares pages copy-on-write. */
    struct Instance
    {
        std::shared_ptr<PersistentHeap> heap;
        std::unique_ptr<Workload> workload;     ///< bound to heap
    };

    /** A copy rebound to @p scheme, ready to record or replay. */
    Instance instantiate(LogScheme scheme) const;

    const PersistentHeap &heap() const { return _heap; }
    const Workload &workload() const { return *_workload; }

    PopulatedState() = default;
    PopulatedState(const PopulatedState &) = delete;
    PopulatedState &operator=(const PopulatedState &) = delete;

  private:
    PersistentHeap _heap;
    std::unique_ptr<Workload> _workload;    ///< bound to _heap
};

/** Immutable product of one functional workload execution. */
class TraceBundle
{
  public:
    /** One simulated thread's share of the bundle. */
    struct ThreadTrace
    {
        Trace trace;
        Addr logStart = invalidAddr;    ///< circular log area bounds
        Addr logEnd = invalidAddr;
        Addr logFlag = invalidAddr;     ///< software logFlag word
        std::uint64_t txCount = 0;      ///< transactions recorded
    };

    TraceBundleKey key;

    /**
     * Functional heap state at the point timing would start: the NVM
     * image is the post-setup (fast-forwarded) durable state, the
     * volatile image the post-recording final state, and the allocator
     * frontiers are live so wiring can still carve ATOM log areas.
     * FullSystems wired from a shared bundle copy this heap; they never
     * mutate it in place.
     */
    std::shared_ptr<PersistentHeap> heap;

    /**
     * The workload that produced the traces (null for bundles loaded
     * from a .ptrace file). Shared FullSystems use it only through
     * const-safe entry points: serialize/checkInvariants against an
     * explicit image, and the per-thread log-area accessors.
     */
    std::shared_ptr<Workload> workload;

    std::vector<ThreadTrace> threads;

    /**
     * The recorded observer stream (null unless requested at build or
     * present in the loaded file). Replaying it into a fresh
     * CommitOracle is equivalent to attaching the oracle during trace
     * generation.
     */
    std::shared_ptr<const WriteHistory> history;

    /** Lock address -> LockAcquire count, derived from the traces
     *  (the .ptrace lock-map section; also a cheap integrity check). */
    std::map<Addr, std::uint64_t> lockMap;

    /**
     * Populate a private PopulatedState for @p key and record from it.
     * @p want_history also records the replayable WriteHistory.
     */
    static std::shared_ptr<TraceBundle>
    build(const TraceBundleKey &key, bool want_history = false);

    /** Record @p scheme's traces from a copy of @p state; @p state is
     *  left untouched. History as for build(). */
    static std::shared_ptr<TraceBundle>
    record(const PopulatedState &state, LogScheme scheme,
           bool want_history = false);

    /** Recompute lockMap from the traces (build and load both use it). */
    void computeLockMap();

    /// @name Aggregates (info output, tests)
    /// @{
    std::uint64_t totalOps() const;
    std::uint64_t totalTxs() const;
    std::uint64_t totalPayloads() const;
    /// @}
};

} // namespace proteus

#endif // PROTEUS_HARNESS_TRACE_BUNDLE_HH
