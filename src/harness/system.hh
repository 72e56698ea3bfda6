/**
 * @file
 * FullSystem: one complete simulated machine — workload, traces,
 * cores, caches, memory controller, NVM — wired per a SystemConfig.
 * This is the top-level object examples, tests, and benches drive.
 *
 * Trace state (per-thread micro-op streams, the initial heap image,
 * log-area bounds) lives in a TraceBundle, and the bundle's key is the
 * machine's identity: the config's logging scheme, persistency domain
 * (ADR unless PMEM+pcommit), core count (one per thread) and log-area
 * size are taken from it, whatever the caller's config said, and the
 * result must pass SystemConfig::validate before anything is wired.
 * The bundle constructor wires the machine from a prebuilt shared
 * bundle (TraceCache or a .ptrace file) without re-executing anything;
 * the convenience constructor builds a private bundle first. Results
 * are bit-identical either way because both run the same wiring code
 * over the same bundle contents.
 */

#ifndef PROTEUS_HARNESS_SYSTEM_HH
#define PROTEUS_HARNESS_SYSTEM_HH

#include <memory>
#include <vector>

#include "analysis/persist_checker.hh"
#include "analysis/stream_mutator.hh"
#include "cache/hierarchy.hh"
#include "cpu/core.hh"
#include "cpu/lock_manager.hh"
#include "harness/trace_bundle.hh"
#include "heap/persistent_heap.hh"
#include "memctrl/mem_ctrl.hh"
#include "obs/trace_event_recorder.hh"
#include "obs/tx_tracker.hh"
#include "sim/config.hh"
#include "sim/interval_stats.hh"
#include "sim/sim_event.hh"
#include "sim/simulator.hh"
#include "sim/trace_events.hh"
#include "workloads/workload.hh"

namespace proteus {

/** Aggregate results of one simulation run. */
struct RunResult
{
    bool finished = false;      ///< all traces drained before the limit
    Tick cycles = 0;
    std::uint64_t retiredOps = 0;
    std::uint64_t nvmWrites = 0;
    std::uint64_t nvmReads = 0;
    std::uint64_t frontendStallCycles = 0;
    std::uint64_t committedTxs = 0;
    std::uint64_t logWritesDropped = 0;
    double lltMissRate = 0;     ///< aggregate over all cores
    CpiStack cpi;               ///< commit-slot cycles, summed over cores
    /** Flight-recorder summary (null unless the tx recorder ran);
     *  shared_ptr keeps RunResult cheap to copy through the runner. */
    std::shared_ptr<obs::TxStatsSummary> txStats;
    /** Media fault/ECC/retry counters (enabled=false when fault
     *  injection is off, and then omitted from every serialization). */
    faults::FaultStatsSummary faultStats;
    /** Persistency-order checker verdict (null unless analysis.check). */
    std::shared_ptr<analysis::CheckOutcome> check;
};

/** A fully wired simulated machine executing one workload. */
class FullSystem
{
  public:
    /**
     * Build a private bundle (TraceBundle::build) of @p kind under
     * cfg.logging.scheme and wire the machine from it, using its heap
     * in place. A convenience for tests, examples and
     * micro-benchmarks; the front ends build a key with runKey.
     */
    FullSystem(const SystemConfig &cfg, WorkloadKind kind,
               const WorkloadParams &params,
               const WorkloadExtras &extras = {});

    /**
     * Wire the machine from a prebuilt bundle (TraceCache::get or
     * loadTraceBundle). The bundle stays immutable: this system gets a
     * private copy of the heap images, so any number of systems —
     * across schemes' timing configs, crash points, or parallel-runner
     * workers — can share one bundle.
     */
    FullSystem(const SystemConfig &cfg,
               std::shared_ptr<const TraceBundle> bundle);

    ~FullSystem();

    /** Run until every core drains (or @p max_cycles elapse). */
    RunResult run(Tick max_cycles = 2'000'000'000ull);

    /** Run exactly @p cycles more cycles (crash-injection stepping). */
    void runFor(Tick cycles);

    /** @return true once every core has drained its trace. */
    bool done() const;

    /** Collect the current aggregate counters. */
    RunResult snapshotResult() const;

    /**
     * The crash image: NVM contents plus, under ADR, the battery-backed
     * WPQ/LPQ contents (Section 2.1). The parameterless form follows
     * the configured persistency-domain boundary; the explicit form
     * materializes either semantics (crash injection compares both).
     */
    MemoryImage crashImage() const;
    MemoryImage crashImage(bool with_adr) const;

    /**
     * Destructive crash: drop every pending event so the machine can
     * make no further progress (power is gone; in-flight NVM accesses,
     * fills, and log writes never complete). Snapshot the crash image
     * before or after — crashImage() itself is non-destructive.
     */
    void crashNow();

    Simulator &sim() { return *_sim; }
    PersistentHeap &heap() { return *_heap; }

    /** The shared trace state this machine executes. */
    const TraceBundle &bundle() const { return *_bundle; }

    /** @return false for bundles loaded from a .ptrace file, which
     *  carry no Workload object (workload() would fatal). */
    bool hasWorkload() const { return _bundle->workload != nullptr; }
    Workload &workload();

    MemCtrl &mc() { return *_mc; }
    CacheHierarchy &caches() { return *_caches; }
    Core &core(unsigned i) { return *_cores[i]; }
    unsigned coreCount() const
    {
        return static_cast<unsigned>(_cores.size());
    }
    const SystemConfig &config() const { return _cfg; }
    /** Trace sink (null unless obs.traceEvents is set). */
    TraceEventSink *traceSink() { return _traceSink.get(); }
    /** Interval sampler (null unless obs.statsInterval > 0). */
    IntervalStatsSampler *sampler() { return _sampler.get(); }
    /** Transaction flight recorder (null unless obs.txStats/txTrack). */
    obs::TxTracker *txTracker() { return _txTracker.get(); }
    /** Persistency-order checker (null unless analysis.check). */
    analysis::PersistChecker *checker() { return _checker.get(); }
    /** Stream mutator (null unless analysis.mutateRule targets one). */
    analysis::StreamMutator *mutator() { return _mutator.get(); }

    /** Flush observability outputs (idempotent; run() also does this). */
    void finishObservability();

    /** ATOM per-core log area bounds (commit record + entries). */
    std::pair<Addr, Addr> atomLogArea(unsigned core) const
    {
        return _atomAreas[core];
    }

  private:
    /** Build every timing component from _cfg, _heap, and _bundle. */
    void wire();

    SystemConfig _cfg;
    std::shared_ptr<const TraceBundle> _bundle;
    std::shared_ptr<PersistentHeap> _heap;  ///< this machine's mutable heap
    std::unique_ptr<Simulator> _sim;
    /** The event stream's fan-out; attached to the Simulator only when
     *  some subscriber below exists. */
    SimEventStream _events;
    std::unique_ptr<TraceEventSink> _traceSink;
    std::unique_ptr<obs::TraceEventRecorder> _traceRecorder;
    std::unique_ptr<IntervalStatsSampler> _sampler;
    std::unique_ptr<obs::TxTracker> _txTracker;
    std::unique_ptr<analysis::PersistChecker> _checker;
    std::unique_ptr<analysis::StreamMutator> _mutator;
    std::unique_ptr<MemCtrl> _mc;
    std::unique_ptr<CacheHierarchy> _caches;
    std::unique_ptr<LockManager> _locks;
    std::vector<std::unique_ptr<Core>> _cores;
    std::vector<std::pair<Addr, Addr>> _atomAreas;
};

} // namespace proteus

#endif // PROTEUS_HARNESS_SYSTEM_HH
