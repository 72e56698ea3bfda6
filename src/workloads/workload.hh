/**
 * @file
 * Benchmark framework reproducing Table 2.
 *
 * A workload owns one TraceBuilder per simulated thread. setup() runs
 * the paper's InitOps functionally (no recording, the simulator's
 * fast-forward); generateTraces() then records SimOps per thread in a
 * fixed round-robin order, which both defines the functional
 * serialization and assigns lock tickets. Every doOp() call is exactly
 * one durable transaction.
 */

#ifndef PROTEUS_WORKLOADS_WORKLOAD_HH
#define PROTEUS_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "heap/persistent_heap.hh"
#include "sim/config.hh"
#include "sim/random.hh"
#include "trace/trace_builder.hh"
#include "wlgen/spec.hh"

namespace proteus {

/** Parameters common to every benchmark. */
struct WorkloadParams
{
    unsigned threads = 4;
    /** Divide Table 2 *timed* operation counts (SimOps) by this to keep
     *  runs laptop-sized; 1 reproduces the paper. */
    unsigned scale = 20;
    /** Divide Table 2 population counts (InitOps, and the SS array) by
     *  this. Population is functional-only and cheap, so the default
     *  keeps the paper's full working-set sizes — that is what makes
     *  operations NVM-latency-bound, as in the paper. */
    unsigned initScale = 1;
    std::uint64_t seed = 1;
    /** Per-thread circular log area (VA logging, Section 4.1). */
    std::uint64_t logAreaBytes = 1ull << 20;
};

/** Base class for the Table 2 benchmarks. */
class Workload
{
  public:
    Workload(PersistentHeap &heap, LogScheme scheme,
             const WorkloadParams &params);
    virtual ~Workload() = default;

    Workload &operator=(const Workload &) = delete;

    /** Allocate structures and run InitOps functionally. */
    void setup();

    /**
     * A copy of this workload's complete functional state — roots,
     * pools, free lists, RNGs, lock tickets, builder tx counters and
     * log cursors — bound to @p heap (normally a copy of heap()) and
     * to @p scheme. Population never reads the scheme, so a clone of a
     * workload set up once records exactly what a workload built and
     * set up under @p scheme would.
     */
    std::unique_ptr<Workload> clone(PersistentHeap &heap,
                                    LogScheme scheme) const;

    /** Record SimOps per thread (round-robin across threads). */
    void generateTraces();

    /**
     * Functionally execute the first @p ops recorded operations of
     * each thread in the same round-robin order (recovery replay on a
     * fresh instance). Must be called instead of generateTraces().
     */
    void replayOps(std::uint64_t ops_per_thread);

    unsigned threads() const { return _params.threads; }
    TraceBuilder &builder(unsigned t) { return _builders[t]; }
    const Trace &trace(unsigned t) const
    {
        return _builders[t].trace();
    }
    PersistentHeap &heap() { return *_heap; }
    const WorkloadParams &params() const { return _params; }

    /** Table 2 abbreviation, e.g. "QE". */
    virtual std::string name() const = 0;

    /** Per-thread InitOps / SimOps after scaling. */
    virtual std::uint64_t initOps() const = 0;
    virtual std::uint64_t simOps() const = 0;

    /**
     * Canonical textual serialization of the persistent structures as
     * read from @p image — used to compare a recovered NVM image with
     * a functional replay.
     */
    virtual std::string serialize(const MemoryImage &image) const = 0;

    /**
     * Structural invariant check against @p image (tree balance, list
     * integrity, ...). @return empty string if consistent, else a
     * description of the violation.
     */
    virtual std::string checkInvariants(const MemoryImage &image)
        const = 0;

  protected:
    /** Copies share nothing mutable but the heap, which clone() rebinds. */
    Workload(const Workload &) = default;

    /** A plain copy of the concrete workload (CloneableWorkload). */
    virtual std::unique_ptr<Workload> copy() const = 0;

    /** Allocate roots, locks, and initial contents (no recording). */
    virtual void allocateStructures() = 0;

    /** Populate during warmup; defaults to doOp. */
    virtual void doInitOp(unsigned thread) { doOp(thread); }

    /** Execute one operation (one durable transaction) on @p thread. */
    virtual void doOp(unsigned thread) = 0;

    /** Fair-ticket helper: acquire @p lock on @p thread's builder. */
    void acquire(unsigned thread, Addr lock);
    void release(unsigned thread, Addr lock);

    /**
     * Failure-safe node allocation (the paper assumes allocation needs
     * no undo logging): freed blocks quarantine on a per-thread free
     * list, so a block freed by an uncommitted transaction can never
     * be handed to another thread whose transaction might commit
     * first — the cross-thread reuse that would make one thread's undo
     * clobber another thread's committed data.
     */
    Addr allocNode(unsigned thread, std::size_t bytes);
    void freeNode(unsigned thread, Addr addr, std::size_t bytes);

    /**
     * Run @p mutate inside the already-open transaction. Under the
     * software schemes (recording), the mutation is first dry-run to
     * discover every granule it touches; all of them are conservatively
     * undo-logged (the paper's "logs all nodes that could be modified",
     * Section 5.2) before the recorded mutation executes. @p mutate
     * must be deterministic and must not allocate/free heap memory.
     */
    void mutateWithConservativeLog(unsigned thread,
                                   const std::function<void()> &mutate);

    Random &rng(unsigned thread) { return _rngs[thread]; }

    /// @name Runtime-cost model
    /// Real workloads spend most of an operation outside the persist
    /// path (lock fast path, allocation, hashing, call overhead).
    /// These helpers emit that work as pointer-chase loads + ALU ops;
    /// the magnitudes are calibrated so the Figure 6 PMEM+nolog
    /// speedup lands near the paper's 1.51x geomean.
    /// @{
    void padPrologue(unsigned t)
    {
        // Models the paper's per-operation harness work: reading the
        // op and key from an input file, dispatch, and the lock fast
        // path (Section 5.2).
        builder(t).workChaseCold(5);
        builder(t).workChase(60);
        builder(t).work(80);
    }
    void padAlloc(unsigned t)
    {
        builder(t).workChase(35);
        builder(t).work(40);
    }
    void padFree(unsigned t)
    {
        builder(t).workChase(18);
        builder(t).work(20);
    }
    void padHash(unsigned t) { builder(t).work(30); }
    /// @}

    /** Unique static branch-site id for predictor indexing. */
    std::uint32_t site(std::uint32_t local) const
    {
        return _siteBase + local;
    }

    PersistentHeap *_heap;
    LogScheme _scheme;
    WorkloadParams _params;

  private:
    std::vector<TraceBuilder> _builders;
    std::vector<Random> _rngs;
    std::vector<std::map<std::size_t, std::vector<Addr>>> _freeLists;
    std::map<Addr, std::uint64_t> _lockTickets;
    std::uint32_t _siteBase;
    bool _setupDone = false;
};

/** CRTP base that gives a concrete workload its copy(). */
template <class Derived>
class CloneableWorkload : public Workload
{
  protected:
    std::unique_ptr<Workload> copy() const override
    {
        return std::make_unique<Derived>(
            static_cast<const Derived &>(*this));
    }

  private:
    friend Derived;     // only Derived can derive from this base

    CloneableWorkload(PersistentHeap &heap, LogScheme scheme,
                      const WorkloadParams &params)
        : Workload(heap, scheme, params)
    {
    }
};

/** Known workloads, keyed by Table 2 abbreviation. */
enum class WorkloadKind
{
    Queue,      ///< QE
    HashMap,    ///< HM
    StringSwap, ///< SS
    AvlTree,    ///< AT
    BTree,      ///< BT
    RbTree,     ///< RT
    LinkedList, ///< Table 3 microbenchmark
    Generated,  ///< GEN: declarative synthetic workload (src/wlgen)
};

const char *toString(WorkloadKind kind);
WorkloadKind parseWorkload(const std::string &name);
std::vector<WorkloadKind> allPaperWorkloads();

/** Extra knobs for the Table 3 linked-list microbenchmark. */
struct LinkedListOptions
{
    unsigned elementsPerNode = 1024;
};

/** Workload-specific knobs beyond WorkloadParams; defaults are valid
 *  for every kind, so callers without special needs pass `{}`. */
struct WorkloadExtras
{
    LinkedListOptions ll;       ///< LinkedList only
    wlgen::GenSpec gen;         ///< Generated only
};

/** Build @p kind via the factory registry (see registry.hh); throws
 *  FatalError for an unregistered kind instead of returning null. */
std::unique_ptr<Workload>
makeWorkload(WorkloadKind kind, PersistentHeap &heap, LogScheme scheme,
             const WorkloadParams &params,
             const WorkloadExtras &extras = {});

} // namespace proteus

#endif // PROTEUS_WORKLOADS_WORKLOAD_HH
