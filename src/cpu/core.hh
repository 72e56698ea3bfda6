/**
 * @file
 * The out-of-order timing core.
 *
 * A five-wide Skylake-like pipeline (Table 1): fetch with a gshare
 * predictor, rename over a physical register file, a unified issue
 * queue with oldest-first select, load/store queues, a reorder buffer,
 * and a post-retirement store buffer. On top of the plain pipeline it
 * implements every persistence mechanism the paper evaluates:
 *
 *  - PMEM software logging: clwb enters the store buffer in order and
 *    writes dirty blocks to the WPQ; sfence stalls retirement until all
 *    stores and clwb acks have drained; pcommit additionally drains the
 *    WPQ (Section 2.1).
 *  - ATOM hardware logging: the first store to each cache block inside
 *    a transaction is held at retirement until the MC-side log entry is
 *    acknowledged (posted + source log optimizations, Section 5.1).
 *  - Proteus SSHL: log-load allocates a log register, log-flush
 *    allocates a LogQ entry at dispatch (stalling dispatch when full,
 *    Section 4.2), gets its log-to address in program order, sends the
 *    entry over the uncacheable path, and *retires as soon as it is
 *    sent* — the LogQ tracks the ack and holds back any store buffer
 *    release to the same 32B granule until then. The LLT filters
 *    repeated logging of the same granule within one transaction.
 *
 * For hardware schemes, data stores inside a transaction write through
 * to the memory controller (an automatic per-block flush after store
 * buffer release) so that all data updates are durable by tx-end,
 * enabling the flash-clear of Section 4.3.
 */

#ifndef PROTEUS_CPU_CORE_HH
#define PROTEUS_CPU_CORE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <set>
#include <unordered_map>
#include <vector>

#include "branch_predictor.hh"
#include "cache/hierarchy.hh"
#include "isa/trace.hh"
#include "lock_manager.hh"
#include "logging/llt.hh"
#include "logging/log_queue.hh"
#include "logging/tx_context.hh"
#include "memctrl/mem_ctrl.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "tx_block_set.hh"

namespace proteus {

/**
 * Commit-slot cycle attribution (a top-down / gem5-style CPI stack).
 * Every core cycle lands in exactly one bucket, so the buckets sum to
 * the core's total cycles by construction. "base" covers cycles that
 * retired work plus front-end fill and plain execution latency; the
 * remaining buckets name the resource the ROB head was blocked on.
 */
struct CpiStack
{
    std::uint64_t base = 0;             ///< retiring / fill / exec latency
    std::uint64_t robFull = 0;          ///< window full behind a long op
    std::uint64_t iqLsqFull = 0;        ///< IQ/LSQ/regs starved dispatch
    std::uint64_t branchRedirect = 0;   ///< ROB empty on a mispredict
    std::uint64_t persistStall = 0;     ///< fences, log acks, tx-end
    std::uint64_t wpqBackpressure = 0;  ///< store buffer / WPQ full
    std::uint64_t lockWait = 0;         ///< ROB head waiting on a lock

    std::uint64_t
    total() const
    {
        return base + robFull + iqLsqFull + branchRedirect +
               persistStall + wpqBackpressure + lockWait;
    }

    CpiStack &
    operator+=(const CpiStack &o)
    {
        base += o.base;
        robFull += o.robFull;
        iqLsqFull += o.iqLsqFull;
        branchRedirect += o.branchRedirect;
        persistStall += o.persistStall;
        wpqBackpressure += o.wpqBackpressure;
        lockWait += o.lockWait;
        return *this;
    }
};

/** One hardware thread executing a pre-decoded trace. */
class Core : public Ticked
{
  public:
    Core(Simulator &sim, const SystemConfig &cfg, CoreId id,
         const Trace &trace, CacheHierarchy &caches, MemCtrl &mc,
         LockManager &locks);

    void tick(Tick now) override;
    const std::string &componentName() const override { return _name; }

    /**
     * Quiescence protocol: busy whenever the last tick made progress,
     * retried a rejected cache access, or an execution callback landed
     * since; a pure-blocked core (fence/persist stall, log-ack wait,
     * lock wait, ROB empty awaiting a response, trace exhausted) sleeps
     * until the next event, except for the time-based branch-redirect
     * resume which is reported explicitly.
     */
    Tick nextWake(Tick now) override;
    /** Replay the last blocked tick's per-cycle stat bumps (cycle count,
     *  CPI bucket, stall counters) for each skipped cycle. */
    void accountSkipped(Tick from, Tick to) override;

    /** Bind the software-allocated Proteus log area (Section 4.1). */
    void bindLogArea(Addr start, Addr end);

    /** @return true once the whole trace has drained. */
    bool done() const;

    /** Transactions whose durability point has been reached, in order. */
    const std::vector<TxId> &committedTxs() const { return _committedTxs; }

    /** Cycle at which each committedTxs() entry became durable. */
    const std::vector<Tick> &commitCycles() const
    {
        return _commitCycles;
    }

    /** Enable the persist-ordering invariant checker (tests). */
    void setOrderingChecks(bool on) { _checkOrdering = on; }

    std::uint64_t retiredOps() const
    {
        return static_cast<std::uint64_t>(_retired.value());
    }
    /** Front-end (dispatch) stall cycles: the Figure 7 metric. */
    std::uint64_t frontendStallCycles() const
    {
        return static_cast<std::uint64_t>(_frontendStalls.value());
    }
    /** Per-bucket commit-slot cycle attribution; sums to cycles(). */
    CpiStack cpiStack() const;
    std::uint64_t cycles() const
    {
        return static_cast<std::uint64_t>(_cycles.value());
    }
    const LogLookupTable &llt() const { return _llt; }
    const LogQueue &logQueue() const { return _logQ; }

  private:
    /** In-flight instruction state. */
    struct DynInst
    {
        const MicroOp *mop = nullptr;
        std::uint64_t seq = 0;
        /** Program-order transaction at dispatch (0 = outside). */
        TxId txId = 0;
        std::int16_t physSrc0 = -1;
        std::int16_t physSrc1 = -1;
        std::int16_t physDst = -1;
        std::int16_t oldPhysDst = -1;
        bool inIq = false;
        bool issued = false;
        bool completed = false;
        bool lltHit = false;        ///< log-load/log-flush filtered
        bool predictedTaken = false;
        /** ATOM: 0 = not needed, 1 = log pending, 2 = log acked. */
        std::uint8_t atomLogState = 0;
        bool atomCommitDone = false;
        bool pcommitIssued = false;
        bool logSaveIssued = false;
        LogQueue::EntryId logQEntry = LogQueue::invalidEntry;
        /** Cycle the log record was created (LogQ allocate), for the
         *  flight recorder's creation-to-ack span. */
        Tick logCreatedAt = 0;
    };

    /** A post-retirement store buffer entry. */
    struct SbEntry
    {
        bool isFlush = false;       ///< clwb rather than a store
        Addr addr = invalidAddr;
        unsigned size = 0;
        std::uint64_t value = 0;
        std::uint64_t seq = 0;
        TxId tx = 0;
        bool persistent = false;
    };

    /** Why the ROB head could not retire this cycle. */
    enum class RetireBlock : unsigned char
    {
        None,           ///< retired, or ROB empty
        Exec,           ///< head still executing (latency-bound)
        StoreBuffer,    ///< head store blocked on a full store buffer
        Persist,        ///< fence / log ack / tx-end durability
        Lock,           ///< head lock-acquire not yet granted
    };

    /** Why dispatch stalled this cycle (for Exec-blocked attribution). */
    enum class DispatchBlock : unsigned char
    {
        None,
        Rob,
        IqLsqRegs,
        LogHw,
    };

    void fetchStage();
    void dispatchStage();
    void issueStage(Tick now);
    void retireStage(Tick now);
    void scanAtomWindow();
    void releaseStoreBuffer(Tick now);
    void releaseAutoFlushes();
    void accountCommitSlot(bool retired, Tick now);
    void emitLogQDepth();

    bool dispatchOne(const MicroOp &mop);
    void executeInst(DynInst &inst, Tick now);
    void completeInst(DynInst &inst);
    bool canRetire(DynInst &inst, Tick now);
    void doRetire(DynInst &inst, Tick now);
    bool srcsReady(const DynInst &inst) const;
    void setDstReady(DynInst &inst);
    bool forwardFromStores(Addr addr, unsigned size,
                           std::uint64_t seq) const;
    void markAutoFlush(Addr block);
    bool persistsDrained() const;
    void startAtomLog(DynInst &inst);
    void checkStoreOrdering(const SbEntry &entry) const;

    Simulator &_sim;
    SystemConfig _cfg;
    CoreId _id;
    std::string _name;
    const Trace &_trace;
    CacheHierarchy &_caches;
    MemCtrl &_mc;
    LockManager &_locks;
    LogScheme _scheme;
    bool _isHwScheme;
    bool _isProteus;
    bool _checkOrdering = true;

    /// @name Front end
    /// @{
    std::size_t _fetchIndex = 0;
    std::deque<const MicroOp *> _fetchQueue;
    std::deque<bool> _predictedTaken;   ///< parallel to _fetchQueue
    BranchPredictor _predictor;
    bool _fetchBlocked = false;
    Tick _fetchResumeAt = 0;
    /// @}

    /// @name Rename
    /// @{
    std::vector<std::int16_t> _renameMap;
    std::vector<std::int16_t> _freePhysRegs;
    std::vector<bool> _physReady;
    /// @}

    /// @name Back end
    /// @{
    std::deque<DynInst> _rob;
    std::vector<DynInst *> _iq;
    unsigned _loadsInFlight = 0;    ///< LoadQ occupancy
    unsigned _storesInFlight = 0;   ///< StoreQ occupancy
    std::uint64_t _nextSeq = 0;
    /// @}

    /// @name Store buffer and persistence tracking
    /// @{
    std::deque<SbEntry> _storeBuffer;
    unsigned _outstandingStores = 0;        ///< released, not yet in L1
    std::unordered_map<Addr, unsigned> _outstandingPerBlock;
    /** In-flight store 8B chunks for store-to-load forwarding. */
    std::unordered_map<Addr, unsigned> _storeAddrCount;
    unsigned _pendingFlushAcks = 0;         ///< clwb acks outstanding
    std::deque<Addr> _autoFlushQueue;       ///< HW write-through blocks
    std::set<Addr> _autoFlushPending;
    unsigned _autoFlushAcks = 0;
    /// @}

    /// @name Logging hardware (Figure 5)
    /// @{
    TxContext _txCtx;
    LogQueue _logQ;
    LogLookupTable _llt;
    unsigned _lrInUse = 0;
    bool _lastLogLoadWasHit = false;
    TxBlockSet _atomBlocks;     ///< per-tx log state per block (ATOM)
    unsigned _atomPendingLogs = 0;
    std::uint64_t _atomSeq = 0;
    TxId _retireTxId = 0;       ///< transaction live at retirement
    TxContext::Saved _savedCtx{};   ///< log-save destination
    /// @}

    std::vector<TxId> _committedTxs;
    std::vector<Tick> _commitCycles;    ///< parallel to _committedTxs

    /// @name Commit-slot attribution and event emission
    /// @{
    RetireBlock _headBlock = RetireBlock::None;
    DispatchBlock _dispatchBlock = DispatchBlock::None;
    bool _sbBlockedOnLog = false;   ///< store buffer held by log order
    /** The simulation event stream (null: nothing subscribes). */
    SimEventStream *_events = nullptr;
    /** Bucket the last accounted tick landed in, replayed (with the
     *  live _retireTxId) for skipped quiescent spans so per-tx slot
     *  attribution is bit-identical with cycle skipping on or off. */
    CommitBucket _lastSlotBucket = CommitBucket::Base;
    /// @}

    stats::Scalar _retired;
    stats::Scalar _cycles;
    stats::Scalar _frontendStalls;
    stats::Scalar _frontendStallRob;
    stats::Scalar _frontendStallRegs;
    stats::Scalar _frontendStallLsq;
    stats::Scalar _frontendStallLogHw;
    stats::Scalar _retireStallFence;
    stats::Scalar _retireStallAtom;
    stats::Scalar _retireStallTxEnd;
    stats::Scalar _sbOrderingStalls;
    stats::Scalar _committedTxStat;

    /** CPI-stack buckets; exactly one is incremented per cycle. */
    stats::Scalar _cpiBase;
    stats::Scalar _cpiRobFull;
    stats::Scalar _cpiIqLsqFull;
    stats::Scalar _cpiBranchRedirect;
    stats::Scalar _cpiPersistStall;
    stats::Scalar _cpiWpqBackpressure;
    stats::Scalar _cpiLockWait;

    /// @name Quiescence (cycle skipping)
    /// @{
    /** Every scalar a pure-blocked tick can bump: the cycle counter,
     *  the CPI buckets, and the per-cycle stall counters. Snapshotted
     *  at tick start so accountSkipped can replay the last tick's exact
     *  deltas for each skipped cycle. */
    static constexpr unsigned numPerCycleStats = 17;
    std::array<stats::Scalar *, numPerCycleStats> _perCycleStats{};
    std::array<double, numPerCycleStats> _preTickValues{};
    /** Last tick made progress or performed a side-effectful retry. */
    bool _tickBusy = true;
    /** An execution/ack callback mutated core state after the last
     *  tick (cleared at tick start). */
    bool _poked = false;
    /// @}
};

} // namespace proteus

#endif // PROTEUS_CPU_CORE_HH
