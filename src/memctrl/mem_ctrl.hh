/**
 * @file
 * The memory controller: read queue, Write Pending Queue (WPQ), and the
 * Proteus Log Pending Queue (LPQ) of Section 4.3.
 *
 * With ADR (default) the WPQ and LPQ are battery-backed and inside the
 * persistency domain: a write is durable — and acknowledged — the moment
 * it is accepted. The arbiter prioritizes reads over regular writes over
 * log writes; log writes are kept in the LPQ as long as possible so that
 * a tx-end can flash-clear them before they are ever written to NVMM
 * (log write removal). The controller also implements ATOM's MC-side
 * posted/source log creation and hardware log truncation for the
 * baseline comparison.
 */

#ifndef PROTEUS_MEMCTRL_MEM_CTRL_HH
#define PROTEUS_MEMCTRL_MEM_CTRL_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dram/nvm_timing.hh"
#include "faults/fault_model.hh"
#include "heap/memory_image.hh"
#include "logging/log_record.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace proteus {

/** Kinds of writes arriving at the controller. */
enum class WriteKind : std::uint8_t
{
    Data,       ///< regular write-back / clwb flush
    Log,        ///< Proteus log-flush (routed to the LPQ)
    AtomLog,    ///< ATOM hardware log entry (routed to the WPQ)
};

/** A 64B write presented to the controller. */
struct WriteRequest
{
    Addr addr = invalidAddr;            ///< block-aligned destination
    WriteKind kind = WriteKind::Data;
    CoreId core = 0;
    TxId txId = 0;
    std::array<std::uint8_t, blockSize> data{};
};

/** The memory controller; ticks once per CPU cycle. */
class MemCtrl : public Ticked
{
  public:
    MemCtrl(Simulator &sim, const SystemConfig &cfg, MemoryImage &nvm);

    void tick(Tick now) override;
    const std::string &componentName() const override { return _name; }

    /**
     * Quiescence protocol: busy while the last tick made progress or a
     * request arrived since; otherwise idle until the earliest bank
     * ready time that can change a pick (a write queue's PickMemo, or
     * a scan of its entries when the memo no longer holds) or an
     * aged-write pressure threshold — everything else the arbiter
     * reacts to changes only via scheduled events, which the kernel
     * never skips past.
     */
    Tick nextWake(Tick now) override;
    /** Replay per-cycle occupancy samples and arbiter-attempt counters
     *  for skipped cycles. */
    void accountSkipped(Tick from, Tick to) override;

    /// @name Read path
    /// @{
    bool canAcceptRead() const;
    /** Enqueue a block read; @p on_complete fires when data returns.
     *  Reads check the WPQ (not the LPQ) for forwarding. */
    void read(Addr addr, std::function<void()> on_complete);
    /// @}

    /// @name Write path
    /// @{
    bool canAcceptWrite(WriteKind kind) const;
    /**
     * Enqueue a write. The acknowledgment (completion for clwb /
     * log-flush purposes) is implicit: acceptance *is* the ack, matching
     * ADR semantics; callers must check canAcceptWrite first.
     */
    void write(const WriteRequest &req);
    /// @}

    /// @name Proteus log write removal (Section 4.3)
    /// @{
    /**
     * Transaction @p tx of @p core is durably complete: flash-clear its
     * LPQ entries, leaving one marker entry flagged with tx-end. No-op
     * when log write removal is disabled (Proteus+NoLWR).
     */
    void txEnd(CoreId core, TxId tx);
    /// @}

    /// @name ATOM baseline support
    /// @{
    /** Bind the per-core hardware log region used by ATOM. The first
     *  block of the area holds the per-core commit record; entries
     *  start at start + 64. */
    void bindAtomLogArea(CoreId core, Addr start, Addr end);
    /**
     * Durably record that @p tx committed (one WPQ write to the
     * per-core commit record). Must succeed before tx-end retires;
     * @return false if the WPQ is full (caller retries).
     */
    bool atomTxCommit(CoreId core, TxId tx);
    /**
     * Create a log entry at the MC (source log) and acknowledge on
     * acceptance (posted log). @return false if the WPQ is full — the
     * caller must retry, keeping the store stalled at retirement.
     */
    bool atomLog(CoreId core, TxId tx, const LogRecord &record);
    /**
     * Truncate @p tx's log: tracked entries get one invalidation write
     * each; entries beyond the hardware tracking resources need a read
     * (log-area search) before the invalidation write (Section 4.3).
     * @p on_done fires when every truncation write has been accepted.
     */
    void atomTxEnd(CoreId core, TxId tx, std::function<void()> on_done);
    /// @}

    /// @name Persistency domain operations
    /// @{
    /** pcommit: fires @p on_drained once WPQ and LPQ are empty. */
    void drain(std::function<void()> on_drained);
    /** log-save / context switch: force core's LPQ entries to NVM. */
    void flushCoreLogs(CoreId core, std::function<void()> on_done);
    /// @}

    /**
     * Crash support: apply everything the battery would drain (WPQ,
     * then LPQ, in FIFO order) onto @p image. Only meaningful with ADR.
     */
    void applyBatteryDrain(MemoryImage &image) const;

    /** @return true if a durable undo log covers @p granule for
     *  (core, tx) — used by the persist-ordering checker. */
    bool logGranuleDurable(CoreId core, TxId tx, Addr granule) const;

    /** Totals for the Figure 8 study. */
    std::uint64_t nvmWrites() const { return _dram.totalWrites(); }
    std::uint64_t nvmReads() const { return _dram.totalReads(); }
    std::uint64_t droppedLogWrites() const
    {
        return static_cast<std::uint64_t>(_logWritesDropped.value());
    }

    bool empty() const;

    NvmTiming &dram() { return _dram; }

    /** The media fault model, or nullptr when fault injection is off. */
    const faults::FaultModel *faultModel() const { return _faults.get(); }

  private:
    struct QueuedWrite
    {
        WriteRequest req;
        unsigned bank = 0;      ///< NvmTiming bankIndex of req.addr
        std::uint64_t row = 0;  ///< NvmTiming rowIndex of req.addr
        bool marker = false;    ///< held tx-end marker (Section 4.3)
        bool forced = false;    ///< must drain (context switch)
        std::uint64_t seq = 0;  ///< acceptance order
        Tick acceptedAt = 0;
    };

    /**
     * Why the last pick on one write queue found nothing. A pick's
     * answer depends on the queue's entries (the LPQ's marker skip is
     * a function of them), the banks' ready times and open rows,
     * allowConflicts() and the current tick. While the entries are
     * unchanged (valid), the bank state is unchanged (dramIssues
     * equals NvmTiming::issueCount) and allowConflicts() matches,
     * every pick before `until` — the earliest ready tick among the
     * busy banks the pick looked at — finds nothing again.
     */
    struct PickMemo
    {
        bool valid = false;     ///< cleared by every queue mutation
        bool allowConflicts = false;
        std::uint64_t dramIssues = 0;
        Tick until = 0;

        bool
        holds(std::uint64_t issues, bool allow_conflicts) const
        {
            return valid && dramIssues == issues &&
                   allowConflicts == allow_conflicts;
        }
    };

    struct PendingRead
    {
        Addr addr;
        std::function<void()> onComplete;
        /** Completed array reads of this request that failed ECC; the
         *  bounded-retry loop re-enqueues with attempts + 1. */
        unsigned attempts = 0;
    };

    struct AtomTxState
    {
        /** All entry addresses in creation order; the first
         *  atomTruncationEntries are hardware-tracked. */
        std::vector<Addr> entries;
    };

    /** Hash key for the per-transaction tracking tables; these are hit
     *  on every accepted log write, so hashed rather than tree-ordered. */
    struct CoreTx
    {
        CoreId core;
        TxId tx;

        bool
        operator==(const CoreTx &o) const
        {
            return core == o.core && tx == o.tx;
        }
    };

    struct CoreTxHash
    {
        std::size_t
        operator()(const CoreTx &k) const
        {
            return static_cast<std::size_t>(
                (k.tx * 0x9e3779b97f4a7c15ull) ^ k.core);
        }
    };

    /** ATOM per-core hardware log region (start==invalidAddr: unbound). */
    struct AtomLogArea
    {
        Addr start = invalidAddr;
        Addr end = invalidAddr;
        Addr next = invalidAddr;    ///< next entry slot (circular)
    };

    /** Grow the per-core tables to cover @p core. */
    void ensureCore(CoreId core);

    bool tryIssueRead(Tick now);
    bool tryIssueWrite(Tick now);
    bool tryIssueLog(Tick now);
    void issueWriteEntry(std::deque<QueuedWrite> &queue, std::size_t idx,
                         Tick now);
    void recordLogDurable(CoreId core, TxId tx, Addr granule);
    void checkDrainDone();
    std::uint64_t oldestPendingSeq() const;
    void noteLogArrival(CoreId core, TxId tx);
    void emitAccept(const WriteRequest &req, std::uint64_t seq,
                    std::uint8_t flags);
    void emitMarker(CoreId core, TxId tx, MarkerOp op);
    void emitFault(FaultEvent what, Addr addr);
    /** A queue entry for @p req: its bank and row, and the next
     *  acceptance seq. */
    QueuedWrite newEntry(const WriteRequest &req);
    PickMemo &memoOf(const std::deque<QueuedWrite> &queue)
    {
        return &queue == &_lpq ? _lpqPick : _wpqPick;
    }
    /** Conflict-averse drain: may @p queue issue a row-conflict
     *  write at @p now? */
    bool allowConflicts(const std::deque<QueuedWrite> &queue,
                        Tick now) const;
    std::size_t pickWriteCandidate(const std::deque<QueuedWrite> &queue,
                                   Tick now, bool skip_markers);

    Simulator &_sim;
    SystemConfig _cfg;
    std::string _name = "mc";
    MemoryImage &_nvm;
    NvmTiming _dram;
    /** Media fault injection + ECC view; null when disabled, so the
     *  default configuration pays nothing and stays bit-identical. */
    std::unique_ptr<faults::FaultModel> _faults;
    /** Reads waiting out a retry backoff (neither queued nor in
     *  flight); they hold their read-queue slot against new arrivals. */
    unsigned _pendingRetries = 0;

    std::deque<PendingRead> _readQ;
    std::deque<QueuedWrite> _wpq;
    std::deque<QueuedWrite> _lpq;
    PickMemo _wpqPick;
    PickMemo _lpqPick;
    unsigned _inflightReads = 0;
    unsigned _inflightWrites = 0;
    unsigned _inflightLogs = 0;
    std::unordered_multiset<Addr> _inflightWriteAddrs;
    /** Data of writes mid-flight to the array, by acceptance seq; the
     *  battery preserves these on a crash just like queued entries
     *  (applyBatteryDrain re-sorts by seq). */
    std::unordered_map<std::uint64_t,
                       std::pair<Addr, std::array<std::uint8_t, blockSize>>>
        _inflightData;
    std::uint64_t _acceptSeq = 0;
    unsigned _atomLogsQueued = 0;
    bool _useLpq = false;
    bool _logWriteRemoval = false;

    std::vector<std::pair<std::uint64_t, std::function<void()>>>
        _drainWaiters;
    std::set<std::uint64_t> _inflightSeqs;
    /** Per-core context-switch flush waiter (empty: none pending). */
    std::vector<std::function<void()>> _coreFlushWaiters;
    unsigned _coreFlushWaiterCount = 0;

    /** Last accepted Proteus log entry per core. The record bytes are
     *  retained because the tx-end metadata update must not read the
     *  NVM slot back: the entry's own write may still be in flight, and
     *  a read would return the slot's stale (pre-entry) contents. */
    struct LastLog
    {
        bool valid = false;
        TxId tx = 0;
        Addr addr = invalidAddr;
        std::array<std::uint8_t, blockSize> data{};
    };
    std::vector<LastLog> _lastLog;

    /** Durable log granules per (core, tx) for the ordering checker. */
    std::unordered_map<CoreTx, std::unordered_set<Addr>, CoreTxHash>
        _durableLogs;

    /// @name ATOM state
    /// @{
    std::vector<AtomLogArea> _atomLogArea;
    std::unordered_map<CoreTx, AtomTxState, CoreTxHash> _atomTx;
    /** Outstanding truncation work: writes to enqueue as space allows. */
    struct AtomTruncation
    {
        CoreId core;
        TxId tx;
        std::vector<Addr> invalidations;    ///< ready to invalidate
        std::vector<Addr> searchAddrs;      ///< need a search read first
        std::function<void()> onDone;
        unsigned pendingSearchReads = 0;
    };
    std::deque<AtomTruncation> _atomTruncations;
    void pumpAtomTruncation();
    /// @}

    stats::Scalar _readsAccepted;
    stats::Scalar _writesAccepted;
    stats::Scalar _logWritesAccepted;
    stats::Scalar _wpqForwards;
    stats::Scalar _writesCombined;
    stats::Scalar _logWritesDropped;
    stats::Scalar _markerWrites;
    stats::Scalar _markersDropped;
    stats::Scalar _spilledLogWrites;
    stats::Scalar _atomInvalidationWrites;
    stats::Scalar _atomSearchReads;
    stats::Scalar _atomLogRejects;
    stats::Average _wpqOccupancy;
    stats::Average _lpqOccupancy;
    stats::Average _inflightSample;
    stats::Scalar _writeAttempts;
    stats::Scalar _writeNoCandidate;

    /// @name Quiescence (cycle skipping)
    /// @{
    /** Last tick made progress (issued, accepted, or completed work). */
    bool _tickBusy = true;
    /** A request arrived after this controller's last tick (set by the
     *  public entry points, cleared at tick start). */
    bool _poked = false;
    /** Pre-tick values of the per-cycle arbiter counters; a blocked
     *  tick's deltas are replayed verbatim for skipped cycles. */
    double _preWriteAttempts = 0;
    double _preWriteNoCandidate = 0;
    /// @}

    /// @name Event emission
    /// @{
    /** The simulation event stream (null: nothing subscribes). */
    SimEventStream *_events = nullptr;
    /** Last emitted WPQ/LPQ depths; QueueDepth events fire on change
     *  only, to bound their volume. -1 forces the first emission. */
    std::int64_t _lastWpqDepth = -1;
    std::int64_t _lastLpqDepth = -1;
    /// @}
};

} // namespace proteus

#endif // PROTEUS_MEMCTRL_MEM_CTRL_HH
