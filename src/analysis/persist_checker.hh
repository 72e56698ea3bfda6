/**
 * @file
 * The online happens-before checker for the logging protocols.
 *
 * PersistChecker consumes two inputs:
 *   - the simulation event stream (sim/sim_event.hh): tx begin/commit,
 *     lock grants/releases, the log-record lifecycle, and the
 *     persist/fence/flash-clear edges emitted by src/cpu/core.cc and
 *     src/memctrl/mem_ctrl.cc, and
 *   - optionally the TraceWriteObserver store kinds recorded at trace
 *     generation (WriteHistory), which distinguish undo-logged stores
 *     from fresh-allocation stores for the software schemes.
 *
 * Against these it verifies the per-scheme declarative rule set of
 * rules.hh and produces minimal violation reports in the style of the
 * crashtest byte-diff: guilty transaction, store ordinal, the missing
 * edge, and a one-command repro line.
 *
 * All state updates happen on executed-tick events, so verdicts are
 * bit-identical with cycle skipping on or off and at any --jobs count.
 */

#ifndef PROTEUS_ANALYSIS_PERSIST_CHECKER_HH
#define PROTEUS_ANALYSIS_PERSIST_CHECKER_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/rules.hh"
#include "sim/config.hh"
#include "sim/sim_event.hh"

namespace proteus {

class WriteHistory;

namespace analysis {

/** One detected ordering violation (detail retained up to a cap). */
struct Violation
{
    Rule rule = Rule::LogBeforeData;
    CoreId core = 0;
    TxId tx = 0;
    Addr addr = invalidAddr;
    std::uint64_t ordinal = 0;  ///< dynamic seq of the guilty store (0: n/a)
    Tick tick = 0;              ///< when the violation was detected
    std::string missingEdge;    ///< the happens-before edge that is absent
    std::string detail;         ///< one extra context line
};

/** Per-rule counters: how often the rule was evaluated and failed. */
struct RuleStats
{
    std::uint64_t checks = 0;
    std::uint64_t violations = 0;
};

/** The checker's final verdict for one run. */
struct CheckOutcome
{
    std::array<RuleStats, numRules> rules{};
    std::array<bool, numRules> armed{};
    std::vector<Violation> violations;  ///< first reportCap, in event order
    std::uint64_t totalViolations = 0;
    std::uint64_t eventsSeen = 0;
    std::string repro;                  ///< one-command repro line

    bool pass() const { return totalViolations == 0; }
};

/** Detailed violations retained per run (all are counted). */
constexpr std::size_t reportCap = 32;

class PersistChecker : public SimEventSubscriber
{
  public:
    /** @p repro is the one-command repro line carried into reports. */
    PersistChecker(LogScheme scheme, bool adr, std::string repro);

    /** Register one log area [start, end) owned by @p owner: its
     *  blocks are excluded from data-store tracking, and (software
     *  schemes) Data writes into it are parsed as undo-log records. */
    void addLogArea(Addr start, Addr end, CoreId owner);

    /** Bind the trace-time write history (store kinds); arms
     *  LogBeforeData for the software schemes. Call before the run. */
    void bindWriteHistory(const WriteHistory &history);

    CheckOutcome outcome() const;
    std::uint64_t totalViolations() const { return _totalViolations; }

    /** Route one stream event to the handler below; kinds the rules
     *  do not use are ignored (and not counted in eventsSeen). */
    void onEvent(const SimEvent &e) override;

    /// @name Handlers (public so tests can feed synthetic streams)
    /// @{
    void txBegin(CoreId core, TxId tx, Tick now);
    void txCommit(CoreId core, TxId tx, Tick now);
    void lockGranted(CoreId core, TxId tx, Addr addr, Tick now);
    void logCreated(CoreId core, TxId tx, Tick now);
    void logAcked(CoreId core, TxId tx, Tick created_at, Tick now);
    /** @p ordinal is the store's dynamic sequence number (the "store
     *  PC" of violation reports). */
    void storeRetired(CoreId core, TxId tx, Addr addr, unsigned size,
                      bool persistent, std::uint64_t ordinal, Tick now);
    void storeReleased(CoreId core, TxId tx, Addr addr, unsigned size,
                       std::uint64_t ordinal, Tick now);
    void fenceRetired(CoreId core, Tick now);
    void durablePoint(CoreId core, TxId tx, Tick now);
    void lockReleased(CoreId core, Addr addr, Tick now);
    /** A data (WriteKind::Data) write was accepted; @p data is its 64B
     *  payload (may be null in synthetic streams). */
    void dataWriteAccepted(CoreId core, TxId tx, Addr addr,
                           std::uint64_t seq, bool combined,
                           const std::uint8_t *data, Tick now);
    void logWriteAccepted(CoreId core, TxId tx, Addr slot, Addr granule,
                          std::uint64_t rec_seq, bool lpq, Tick now);
    void nvmWriteIssued(bool lpq, Addr addr, std::uint64_t seq, Tick now);
    void nvmWritePersisted(bool lpq, Addr addr, std::uint64_t seq,
                           Tick now);
    void lpqFlashCleared(CoreId core, TxId tx, std::uint64_t n, Tick now);
    void txEndMarker(CoreId core, TxId tx, MarkerOp op, Tick now);
    /// @}

  private:
    using CoreTx = std::pair<CoreId, TxId>;

    /** The last retired store to one 32B granule within a tx. */
    struct StoreRec
    {
        Tick retired = 0;
        std::uint64_t ordinal = 0;
        Addr addr = invalidAddr;    ///< original (unaligned) store addr
        unsigned size = 0;
    };

    struct TxState
    {
        bool began = false;
        bool durable = false;
        bool committed = false;
        Tick beginTick = 0;
        Tick durableTick = 0;
        Tick commitTick = 0;
        std::uint64_t logsCreated = 0;
        std::uint64_t logsAcked = 0;
        /** Transactional persistent stores by granule. Ordered so the
         *  durability sweep at tx end reports in address order. */
        std::map<Addr, StoreRec> stores;
        /** Granules whose stores have left the store buffer (visible
         *  writers for the LogBeforeData rule). */
        std::unordered_set<Addr> released;
        /** Granules covered by a durable undo-log record. */
        std::unordered_set<Addr> logCover;
    };

    struct CoreState
    {
        /** Locks currently held, in acquisition order (small). */
        std::vector<Addr> locks;
    };

    /** The last write to one 8-byte chunk (race detection). */
    struct ChunkWrite
    {
        CoreId core = 0;
        TxId tx = 0;
        std::uint64_t ordinal = 0;
        Tick tick = 0;
        std::vector<Addr> locks;    ///< lockset at retirement
    };

    bool armed(Rule r) const
    {
        return _armed[static_cast<unsigned>(r)];
    }
    RuleStats &stats(Rule r)
    {
        return _ruleStats[static_cast<unsigned>(r)];
    }
    TxState &tx(CoreId core, TxId id) { return _txs[CoreTx{core, id}]; }
    CoreState &coreState(CoreId core) { return _cores[core]; }

    void recordViolation(Rule rule, CoreId core, TxId id, Addr addr,
                         std::uint64_t ordinal, Tick now,
                         std::string missing_edge, std::string detail);
    /** Owner core of @p addr if it falls in a software log area. */
    bool logAreaOwner(Addr addr, CoreId &owner) const;
    /** True when the write history marks (core, tx, granule) as an
     *  undo-logged store (vs. storeInit / raw). */
    bool historyLogged(CoreId core, TxId id, Addr granule) const;
    /** True when every history write to (core, tx, granule) was a raw
     *  (persist-unordered) store — exempt from DurableByCommit. */
    bool historyRawOnly(CoreId core, TxId id, Addr granule) const;
    /** True when @p prev's transaction committed before the writing
     *  transaction began — the serialization order itself is the
     *  happens-before edge (LockDiscipline). */
    bool commitOrdered(const ChunkWrite &prev, CoreId core, TxId id,
                       Tick now) const;

    void checkLogCoverage(Addr granule, Tick now);

    LogScheme _scheme;
    bool _adr;
    bool _isHwScheme;
    bool _isSwLogScheme;
    bool _haveHistory = false;
    std::array<bool, numRules> _armed{};
    std::string _repro;

    std::array<RuleStats, numRules> _ruleStats{};
    std::vector<Violation> _violations;
    std::uint64_t _totalViolations = 0;
    std::uint64_t _eventsSeen = 0;

    std::unordered_map<CoreId, CoreState> _cores;
    /** Ordered so any whole-table sweep stays deterministic. */
    std::map<CoreTx, TxState> _txs;
    /** Granule -> live transactions that wrote it (insertion order). */
    std::unordered_map<Addr, std::vector<CoreTx>> _granuleWriters;
    /** Block -> tick of the last MC write acceptance. */
    std::unordered_map<Addr, Tick> _lastAccept;
    /** Block -> tick of the last NVM array writeback. */
    std::unordered_map<Addr, Tick> _lastPersist;
    /** Per queue (0 = WPQ, 1 = LPQ): block -> last issued/persisted
     *  acceptance seq, for the FIFO-per-address rule. */
    std::array<std::unordered_map<Addr, std::uint64_t>, 2> _lastIssuedSeq;
    std::array<std::unordered_map<Addr, std::uint64_t>, 2>
        _lastPersistSeq;
    /** 8B chunk -> last writer (race detection). */
    std::unordered_map<Addr, ChunkWrite> _chunks;
    /** Software log areas as (start, end, owner), sorted by start. */
    std::vector<std::tuple<Addr, Addr, CoreId>> _logAreas;
    /** (core, tx) -> granule -> history-kind bitmask (logged /
     *  unlogged / raw), from the bound write history. */
    std::map<CoreTx, std::unordered_map<Addr, std::uint8_t>> _hist;
};

} // namespace analysis
} // namespace proteus

#endif // PROTEUS_ANALYSIS_PERSIST_CHECKER_HH
