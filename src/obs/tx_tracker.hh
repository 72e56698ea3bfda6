/**
 * @file
 * The transaction flight recorder: a SimEvent subscriber that follows
 * every transaction from begin to durable commit and aggregates the
 * spans into streaming histograms.
 *
 * Memory stays bounded for arbitrarily long runs: per-transaction
 * state lives only while the transaction is in flight, every completed
 * span is folded into HDR-style Distributions (exact percentiles below
 * stats::Distribution::percentileExactMax, bounded relative error
 * above), and full event timelines are retained only for a ring of the
 * K slowest transactions.
 *
 * Per-core distributions are kept in a private registry and merged
 * (stats::Distribution::merge) into scheme-level "tx.*" distributions
 * registered with the simulation's main registry, so enabling the
 * recorder also surfaces the merged stages in StatRegistry::dumpJson.
 *
 * The per-cycle CommitSlot feed gives each committed transaction an
 * exact CPI-stack decomposition: the seven per-tx slot buckets sum to
 * commitTick - beginTick by construction, and the tracker's per-bucket
 * totals (slotTotal) equal the aggregate CpiStack counts — the
 * cross-check tests assert both. The per-tx critical path is the
 * arg-max slot bucket (lowest index wins ties).
 */

#ifndef PROTEUS_OBS_TX_TRACKER_HH
#define PROTEUS_OBS_TX_TRACKER_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/sim_event.hh"
#include "sim/stats.hh"

namespace proteus {
namespace obs {

/** Commit-slot buckets (CommitBucket values). */
constexpr unsigned numTxSlots = 7;

/** @return the tx-stats JSON key of a commit-slot bucket, e.g.
 *  "persistStall". */
const char *slotKey(CommitBucket slot);

/** Aggregated stages the recorder histograms (all in cycles except
 *  LogsPerTx, a per-transaction record count). */
enum class TxStage : unsigned char
{
    CommitLatency,      ///< durable commit - tx begin
    SlotBase,           ///< per-tx commit-slot cycles, per CPI bucket
    SlotRobFull,
    SlotIqLsqFull,
    SlotBranchRedirect,
    SlotPersistStall,
    SlotWpqBackpressure,
    SlotLockWait,
    LockWait,           ///< lock grant - lock request, per acquire
    LogAck,             ///< log durable ack - creation, per record
    McQueueWait,        ///< NVM issue - MC acceptance, per write
    LogsPerTx,          ///< log records created+filtered, per tx
};

constexpr unsigned numTxStages = 12;

/** @return the stage's JSON/report key, e.g. "commitLatency". */
const char *toString(TxStage stage);

/** One timeline entry of a retained slow-transaction recording. */
struct TxEvent
{
    Tick at = 0;
    enum class Kind : unsigned char
    {
        Begin,
        LockRequest,
        LockGrant,
        LogCreate,
        LogFilter,
        LogAck,
        McQueued,
        McIssued,
        McDropped,
        NvmPersist,
        Commit,
        Rollback,
    } kind = Kind::Begin;
    std::uint64_t arg = 0;      ///< kind-specific (addr, count, ...)
};

const char *toString(TxEvent::Kind kind);

/** A bit-copyable snapshot of one stage distribution. */
struct TxStageSnap
{
    std::uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
    /** The HDR value->count map; exact percentile state, mergeable. */
    std::vector<std::pair<double, std::uint64_t>> qhist;
};

/** A fully-recorded slow transaction. */
struct TxTimeline
{
    CoreId core = 0;
    TxId tx = 0;
    Tick begin = 0;
    Tick commit = 0;
    std::uint64_t latency = 0;
    CommitBucket critPath = CommitBucket::Base;
    std::array<std::uint64_t, numTxSlots> slots{};
    std::vector<TxEvent> events;
};

/** Everything one run's recorder learned, as plain data. */
struct TxStatsSummary
{
    std::uint64_t committedTxs = 0;
    std::uint64_t rollbacks = 0;
    std::uint64_t openTxs = 0;          ///< still in flight at snapshot
    std::uint64_t lockAcquires = 0;
    std::uint64_t logsCreated = 0;
    std::uint64_t logsFiltered = 0;
    std::uint64_t logsAcked = 0;
    std::uint64_t mcDataQueued = 0;
    std::uint64_t mcLogQueued = 0;
    std::uint64_t mcIssued = 0;
    std::uint64_t mcDropped = 0;        ///< flash-cleared log writes
    std::uint64_t nvmPersists = 0;
    std::uint64_t postCommitPersists = 0;   ///< lazy drains after commit

    /** Every commitSlot cycle, per bucket (== aggregate CpiStack). */
    std::array<std::uint64_t, numTxSlots> slotTotal{};
    /** The subset attributed to a live transaction. */
    std::array<std::uint64_t, numTxSlots> slotInTx{};
    /** Committed transactions whose critical path is each bucket. */
    std::array<std::uint64_t, numTxSlots> critPath{};

    /** Merged per-stage snapshots, indexed by TxStage. */
    std::array<TxStageSnap, numTxStages> stages{};
    /** Per-core stage snapshots (index = core id). */
    std::vector<std::array<TxStageSnap, numTxStages>> cores;

    /** The K slowest transactions, slowest first. */
    std::vector<TxTimeline> slowest;
};

/** The flight recorder proper. */
class TxTracker : public SimEventSubscriber
{
  public:
    /**
     * @param registry main simulation registry for the merged "tx.*"
     *                 distributions (dumpJson visibility)
     * @param numCores per-core distribution fan-out
     * @param slowestK full timelines retained (0 disables recording)
     */
    TxTracker(stats::StatRegistry &registry, unsigned numCores,
              unsigned slowestK);
    ~TxTracker() override;

    /** Route one stream event to the handler below. Synthesized tx-end
     *  markers are not followed (their acceptance time is meaningless
     *  and they carry no payload write), nor are combined writes (no
     *  new queue entry). */
    void onEvent(const SimEvent &e) override;

    /// @name Handlers (public so tests can feed synthetic spans)
    /// @{
    void txBegin(CoreId core, TxId tx, Tick at);
    void txCommit(CoreId core, TxId tx, Tick at);
    void txRollback(CoreId core, TxId tx, Tick at);
    void lockRequested(CoreId core, TxId tx, Addr addr, Tick at);
    void lockGranted(CoreId core, TxId tx, Addr addr, Tick at);
    void logCreated(CoreId core, TxId tx, Tick at);
    void logFiltered(CoreId core, TxId tx, Tick at);
    void logAcked(CoreId core, TxId tx, Tick createdAt, Tick at);
    /** @p n cycles landed in @p slot while @p tx was live. */
    void commitSlot(CoreId core, TxId tx, CommitBucket slot,
                    std::uint64_t n);
    /** A write entered the WPQ (@p lpq false) or LPQ (@p lpq true). */
    void mcQueued(CoreId core, TxId tx, bool lpq, Tick at);
    void mcIssued(CoreId core, TxId tx, Tick acceptedAt, Tick at);
    /** @p n LPQ entries were flash-cleared at tx end. */
    void mcDropped(CoreId core, TxId tx, std::uint64_t n, Tick at);
    void nvmPersisted(CoreId core, TxId tx, bool lpq, Tick at);
    /// @}

    /**
     * Merge the per-core distributions into the main-registry "tx.*"
     * ones. Idempotent; called by FullSystem::finishObservability and
     * implicitly by summary().
     */
    void finish();

    /** Snapshot everything recorded so far (calls finish()). */
    TxStatsSummary summary();

    unsigned numCores() const { return _numCores; }

  private:
    struct OpenTx
    {
        bool begun = false;
        Tick beginTick = 0;
        std::array<std::uint64_t, numTxSlots> slots{};
        std::uint32_t logsCreated = 0;
        std::uint32_t logsFiltered = 0;
        std::vector<TxEvent> events;
    };

    struct PendingLock
    {
        CoreId core;
        Addr addr;
        TxId tx;
        Tick at;
    };

    OpenTx &open(CoreId core, TxId tx);
    OpenTx *find(CoreId core, TxId tx);
    void record(OpenTx *otx, Tick at, TxEvent::Kind kind,
                std::uint64_t arg);
    void close(CoreId core, TxId tx, Tick at, bool committed);
    stats::Distribution &dist(CoreId core, TxStage stage);
    void retain(TxTimeline &&tl);

    unsigned _numCores;
    unsigned _slowestK;
    bool _finished = false;

    /** Private registry backing the per-core distributions. */
    stats::StatRegistry _coreReg;
    /** [core][stage] streaming distributions. */
    std::vector<std::vector<std::unique_ptr<stats::Distribution>>> _dists;
    /** Merged per-stage distributions in the main registry. */
    std::vector<std::unique_ptr<stats::Distribution>> _merged;

    /** In-flight transactions, keyed (core, tx). */
    std::map<std::pair<CoreId, TxId>, OpenTx> _open;
    /** Lock requests awaiting their grant. */
    std::vector<PendingLock> _pendingLocks;
    /** The K slowest timelines, kept sorted slowest-first. */
    std::vector<TxTimeline> _slowest;

    TxStatsSummary _s;      ///< counters accumulate here directly
};

} // namespace obs
} // namespace proteus

#endif // PROTEUS_OBS_TX_TRACKER_HH
