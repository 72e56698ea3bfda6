/**
 * @file
 * The commit oracle of the crash-consistency validation subsystem.
 *
 * While a workload's traces are recorded, the oracle observes every
 * program-level write in the global round-robin recording order — which
 * is the functional serialization the timing simulation replays — and
 * builds a per-byte write history of the persistent data region. After
 * a crash is injected and recovery has run, check() confronts the
 * recovered image with that history:
 *
 *  1. every write of an oracle-committed transaction must be present
 *     (durability),
 *  2. no write of a transaction past the commit point may survive
 *     (rollback), and
 *  3. the one in-doubt transaction per thread — the next transaction
 *     in trace order, whose durable commit point may have been reached
 *     even though its tx-end micro-op had not yet retired — must be
 *     either fully present or fully rolled back, never torn.
 *
 * The byte-exact analysis is defined for single-threaded runs (the
 * paper's recovery-equivalence setting); multi-threaded crash tests
 * fall back to structural invariant checking in the crash tester.
 */

#ifndef PROTEUS_CRASHTEST_COMMIT_ORACLE_HH
#define PROTEUS_CRASHTEST_COMMIT_ORACLE_HH

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "heap/memory_image.hh"
#include "sim/config.hh"
#include "trace/trace_builder.hh"

namespace proteus {

/** One byte of post-recovery state that contradicts the oracle. */
struct OracleViolation
{
    Addr addr = invalidAddr;
    std::uint8_t expected = 0;      ///< committed-prefix value
    std::uint8_t actual = 0;        ///< recovered-image value
    /** In-doubt alternative (equals expected when none applies). */
    std::uint8_t alternative = 0;
    TxId guiltyTx = 0;              ///< tx whose write explains actual, or
                                    ///< the last writer when none does
    std::string note;               ///< one-line diagnosis
};

/** Verdict on one in-doubt transaction. */
enum class InDoubtOutcome
{
    NoEvidence,     ///< wrote nothing checkable; either way is fine
    RolledBack,     ///< every byte carries the pre-transaction value
    Committed,      ///< every byte carries the transaction's value
    Torn,           ///< mixed — the atomicity violation
};

/** What check() concluded about one recovered crash image. */
struct OracleReport
{
    bool ok = true;
    std::vector<OracleViolation> violations;    ///< capped by caller
    std::uint64_t violationCount = 0;           ///< uncapped total
    std::uint64_t bytesChecked = 0;
    std::uint64_t bytesSkipped = 0;     ///< unpredictable (raw/unlogged)
    InDoubtOutcome inDoubt = InDoubtOutcome::NoEvidence;
    TxId inDoubtTx = 0;
    /**
     * Tracked bytes on lines the media fault layer marked
     * detected-uncorrectable. These are excluded from the byte-exact
     * checks — the loss is *detected*, not silent — and surfaced
     * separately so the crash tester can return a
     * detectedUnrecoverable verdict with a minimal byte-diff.
     */
    std::uint64_t poisonedBytes = 0;
    std::vector<OracleViolation> poisonedSample;    ///< capped byte-diff

    std::string summary() const;
};

/**
 * Records durable-commit points and per-byte expected values from the
 * trace-generation write stream: fill it by replaying a bundle's
 * WriteHistory (TraceBundle::history), or attach it to the builders
 * with TraceBuilder::setWriteObserver while the traces are recorded.
 */
class CommitOracle : public TraceWriteObserver
{
  public:
    void onTxBegin(CoreId thread, TxId tx) override;
    void onTxEnd(CoreId thread, TxId tx) override;
    void onStore(CoreId thread, TxId tx, Addr addr, unsigned size,
                 std::uint64_t before, std::uint64_t after,
                 ObservedWrite kind) override;

    /** Transactions recorded for @p thread, in begin (= commit) order. */
    const std::vector<TxId> &txOrder(CoreId thread) const;

    /** Total transactions recorded across all threads. */
    std::uint64_t txCount() const { return _txs.size(); }

    /** Distinct persistent bytes with at least one observed write. */
    std::uint64_t trackedBytes() const { return _bytes.size(); }

    /**
     * Check a *recovered* crash image against the history.
     * @p committed_per_thread[t] is the number of thread @p t's
     * transactions whose tx-end had retired at the crash
     * (Core::committedTxs().size()); the next recorded transaction of
     * each thread is in-doubt. At most @p max_violations are
     * materialized in the report. Byte-exact checking is sound for
     * single-threaded runs; with several threads the hardware schemes'
     * granule-sized undo can legitimately interact across threads, so
     * the crash tester only calls this when threads == 1.
     */
    OracleReport
    check(const MemoryImage &image,
          const std::vector<std::uint64_t> &committed_per_thread,
          std::size_t max_violations = 16) const;

    /**
     * The replay length a recovered image corresponds to: @p committed,
     * plus one when the in-doubt transaction's durable commit point was
     * crossed (report says Committed). Feed to Workload::replayOps for
     * the end-to-end serialize comparison.
     */
    static std::uint64_t replayCount(const OracleReport &report,
                                     std::uint64_t committed);

  private:
    struct ByteWrite
    {
        std::uint32_t txIndex;      ///< into _txs
        std::uint8_t value;
        ObservedWrite kind;
    };

    struct ByteHistory
    {
        std::uint8_t initial = 0;   ///< pre-image of the first write
        std::vector<ByteWrite> writes;
    };

    struct TxInfo
    {
        CoreId thread = 0;
        TxId id = 0;
        std::uint64_t perThreadIndex = 0;   ///< into txOrder(thread)
    };

    std::vector<TxInfo> _txs;
    std::vector<std::vector<TxId>> _txOrder;    ///< per thread
    std::unordered_map<TxId, std::uint32_t> _txIndexById;

    /** Byte address -> history; ordered so reports are deterministic. */
    std::map<Addr, ByteHistory> _bytes;
};

} // namespace proteus

#endif // PROTEUS_CRASHTEST_COMMIT_ORACLE_HH
