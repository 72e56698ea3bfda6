/**
 * @file
 * Tests for the persistency-order checker (src/analysis): the per-rule
 * detection logic against synthetic event feeds, the per-scheme arming
 * table, determinism of the full-machine verdict (byte-identical JSON
 * at any --jobs level and with cycle skipping on or off), and the
 * mutation campaign proving every armed rule catches its own injected
 * violation.
 */

#include <gtest/gtest.h>

#include "analysis/persist_checker.hh"
#include "analysis/rules.hh"
#include "harness/check_runner.hh"

namespace proteus {
namespace {

using analysis::PersistChecker;
using analysis::Rule;

// ---------------------------------------------------------------------
// Arming table
// ---------------------------------------------------------------------

TEST(AnalysisRules, NamesAreStableAndKebabCase)
{
    EXPECT_STREQ("log-before-data", toString(Rule::LogBeforeData));
    EXPECT_STREQ("entries-before-txend",
                 toString(Rule::EntriesBeforeTxEnd));
    EXPECT_STREQ("flashclear-after-commit",
                 toString(Rule::FlashClearAfterCommit));
    EXPECT_STREQ("fifo-per-address", toString(Rule::FifoPerAddress));
    EXPECT_STREQ("durable-by-commit", toString(Rule::DurableByCommit));
    EXPECT_STREQ("lock-discipline", toString(Rule::LockDiscipline));
}

TEST(AnalysisRules, ArmingTablePerScheme)
{
    const auto armed = [](LogScheme s, bool history) {
        return analysis::rulesForScheme(s, history);
    };
    const auto idx = [](Rule r) { return static_cast<unsigned>(r); };

    // Proteus arms everything (the mutation campaign relies on it).
    const auto proteus = armed(LogScheme::Proteus, true);
    for (unsigned r = 0; r < analysis::numRules; ++r)
        EXPECT_TRUE(proteus[r]) << "rule " << r;

    // Only Proteus's LWR path flash-clears the LPQ.
    EXPECT_FALSE(armed(LogScheme::ProteusNoLWR,
                       true)[idx(Rule::FlashClearAfterCommit)]);
    EXPECT_FALSE(armed(LogScheme::ATOM,
                       true)[idx(Rule::FlashClearAfterCommit)]);

    // Software schemes need the write history to classify stores.
    EXPECT_TRUE(armed(LogScheme::PMEM, true)[idx(Rule::LogBeforeData)]);
    EXPECT_FALSE(
        armed(LogScheme::PMEM, false)[idx(Rule::LogBeforeData)]);
    // No log, nothing to order against data.
    EXPECT_FALSE(
        armed(LogScheme::PMEMNoLog, true)[idx(Rule::LogBeforeData)]);
    EXPECT_FALSE(armed(LogScheme::PMEMNoLog,
                       true)[idx(Rule::EntriesBeforeTxEnd)]);

    // The MC-stream and lock rules are scheme-independent.
    for (LogScheme s :
         {LogScheme::PMEM, LogScheme::PMEMPCommit, LogScheme::PMEMNoLog,
          LogScheme::ATOM, LogScheme::Proteus,
          LogScheme::ProteusNoLWR}) {
        EXPECT_TRUE(armed(s, false)[idx(Rule::FifoPerAddress)]);
        EXPECT_TRUE(armed(s, false)[idx(Rule::DurableByCommit)]);
        EXPECT_TRUE(armed(s, false)[idx(Rule::LockDiscipline)]);
    }
}

// ---------------------------------------------------------------------
// Per-rule detection on synthetic event feeds
// ---------------------------------------------------------------------

/** A Proteus checker (every rule armed, ADR semantics). */
PersistChecker
makeChecker()
{
    return PersistChecker(LogScheme::Proteus, /*adr=*/true,
                          "synthetic");
}

std::uint64_t
ruleViolations(const PersistChecker &c, Rule r)
{
    return c.outcome().rules[static_cast<unsigned>(r)].violations;
}

TEST(AnalysisRules, LogBeforeDataFiresWithoutCoverage)
{
    PersistChecker c = makeChecker();
    c.txBegin(0, 1, 10);
    c.storeRetired(0, 1, 0x1000, 8, true, 7, 11);
    c.storeReleased(0, 1, 0x1000, 8, 7, 12);
    // A data write covering the granule is accepted at the MC while
    // the transaction is in flight and no log entry is durable.
    c.dataWriteAccepted(0, 1, 0x1000, 1, false, nullptr, 13);
    EXPECT_EQ(1u, ruleViolations(c, Rule::LogBeforeData));
    EXPECT_FALSE(c.outcome().pass());
    EXPECT_EQ("synthetic", c.outcome().repro);
}

TEST(AnalysisRules, LogBeforeDataPassesWithDurableEntry)
{
    PersistChecker c = makeChecker();
    c.txBegin(0, 1, 10);
    c.storeRetired(0, 1, 0x1000, 8, true, 7, 11);
    c.logWriteAccepted(0, 1, 0x9000, logAlign(0x1000), 1, true, 12);
    c.storeReleased(0, 1, 0x1000, 8, 7, 13);
    c.dataWriteAccepted(0, 1, 0x1000, 1, false, nullptr, 14);
    EXPECT_EQ(0u, ruleViolations(c, Rule::LogBeforeData));
    // The rule was exercised, not vacuously skipped.
    EXPECT_GT(c.outcome()
                  .rules[static_cast<unsigned>(Rule::LogBeforeData)]
                  .checks,
              0u);
}

TEST(AnalysisRules, EntriesBeforeTxEndFiresOnMissingAck)
{
    PersistChecker c = makeChecker();
    c.txBegin(0, 1, 10);
    c.logCreated(0, 1, 11);
    c.logCreated(0, 1, 12);
    c.logAcked(0, 1, 11, 13);
    c.durablePoint(0, 1, 14);   // one record still un-acked
    EXPECT_EQ(1u, ruleViolations(c, Rule::EntriesBeforeTxEnd));

    PersistChecker ok = makeChecker();
    ok.txBegin(0, 1, 10);
    ok.logCreated(0, 1, 11);
    ok.logAcked(0, 1, 11, 12);
    ok.durablePoint(0, 1, 13);
    EXPECT_EQ(0u, ruleViolations(ok, Rule::EntriesBeforeTxEnd));
}

TEST(AnalysisRules, FlashClearBeforeDurableCommitFires)
{
    PersistChecker c = makeChecker();
    c.txBegin(0, 1, 10);
    c.lpqFlashCleared(0, 1, 3, 11);     // before the durable point
    c.durablePoint(0, 1, 12);
    c.lpqFlashCleared(0, 1, 3, 13);     // after: fine
    c.txEndMarker(0, 1, MarkerOp::Held, 14);
    EXPECT_EQ(1u, ruleViolations(c, Rule::FlashClearAfterCommit));
}

TEST(AnalysisRules, FifoPerAddressFiresOnReorder)
{
    PersistChecker c = makeChecker();
    c.nvmWriteIssued(false, 0x2000, 5, 10);
    c.nvmWriteIssued(false, 0x2000, 5, 11);     // duplicate/reorder
    EXPECT_EQ(1u, ruleViolations(c, Rule::FifoPerAddress));

    PersistChecker ok = makeChecker();
    ok.nvmWriteIssued(false, 0x2000, 5, 10);
    ok.nvmWriteIssued(false, 0x2040, 3, 11);    // other block: own order
    ok.nvmWriteIssued(true, 0x2000, 3, 12);     // other queue: own order
    ok.nvmWriteIssued(false, 0x2000, 6, 13);
    ok.nvmWritePersisted(false, 0x2000, 5, 14);
    ok.nvmWritePersisted(false, 0x2000, 6, 15);
    EXPECT_EQ(0u, ruleViolations(ok, Rule::FifoPerAddress));
}

TEST(AnalysisRules, DurableByCommitFiresOnMissingAcceptance)
{
    PersistChecker c = makeChecker();
    c.txBegin(0, 1, 10);
    c.storeRetired(0, 1, 0x3000, 8, true, 9, 11);
    c.durablePoint(0, 1, 12);   // no MC acceptance of the block
    EXPECT_EQ(1u, ruleViolations(c, Rule::DurableByCommit));

    PersistChecker ok = makeChecker();
    ok.txBegin(0, 1, 10);
    ok.storeRetired(0, 1, 0x3000, 8, true, 9, 11);
    ok.logWriteAccepted(0, 1, 0x9000, logAlign(0x3000), 1, true, 12);
    ok.storeReleased(0, 1, 0x3000, 8, 9, 13);
    ok.dataWriteAccepted(0, 1, 0x3000, 1, false, nullptr, 14);
    ok.durablePoint(0, 1, 15);
    EXPECT_EQ(0u, ruleViolations(ok, Rule::DurableByCommit));
}

TEST(AnalysisRules, LockDisciplineFiresOnUnlockedCrossCoreWrite)
{
    PersistChecker c = makeChecker();
    c.txBegin(0, 1, 10);
    c.txBegin(1, 2, 10);
    c.storeRetired(0, 1, 0x4000, 8, true, 1, 11);
    c.storeRetired(1, 2, 0x4000, 8, true, 1, 12);   // no locks at all
    EXPECT_EQ(1u, ruleViolations(c, Rule::LockDiscipline));

    PersistChecker ok = makeChecker();
    ok.txBegin(0, 1, 10);
    ok.txBegin(1, 2, 10);
    ok.lockGranted(0, 1, 0x8000, 10);
    ok.storeRetired(0, 1, 0x4000, 8, true, 1, 11);
    ok.lockReleased(0, 0x8000, 12);
    ok.lockGranted(1, 2, 0x8000, 13);
    ok.storeRetired(1, 2, 0x4000, 8, true, 1, 14);  // same lock held
    EXPECT_EQ(0u, ruleViolations(ok, Rule::LockDiscipline));
}

TEST(AnalysisRules, LockDisciplineAcceptsCommitOrderedHandoff)
{
    // Disjoint locksets are fine when the first writer's transaction
    // committed before the second began: the serialization order is
    // the happens-before edge (node freed in tx 1, re-allocated and
    // rewritten in tx 2 under a different lock).
    PersistChecker c = makeChecker();
    c.txBegin(0, 1, 10);
    c.lockGranted(0, 1, 0x8000, 10);
    c.storeRetired(0, 1, 0x4000, 8, true, 1, 11);
    c.lockReleased(0, 0x8000, 12);
    c.txCommit(0, 1, 13);
    c.txBegin(1, 2, 20);
    c.lockGranted(1, 2, 0x9000, 20);    // different lock
    c.storeRetired(1, 2, 0x4000, 8, true, 1, 21);
    EXPECT_EQ(0u, ruleViolations(c, Rule::LockDiscipline));
    EXPECT_EQ(1u, c.outcome().rules[
        static_cast<unsigned>(Rule::LockDiscipline)].checks);

    // Overlap kills the excuse: same hand-off, but the second tx
    // began before the first committed.
    PersistChecker bad = makeChecker();
    bad.txBegin(0, 1, 10);
    bad.txBegin(1, 2, 11);              // overlaps tx 1
    bad.lockGranted(0, 1, 0x8000, 10);
    bad.storeRetired(0, 1, 0x4000, 8, true, 1, 12);
    bad.lockReleased(0, 0x8000, 13);
    bad.txCommit(0, 1, 14);
    bad.lockGranted(1, 2, 0x9000, 15);
    bad.storeRetired(1, 2, 0x4000, 8, true, 1, 16);
    EXPECT_EQ(1u, ruleViolations(bad, Rule::LockDiscipline));
}

TEST(AnalysisRules, CommitPrunesWriterState)
{
    PersistChecker c = makeChecker();
    c.txBegin(0, 1, 10);
    c.storeRetired(0, 1, 0x5000, 8, true, 1, 11);
    c.logWriteAccepted(0, 1, 0x9000, logAlign(0x5000), 1, true, 12);
    c.storeReleased(0, 1, 0x5000, 8, 1, 13);
    c.dataWriteAccepted(0, 1, 0x5000, 1, false, nullptr, 14);
    c.durablePoint(0, 1, 15);
    c.txCommit(0, 1, 16);
    // A later unrelated acceptance of the same granule must not charge
    // the committed transaction.
    c.dataWriteAccepted(0, 0, 0x5000, 2, false, nullptr, 20);
    EXPECT_EQ(0u, c.outcome().totalViolations);
}

TEST(AnalysisRules, ViolationReportsAreCapped)
{
    PersistChecker c = makeChecker();
    for (unsigned i = 0; i < 2 * analysis::reportCap; ++i) {
        const Addr block = 0x10000 + Addr{i} * blockSize;
        c.nvmWriteIssued(false, block, 5, 10);
        c.nvmWriteIssued(false, block, 5, 11);
    }
    const analysis::CheckOutcome out = c.outcome();
    EXPECT_EQ(2 * analysis::reportCap, out.totalViolations);
    EXPECT_EQ(analysis::reportCap, out.violations.size());
}

// ---------------------------------------------------------------------
// Full-machine determinism and the mutation campaign (e2e tier)
// ---------------------------------------------------------------------

BenchOptions
checkOpts()
{
    BenchOptions opts;
    opts.scale = 1600;      // small but exercises every protocol path
    opts.initScale = 100;
    opts.threads = 2;
    opts.seed = 1;
    return opts;
}

TEST(AnalysisDeterminism, CleanMachinePassesAllSchemesAndWorkloads)
{
    BenchOptions opts = checkOpts();
    const auto rows = runCheckBatch(
        allSchemes(), {WorkloadKind::Queue, WorkloadKind::HashMap},
        opts);
    ASSERT_EQ(12u, rows.size());
    for (const CheckRow &row : rows) {
        EXPECT_TRUE(row.outcome.pass())
            << formatCheckReport(row);
        EXPECT_TRUE(row.run.finished);
        EXPECT_GT(row.outcome.eventsSeen, 0u);
        // Armed rules really evaluated (not vacuously passing).
        // FifoPerAddress and LockDiscipline count only same-block
        // re-issues / cross-core rewrites, which a small run may not
        // produce — the mutation campaign proves those fire.
        for (unsigned r = 0; r < analysis::numRules; ++r) {
            if (!row.outcome.armed[r] ||
                r == static_cast<unsigned>(Rule::LockDiscipline) ||
                r == static_cast<unsigned>(Rule::FifoPerAddress))
                continue;
            EXPECT_GT(row.outcome.rules[r].checks, 0u)
                << toString(row.scheme) << " rule " << r;
        }
    }
}

TEST(AnalysisDeterminism, GeneratedWorkloadRunsTheGivenSpec)
{
    // proteus-check run gen used to accept --wl-spec and then check the
    // default spec; the repro line now carries the spec too.
    BenchOptions opts = checkOpts();
    opts.scale = 1;
    opts.initScale = 4;
    opts.wlSpec = "keyspace=2000,ops=200";
    WorkloadExtras extras;
    extras.gen = opts.genSpec();
    const auto rows = runCheckBatch({LogScheme::Proteus},
                                    {WorkloadKind::Generated}, opts);
    ASSERT_EQ(1u, rows.size());
    const CheckRow direct = runCheck(LogScheme::Proteus,
                                     WorkloadKind::Generated, opts, extras);
    EXPECT_TRUE(rows[0].outcome.pass()) << formatCheckReport(rows[0]);
    EXPECT_EQ(rows[0].outcome.eventsSeen, direct.outcome.eventsSeen);
    EXPECT_EQ(rows[0].run.committedTxs, direct.run.committedTxs);
    EXPECT_NE(rows[0].outcome.repro.find(" --wl-spec " +
                                         extras.gen.canonical()),
              std::string::npos)
        << rows[0].outcome.repro;
}

TEST(AnalysisDeterminism, JsonByteIdenticalAcrossJobs)
{
    BenchOptions opts = checkOpts();
    opts.jobs = 1;
    const std::string json1 =
        checkRowsJson(runCheckBatch(allSchemes(),
                                    {WorkloadKind::Queue}, opts));
    opts.jobs = 4;
    const std::string json4 =
        checkRowsJson(runCheckBatch(allSchemes(),
                                    {WorkloadKind::Queue}, opts));
    EXPECT_EQ(json1, json4);
}

TEST(AnalysisDeterminism, JsonByteIdenticalAcrossCycleSkip)
{
    BenchOptions opts = checkOpts();
    opts.jobs = 1;
    opts.cycleSkip = true;
    const std::string skip =
        checkRowsJson(runCheckBatch(allSchemes(),
                                    {WorkloadKind::Queue}, opts));
    opts.cycleSkip = false;
    const std::string noskip =
        checkRowsJson(runCheckBatch(allSchemes(),
                                    {WorkloadKind::Queue}, opts));
    EXPECT_EQ(skip, noskip);
}

TEST(AnalysisMutation, EveryArmedRuleFiresOnProteus)
{
    // Proteus arms all six rules, so one campaign covers the full set.
    BenchOptions opts = checkOpts();
    const auto rows = runMutationCampaign(
        LogScheme::Proteus, WorkloadKind::Queue, opts,
        /*mutate_seed=*/1);
    ASSERT_EQ(analysis::numRules, rows.size());
    for (const MutationRow &row : rows) {
        EXPECT_GT(row.mutations, 0u)
            << "mutator never perturbed an edge for "
            << toString(row.rule);
        EXPECT_TRUE(row.fired)
            << "rule " << toString(row.rule)
            << " missed its injected violation";
    }
    EXPECT_TRUE(allFired(rows));
}

TEST(AnalysisMutation, SoftwareSchemeCampaignFires)
{
    BenchOptions opts = checkOpts();
    const auto rows = runMutationCampaign(
        LogScheme::PMEM, WorkloadKind::Queue, opts, /*mutate_seed=*/2);
    ASSERT_EQ(4u, rows.size());     // no marker/LPQ rules under PMEM
    for (const MutationRow &row : rows)
        EXPECT_TRUE(row.fired) << toString(row.rule);
}

} // namespace
} // namespace proteus
