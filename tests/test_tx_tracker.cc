/**
 * @file
 * Transaction flight-recorder tests: span-chain completeness on a
 * synthetic event feed (including the rollback path, which the forward
 * simulator never exercises), Distribution percentile correctness
 * against a sorted-vector reference, the CPI cross-check invariants on
 * real end-to-end runs, and byte-identical --tx-stats output across
 * cycle-skip on/off and --jobs 1 vs 4.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiments.hh"
#include "harness/parallel_runner.hh"
#include "obs/json_reader.hh"
#include "obs/tx_stats_io.hh"
#include "obs/tx_tracker.hh"
#include "sim/stats.hh"

using namespace proteus;

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Nearest-rank percentile over a sorted sample vector (the reference
 *  definition Distribution::percentile implements). */
double
referencePercentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0;
    std::sort(sorted.begin(), sorted.end());
    if (p <= 0)
        return sorted.front();
    if (p >= 100)
        return sorted.back();
    const auto n = static_cast<double>(sorted.size());
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    rank = std::max<std::size_t>(rank, 1);
    return sorted[rank - 1];
}

BenchOptions
tinyOptions()
{
    BenchOptions opts;
    opts.threads = 2;
    opts.scale = 500;
    opts.initScale = 100;
    opts.seed = 3;
    return opts;
}

} // namespace

TEST(TxTracker, SpanChainInvariants)
{
    stats::StatRegistry reg;
    obs::TxTracker trk(reg, 1, 4);
    const CoreId c = 0;
    const TxId tx = 7;

    trk.commitSlot(c, 0, CommitBucket::Base, 10);    // outside any tx
    trk.txBegin(c, tx, 100);
    trk.lockRequested(c, tx, 0x40, 100);
    trk.lockGranted(c, tx, 0x40, 115);
    trk.commitSlot(c, tx, CommitBucket::LockWait, 15);
    trk.logCreated(c, tx, 120);
    trk.logFiltered(c, tx, 125);
    trk.mcQueued(c, tx, true, 130);
    trk.logAcked(c, tx, 120, 150);
    trk.mcIssued(c, tx, 130, 160);
    trk.nvmPersisted(c, tx, true, 180);
    trk.commitSlot(c, tx, CommitBucket::Base, 80);
    trk.commitSlot(c, tx, CommitBucket::PersistStall, 5);
    trk.txCommit(c, tx, 200);
    trk.nvmPersisted(c, tx, false, 220);    // lazy post-commit drain

    const obs::TxStatsSummary s = trk.summary();
    EXPECT_EQ(s.committedTxs, 1u);
    EXPECT_EQ(s.rollbacks, 0u);
    EXPECT_EQ(s.openTxs, 0u);
    EXPECT_EQ(s.lockAcquires, 1u);
    EXPECT_EQ(s.logsCreated, 1u);
    EXPECT_EQ(s.logsFiltered, 1u);
    EXPECT_EQ(s.logsAcked, 1u);
    EXPECT_EQ(s.mcLogQueued, 1u);
    EXPECT_EQ(s.mcIssued, 1u);
    EXPECT_EQ(s.nvmPersists, 2u);
    EXPECT_EQ(s.postCommitPersists, 1u);

    // Slot accounting: totals include the out-of-tx cycles, in-tx does
    // not, and the per-tx buckets sum to commit - begin.
    const auto base = static_cast<unsigned>(CommitBucket::Base);
    const auto lock = static_cast<unsigned>(CommitBucket::LockWait);
    const auto stall = static_cast<unsigned>(CommitBucket::PersistStall);
    EXPECT_EQ(s.slotTotal[base], 90u);
    EXPECT_EQ(s.slotInTx[base], 80u);
    EXPECT_EQ(s.slotTotal[lock], 15u);
    EXPECT_EQ(s.slotInTx[stall], 5u);

    ASSERT_EQ(s.slowest.size(), 1u);
    const obs::TxTimeline &tl = s.slowest[0];
    EXPECT_EQ(tl.latency, 100u);
    std::uint64_t slot_sum = 0;
    for (std::uint64_t v : tl.slots)
        slot_sum += v;
    EXPECT_EQ(slot_sum, tl.latency);
    EXPECT_EQ(tl.critPath, CommitBucket::Base);
    ASSERT_GE(tl.events.size(), 2u);
    EXPECT_EQ(tl.events.front().kind, obs::TxEvent::Kind::Begin);
    // Events are recorded in chain order, commit last (the post-commit
    // persist lands after the timeline is sealed).
    EXPECT_EQ(tl.events.back().kind, obs::TxEvent::Kind::Commit);
    for (std::size_t i = 1; i < tl.events.size(); ++i)
        EXPECT_GE(tl.events[i].at, tl.events[i - 1].at);

    const auto cl =
        static_cast<unsigned>(obs::TxStage::CommitLatency);
    EXPECT_EQ(s.stages[cl].count, 1u);
    EXPECT_EQ(s.stages[cl].sum, 100.0);
    const auto lpt = static_cast<unsigned>(obs::TxStage::LogsPerTx);
    EXPECT_EQ(s.stages[lpt].sum, 2.0);      // 1 created + 1 filtered
    const auto lw = static_cast<unsigned>(obs::TxStage::LockWait);
    EXPECT_EQ(s.stages[lw].sum, 15.0);
    const auto la = static_cast<unsigned>(obs::TxStage::LogAck);
    EXPECT_EQ(s.stages[la].sum, 30.0);
    const auto mq = static_cast<unsigned>(obs::TxStage::McQueueWait);
    EXPECT_EQ(s.stages[mq].sum, 30.0);
}

TEST(TxTracker, RollbackCountsWithoutCommitSample)
{
    stats::StatRegistry reg;
    obs::TxTracker trk(reg, 1, 4);
    trk.txBegin(0, 5, 10);
    trk.commitSlot(0, 5, CommitBucket::Base, 20);
    trk.txRollback(0, 5, 30);

    const obs::TxStatsSummary s = trk.summary();
    EXPECT_EQ(s.committedTxs, 0u);
    EXPECT_EQ(s.rollbacks, 1u);
    EXPECT_EQ(s.openTxs, 0u);
    const auto cl =
        static_cast<unsigned>(obs::TxStage::CommitLatency);
    EXPECT_EQ(s.stages[cl].count, 0u);      // no latency sample
    EXPECT_TRUE(s.slowest.empty());         // no timeline retained
    // The cycles it burned still count in the slot totals.
    EXPECT_EQ(s.slotTotal[static_cast<unsigned>(CommitBucket::Base)],
              20u);
}

TEST(TxTracker, SlowestRingBoundedAndSorted)
{
    stats::StatRegistry reg;
    obs::TxTracker trk(reg, 1, 2);
    for (TxId tx = 1; tx <= 5; ++tx) {
        trk.txBegin(0, tx, tx * 1000);
        trk.commitSlot(0, tx, CommitBucket::Base, tx * 10);
        trk.txCommit(0, tx, tx * 1000 + tx * 10);
    }
    const obs::TxStatsSummary s = trk.summary();
    EXPECT_EQ(s.committedTxs, 5u);
    ASSERT_EQ(s.slowest.size(), 2u);        // ring capped at K
    EXPECT_EQ(s.slowest[0].latency, 50u);   // slowest first
    EXPECT_EQ(s.slowest[1].latency, 40u);
}

TEST(TxTracker, TimelineCritPathUsesJsonSlotKey)
{
    stats::StatRegistry reg;
    obs::TxTracker trk(reg, 1, 1);
    trk.txBegin(0, 1, 100);
    trk.commitSlot(0, 1, CommitBucket::IqLsqFull, 40);
    trk.commitSlot(0, 1, CommitBucket::Base, 10);
    trk.txCommit(0, 1, 150);

    obs::TxStatsRow row;
    row.summary = trk.summary();
    std::ostringstream os;
    obs::writeTxStatsJson(os, {row});
    // The timeline names its critical path with the same camelCase
    // keys the slot objects use, not the CPI-stack display names.
    EXPECT_NE(os.str().find("\"critPath\": \"iqLsqFull\""),
              std::string::npos);
    EXPECT_EQ(os.str().find("iq-lsq-full"), std::string::npos);
}

TEST(TxStats, PercentileMatchesSortedReference)
{
    stats::StatRegistry reg;
    stats::Distribution dist(reg, "d", "", 0, 16384, 64);
    std::mt19937 rng(42);
    std::uniform_int_distribution<int> pick(
        0, static_cast<int>(stats::Distribution::percentileExactMax) - 1);
    std::vector<double> samples;
    for (int i = 0; i < 5000; ++i) {
        const double v = pick(rng);
        samples.push_back(v);
        dist.sample(v);
    }
    // Below percentileExactMax the percentile state is exact, so every
    // nearest-rank query must match the sorted-vector reference.
    for (double p : {0.0, 1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0})
        EXPECT_EQ(dist.percentile(p), referencePercentile(samples, p))
            << "p" << p;
}

TEST(TxStats, PercentileQuantizedRelativeErrorBounded)
{
    stats::StatRegistry reg;
    stats::Distribution dist(reg, "d", "", 0, 16384, 64);
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> pick(8192.0, 4.0e6);
    std::vector<double> samples;
    for (int i = 0; i < 5000; ++i) {
        const double v = std::floor(pick(rng));
        samples.push_back(v);
        dist.sample(v);
    }
    // Above the exact range values are quantized to 12 mantissa bits:
    // relative error bounded by 2^-12.
    for (double p : {50.0, 95.0, 99.0}) {
        const double ref = referencePercentile(samples, p);
        const double got = dist.percentile(p);
        EXPECT_NEAR(got, ref, ref / 4096.0) << "p" << p;
    }
    EXPECT_EQ(dist.max(),
              *std::max_element(samples.begin(), samples.end()));
}

TEST(TxStats, MergeMatchesCombinedDistribution)
{
    stats::StatRegistry reg;
    stats::Distribution a(reg, "a", "", 0, 16384, 64);
    stats::Distribution b(reg, "b", "", 0, 16384, 64);
    stats::Distribution combined(reg, "c", "", 0, 16384, 64);
    std::mt19937 rng(13);
    std::uniform_int_distribution<int> pick(0, 100000);
    for (int i = 0; i < 3000; ++i) {
        const double v = pick(rng);
        (i % 2 ? a : b).sample(v);
        combined.sample(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_EQ(a.sum(), combined.sum());
    EXPECT_EQ(a.max(), combined.max());
    for (double p : {1.0, 50.0, 95.0, 99.0, 100.0})
        EXPECT_EQ(a.percentile(p), combined.percentile(p)) << "p" << p;
    EXPECT_EQ(a.quantized(), combined.quantized());
}

TEST(TxStats, EndToEndCpiCrossCheck)
{
    const BenchOptions opts = tinyOptions();
    for (LogScheme scheme :
         {LogScheme::PMEM, LogScheme::ATOM, LogScheme::Proteus}) {
        SystemConfig cfg = opts.makeConfig();
        cfg.obs.txTrack = true;
        const RunResult r = runExperiment(cfg, scheme,
                                          WorkloadKind::Queue, opts);
        ASSERT_TRUE(r.finished) << toString(scheme);
        ASSERT_TRUE(r.txStats) << toString(scheme);
        const obs::TxStatsSummary &s = *r.txStats;
        EXPECT_EQ(s.committedTxs, r.committedTxs) << toString(scheme);
        EXPECT_EQ(s.openTxs, 0u) << toString(scheme);

        // The recorder's per-bucket commit-slot totals must equal the
        // CPI stack accounted independently by the cores, bucket for
        // bucket — cycles can neither vanish nor double-count.
        const std::uint64_t cpi[obs::numTxSlots] = {
            r.cpi.base,          r.cpi.robFull,
            r.cpi.iqLsqFull,     r.cpi.branchRedirect,
            r.cpi.persistStall,  r.cpi.wpqBackpressure,
            r.cpi.lockWait};
        double in_tx_sum = 0;
        for (unsigned b = 0; b < obs::numTxSlots; ++b) {
            EXPECT_EQ(s.slotTotal[b], cpi[b])
                << toString(scheme) << " bucket " << b;
            EXPECT_LE(s.slotInTx[b], s.slotTotal[b]);
            // Every in-tx cycle belongs to a committed transaction
            // (this workload never aborts), so the per-tx slot
            // distributions account for exactly the in-tx subset.
            const auto stage = static_cast<unsigned>(
                static_cast<unsigned>(obs::TxStage::SlotBase) + b);
            EXPECT_EQ(s.stages[stage].sum,
                      static_cast<double>(s.slotInTx[b]))
                << toString(scheme) << " bucket " << b;
            in_tx_sum += static_cast<double>(s.slotInTx[b]);
        }
        // Per-tx slots sum to commit - begin, so the commit-latency
        // mass equals the total in-tx cycle mass.
        const auto cl =
            static_cast<unsigned>(obs::TxStage::CommitLatency);
        EXPECT_EQ(s.stages[cl].sum, in_tx_sum) << toString(scheme);
        for (const obs::TxTimeline &tl : s.slowest) {
            std::uint64_t slot_sum = 0;
            for (std::uint64_t v : tl.slots)
                slot_sum += v;
            EXPECT_EQ(slot_sum, tl.latency) << toString(scheme);
        }
    }
}

TEST(TxStats, FileBitIdenticalAcrossCycleSkip)
{
    const std::string path_skip =
        testing::TempDir() + "/proteus_txstats_skip.json";
    const std::string path_noskip =
        testing::TempDir() + "/proteus_txstats_noskip.json";

    BenchOptions opts = tinyOptions();
    opts.obs.txStats = path_skip;
    SystemConfig cfg = opts.makeConfig();
    runExperiment(cfg, LogScheme::Proteus, WorkloadKind::Queue, opts);

    opts.cycleSkip = false;
    opts.obs.txStats = path_noskip;
    cfg = opts.makeConfig();
    runExperiment(cfg, LogScheme::Proteus, WorkloadKind::Queue, opts);

    const std::string a = slurp(path_skip);
    const std::string b = slurp(path_noskip);
    ASSERT_FALSE(a.empty());
    // Cycle skipping must be observationally invisible: the bulk
    // replay of quiescent spans reproduces the per-cycle commit-slot
    // feed exactly, so the files match byte for byte.
    EXPECT_EQ(a, b);
    EXPECT_NO_THROW(obs::parseJson(a));

    // And the file round-trips through the report tool's reader.
    const obs::JsonValue doc = obs::parseJson(a);
    EXPECT_EQ(doc.at("version").asU64(), 1u);
    ASSERT_EQ(doc.at("rows").array.size(), 1u);
    const obs::JsonValue &row = doc.at("rows").array[0];
    EXPECT_EQ(row.at("scheme").asString(), "Proteus");
    EXPECT_GT(row.at("counters").at("committedTxs").asU64(), 0u);

    std::remove(path_skip.c_str());
    std::remove(path_noskip.c_str());
}

TEST(ParallelRunner, TxStatsDeterminism)
{
    const BenchOptions opts = tinyOptions();
    const std::vector<LogScheme> schemes{LogScheme::PMEM,
                                         LogScheme::Proteus};
    const std::vector<WorkloadKind> workloads{WorkloadKind::Queue,
                                              WorkloadKind::BTree};
    // The per-job config carries a tx-stats path; the runner must
    // suppress the per-job file (forcing in-memory tracking) so the
    // batch writer emits ONE combined file in submission order.
    const std::string stray =
        testing::TempDir() + "/proteus_txstats_stray.json";
    std::vector<SimJob> jobs;
    for (LogScheme s : schemes) {
        for (WorkloadKind w : workloads) {
            SystemConfig cfg = opts.makeConfig();
            cfg.obs.txStats = stray;
            jobs.push_back(SimJob{cfg, s, w, {},
                                  std::string(toString(s)) + " / " +
                                      toString(w)});
        }
    }

    const auto serial = ParallelRunner(1).run(jobs, opts);
    const auto parallel = ParallelRunner(4).run(jobs, opts);
    EXPECT_FALSE(std::ifstream(stray).good())
        << "runner wrote a per-job tx-stats file";

    auto write = [&](const std::vector<SimJobResult> &results,
                     const std::string &path) {
        std::vector<obs::TxStatsRow> rows;
        std::size_t i = 0;
        for (LogScheme s : schemes)
            for (WorkloadKind w : workloads)
                rows.push_back(makeTxStatsRow(
                    runKey(opts, opts.makeConfig(), w, s),
                    results[i++].result));
        obs::writeTxStatsFile(path, rows);
    };
    const std::string path_1 =
        testing::TempDir() + "/proteus_txstats_j1.json";
    const std::string path_4 =
        testing::TempDir() + "/proteus_txstats_j4.json";
    write(serial, path_1);
    write(parallel, path_4);

    const std::string a = slurp(path_1);
    const std::string b = slurp(path_4);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    EXPECT_NO_THROW(obs::parseJson(a));
    std::remove(path_1.c_str());
    std::remove(path_4.c_str());
}
