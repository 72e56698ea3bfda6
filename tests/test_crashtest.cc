/**
 * @file
 * The crash-consistency validation subsystem, tested on itself:
 * the commit oracle's per-byte verdicts, crash injection over full
 * systems, campaign determinism across --jobs levels, and — crucially
 * — that a deliberately broken recovery IS caught. A checker that
 * cannot flag a missing undo pass proves nothing when it stays green.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "crashtest/commit_oracle.hh"
#include "crashtest/crash_tester.hh"
#include "harness/system.hh"
#include "heap/persistent_heap.hh"
#include "sim/logging.hh"

using namespace proteus;

namespace {

constexpr Addr dataBase = PersistentHeap::persistentBase;

/** Campaign options shared by the system-level tests. */
CrashTestOptions
smallCampaign()
{
    CrashTestOptions opts;
    opts.schemes = {LogScheme::PMEM, LogScheme::ATOM, LogScheme::Proteus};
    opts.workloads = {WorkloadKind::Queue};
    opts.threads = 1;
    opts.scale = 250;
    opts.initScale = 100;
    opts.seed = 11;
    opts.mode = CrashMode::Stride;
    opts.autoPoints = 6;
    return opts;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

} // namespace

TEST(FaultSweepCampaign, CarriesEveryRunSettingAtOneThreadWithoutJson)
{
    // proteus-bench fault-sweep builds its campaigns this way. A
    // field-by-field copy once dropped --init-scale, and later --set and
    // --dram.
    BenchOptions bench;
    bench.scale = 2000;
    bench.initScale = 50;
    bench.threads = 4;
    bench.seed = 9;
    bench.jobs = 3;
    bench.jsonPath = "rows.json";
    bench.cycleSkip = false;
    bench.check = true;
    bench.checkMutate = 2;
    bench.faults = faults::parseFaultSpec("torn=0.01");
    bench.dram = true;
    bench.overrides = {"memCtrl.wpqEntries=8", "logging.logQEntries=4"};
    bench.wlSpec = "keys=4";
    bench.obs.traceEvents = "trace.json";
    bench.obs.txStats = "tx.json";
    const CrashTestOptions ct(bench);
    EXPECT_EQ(ct.threads, 1u);  // the byte-exact oracle needs one core
    EXPECT_EQ(ct.jsonPath, "");
    EXPECT_EQ(ct.scale, 2000u);
    EXPECT_EQ(ct.initScale, 50u);
    EXPECT_EQ(ct.seed, 9u);
    EXPECT_EQ(ct.jobs, 3u);
    EXPECT_FALSE(ct.cycleSkip);
    EXPECT_TRUE(ct.check);
    EXPECT_EQ(ct.checkMutate, 2);
    EXPECT_EQ(ct.faults.tornWriteRate, 0.01);
    EXPECT_TRUE(ct.dram);
    EXPECT_EQ(ct.overrides, bench.overrides);
    EXPECT_EQ(ct.wlSpec, "keys=4");
    EXPECT_EQ(ct.gen.canonical(), bench.genSpec().canonical());
    EXPECT_EQ(ct.obs.traceEvents, "trace.json");
    EXPECT_EQ(ct.obs.txStats, "tx.json");
    // The campaign defaults stay those of a fresh campaign.
    const CrashTestOptions fresh;
    EXPECT_EQ(ct.mode, fresh.mode);
    EXPECT_EQ(ct.autoPoints, fresh.autoPoints);
    EXPECT_TRUE(ct.checkSerialization);
}

TEST(CrashCampaign, WritesNoObservabilityFiles)
{
    // Pairs run side by side on one config, so a trace, interval or
    // tx-stats file would be written by every pair to one path.
    const std::string dir = ::testing::TempDir();
    const std::string files[] = {dir + "campaign_trace.json",
                                 dir + "campaign_iv.json",
                                 dir + "campaign_tx.json"};
    for (const std::string &f : files)
        std::remove(f.c_str());
    CrashTestOptions opts = smallCampaign();
    opts.schemes = {LogScheme::Proteus};
    opts.autoPoints = 2;
    opts.obs.traceEvents = files[0];
    opts.obs.statsInterval = 1000;
    opts.obs.statsOut = files[1];
    opts.obs.txStats = files[2];
    std::ostringstream log;
    EXPECT_TRUE(runCrashTests(opts, log).ok) << log.str();
    for (const std::string &f : files)
        EXPECT_FALSE(std::ifstream(f).good()) << f;
}

// ---------------------------------------------------------------------
// CommitOracle unit tests: histories built by hand, images checked
// against them. Two transactions on one thread: tx 100 commits value
// 0x11.. over zeros, tx 101 then writes 0x22.. and is in flight.
// ---------------------------------------------------------------------

namespace {

void
recordTwoTxHistory(CommitOracle &oracle)
{
    oracle.onTxBegin(0, 100);
    oracle.onStore(0, 100, dataBase, 8, 0, 0x1111111111111111ull,
                   ObservedWrite::Logged);
    oracle.onTxEnd(0, 100);
    oracle.onTxBegin(0, 101);
    oracle.onStore(0, 101, dataBase, 8, 0x1111111111111111ull,
                   0x2222222222222222ull, ObservedWrite::Logged);
    oracle.onTxEnd(0, 101);
}

} // namespace

TEST(CommitOracle, RolledBackInDoubtTxIsAccepted)
{
    CommitOracle oracle;
    recordTwoTxHistory(oracle);
    ASSERT_EQ(oracle.txCount(), 2u);
    ASSERT_EQ(oracle.trackedBytes(), 8u);

    MemoryImage image;
    image.write64(dataBase, 0x1111111111111111ull);  // tx 101 undone

    const OracleReport report = oracle.check(image, {1});
    EXPECT_TRUE(report.ok) << report.summary();
    EXPECT_EQ(report.inDoubt, InDoubtOutcome::RolledBack);
    EXPECT_EQ(report.inDoubtTx, 101u);
    EXPECT_EQ(report.bytesChecked, 8u);
    EXPECT_EQ(CommitOracle::replayCount(report, 1), 1u);
}

TEST(CommitOracle, CommittedInDoubtTxIsAcceptedAndExtendsReplay)
{
    CommitOracle oracle;
    recordTwoTxHistory(oracle);

    MemoryImage image;
    image.write64(dataBase, 0x2222222222222222ull);  // tx 101 durable

    const OracleReport report = oracle.check(image, {1});
    EXPECT_TRUE(report.ok) << report.summary();
    EXPECT_EQ(report.inDoubt, InDoubtOutcome::Committed);
    EXPECT_EQ(CommitOracle::replayCount(report, 1), 2u);
}

TEST(CommitOracle, TornInDoubtTxIsAViolation)
{
    CommitOracle oracle;
    oracle.onTxBegin(0, 100);
    oracle.onStore(0, 100, dataBase, 8, 0, 0x11ull,
                   ObservedWrite::Logged);
    oracle.onStore(0, 100, dataBase + 64, 8, 0, 0x22ull,
                   ObservedWrite::Logged);
    oracle.onTxEnd(0, 100);

    MemoryImage image;
    image.write64(dataBase, 0x11);          // first write durable...
    image.write64(dataBase + 64, 0);        // ...second rolled back

    const OracleReport report = oracle.check(image, {0});
    EXPECT_FALSE(report.ok);
    EXPECT_EQ(report.inDoubt, InDoubtOutcome::Torn);
    EXPECT_EQ(report.inDoubtTx, 100u);
    ASSERT_FALSE(report.violations.empty());
    EXPECT_NE(report.violations[0].note.find("torn"), std::string::npos);
}

TEST(CommitOracle, LostCommittedWriteIsAViolation)
{
    CommitOracle oracle;
    recordTwoTxHistory(oracle);

    MemoryImage image;                      // still all zeros: tx 100 lost

    const OracleReport report = oracle.check(image, {1});
    EXPECT_FALSE(report.ok);
    EXPECT_EQ(report.violationCount, 8u);
    ASSERT_FALSE(report.violations.empty());
    EXPECT_EQ(report.violations[0].addr, dataBase);
    EXPECT_EQ(report.violations[0].expected, 0x11);
    EXPECT_EQ(report.violations[0].actual, 0);
}

TEST(CommitOracle, SurvivingUncommittedWriteNamesTheGuiltyTx)
{
    CommitOracle oracle;
    oracle.onTxBegin(0, 100);
    oracle.onStore(0, 100, dataBase, 8, 0, 0x11ull,
                   ObservedWrite::Logged);
    oracle.onTxEnd(0, 100);
    oracle.onTxBegin(0, 101);               // in-doubt, touches nothing
    oracle.onTxEnd(0, 101);
    oracle.onTxBegin(0, 102);               // never started in timing run
    oracle.onStore(0, 102, dataBase, 8, 0x11ull, 0x33ull,
                   ObservedWrite::Logged);
    oracle.onTxEnd(0, 102);

    MemoryImage image;
    image.write64(dataBase, 0x33);          // tx 102 leaked through

    const OracleReport report = oracle.check(image, {1});
    EXPECT_FALSE(report.ok);
    ASSERT_FALSE(report.violations.empty());
    EXPECT_EQ(report.violations[0].guiltyTx, 102u);
    EXPECT_NE(report.violations[0].note.find("uncommitted"),
              std::string::npos);
}

TEST(CommitOracle, RawAndUncommittedUnloggedWritesAreSkipped)
{
    CommitOracle oracle;
    oracle.onTxBegin(0, 100);
    // storeRaw: never persist-ordered, byte unpredictable.
    oracle.onStore(0, 100, dataBase, 8, 0, 0x11ull, ObservedWrite::Raw);
    // storeInit of an uncommitted tx: unlogged, unpredictable.
    oracle.onStore(0, 100, dataBase + 64, 8, 0, 0x22ull,
                   ObservedWrite::Unlogged);
    oracle.onTxEnd(0, 100);

    MemoryImage image;
    image.write64(dataBase, 0xDEAD);
    image.write64(dataBase + 64, 0xBEEF);

    const OracleReport report = oracle.check(image, {0});
    EXPECT_TRUE(report.ok) << report.summary();
    EXPECT_EQ(report.bytesChecked, 0u);
    EXPECT_EQ(report.bytesSkipped, 16u);
}

TEST(CommitOracle, NonPersistentAndLogAreaWritesAreIgnored)
{
    CommitOracle oracle;
    oracle.onTxBegin(0, 100);
    oracle.onStore(0, 100, PersistentHeap::volatileBase, 8, 0, 1,
                   ObservedWrite::Logged);
    oracle.onStore(0, 100, PersistentHeap::logBase, 8, 0, 1,
                   ObservedWrite::Logged);
    oracle.onTxEnd(0, 100);
    EXPECT_EQ(oracle.trackedBytes(), 0u);
}

// ---------------------------------------------------------------------
// System-level crash injection.
// ---------------------------------------------------------------------

TEST(CrashInjection, CrashNowDropsEveryPendingEvent)
{
    SystemConfig cfg = baselineConfig();
    cfg.logging.scheme = LogScheme::Proteus;
    WorkloadParams params;
    params.threads = 1;
    params.scale = 250;
    params.initScale = 100;
    params.seed = 11;

    FullSystem sys(cfg, WorkloadKind::Queue, params);
    sys.runFor(2000);
    ASSERT_FALSE(sys.done());

    sys.crashNow();
    EXPECT_TRUE(sys.sim().events().empty());
    // The crash image is still materializable after the power cut.
    const MemoryImage image = sys.crashImage();
    EXPECT_GT(image.pageCount(), 0u);
}

TEST(CrashCampaign, SmallSweepFindsNoViolations)
{
    CrashTestOptions opts = smallCampaign();
    std::ostringstream os;
    const CrashTestSummary summary = runCrashTests(opts, os);
    EXPECT_TRUE(summary.ok) << os.str();
    EXPECT_EQ(summary.violations, 0u) << os.str();
    EXPECT_GE(summary.crashPoints, 12u);
    ASSERT_EQ(summary.pairs.size(), 3u);
    for (const CrashPairResult &pair : summary.pairs) {
        EXPECT_GT(pair.totalCycles, 0u);
        EXPECT_GT(pair.totalTxs, 0u);
        EXPECT_FALSE(pair.points.empty());
    }
}

TEST(CrashCampaign, ConfigOverridesReachEveryPair)
{
    // The campaign once ran every pair on the baseline config, so the
    // fault sweep's --set changed its timing runs but not its crash
    // runs.
    CrashTestOptions opts = smallCampaign();
    opts.schemes = {LogScheme::ATOM};
    opts.autoPoints = 4;
    std::ostringstream base_log;
    const CrashTestSummary base = runCrashTests(opts, base_log);

    opts.overrides = {"logging.logAreaBytes=4096", "memCtrl.wpqEntries=8"};
    std::ostringstream log;
    const CrashTestSummary small = runCrashTests(opts, log);
    EXPECT_TRUE(small.ok) << log.str();
    ASSERT_EQ(small.pairs.size(), 1u);
    ASSERT_EQ(base.pairs.size(), 1u);
    EXPECT_NE(small.pairs[0].totalCycles, base.pairs[0].totalCycles);

    // The replay line rebuilds the same machine.
    opts.dram = true;
    const std::string replay = replayCommand(opts, small.pairs[0]);
    EXPECT_NE(replay.find(" --dram --set logging.logAreaBytes=4096 --set "
                          "memCtrl.wpqEntries=8"),
              std::string::npos)
        << replay;

    // A bad value is rejected before any pair runs, naming the key.
    opts.overrides = {"logging.logAreaBytes=64"};
    std::ostringstream bad_log;
    try {
        runCrashTests(opts, bad_log);
        ADD_FAILURE() << "accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("logging.logAreaBytes"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(bad_log.str(), "");
}

TEST(CrashCampaign, BrokenRecoveryIsCaughtWithAReplayableSeed)
{
    // Skip recovery entirely: in-flight Proteus state survives into the
    // checked image, and the subsystem must say so. This is the
    // regression test for the checker's own detection power.
    CrashTestOptions opts = smallCampaign();
    opts.schemes = {LogScheme::Proteus};
    opts.autoPoints = 25;
    opts.breakRecovery = true;

    std::ostringstream os;
    const CrashTestSummary summary = runCrashTests(opts, os);
    EXPECT_FALSE(summary.ok);
    EXPECT_GT(summary.violations, 0u);
    // The failure report carries the one-command replay with the seed.
    const std::string log = os.str();
    EXPECT_NE(log.find("VIOLATION"), std::string::npos);
    EXPECT_NE(log.find("--seed 11"), std::string::npos);
    EXPECT_NE(log.find("--crash-at"), std::string::npos);
}

TEST(CrashCampaign, JsonIsBitIdenticalAcrossJobsLevels)
{
    const std::string path1 = ::testing::TempDir() + "crashtest_j1.json";
    const std::string path4 = ::testing::TempDir() + "crashtest_j4.json";

    CrashTestOptions opts = smallCampaign();
    opts.autoPoints = 4;
    opts.jsonPath = path1;
    opts.jobs = 1;
    std::ostringstream os1;
    runCrashTests(opts, os1);

    opts.jsonPath = path4;
    opts.jobs = 4;
    std::ostringstream os4;
    runCrashTests(opts, os4);

    const std::string json1 = slurp(path1);
    const std::string json4 = slurp(path4);
    ASSERT_FALSE(json1.empty());
    EXPECT_EQ(json1, json4);
    EXPECT_NE(json1.find("\"tool\": \"proteus-crashtest\""),
              std::string::npos);
    EXPECT_NE(json1.find("\"seed\": 11"), std::string::npos);
    std::remove(path1.c_str());
    std::remove(path4.c_str());
}

TEST(CrashCampaign, ExplicitCrashPointsAreHonored)
{
    CrashTestOptions opts = smallCampaign();
    opts.schemes = {LogScheme::PMEM};
    opts.mode = CrashMode::Points;
    opts.points = {5000, 20000, 5000};      // dup collapses

    std::ostringstream os;
    const CrashTestSummary summary = runCrashTests(opts, os);
    ASSERT_EQ(summary.pairs.size(), 1u);
    ASSERT_EQ(summary.pairs[0].points.size(), 2u);
    EXPECT_EQ(summary.pairs[0].points[0].crashCycle, 5000u);
    EXPECT_EQ(summary.pairs[0].points[1].crashCycle, 20000u);
    EXPECT_TRUE(summary.ok) << os.str();
}

TEST(CrashCampaign, FuzzModeIsDeterministicForAFixedSeed)
{
    CrashTestOptions opts = smallCampaign();
    opts.schemes = {LogScheme::Proteus};
    opts.mode = CrashMode::Fuzz;
    opts.fuzzCount = 5;

    std::ostringstream os1, os2;
    const CrashTestSummary a = runCrashTests(opts, os1);
    const CrashTestSummary b = runCrashTests(opts, os2);
    ASSERT_EQ(a.pairs.size(), 1u);
    ASSERT_EQ(a.pairs[0].points.size(), b.pairs[0].points.size());
    EXPECT_FALSE(a.pairs[0].points.empty());
    for (std::size_t i = 0; i < a.pairs[0].points.size(); ++i) {
        EXPECT_EQ(a.pairs[0].points[i].crashCycle,
                  b.pairs[0].points[i].crashCycle);
    }
    EXPECT_TRUE(a.ok) << os1.str();
}
