/**
 * @file
 * The workload generation subsystem, tested at every layer: GenSpec
 * parsing/canonicalization, the key-distribution generators against
 * their analytical distributions, the generated KV workload's
 * functional invariants across schemes, crash consistency under the
 * oracle, and end-to-end determinism across --jobs levels and
 * cycle-skip settings.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "crashtest/crash_tester.hh"
#include "harness/experiments.hh"
#include "harness/parallel_runner.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "wlgen/gen_workload.hh"
#include "wlgen/keydist.hh"
#include "workloads/registry.hh"

using namespace proteus;
using wlgen::GenSpec;

namespace {

/** Small spec for fast end-to-end runs. */
GenSpec
smallSpec(const std::string &delta = "")
{
    GenSpec spec = GenSpec::parse("keyspace=512,ops=400");
    if (!delta.empty())
        spec = GenSpec::parse(delta, spec);
    return spec;
}

WorkloadParams
smallParams(unsigned threads = 2)
{
    WorkloadParams p;
    p.threads = threads;
    p.scale = 1;
    p.initScale = 1;
    p.seed = 7;
    return p;
}

struct GenRun
{
    GenRun(const GenSpec &spec, LogScheme scheme,
           const WorkloadParams &params)
        : heap(std::make_unique<PersistentHeap>()),
          wl(makeWorkload(WorkloadKind::Generated, *heap, scheme,
                          params, WorkloadExtras{{}, spec}))
    {
        wl->setup();
        wl->generateTraces();
    }

    std::unique_ptr<PersistentHeap> heap;
    std::unique_ptr<Workload> wl;
};

} // namespace

// ---------------------------------------------------------------------
// GenSpec: parse / canonical round-trips and validation.
// ---------------------------------------------------------------------

TEST(WlgenSpec, CanonicalRoundTripsThroughParse)
{
    const std::vector<std::string> specs{
        "",
        "dist=uniform",
        "dist=zipf,theta=0.75",
        "dist=hot,hot-frac=0.2,hot-ops=0.8",
        "read=0,update=0,insert=50,delete=50,rmw=0,keys=2-8",
        "vsize=256,tables=1,keyspace=1000,populate=100,ops=123",
    };
    for (const std::string &s : specs) {
        const GenSpec spec = GenSpec::parse(s);
        const GenSpec again = GenSpec::parse(spec.canonical());
        EXPECT_EQ(spec, again) << s;
        EXPECT_EQ(spec.canonical(), again.canonical()) << s;
        EXPECT_EQ(spec.hash(), again.hash()) << s;
    }
}

TEST(WlgenSpec, SpellingsOfOneValueShareIdentity)
{
    const GenSpec a = GenSpec::parse("theta=0.9");
    const GenSpec b = GenSpec::parse("theta=0.90000");
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.canonical(), b.canonical());
    EXPECT_EQ(a.hash(), b.hash());
    // zipf and zipfian are aliases.
    EXPECT_EQ(GenSpec::parse("dist=zipfian"), GenSpec::parse("dist=zipf"));
}

TEST(WlgenSpec, SingletonKeyRangePrintsAsOneNumber)
{
    const GenSpec spec = GenSpec::parse("keys=4");
    EXPECT_NE(spec.canonical().find("keys=4,"), std::string::npos);
    EXPECT_EQ(spec.keysMin, 4u);
    EXPECT_EQ(spec.keysMax, 4u);
}

TEST(WlgenSpec, DistributionKnobsDoNotLeakAcrossDists)
{
    // A uniform spec carries no theta, so two specs differing only in
    // an irrelevant knob are the same workload.
    const GenSpec a = GenSpec::parse("dist=uniform,theta=0.5");
    const GenSpec b = GenSpec::parse("dist=uniform,theta=0.9");
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.canonical(), b.canonical());
    EXPECT_EQ(a.canonical().find("theta"), std::string::npos);
}

TEST(WlgenSpec, RejectsInvalidSpecs)
{
    const std::vector<std::string> bad{
        "read=90",              // mix sums to 95
        "vsize=12",             // not a multiple of 8
        "vsize=0",
        "theta=1",              // theta must be < 1
        "theta=-0.1",
        "keys=0",
        "keys=5-2",             // inverted range
        "keys=1-65",            // above the per-tx cap
        "tables=0",
        "tables=65",
        "keyspace=8",           // below the minimum
        "populate=101",
        "ops=0",
        "dist=hot,hot-frac=0",
        "dist=hot,hot-ops=1.5",
        "dist=gaussian",        // unknown distribution
        "nope=1",               // unknown key
        "theta=abc",            // not a number
        "ops=-5",               // wrapped around to 2^64 - 5
        "theta=0x0.8",          // hex float
        "keys",                 // missing '='
    };
    for (const std::string &s : bad)
        EXPECT_THROW(GenSpec::parse(s), FatalError) << s;
}

TEST(WlgenSpec, SpecFileParsesWithInlineOverlay)
{
    const std::string path =
        ::testing::TempDir() + "/wlgen_spec_test.conf";
    {
        std::ofstream os(path);
        os << "# a comment\n"
           << "dist = zipf\n"
           << "theta = 0.5\n"
           << "\n"
           << "keyspace = 2048\n";
    }
    const GenSpec from_file = GenSpec::parseFile(path);
    EXPECT_EQ(from_file.dist, wlgen::KeyDist::Zipfian);
    EXPECT_EQ(from_file.keySpace, 2048u);
    EXPECT_DOUBLE_EQ(from_file.theta, 0.5);

    // Inline --wl-spec overrides on top of the file.
    const GenSpec overlaid = GenSpec::parse("theta=0.99", from_file);
    EXPECT_DOUBLE_EQ(overlaid.theta, 0.99);
    EXPECT_EQ(overlaid.keySpace, 2048u);

    EXPECT_THROW(GenSpec::parseFile(path + ".missing"), FatalError);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Key distributions against their analytical shapes.
// ---------------------------------------------------------------------

namespace {

std::vector<double>
empiricalFrequencies(const wlgen::KeyGenerator &gen, std::uint64_t n,
                     std::size_t draws, std::uint64_t seed = 42)
{
    Random rng(seed);
    std::vector<double> freq(n, 0.0);
    for (std::size_t i = 0; i < draws; ++i) {
        const std::uint64_t rank = gen.nextRank(rng);
        EXPECT_LT(rank, n);
        freq[rank] += 1.0;
    }
    for (double &f : freq)
        f /= static_cast<double>(draws);
    return freq;
}

} // namespace

TEST(WlgenKeyDist, ZipfianMassSumsToOne)
{
    const wlgen::ZipfianGenerator gen(1000, 0.9);
    double sum = 0;
    for (std::uint64_t r = 0; r < 1000; ++r)
        sum += gen.mass(r);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(WlgenKeyDist, ZipfianMatchesAnalyticalMass)
{
    const std::uint64_t n = 100;
    const wlgen::ZipfianGenerator gen(n, 0.9);
    const auto freq = empiricalFrequencies(gen, n, 200000);

    // Every rank whose analytical mass is non-negligible must match
    // within 15% relative error at 200k draws.
    for (std::uint64_t r = 0; r < n; ++r) {
        const double expect = gen.mass(r);
        if (expect < 0.005)
            continue;
        EXPECT_NEAR(freq[r], expect, 0.15 * expect)
            << "rank " << r;
    }
    // And the skew must be real: rank 0 dominates the median rank.
    EXPECT_GT(freq[0], 5 * freq[n / 2]);
}

TEST(WlgenKeyDist, ZipfianThetaZeroIsNearlyUniform)
{
    const std::uint64_t n = 50;
    const wlgen::ZipfianGenerator gen(n, 0.0);
    for (std::uint64_t r = 0; r < n; ++r)
        EXPECT_NEAR(gen.mass(r), 1.0 / n, 1e-9);
    const auto freq = empiricalFrequencies(gen, n, 100000);
    for (std::uint64_t r = 0; r < n; ++r)
        EXPECT_NEAR(freq[r], 1.0 / n, 0.30 / n) << "rank " << r;
}

TEST(WlgenKeyDist, UniformIsFlat)
{
    const std::uint64_t n = 64;
    const wlgen::UniformGenerator gen(n);
    const auto freq = empiricalFrequencies(gen, n, 128000);
    for (std::uint64_t r = 0; r < n; ++r)
        EXPECT_NEAR(freq[r], 1.0 / n, 0.25 / n) << "rank " << r;
}

TEST(WlgenKeyDist, HotSetConcentratesDraws)
{
    const std::uint64_t n = 1000;
    const wlgen::HotSetGenerator gen(n, 0.1, 0.9);
    EXPECT_EQ(gen.hotKeys(), 100u);
    const auto freq = empiricalFrequencies(gen, n, 100000);
    double hot = 0;
    for (std::uint64_t r = 0; r < gen.hotKeys(); ++r)
        hot += freq[r];
    EXPECT_NEAR(hot, 0.9, 0.02);
}

TEST(WlgenKeyDist, FixedSeedStreamsAreIdentical)
{
    const GenSpec spec = GenSpec::parse("dist=zipf,theta=0.8");
    const auto gen = wlgen::makeKeyGenerator(spec);
    Random a(123), b(123), c(124);
    bool any_differ = false;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t ra = gen->nextRank(a);
        EXPECT_EQ(ra, gen->nextRank(b));
        any_differ = any_differ || ra != gen->nextRank(c);
    }
    EXPECT_TRUE(any_differ);
}

// ---------------------------------------------------------------------
// The generated workload end to end, on the Workload interface.
// ---------------------------------------------------------------------

TEST(WlgenWorkload, RegistryExposesGen)
{
    EXPECT_EQ(parseWorkload("gen"), WorkloadKind::Generated);
    EXPECT_EQ(parseWorkload("GEN"), WorkloadKind::Generated);
    EXPECT_STREQ(toString(WorkloadKind::Generated), "GEN");
    EXPECT_STREQ(workloadInfo(WorkloadKind::Generated).cliName, "gen");
    // gen is not a paper workload; Table 2 stays exactly six.
    EXPECT_EQ(allPaperWorkloads().size(), 6u);
}

TEST(WlgenWorkload, InvariantsHoldAndSchemesAgree)
{
    const GenSpec spec = smallSpec();
    GenRun sw(spec, LogScheme::PMEM, smallParams());
    GenRun atom(spec, LogScheme::ATOM, smallParams());
    GenRun proteus(spec, LogScheme::Proteus, smallParams());

    const std::string err =
        proteus.wl->checkInvariants(proteus.heap->volatileImage());
    EXPECT_TRUE(err.empty()) << err;

    const std::string ref = sw.wl->serialize(sw.heap->volatileImage());
    EXPECT_FALSE(ref.empty());
    EXPECT_EQ(ref, atom.wl->serialize(atom.heap->volatileImage()));
    EXPECT_EQ(ref,
              proteus.wl->serialize(proteus.heap->volatileImage()));
}

TEST(WlgenWorkload, DeterministicForASeedAndSeedSensitive)
{
    const GenSpec spec = smallSpec();
    GenRun a(spec, LogScheme::Proteus, smallParams());
    GenRun b(spec, LogScheme::Proteus, smallParams());
    EXPECT_EQ(a.wl->serialize(a.heap->volatileImage()),
              b.wl->serialize(b.heap->volatileImage()));
    EXPECT_EQ(a.wl->trace(0).size(), b.wl->trace(0).size());

    WorkloadParams other = smallParams();
    other.seed = 8;
    GenRun c(spec, LogScheme::Proteus, other);
    EXPECT_NE(a.wl->serialize(a.heap->volatileImage()),
              c.wl->serialize(c.heap->volatileImage()));
}

TEST(WlgenWorkload, SpecChangesTheWorkload)
{
    GenRun zipf(smallSpec("dist=zipf,theta=0.99"), LogScheme::Proteus,
                smallParams());
    GenRun uniform(smallSpec("dist=uniform"), LogScheme::Proteus,
                   smallParams());
    EXPECT_NE(zipf.wl->serialize(zipf.heap->volatileImage()),
              uniform.wl->serialize(uniform.heap->volatileImage()));
}

TEST(WlgenWorkload, EveryDistributionRunsClean)
{
    for (const char *delta :
         {"dist=uniform", "dist=zipf,theta=0.99",
          "dist=hot,hot-frac=0.05,hot-ops=0.95"}) {
        GenRun run(smallSpec(delta), LogScheme::Proteus, smallParams());
        const std::string err =
            run.wl->checkInvariants(run.heap->volatileImage());
        EXPECT_TRUE(err.empty()) << delta << ": " << err;
    }
}

TEST(WlgenWorkload, TracesContainTransactions)
{
    GenRun run(smallSpec(), LogScheme::Proteus, smallParams());
    for (unsigned t = 0; t < run.wl->threads(); ++t) {
        const Trace &trace = run.wl->trace(t);
        EXPECT_EQ(trace.countOps(Op::TxBegin),
                  trace.countOps(Op::TxEnd));
        EXPECT_GT(trace.countOps(Op::TxBegin), 0u);
        EXPECT_GT(trace.countOps(Op::Store), 0u);
    }
}

TEST(WlgenWorkload, SingleThreadAndWideValueSupported)
{
    GenRun run(smallSpec("vsize=256,keys=1-8"), LogScheme::PMEM,
               smallParams(1));
    const std::string err =
        run.wl->checkInvariants(run.heap->volatileImage());
    EXPECT_TRUE(err.empty()) << err;
}

// ---------------------------------------------------------------------
// Crash consistency: the oracle over generated workloads.
// ---------------------------------------------------------------------

namespace {

CrashTestOptions
genCampaign()
{
    CrashTestOptions opts;
    opts.schemes = {LogScheme::PMEM, LogScheme::Proteus};
    opts.workloads = {WorkloadKind::Generated};
    opts.gen = GenSpec::parse("keyspace=256,ops=300,keys=1-4");
    opts.threads = 1;
    opts.scale = 1;
    opts.initScale = 1;
    opts.seed = 11;
    opts.mode = CrashMode::Stride;
    opts.autoPoints = 6;
    return opts;
}

} // namespace

TEST(WlgenCrash, OracleCleanAcrossSweep)
{
    std::ostringstream log;
    const CrashTestSummary summary =
        runCrashTests(genCampaign(), log);
    EXPECT_TRUE(summary.ok) << log.str();
    EXPECT_EQ(summary.violations, 0u);
    EXPECT_GT(summary.crashPoints, 0u);
}

TEST(WlgenCrash, BrokenRecoveryIsCaught)
{
    // The oracle must have detection power on generated workloads too:
    // skipping recovery leaks in-flight stores into the checked image.
    CrashTestOptions opts = genCampaign();
    opts.schemes = {LogScheme::Proteus};
    opts.breakRecovery = true;
    opts.autoPoints = 25;
    std::ostringstream log;
    const CrashTestSummary summary = runCrashTests(opts, log);
    EXPECT_FALSE(summary.ok);
    EXPECT_GT(summary.violations, 0u);
}

// ---------------------------------------------------------------------
// Determinism: --jobs levels and cycle skipping cannot change results.
// ---------------------------------------------------------------------

namespace {

BenchOptions
smallBench()
{
    BenchOptions opts;
    opts.scale = 1;
    opts.initScale = 1;
    opts.threads = 2;
    opts.wlSpec = "keyspace=512,ops=300";
    return opts;
}

std::vector<SimJob>
genJobs(const BenchOptions &opts)
{
    std::vector<SimJob> jobs;
    for (LogScheme s : {LogScheme::PMEM, LogScheme::Proteus}) {
        for (const char *delta :
             {"dist=zipf,theta=0.9", "dist=uniform"}) {
            WorkloadExtras extras;
            extras.gen =
                GenSpec::parse(delta, opts.genSpec());
            jobs.push_back(SimJob{opts.makeConfig(), s,
                                  WorkloadKind::Generated, extras, delta});
        }
    }
    return jobs;
}

} // namespace

TEST(WlgenDeterminism, JobsLevelsProduceIdenticalResults)
{
    const BenchOptions opts = smallBench();
    const std::vector<SimJob> jobs = genJobs(opts);

    const auto serial = ParallelRunner(1).run(jobs, opts);
    const auto parallel = ParallelRunner(4).run(jobs, opts);
    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(parallel.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(serial[i].result.cycles, parallel[i].result.cycles)
            << toString(jobs[i].scheme) << " / " << jobs[i].workload();
        EXPECT_EQ(serial[i].result.retiredOps,
                  parallel[i].result.retiredOps)
            << toString(jobs[i].scheme) << " / " << jobs[i].workload();
        EXPECT_EQ(serial[i].result.nvmWrites,
                  parallel[i].result.nvmWrites)
            << toString(jobs[i].scheme) << " / " << jobs[i].workload();
        EXPECT_EQ(serial[i].result.committedTxs,
                  parallel[i].result.committedTxs)
            << toString(jobs[i].scheme) << " / " << jobs[i].workload();
    }
}

TEST(WlgenDeterminism, CycleSkippingDoesNotChangeResults)
{
    BenchOptions fast = smallBench();
    BenchOptions slow = smallBench();
    slow.cycleSkip = false;

    WorkloadExtras extras;
    extras.gen = fast.genSpec();
    const RunResult a =
        runExperiment(fast.makeConfig(), LogScheme::Proteus,
                      WorkloadKind::Generated, fast, extras);
    const RunResult b =
        runExperiment(slow.makeConfig(), LogScheme::Proteus,
                      WorkloadKind::Generated, slow, extras);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.retiredOps, b.retiredOps);
    EXPECT_EQ(a.nvmWrites, b.nvmWrites);
    EXPECT_EQ(a.committedTxs, b.committedTxs);
}

TEST(WlgenDeterminism, JsonBytesIdenticalAcrossJobsLevels)
{
    const BenchOptions opts = smallBench();
    const std::vector<SimJob> jobs = genJobs(opts);
    const auto serial = ParallelRunner(1).run(jobs, opts);
    const auto parallel = ParallelRunner(4).run(jobs, opts);

    auto dump = [&](const std::vector<SimJobResult> &results,
                    const std::string &path) {
        std::vector<JsonResultRow> rows;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            // Omit wall-clock: it is host timing, not simulation
            // output, and the JSON writer includes it.
            rows.push_back(JsonResultRow{toString(jobs[i].scheme),
                                         jobs[i].workload(),
                                         results[i].result, 0.0});
        }
        writeJsonResults(path, rows);
        std::ifstream is(path, std::ios::binary);
        std::ostringstream os;
        os << is.rdbuf();
        std::remove(path.c_str());
        return os.str();
    };
    const std::string dir = ::testing::TempDir();
    EXPECT_EQ(dump(serial, dir + "/wlgen_j1.json"),
              dump(parallel, dir + "/wlgen_j4.json"));
}
