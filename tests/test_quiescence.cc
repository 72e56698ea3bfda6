/**
 * @file
 * Quiescence-driven cycle skipping: the wake-hint contract at the
 * kernel level (never skips past an event, clamps to interval-stats
 * boundaries and run ends, stays put while any component is busy) and
 * the invisibility invariant end to end (every scheme x workload pair
 * produces bit-identical stats and byte-identical crashtest JSON with
 * skipping on and off).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "crashtest/crash_tester.hh"
#include "harness/experiments.hh"
#include "harness/system.hh"
#include "harness/trace_cache.hh"
#include "sim/interval_stats.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

using namespace proteus;

namespace {

/**
 * A component that is idle until an event pokes it, then busy for a
 * fixed number of cycles. observedCycles counts every cycle it lived
 * through — ticked or skipped — and must equal sim.now() at the end.
 */
class SleepyDevice : public Ticked
{
  public:
    explicit SleepyDevice(std::string name) : _name(std::move(name)) {}

    void
    tick(Tick) override
    {
        ++observedCycles;
        if (busyLeft > 0) {
            --busyLeft;
            ++work;
        }
    }

    Tick
    nextWake(Tick now) override
    {
        return busyLeft > 0 ? now : maxTick;
    }

    void
    accountSkipped(Tick from, Tick to) override
    {
        observedCycles += to - from;
    }

    const std::string &componentName() const override { return _name; }

    Tick busyLeft = 0;
    std::uint64_t observedCycles = 0;
    std::uint64_t work = 0;

  private:
    std::string _name;
};

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

std::string
dumpStats(FullSystem &system)
{
    std::ostringstream os;
    system.sim().statsRegistry().dumpJson(os);
    return os.str();
}

} // namespace

TEST(Quiescence, NeverSkipsPastScheduledEvent)
{
    Simulator sim;
    SleepyDevice d("d");
    sim.addTicked(&d);

    Tick firedAt = maxTick;
    sim.schedule(500, [&]() { firedAt = sim.now(); d.busyLeft = 3; });
    sim.run(1000);

    EXPECT_EQ(firedAt, 500u);           // event executed on its cycle
    EXPECT_EQ(sim.now(), 1000u);
    EXPECT_EQ(d.work, 3u);              // post-event busy span ran
    EXPECT_EQ(d.observedCycles, 1000u); // accounting covers the skips
    // cycle 0, then the busy span: the event fires before the tick on
    // cycle 500, so ticks run at 500, 501, 502 — 4 steps in total
    EXPECT_EQ(sim.kernelSteps(), 4u);
    EXPECT_EQ(sim.skippedCycles(), 996u);
}

TEST(Quiescence, DefaultTickedIsConservativelyBusy)
{
    // A component that does not implement the protocol must block all
    // skipping: the default nextWake() is "busy now".
    class Plain : public Ticked
    {
      public:
        void tick(Tick) override { ++ticks; }
        const std::string &componentName() const override { return _n; }
        unsigned ticks = 0;

      private:
        std::string _n = "plain";
    };

    Simulator sim;
    Plain p;
    sim.addTicked(&p);
    sim.run(200);
    EXPECT_EQ(p.ticks, 200u);
    EXPECT_EQ(sim.kernelSteps(), 200u);
    EXPECT_EQ(sim.skippedCycles(), 0u);
}

TEST(Quiescence, OneBusyComponentBlocksSkipping)
{
    // Backpressure shape: a quiescent device cannot be skipped while a
    // sibling still reports "now" (e.g. a core spinning on a full WPQ).
    Simulator sim;
    SleepyDevice idle("idle");
    SleepyDevice busy("busy");
    busy.busyLeft = 150;
    sim.addTicked(&idle);
    sim.addTicked(&busy);
    sim.run(200);

    // 150 busy cycles tick every component; the tail is one skip.
    EXPECT_EQ(sim.kernelSteps(), 150u);
    EXPECT_EQ(sim.skippedCycles(), 50u);
    EXPECT_EQ(idle.observedCycles, 200u);
    EXPECT_EQ(busy.observedCycles, 200u);
    EXPECT_EQ(busy.work, 150u);
}

TEST(Quiescence, ClampsToIntervalStatsBoundaries)
{
    // The sampler self-schedules its boundary events, so skipping must
    // land on every exact boundary; rows match the unskipped kernel
    // (same cycles, same deltas, including the final partial row).
    Simulator sim;
    stats::Scalar a(sim.statsRegistry(), "a", "");
    SleepyDevice d("d");
    sim.addTicked(&d);

    IntervalStatsSampler sampler(sim, 10);
    sampler.start();
    sim.schedule(5, [&]() { a += 1; });
    sim.schedule(15, [&]() { a += 2; });
    sim.schedule(32, [&]() { a += 3; });
    sim.run(35);
    sampler.finish();

    EXPECT_LT(sim.kernelSteps(), 35u);  // skipping actually engaged
    const auto &rows = sampler.rows();
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows[0].cycle, 10u);
    EXPECT_EQ(rows[1].cycle, 20u);
    EXPECT_EQ(rows[2].cycle, 30u);
    EXPECT_EQ(rows[3].cycle, 35u);
    EXPECT_DOUBLE_EQ(rows[0].deltas[0], 1.0);
    EXPECT_DOUBLE_EQ(rows[1].deltas[0], 2.0);
    EXPECT_DOUBLE_EQ(rows[2].deltas[0], 0.0);
    EXPECT_DOUBLE_EQ(rows[3].deltas[0], 3.0);
}

TEST(Quiescence, ChunkedRunsMatchOneRun)
{
    // Crash injection steps the machine in runFor() chunks whose ends
    // are exact cycle numbers; a skip must clamp to the chunk end.
    auto build = [](Simulator &sim, SleepyDevice &d) {
        sim.addTicked(&d);
        sim.schedule(40, [&]() { d.busyLeft = 5; });
        sim.schedule(90, [&]() { d.busyLeft = 2; });
    };

    Simulator one;
    SleepyDevice dOne("d");
    build(one, dOne);
    one.run(100);

    Simulator chunked;
    SleepyDevice dChunked("d");
    build(chunked, dChunked);
    chunked.run(37);
    EXPECT_EQ(chunked.now(), 37u);      // skip clamped to the chunk end
    chunked.run(63);

    EXPECT_EQ(one.now(), chunked.now());
    EXPECT_EQ(dOne.work, dChunked.work);
    EXPECT_EQ(dOne.observedCycles, dChunked.observedCycles);
    EXPECT_EQ(dChunked.observedCycles, 100u);
}

TEST(Quiescence, RunUntilSeesPredicateFlipAtActivityBoundary)
{
    // The predicate can only flip when state changes, i.e. on a ticked
    // cycle; with skipping the kernel must stop on the same cycle the
    // unskipped kernel would.
    auto run = [](bool skip) {
        Simulator sim;
        sim.setCycleSkip(skip);
        SleepyDevice d("d");
        sim.addTicked(&d);
        unsigned counter = 0;
        sim.schedule(100, [&]() { ++counter; });
        sim.schedule(200, [&]() { ++counter; });
        const bool ok =
            sim.runUntil([&]() { return counter >= 2; }, 1000);
        EXPECT_TRUE(ok);
        return sim.now();
    };
    EXPECT_EQ(run(false), run(true));
}

// ---------------------------------------------------------------------
// End to end: the invisibility invariant over the full machine. Every
// scheme x {QE, HM} cell must produce a bit-identical stats registry
// (every counter, distribution, and average — a superset of the golden
// rows) and identical RunResult counters with skipping on and off.
// ---------------------------------------------------------------------

TEST(Quiescence, AllSchemesBitIdenticalWithAndWithoutSkipping)
{
    const std::vector<LogScheme> schemes{
        LogScheme::PMEM,    LogScheme::PMEMPCommit,
        LogScheme::PMEMNoLog, LogScheme::ATOM,
        LogScheme::Proteus, LogScheme::ProteusNoLWR,
    };
    const std::vector<WorkloadKind> workloads{WorkloadKind::Queue,
                                              WorkloadKind::HashMap};

    WorkloadParams params;
    params.threads = 2;
    params.scale = 4000;
    params.initScale = 200;
    params.seed = 1;

    for (const LogScheme scheme : schemes) {
        for (const WorkloadKind kind : workloads) {
            SCOPED_TRACE(std::string(toString(scheme)) + " / " +
                         toString(kind));
            TraceBundleKey key;
            key.kind = kind;
            key.scheme = scheme;
            key.params = params;
            const auto bundle = TraceCache::global().get(key);

            SystemConfig cfg = baselineConfig();
            cfg.cycleSkip = true;
            FullSystem skipping(cfg, bundle);
            const RunResult rs = skipping.run();

            cfg.cycleSkip = false;
            FullSystem stepping(cfg, bundle);
            const RunResult rn = stepping.run();

            ASSERT_TRUE(rs.finished);
            ASSERT_TRUE(rn.finished);
            EXPECT_EQ(rs.cycles, rn.cycles);
            EXPECT_EQ(rs.retiredOps, rn.retiredOps);
            EXPECT_EQ(rs.nvmWrites, rn.nvmWrites);
            EXPECT_EQ(rs.nvmReads, rn.nvmReads);
            EXPECT_EQ(rs.committedTxs, rn.committedTxs);
            EXPECT_EQ(rs.logWritesDropped, rn.logWritesDropped);
            EXPECT_EQ(rs.frontendStallCycles, rn.frontendStallCycles);
            EXPECT_DOUBLE_EQ(rs.cpi.persistStall, rn.cpi.persistStall);
            EXPECT_DOUBLE_EQ(rs.cpi.lockWait, rn.cpi.lockWait);
            EXPECT_EQ(dumpStats(skipping), dumpStats(stepping));

            // Skipping must also have engaged, or this test proves
            // nothing about it.
            EXPECT_GT(skipping.sim().skippedCycles(), 0u);
            EXPECT_EQ(stepping.sim().skippedCycles(), 0u);
            EXPECT_EQ(skipping.sim().kernelSteps() +
                          skipping.sim().skippedCycles(),
                      rs.cycles);
        }
    }
}

TEST(Quiescence, CrashtestJsonByteIdenticalWithAndWithoutSkipping)
{
    const std::string pathOn = ::testing::TempDir() + "crash_skip.json";
    const std::string pathOff =
        ::testing::TempDir() + "crash_noskip.json";

    CrashTestOptions opts;
    opts.schemes = {LogScheme::PMEM, LogScheme::Proteus};
    opts.workloads = {WorkloadKind::Queue};
    opts.threads = 1;
    opts.scale = 250;
    opts.initScale = 100;
    opts.seed = 11;
    opts.mode = CrashMode::Stride;
    opts.autoPoints = 4;

    opts.cycleSkip = true;
    opts.jsonPath = pathOn;
    std::ostringstream osOn;
    const CrashTestSummary on = runCrashTests(opts, osOn);

    opts.cycleSkip = false;
    opts.jsonPath = pathOff;
    std::ostringstream osOff;
    const CrashTestSummary off = runCrashTests(opts, osOff);

    EXPECT_TRUE(on.ok);
    EXPECT_TRUE(off.ok);
    EXPECT_EQ(on.crashPoints, off.crashPoints);

    const std::string jsonOn = slurp(pathOn);
    ASSERT_FALSE(jsonOn.empty());
    EXPECT_EQ(jsonOn, slurp(pathOff));
    std::remove(pathOn.c_str());
    std::remove(pathOff.c_str());
}
