/**
 * @file
 * Tests for the simulation event stream (src/sim/sim_event.hh): the
 * fan-out itself, and subscriber composition on the full machine —
 * each consumer's output (the --tx-stats file, the --check report, the
 * --trace-events file) is byte-identical whether it runs alone or with
 * every other consumer subscribed to the same run, and checker
 * mutations reach the checker only.
 */

#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/check_runner.hh"
#include "harness/experiments.hh"
#include "harness/system.hh"
#include "obs/tx_stats_io.hh"
#include "sim/sim_event.hh"

namespace proteus {
namespace {

struct Probe : SimEventSubscriber
{
    std::vector<std::string> *log;
    std::string name;

    Probe(std::vector<std::string> *l, std::string n)
        : log(l), name(std::move(n))
    {
    }

    void
    onEvent(const SimEvent &e) override
    {
        log->push_back(name + ":" + std::to_string(e.tick));
    }
};

TEST(EventStreamFanout, DeliversEveryEventToEverySubscriberInOrder)
{
    std::vector<std::string> log;
    Probe a(&log, "a");
    Probe b(&log, "b");
    SimEventStream stream;
    stream.emit({.kind = SimEventKind::TxBegin, .tick = 1});  // no-op
    stream.subscribe(&a);
    stream.subscribe(&b);
    stream.emit({.kind = SimEventKind::TxBegin, .tick = 2});
    stream.emit({.kind = SimEventKind::TxCommit, .tick = 3});
    EXPECT_EQ(log, (std::vector<std::string>{"a:2", "b:2", "a:3", "b:3"}));
}

TEST(EventStreamFanout, NoSubscriberMeansNoStream)
{
    WorkloadParams params;
    params.threads = 1;
    params.scale = 4000;
    params.initScale = 100;
    FullSystem system(baselineConfig(), WorkloadKind::Queue, params);
    EXPECT_EQ(system.sim().eventStream(), nullptr);
}

// ---------------------------------------------------------------------
// Subscriber composition on the full machine
// ---------------------------------------------------------------------

enum Consumer : unsigned
{
    TxStats = 1u << 0,
    Check = 1u << 1,
    Trace = 1u << 2,
    AllConsumers = TxStats | Check | Trace,
};

struct Outputs
{
    std::string txStats;
    std::string check;
    std::string trace;
    std::array<bool, analysis::numRules> armed{};
};

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

BenchOptions
options()
{
    BenchOptions opts;
    opts.scale = 2000;
    opts.initScale = 100;
    opts.threads = 2;
    return opts;
}

/** One QE run of @p scheme with the @p consumers subscribed; with
 *  @p mutate >= 0 the checker sits behind a StreamMutator targeting
 *  that rule (seed 1). */
Outputs
runWith(LogScheme scheme, unsigned consumers, int mutate = -1)
{
    const BenchOptions opts = options();
    SystemConfig cfg = opts.makeConfig();
    // ctest runs each test in its own process, concurrently: the
    // file name carries the test's name to keep the runs apart.
    std::string test = testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->test_suite_name();
    test += testing::UnitTest::GetInstance()->current_test_info()->name();
    for (char &c : test) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    const std::string trace_path =
        testing::TempDir() + "/proteus_event_stream_" + test + "_" +
        std::to_string(consumers) + "_" + std::to_string(mutate) +
        ".json";
    if (consumers & TxStats)
        cfg.obs.txTrack = true;
    if (consumers & Check) {
        cfg.analysis.check = true;
        cfg.analysis.mutateRule = mutate;
        cfg.analysis.mutateSeed = 1;
    }
    if (consumers & Trace) {
        cfg.obs.traceEvents = trace_path;
        cfg.obs.traceCategories = TraceCatAll;
    }

    const TraceBundleKey key =
        runKey(opts, cfg, WorkloadKind::Queue, scheme);

    Outputs out;
    RunResult r;
    {
        FullSystem system(cfg, TraceBundle::build(key, cfg.analysis.check));
        r = system.run();
        EXPECT_TRUE(r.finished);
    }
    if (r.txStats) {
        std::ostringstream os;
        obs::writeTxStatsJson(os, {makeTxStatsRow(key, r)});
        out.txStats = os.str();
    }
    if (r.check) {
        const CheckRow row{scheme, WorkloadKind::Queue, r, *r.check};
        out.check = formatCheckReport(row) + checkRowsJson({row});
        out.armed = r.check->armed;
    }
    if (consumers & Trace)
        out.trace = slurp(trace_path);
    return out;
}

class EventStreamComposition : public testing::TestWithParam<LogScheme>
{
};

TEST_P(EventStreamComposition, ConsumersAloneMatchAllTogether)
{
    const LogScheme scheme = GetParam();
    const Outputs all = runWith(scheme, AllConsumers);
    const Outputs tx = runWith(scheme, TxStats);
    const Outputs check = runWith(scheme, Check);
    const Outputs trace = runWith(scheme, Trace);

    ASSERT_FALSE(tx.txStats.empty());
    ASSERT_FALSE(check.check.empty());
    ASSERT_FALSE(trace.trace.empty());
    EXPECT_EQ(tx.txStats, all.txStats);
    EXPECT_EQ(check.check, all.check);
    EXPECT_EQ(trace.trace, all.trace);
}

TEST_P(EventStreamComposition, MutationsReachOnlyTheChecker)
{
    const LogScheme scheme = GetParam();
    const Outputs clean = runWith(scheme, AllConsumers);
    unsigned mutated_rules = 0;
    for (unsigned rule = 0; rule < analysis::numRules; ++rule) {
        if (!clean.armed[rule])
            continue;
        ++mutated_rules;
        const Outputs m =
            runWith(scheme, AllConsumers, static_cast<int>(rule));
        EXPECT_EQ(m.txStats, clean.txStats)
            << toString(static_cast<analysis::Rule>(rule));
        EXPECT_EQ(m.trace, clean.trace)
            << toString(static_cast<analysis::Rule>(rule));
        EXPECT_NE(m.check, clean.check)
            << toString(static_cast<analysis::Rule>(rule))
            << ": the mutation never reached the checker";
    }
    EXPECT_GT(mutated_rules, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, EventStreamComposition,
    testing::Values(LogScheme::PMEM, LogScheme::PMEMPCommit,
                    LogScheme::PMEMNoLog, LogScheme::ATOM,
                    LogScheme::Proteus, LogScheme::ProteusNoLWR),
    [](const testing::TestParamInfo<LogScheme> &info) {
        std::string name = toString(info.param);
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace proteus
