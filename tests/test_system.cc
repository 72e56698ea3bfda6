/**
 * @file
 * End-to-end integration tests: a FullSystem runs a workload's traces
 * to completion under every scheme. The persist-ordering checker is
 * active throughout (any store made durable before its undo log would
 * panic). At the end, the crash image (NVM + battery-backed queues)
 * must reproduce the functional final state — i.e., every committed
 * transaction really became durable.
 */

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "harness/system.hh"
#include "sim/logging.hh"

using namespace proteus;

namespace {

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.threads = 2;
    p.scale = 500;
    p.initScale = 100;
    p.seed = 3;
    return p;
}

using SchemeWorkload = std::tuple<LogScheme, WorkloadKind>;

class SystemIntegration
    : public ::testing::TestWithParam<SchemeWorkload>
{
};

} // namespace

TEST_P(SystemIntegration, RunsToDurableCompletion)
{
    const auto [scheme, kind] = GetParam();
    SystemConfig cfg = baselineConfig();
    cfg.logging.scheme = scheme;

    FullSystem system(cfg, kind, tinyParams());
    const RunResult result = system.run(500'000'000ull);
    ASSERT_TRUE(result.finished);
    EXPECT_GT(result.retiredOps, 0u);
    EXPECT_GT(result.committedTxs, 0u);

    // Functional invariants hold...
    Workload &wl = system.workload();
    const MemoryImage &final_state = system.heap().volatileImage();
    EXPECT_TRUE(wl.checkInvariants(final_state).empty());

    // ...and everything committed is durable: the crash image equals
    // the functional state for the persistent structures.
    const MemoryImage crash = system.crashImage();
    EXPECT_EQ(wl.serialize(crash), wl.serialize(final_state))
        << "committed transactions were not durable at completion";
    EXPECT_TRUE(wl.checkInvariants(crash).empty());
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndWorkloads, SystemIntegration,
    ::testing::Combine(
        ::testing::Values(LogScheme::PMEM, LogScheme::PMEMPCommit,
                          LogScheme::PMEMNoLog, LogScheme::ATOM,
                          LogScheme::Proteus, LogScheme::ProteusNoLWR),
        ::testing::Values(WorkloadKind::Queue, WorkloadKind::HashMap,
                          WorkloadKind::AvlTree, WorkloadKind::BTree,
                          WorkloadKind::RbTree)),
    [](const ::testing::TestParamInfo<SchemeWorkload> &info) {
        std::string name = toString(std::get<0>(info.param));
        for (char &c : name) {
            if (c == '+')
                c = '_';
        }
        return name + "_" +
               std::string(toString(std::get<1>(info.param)));
    });

TEST(SystemIntegration2, CpiStackSumsToCoreCyclesUnderEveryScheme)
{
    for (LogScheme scheme :
         {LogScheme::PMEM, LogScheme::PMEMPCommit, LogScheme::PMEMNoLog,
          LogScheme::ATOM, LogScheme::Proteus,
          LogScheme::ProteusNoLWR}) {
        SystemConfig cfg = baselineConfig();
        cfg.logging.scheme = scheme;
        FullSystem system(cfg, WorkloadKind::Queue, tinyParams());
        const RunResult result = system.run(500'000'000ull);
        ASSERT_TRUE(result.finished) << toString(scheme);

        // Exactly one bucket is charged per core cycle, so the stack
        // sums to the core's cycle count with no residue at all.
        std::uint64_t core_cycles = 0;
        for (unsigned t = 0; t < system.coreCount(); ++t) {
            const Core &core = system.core(t);
            EXPECT_EQ(core.cpiStack().total(), core.cycles())
                << toString(scheme) << " core " << t;
            core_cycles += core.cycles();
        }
        EXPECT_EQ(result.cpi.total(), core_cycles) << toString(scheme);
        EXPECT_GT(result.cpi.base, 0u) << toString(scheme);
    }
}

TEST(SystemIntegration2, ProteusDropsMostLogWrites)
{
    SystemConfig cfg = baselineConfig();
    cfg.logging.scheme = LogScheme::Proteus;
    FullSystem system(cfg, WorkloadKind::HashMap, tinyParams());
    const RunResult result = system.run(500'000'000ull);
    ASSERT_TRUE(result.finished);
    EXPECT_GT(result.logWritesDropped, 0u);
}

TEST(SystemIntegration2, LltMissRateInPaperBallpark)
{
    SystemConfig cfg = baselineConfig();
    cfg.logging.scheme = LogScheme::Proteus;
    WorkloadParams p = tinyParams();
    p.scale = 200;
    FullSystem system(cfg, WorkloadKind::Queue, p);
    const RunResult result = system.run(500'000'000ull);
    ASSERT_TRUE(result.finished);
    // Table 4 reports 22.5%-51.6%; allow generous slack.
    EXPECT_GT(result.lltMissRate, 0.05);
    EXPECT_LT(result.lltMissRate, 0.95);
}

TEST(SystemIntegration2, SlowNvmIsSlower)
{
    WorkloadParams p = tinyParams();
    SystemConfig fast = baselineConfig();
    fast.logging.scheme = LogScheme::Proteus;
    FullSystem fast_sys(fast, WorkloadKind::Queue, p);
    const auto fast_result = fast_sys.run(500'000'000ull);

    SystemConfig slow = slowNvmConfig();
    slow.logging.scheme = LogScheme::Proteus;
    FullSystem slow_sys(slow, WorkloadKind::Queue, p);
    const auto slow_result = slow_sys.run(500'000'000ull);

    ASSERT_TRUE(fast_result.finished && slow_result.finished);
    EXPECT_GT(slow_result.cycles, fast_result.cycles);
}

TEST(SystemIntegration2, EightThreadsWireEightCores)
{
    // The bundle's key is the machine's identity: one core per thread
    // (more than the baseline's four), the key's scheme, and ADR unless
    // the scheme is PMEM+pcommit — whatever the config said.
    const auto bundle = [](LogScheme scheme) {
        TraceBundleKey key;
        key.kind = WorkloadKind::Queue;
        key.scheme = scheme;
        key.params = tinyParams();
        key.params.threads = 8;
        return TraceBundle::build(key);
    };
    SystemConfig cfg = baselineConfig();
    cfg.cores = 1;
    cfg.logging.scheme = LogScheme::ATOM;
    cfg.memCtrl.adr = false;

    FullSystem system(cfg, bundle(LogScheme::Proteus));
    EXPECT_EQ(system.coreCount(), 8u);
    EXPECT_EQ(system.config().cores, 8u);
    EXPECT_EQ(system.config().logging.scheme, LogScheme::Proteus);
    EXPECT_TRUE(system.config().memCtrl.adr);
    const RunResult result = system.run(500'000'000ull);
    ASSERT_TRUE(result.finished);
    for (unsigned t = 0; t < system.coreCount(); ++t)
        EXPECT_GT(system.core(t).retiredOps(), 0u) << "core " << t;
    EXPECT_TRUE(system.workload()
                    .checkInvariants(system.heap().volatileImage())
                    .empty());

    EXPECT_FALSE(FullSystem(cfg, bundle(LogScheme::PMEMPCommit))
                     .config()
                     .memCtrl.adr);
}
