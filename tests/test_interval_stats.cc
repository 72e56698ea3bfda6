/**
 * @file
 * IntervalStatsSampler: samples fire on exact cycle boundaries, the
 * per-column deltas sum to the stat totals (including the final partial
 * row), and the CSV/JSON serializations are well formed.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/system.hh"
#include "obs/json_reader.hh"
#include "sim/interval_stats.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

using namespace proteus;

TEST(IntervalStats, ZeroIntervalIsFatal)
{
    Simulator sim;
    EXPECT_THROW(IntervalStatsSampler(sim, 0), FatalError);
}

TEST(IntervalStats, FiresOnExactBoundariesWithResidualRow)
{
    Simulator sim;
    stats::Scalar a(sim.statsRegistry(), "a", "");

    IntervalStatsSampler sampler(sim, 10);
    sampler.start();

    sim.schedule(5, [&]() { a += 1; });
    sim.schedule(15, [&]() { a += 2; });
    sim.schedule(32, [&]() { a += 3; });
    sim.run(35);
    sampler.finish();

    ASSERT_EQ(sampler.columns().size(), 1u);
    EXPECT_EQ(sampler.columns()[0], "a");

    const auto &rows = sampler.rows();
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows[0].cycle, 10u);
    EXPECT_EQ(rows[1].cycle, 20u);
    EXPECT_EQ(rows[2].cycle, 30u);
    EXPECT_EQ(rows[3].cycle, 35u);      // final partial interval
    EXPECT_DOUBLE_EQ(rows[0].deltas[0], 1.0);
    EXPECT_DOUBLE_EQ(rows[1].deltas[0], 2.0);
    EXPECT_DOUBLE_EQ(rows[2].deltas[0], 0.0);
    EXPECT_DOUBLE_EQ(rows[3].deltas[0], 3.0);

    double sum = 0;
    for (const auto &row : rows)
        sum += row.deltas[0];
    EXPECT_DOUBLE_EQ(sum, a.value());
}

TEST(IntervalStats, NoResidualRowOnExactMultiple)
{
    Simulator sim;
    stats::Scalar a(sim.statsRegistry(), "a", "");

    IntervalStatsSampler sampler(sim, 10);
    sampler.start();
    sim.schedule(3, [&]() { a += 7; });
    sim.run(20);
    sampler.finish();

    ASSERT_EQ(sampler.rows().size(), 2u);
    EXPECT_EQ(sampler.rows()[0].cycle, 10u);
    EXPECT_EQ(sampler.rows()[1].cycle, 20u);
    sampler.finish();   // idempotent
    EXPECT_EQ(sampler.rows().size(), 2u);
}

TEST(IntervalStats, SerializesCsvAndJson)
{
    Simulator sim;
    stats::Scalar a(sim.statsRegistry(), "x.count", "");
    IntervalStatsSampler sampler(sim, 4);
    sampler.start();
    sim.schedule(1, [&]() { a += 5; });
    sim.run(8);
    sampler.finish();

    std::ostringstream csv;
    sampler.write(csv, /*json=*/false);
    EXPECT_EQ(csv.str().substr(0, csv.str().find('\n')),
              "cycle,x.count");
    EXPECT_NE(csv.str().find("4,5"), std::string::npos);

    std::ostringstream json;
    sampler.write(json, /*json=*/true);
    EXPECT_NO_THROW(obs::parseJson(json.str())) << json.str();
    EXPECT_NE(json.str().find("\"interval\": 4"), std::string::npos);
}

TEST(IntervalStats, FullSystemDeltasSumToTotals)
{
    SystemConfig cfg = baselineConfig();
    cfg.obs.statsInterval = 2000;   // in-memory series, no output file

    WorkloadParams params;
    params.threads = 2;
    params.scale = 500;
    params.initScale = 100;
    params.seed = 3;

    FullSystem system(cfg, WorkloadKind::Queue, params);
    const RunResult r = system.run();
    ASSERT_TRUE(r.finished);

    IntervalStatsSampler *sampler = system.sampler();
    ASSERT_NE(sampler, nullptr);
    ASSERT_FALSE(sampler->rows().empty());

    // Boundary rows land on exact multiples of the interval; only the
    // final row may be partial.
    const auto &rows = sampler->rows();
    for (std::size_t i = 0; i + 1 < rows.size(); ++i)
        EXPECT_EQ(rows[i].cycle % sampler->interval(), 0u) << i;

    // Every tracked column's deltas must sum to the stat's final value.
    const auto &all = system.sim().statsRegistry().all();
    for (std::size_t c = 0; c < sampler->columns().size(); ++c) {
        double sum = 0;
        for (const auto &row : rows)
            sum += row.deltas[c];
        const auto it = all.find(sampler->columns()[c]);
        ASSERT_NE(it, all.end()) << sampler->columns()[c];
        EXPECT_DOUBLE_EQ(sum, it->second->value())
            << sampler->columns()[c];
    }
}
