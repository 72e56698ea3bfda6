/**
 * @file
 * Seeded config fuzzing: random `--set` draws over the keys README
 * lists and a few edge values, each run on QE under all six schemes.
 * A draw must either fail the config gate (SystemConfig::validate,
 * reached through runKey) or run to completion within the cycle limit
 * with the workload's invariants intact. It never panics, hangs or
 * fails some other way. The one runtime fatal allowed is a
 * transaction that outgrows its log area: that bound is a property of
 * the workload's largest transaction, not of the config alone, and its
 * message names logging.logAreaBytes.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/experiments.hh"
#include "harness/system.hh"
#include "harness/trace_cache.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

using namespace proteus;

namespace {

/** Every `--set` key README lists. */
const std::vector<std::string> numberKeys = {
    "cpu.robEntries",
    "cpu.issueQueueEntries",
    "cpu.loadQueueEntries",
    "cpu.storeQueueEntries",
    "cpu.fetchWidth",
    "mem.nvmReadTRCD",
    "mem.nvmWriteTRCD",
    "mem.banks",
    "memCtrl.wpqEntries",
    "memCtrl.lpqEntries",
    "memCtrl.wpqDrainThreshold",
    "memCtrl.lpqDrainThreshold",
    "logging.logRegisters",
    "logging.logQEntries",
    "logging.lltEntries",
    "logging.lltWays",
    "logging.logAreaBytes",
    "logging.atomTruncationEntries",
    "faults.tornWriteRate",
    "faults.readFlipRate",
    "faults.enduranceWrites",
    "faults.eccDetectBits",
    "faults.eccCorrectBits",
    "faults.readRetryLimit",
    "faults.retryBackoffBase",
    "faults.seed",
    "obs.traceRingEntries",
};
const std::vector<std::string> boolKeys = {"mem.nvmMode"};
const std::vector<std::string> edgeValues = {"0",  "1",   "3",   "63",
                                             "64", "100", "4096"};

/** Far above any draw's run length (the slowest take a few million
 *  cycles), far below the default limit, so a hang fails fast. */
constexpr Tick cycleLimit = 50'000'000;

/** 1 to 3 overrides drawn from the keys and edge values. */
std::vector<std::string>
drawOverrides(Random &rng)
{
    std::vector<std::string> out;
    const std::uint64_t n = 1 + rng.nextBelow(3);
    const std::size_t keys = numberKeys.size() + boolKeys.size();
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::size_t k = rng.nextBelow(keys);
        if (k < numberKeys.size())
            out.push_back(numberKeys[k] + "=" +
                          edgeValues[rng.nextBelow(edgeValues.size())]);
        else
            out.push_back(boolKeys[k - numberKeys.size()] + "=" +
                          (rng.nextBool(0.5) ? "true" : "false"));
    }
    return out;
}

} // namespace

TEST(FuzzConfig, EveryDrawRunsOrIsRejectedByTheGate)
{
    Random rng(27);
    BenchOptions opts;
    opts.scale = 2000;
    opts.initScale = 100;
    opts.threads = 2;
    // Draws share bundles: most leave the log-area size, the only
    // `--set` key in a bundle's identity, at its default.
    TraceCache cache;
    unsigned finished = 0;
    unsigned rejected = 0;
    for (unsigned draw = 0; draw < 120; ++draw) {
        opts.overrides = drawOverrides(rng);
        std::string label = "draw " + std::to_string(draw) + ":";
        for (const std::string &o : opts.overrides)
            label += " --set " + o;
        const SystemConfig cfg = opts.makeConfig();
        for (LogScheme scheme : allSchemes()) {
            SCOPED_TRACE(label + " --scheme " + toString(scheme));
            TraceBundleKey key;
            try {
                key = runKey(opts, cfg, WorkloadKind::Queue, scheme);
            } catch (const FatalError &) {
                ++rejected;
                continue;
            }
            try {
                FullSystem sys(cfg, cache.get(key));
                const RunResult r = sys.run(cycleLimit);
                ASSERT_TRUE(r.finished) << "stopped at " << r.cycles;
                EXPECT_EQ(sys.workload().checkInvariants(
                              sys.heap().volatileImage()),
                          "");
                ++finished;
            } catch (const FatalError &e) {
                const std::string msg = e.what();
                ASSERT_NE(msg.find("overflowed"), std::string::npos) << msg;
                ASSERT_NE(msg.find("logging.logAreaBytes"),
                          std::string::npos)
                    << msg;
            }
        }
    }
    EXPECT_GT(finished, 0u);
    EXPECT_GT(rejected, 0u);
}
