/** @file Unit tests for the gshare branch predictor. */

#include <gtest/gtest.h>

#include "cpu/branch_predictor.hh"
#include "sim/config.hh"
#include "sim/logging.hh"

using namespace proteus;

namespace {

stats::StatRegistry &
reg()
{
    static stats::StatRegistry r;
    return r;
}

int counter = 0;

} // namespace

TEST(BranchPredictor, LearnsAConstantDirection)
{
    BranchPredictor bp(10, reg(), "bp" + std::to_string(counter++));
    // Train: always taken at one site.
    for (int i = 0; i < 64; ++i) {
        const bool pred = bp.predict(0x40);
        bp.update(0x40, true, pred);
    }
    // The global history register shifts during warmup, so early
    // predictions exercise untrained slots; once history saturates the
    // predictor is stable.
    EXPECT_TRUE(bp.predict(0x40));
    EXPECT_GT(bp.accuracy(), 0.7);
}

TEST(BranchPredictor, LearnsNotTaken)
{
    BranchPredictor bp(10, reg(), "bp" + std::to_string(counter++));
    for (int i = 0; i < 64; ++i) {
        const bool pred = bp.predict(0x80);
        bp.update(0x80, false, pred);
    }
    EXPECT_FALSE(bp.predict(0x80));
}

TEST(BranchPredictor, LearnsAlternationThroughHistory)
{
    BranchPredictor bp(12, reg(), "bp" + std::to_string(counter++));
    bool dir = false;
    // Strict alternation is predictable once the global history
    // correlates with the outcome.
    unsigned correct_tail = 0;
    for (int i = 0; i < 4000; ++i) {
        const bool pred = bp.predict(0x99);
        if (i >= 3000 && pred == dir)
            ++correct_tail;
        bp.update(0x99, dir, pred);
        dir = !dir;
    }
    EXPECT_GT(correct_tail, 900u);
}

// The index-bit rule lives in the config gate, SystemConfig::validate;
// every bit count it lets through must build a predictor.
TEST(BranchPredictor, BadGeometryFatal)
{
    for (unsigned bits : {0u, 25u, 30u}) {
        SystemConfig cfg = baselineConfig();
        cfg.cpu.branchPredictorBits = bits;
        EXPECT_THROW(cfg.validate(LogScheme::Proteus), FatalError) << bits;
    }
    for (unsigned bits : {1u, 12u}) {
        SystemConfig cfg = baselineConfig();
        cfg.cpu.branchPredictorBits = bits;
        EXPECT_NO_THROW(cfg.validate(LogScheme::Proteus)) << bits;
        BranchPredictor bp(bits, reg(), "bp" + std::to_string(counter++));
        bp.update(0x40, true, bp.predict(0x40));
    }
}
