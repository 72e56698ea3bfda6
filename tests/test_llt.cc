/** @file Unit tests for the Log Lookup Table (Section 4.2). */

#include <gtest/gtest.h>

#include <memory>

#include "logging/llt.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

using namespace proteus;

namespace {

stats::StatRegistry &
reg()
{
    static stats::StatRegistry r;
    return r;
}

int counter = 0;

std::unique_ptr<LogLookupTable>
makeLlt(unsigned entries = 64, unsigned ways = 8)
{
    return std::make_unique<LogLookupTable>(
        entries, ways, reg(), "llt" + std::to_string(counter++));
}

} // namespace

TEST(Llt, MissThenHit)
{
    auto p = makeLlt();
    auto &llt = *p;
    EXPECT_FALSE(llt.lookupInsert(0x1000));
    EXPECT_TRUE(llt.lookupInsert(0x1000));
    EXPECT_TRUE(llt.lookupInsert(0x1000));
    EXPECT_EQ(llt.misses(), 1u);
    EXPECT_EQ(llt.lookups(), 3u);
}

TEST(Llt, DistinctGranulesMiss)
{
    auto p = makeLlt();
    auto &llt = *p;
    EXPECT_FALSE(llt.lookupInsert(0x1000));
    EXPECT_FALSE(llt.lookupInsert(0x1020));   // next 32B granule
    EXPECT_TRUE(llt.lookupInsert(0x1000));
    EXPECT_TRUE(llt.lookupInsert(0x1020));
}

TEST(Llt, ClearForgetsEverything)
{
    auto p = makeLlt();
    auto &llt = *p;
    llt.lookupInsert(0x2000);
    llt.clear();
    EXPECT_FALSE(llt.lookupInsert(0x2000));   // must be logged again
}

TEST(Llt, LruEvictionWithinSet)
{
    // 2 entries x 1 way: two sets of one way each; two granules that
    // map to the same set evict each other.
    LogLookupTable llt(2, 1, reg(), "llt_lru");
    const Addr a = 0;                // set 0
    const Addr b = 2 * 2 * 32;       // also set 0 (granule index 4)
    EXPECT_FALSE(llt.lookupInsert(a));
    EXPECT_FALSE(llt.lookupInsert(b));   // evicts a
    EXPECT_FALSE(llt.lookupInsert(a));   // a was evicted
}

TEST(Llt, AssociativityHoldsConflictingGranules)
{
    // One set, 4 ways: four conflicting granules all fit.
    LogLookupTable llt(4, 4, reg(), "llt_assoc");
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_FALSE(llt.lookupInsert(i * 32));
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_TRUE(llt.lookupInsert(i * 32));
    // Fifth conflicting granule evicts the LRU (granule 0).
    EXPECT_FALSE(llt.lookupInsert(4 * 32));
    EXPECT_FALSE(llt.lookupInsert(0));
}

TEST(Llt, MissRate)
{
    auto p = makeLlt();
    auto &llt = *p;
    llt.lookupInsert(0x100);     // miss
    llt.lookupInsert(0x100);     // hit
    llt.lookupInsert(0x100);     // hit
    llt.lookupInsert(0x120);     // miss
    EXPECT_DOUBLE_EQ(llt.missRate(), 0.5);
}

// The LLT geometry rule lives in the config gate, SystemConfig::validate;
// it binds the schemes that build an LLT and lets every other run as is.
TEST(Llt, BadGeometryIsFatal)
{
    const std::pair<unsigned, unsigned> bad[] = {{0, 1}, {8, 0}, {9, 2}};
    for (const auto &[entries, ways] : bad) {
        SystemConfig cfg = baselineConfig();
        cfg.logging.lltEntries = entries;
        cfg.logging.lltWays = ways;
        EXPECT_THROW(cfg.validate(LogScheme::Proteus), FatalError)
            << entries << "/" << ways;
        EXPECT_THROW(cfg.validate(LogScheme::ProteusNoLWR), FatalError)
            << entries << "/" << ways;
        EXPECT_NO_THROW(cfg.validate(LogScheme::ATOM))
            << entries << "/" << ways;
    }

    // A fully associative single set passes the gate and builds.
    SystemConfig one = baselineConfig();
    one.logging.lltEntries = 8;
    one.logging.lltWays = 8;
    EXPECT_NO_THROW(one.validate(LogScheme::Proteus));
    auto llt = makeLlt(8, 8);
    EXPECT_FALSE(llt->lookupInsert(0x40));
    EXPECT_TRUE(llt->lookupInsert(0x40));
}
