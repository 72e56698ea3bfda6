/** @file Unit tests for the cache array and hierarchy. */

#include <gtest/gtest.h>

#include <memory>

#include "cache/hierarchy.hh"
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

std::unique_ptr<CacheArray>
makeArray(std::uint64_t size = 1024, unsigned ways = 2,
          unsigned latency = 4)
{
    CacheConfig cfg{size, ways, latency, 8, 8};
    return std::make_unique<CacheArray>(
        cfg, reg(), "arr" + std::to_string(counter++));
}

/** A small but complete system for hierarchy tests. */
struct HierFixture
{
    HierFixture()
    {
        cfg = baselineConfig();
        cfg.cores = 2;
        mc = std::make_unique<MemCtrl>(sim, cfg, nvm);
        hier = std::make_unique<CacheHierarchy>(sim, cfg, *mc, nvm);
        sim.addTicked(mc.get());
    }

    /** Run until @p done or fail the test. */
    void
    runUntil(const std::function<bool()> &done, Tick max = 100000)
    {
        ASSERT_TRUE(sim.runUntil(done, max));
    }

    Simulator sim;
    SystemConfig cfg;
    MemoryImage nvm;
    std::unique_ptr<MemCtrl> mc;
    std::unique_ptr<CacheHierarchy> hier;
};

} // namespace

TEST(CacheArray, InsertProbeTouch)
{
    auto ap = makeArray();
    auto &a = *ap;
    EXPECT_FALSE(a.probe(0x1000));
    EXPECT_FALSE(a.insert(0x1000, false).has_value());
    EXPECT_TRUE(a.probe(0x1000));
    EXPECT_FALSE(a.isDirty(0x1000));
    a.setDirty(0x1000);
    EXPECT_TRUE(a.isDirty(0x1000));
}

TEST(CacheArray, LruEviction)
{
    // 1KB, 2-way, 64B blocks -> 8 sets. Three blocks in one set.
    auto ap = makeArray();
    auto &a = *ap;
    const Addr s0_a = 0;
    const Addr s0_b = 8 * 64;
    const Addr s0_c = 16 * 64;
    a.insert(s0_a, false);
    a.insert(s0_b, false);
    a.touch(s0_a);              // b becomes LRU
    const auto victim = a.insert(s0_c, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->block, s0_b);
}

TEST(CacheArray, DirtyVictimReported)
{
    auto ap = makeArray();
    auto &a = *ap;
    a.insert(0, true);
    a.insert(8 * 64, false);
    const auto victim = a.insert(16 * 64, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_TRUE(victim->dirty);
}

TEST(CacheArray, CleanKeepsLine)
{
    auto ap = makeArray();
    auto &a = *ap;
    a.insert(0x40, true);
    EXPECT_TRUE(a.clean(0x40));
    EXPECT_TRUE(a.probe(0x40));
    EXPECT_FALSE(a.isDirty(0x40));
    EXPECT_FALSE(a.clean(0x40));    // already clean
}

TEST(CacheArray, InvalidateReportsDirty)
{
    auto ap = makeArray();
    auto &a = *ap;
    a.insert(0x40, true);
    EXPECT_TRUE(a.invalidate(0x40));
    EXPECT_FALSE(a.probe(0x40));
    EXPECT_FALSE(a.invalidate(0x40));
}

TEST(CacheArray, ReinsertMergesDirtyBit)
{
    auto ap = makeArray();
    auto &a = *ap;
    a.insert(0x40, true);
    a.insert(0x40, false);      // must not lose the dirty bit
    EXPECT_TRUE(a.isDirty(0x40));
}

TEST(DirtyDataTrackerTest, SnapshotsFollowStores)
{
    MemoryImage nvm;
    nvm.write64(0x1000, 0xAAAA);
    DirtyDataTracker tracker(nvm);
    auto before = tracker.snapshot(0x1000);
    std::uint64_t v = 0;
    std::memcpy(&v, before.data(), 8);
    EXPECT_EQ(v, 0xAAAAu);

    tracker.applyStore(0x1008, 8, 0xBBBB);
    auto after = tracker.snapshot(0x1000);
    std::memcpy(&v, after.data(), 8);
    EXPECT_EQ(v, 0xAAAAu);              // untouched bytes kept
    std::memcpy(&v, after.data() + 8, 8);
    EXPECT_EQ(v, 0xBBBBu);
}

TEST(DirtyDataTrackerTest, CrossBlockStorePanics)
{
    MemoryImage nvm;
    DirtyDataTracker tracker(nvm);
    EXPECT_THROW(tracker.applyStore(0x103C, 8, 1), PanicError);
}

TEST(Hierarchy, L1HitIsFast)
{
    HierFixture f;
    bool done = false;
    f.hier->load(0, 0x10000, 8, [&]() { done = true; });
    f.runUntil([&]() { return done; });
    const Tick miss_time = f.sim.now();
    EXPECT_GT(miss_time, 50u);          // went to memory

    done = false;
    const Tick start = f.sim.now();
    f.hier->load(0, 0x10000, 8, [&]() { done = true; });
    f.runUntil([&]() { return done; });
    EXPECT_LE(f.sim.now() - start, 6u); // L1 hit latency
}

TEST(Hierarchy, MshrMergesSameBlock)
{
    HierFixture f;
    int completions = 0;
    f.hier->load(0, 0x20000, 8, [&]() { ++completions; });
    f.hier->load(0, 0x20008, 8, [&]() { ++completions; });
    f.runUntil([&]() { return completions == 2; });
    // Only one memory read was made for the shared block.
    EXPECT_EQ(f.mc->nvmReads(), 1u);
}

TEST(Hierarchy, MshrLimitRejects)
{
    HierFixture f;
    f.cfg.caches.l1d.mshrs = 16;
    unsigned accepted = 0;
    for (unsigned i = 0; i < 32; ++i) {
        if (f.hier->load(0, 0x40000 + i * 64, 8, [] {}))
            ++accepted;
    }
    EXPECT_EQ(accepted, 16u);
}

TEST(Hierarchy, StoreMakesBlockDirtyAndTracked)
{
    HierFixture f;
    bool done = false;
    f.hier->store(0, 0x30000, 8, 0x77, 0, [&]() { done = true; });
    f.runUntil([&]() { return done; });
    EXPECT_TRUE(f.hier->l1(0).isDirty(0x30000));
    auto snap = f.hier->tracker().snapshot(0x30000);
    std::uint64_t v = 0;
    std::memcpy(&v, snap.data(), 8);
    EXPECT_EQ(v, 0x77u);
}

TEST(Hierarchy, FlushWritesDirtyBlockToMemory)
{
    HierFixture f;
    bool stored = false, flushed = false;
    f.hier->store(0, 0x30000, 8, 0x12345, 0, [&]() { stored = true; });
    f.runUntil([&]() { return stored; });
    f.hier->flush(0, 0x30000, 0, [&]() { flushed = true; });
    f.runUntil([&]() { return flushed; });
    EXPECT_FALSE(f.hier->l1(0).isDirty(0x30000));
    // Run until the WPQ drains to the NVM image.
    f.runUntil([&]() { return f.mc->empty(); }, 1000000);
    EXPECT_EQ(f.nvm.read64(0x30000), 0x12345u);
}

TEST(Hierarchy, FlushCleanBlockIsCheap)
{
    HierFixture f;
    bool done = false;
    f.hier->flush(0, 0x50000, 0, [&]() { done = true; });
    f.runUntil([&]() { return done; });
    EXPECT_EQ(f.mc->nvmWrites(), 0u);
}

TEST(Hierarchy, RemoteDirtyTransfer)
{
    HierFixture f;
    bool stored = false;
    f.hier->store(0, 0x60000, 8, 0x1, 0, [&]() { stored = true; });
    f.runUntil([&]() { return stored; });
    ASSERT_TRUE(f.hier->l1(0).isDirty(0x60000));

    // Core 1 reads the line: core 0's dirty copy must be found.
    bool loaded = false;
    f.hier->load(1, 0x60000, 8, [&]() { loaded = true; });
    f.runUntil([&]() { return loaded; });
    EXPECT_FALSE(f.hier->l1(0).probe(0x60000));    // invalidated
    EXPECT_GT(f.sim.statsRegistry().lookup("cache.remoteTransfers"),
              0.0);
}

TEST(Hierarchy, LogWritePathReachesMc)
{
    HierFixture f;
    WriteRequest req;
    req.addr = 0x70000;
    req.kind = WriteKind::Data;
    req.data.fill(0xCD);
    bool acked = false;
    f.hier->sendLogWrite(req, [&]() { acked = true; });
    f.runUntil([&]() { return acked; });
    f.runUntil([&]() { return f.mc->empty(); }, 1000000);
    EXPECT_EQ(f.nvm.read64(0x70000), 0xCDCDCDCDCDCDCDCDull);
}

// The power-of-two set rule lives in the config gate, SystemConfig::
// validate, which checks every level the hierarchy builds.
TEST(CacheArray, NonPowerOfTwoSetsFatal)
{
    const CacheConfig bad{3 * 64, 1, 4, 8, 8};
    for (CacheConfig HierarchyConfig::*level :
         {&HierarchyConfig::l1d, &HierarchyConfig::l2, &HierarchyConfig::l3}) {
        SystemConfig cfg = baselineConfig();
        cfg.caches.*level = bad;
        EXPECT_THROW(cfg.validate(LogScheme::Proteus), FatalError);
    }

    // One set of one way is the smallest geometry the gate passes.
    SystemConfig tiny = baselineConfig();
    tiny.caches.l1d = {64, 1, 4, 8, 8};
    EXPECT_NO_THROW(tiny.validate(LogScheme::Proteus));
    CacheArray a(tiny.caches.l1d, reg(), "tiny" + std::to_string(counter++));
    EXPECT_FALSE(a.insert(0x40, false).has_value());
    const auto victim = a.insert(0x80, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->block, 0x40u);
}
