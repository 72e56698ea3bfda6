/** @file Pipeline-level tests for the out-of-order core. */

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "cache/hierarchy.hh"
#include "cpu/core.hh"
#include "cpu/lock_manager.hh"
#include "heap/persistent_heap.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

using namespace proteus;

namespace {

/** A minimal single-core machine around a hand-built trace. */
struct CoreFixture
{
    explicit CoreFixture(LogScheme scheme = LogScheme::Proteus)
    {
        cfg = baselineConfig();
        cfg.cores = 1;
        cfg.logging.scheme = scheme;
    }

    /** Build the system after the trace is filled in. */
    void
    start()
    {
        mc = std::make_unique<MemCtrl>(sim, cfg, nvm);
        hier = std::make_unique<CacheHierarchy>(sim, cfg, *mc, nvm);
        locks = std::make_unique<LockManager>(sim);
        core = std::make_unique<Core>(sim, cfg, 0, trace, *hier, *mc,
                                      *locks);
        core->bindLogArea(0x200000, 0x200000 + (1 << 16));
        sim.addTicked(mc.get());
        sim.addTicked(core.get());
    }

    void
    runToCompletion(Tick max = 2000000)
    {
        ASSERT_TRUE(sim.runUntil([&]() { return core->done(); }, max))
            << "core did not drain";
    }

    MicroOp
    alu(std::int16_t dst = noReg, std::int16_t src = noReg)
    {
        MicroOp m;
        m.op = Op::IntAlu;
        m.dst = dst;
        m.src0 = src;
        return m;
    }

    MicroOp
    load(Addr a, std::int16_t dst)
    {
        MicroOp m;
        m.op = Op::Load;
        m.addr = a;
        m.size = 8;
        m.dst = dst;
        return m;
    }

    MicroOp
    store(Addr a, std::uint64_t value, bool persistent = true)
    {
        MicroOp m;
        m.op = Op::Store;
        m.addr = a;
        m.size = 8;
        m.data = value;
        m.persistent = persistent;
        return m;
    }

    MicroOp
    simple(Op op, std::uint64_t data = 0, Addr addr = invalidAddr)
    {
        MicroOp m;
        m.op = op;
        m.data = data;
        m.addr = addr;
        return m;
    }

    Simulator sim;
    SystemConfig cfg;
    MemoryImage nvm;
    Trace trace;
    std::unique_ptr<MemCtrl> mc;
    std::unique_ptr<CacheHierarchy> hier;
    std::unique_ptr<LockManager> locks;
    std::unique_ptr<Core> core;
};

constexpr Addr dataAddr = PersistentHeap::persistentBase;

} // namespace

TEST(Core, RetiresAluChain)
{
    CoreFixture f;
    for (int i = 0; i < 20; ++i)
        f.trace.push(f.alu(static_cast<std::int16_t>(i % 8)));
    f.start();
    f.runToCompletion();
    EXPECT_EQ(f.core->retiredOps(), 20u);
}

TEST(Core, DependentAluChainIsSerialized)
{
    // A dependent chain of N 1-cycle ops needs at least N cycles; an
    // independent batch of the same size retires much faster.
    CoreFixture dep;
    for (int i = 0; i < 64; ++i)
        dep.trace.push(dep.alu(1, 1));
    dep.start();
    dep.runToCompletion();
    const Tick dep_time = dep.sim.now();

    CoreFixture indep;
    for (int i = 0; i < 64; ++i)
        indep.trace.push(indep.alu(static_cast<std::int16_t>(i % 16)));
    indep.start();
    indep.runToCompletion();
    EXPECT_LT(indep.sim.now() * 2, dep_time);
}

TEST(Core, LoadMissThenHit)
{
    CoreFixture f;
    f.trace.push(f.load(dataAddr, 1));
    f.trace.push(f.load(dataAddr, 2));
    f.start();
    f.runToCompletion();
    EXPECT_EQ(f.mc->nvmReads(), 1u);
}

TEST(Core, StoreValueReachesNvmThroughFlush)
{
    CoreFixture f(LogScheme::PMEMNoLog);
    f.trace.push(f.simple(Op::TxBegin, 1));
    f.trace.push(f.store(dataAddr, 0xFEED));
    f.trace.push(f.simple(Op::ClWb, 0, dataAddr));
    f.trace.push(f.simple(Op::SFence));
    f.trace.push(f.simple(Op::TxEnd, 1));
    f.start();
    f.runToCompletion();
    ASSERT_TRUE(f.sim.runUntil([&]() { return f.mc->empty(); },
                               1000000));
    EXPECT_EQ(f.nvm.read64(dataAddr), 0xFEEDu);
}

TEST(Core, SFenceWaitsForFlushAck)
{
    // Without the flush the fence is cheap; with it the fence must
    // wait for the MC acknowledgment.
    CoreFixture cheap(LogScheme::PMEMNoLog);
    cheap.trace.push(cheap.simple(Op::SFence));
    cheap.start();
    cheap.runToCompletion();
    const Tick fast = cheap.sim.now();

    CoreFixture slow(LogScheme::PMEMNoLog);
    slow.trace.push(slow.simple(Op::TxBegin, 1));
    slow.trace.push(slow.store(dataAddr, 1));
    slow.trace.push(slow.simple(Op::ClWb, 0, dataAddr));
    slow.trace.push(slow.simple(Op::SFence));
    slow.trace.push(slow.simple(Op::TxEnd, 1));
    slow.start();
    slow.runToCompletion();
    EXPECT_GT(slow.sim.now(), fast + 50);
}

TEST(Core, ProteusLogFlushReachesLogArea)
{
    CoreFixture f(LogScheme::Proteus);
    LogPayload payload;
    payload.fromAddr = logAlign(dataAddr);
    payload.txId = 1;
    const std::uint64_t old = 0x01D;
    std::memcpy(payload.bytes, &old, 8);

    f.trace.push(f.simple(Op::TxBegin, 1));
    MicroOp ll;
    ll.op = Op::LogLoad;
    ll.addr = logAlign(dataAddr);
    ll.size = logDataSize;
    ll.dst = 24;
    f.trace.push(ll);
    MicroOp lf;
    lf.op = Op::LogFlush;
    lf.addr = logAlign(dataAddr);
    lf.src0 = 24;
    lf.payload = f.trace.addPayload(payload);
    f.trace.push(lf);
    f.trace.push(f.store(dataAddr, 0xAB));
    f.trace.push(f.simple(Op::TxEnd, 1));
    f.start();
    f.runToCompletion();
    // The tx committed; its log entry was flash-cleared into a marker.
    EXPECT_EQ(f.core->committedTxs().size(), 1u);
    EXPECT_DOUBLE_EQ(
        f.sim.statsRegistry().lookup("core0.llt.misses"), 1.0);
}

TEST(Core, LltFiltersRepeatedGranule)
{
    CoreFixture f(LogScheme::Proteus);
    f.trace.push(f.simple(Op::TxBegin, 1));
    for (int i = 0; i < 3; ++i) {
        LogPayload payload;
        payload.fromAddr = logAlign(dataAddr);
        payload.txId = 1;
        MicroOp ll;
        ll.op = Op::LogLoad;
        ll.addr = logAlign(dataAddr);
        ll.size = logDataSize;
        ll.dst = 24;
        f.trace.push(ll);
        MicroOp lf;
        lf.op = Op::LogFlush;
        lf.addr = logAlign(dataAddr);
        lf.src0 = 24;
        lf.payload = f.trace.addPayload(payload);
        f.trace.push(lf);
        f.trace.push(f.store(dataAddr + 8ull * i, 1));
    }
    f.trace.push(f.simple(Op::TxEnd, 1));
    f.start();
    f.runToCompletion();
    EXPECT_DOUBLE_EQ(
        f.sim.statsRegistry().lookup("core0.llt.lookups"), 3.0);
    EXPECT_DOUBLE_EQ(
        f.sim.statsRegistry().lookup("core0.llt.misses"), 1.0);
}

TEST(Core, AtomLogsAtRetirementOncePerBlock)
{
    CoreFixture f(LogScheme::ATOM);
    f.trace.push(f.simple(Op::TxBegin, 1));
    f.trace.push(f.store(dataAddr, 1));
    f.trace.push(f.store(dataAddr + 8, 2));        // same block
    f.trace.push(f.store(dataAddr + 64, 3));       // new block
    f.trace.push(f.simple(Op::TxEnd, 1));
    f.start();
    // ATOM needs the MC log area bound before the first store retires.
    f.mc->bindAtomLogArea(0, 0x300000, 0x300000 + (1 << 16));
    f.runToCompletion();
    // Two blocks logged, two 32B granule records each.
    EXPECT_DOUBLE_EQ(
        f.sim.statsRegistry().lookup("mc.logWritesAccepted"), 4.0);
    EXPECT_EQ(f.core->committedTxs().size(), 1u);
}

TEST(Core, BranchMispredictStallsFetch)
{
    // Random outcomes mispredict often; fixed outcomes train away.
    CoreFixture noisy;
    proteus::Random rng(3);
    for (int i = 0; i < 400; ++i) {
        MicroOp m;
        m.op = Op::Branch;
        m.staticPc = 0x10;
        m.taken = rng.nextBool(0.5);
        noisy.trace.push(m);
        noisy.trace.push(noisy.alu());
    }
    noisy.start();
    noisy.runToCompletion();
    const Tick noisy_time = noisy.sim.now();

    CoreFixture steady;
    for (int i = 0; i < 400; ++i) {
        MicroOp m;
        m.op = Op::Branch;
        m.staticPc = 0x10;
        m.taken = true;
        steady.trace.push(m);
        steady.trace.push(steady.alu());
    }
    steady.start();
    steady.runToCompletion();
    EXPECT_LT(steady.sim.now() * 2, noisy_time);
}

TEST(Core, LockRoundTrip)
{
    CoreFixture f;
    f.trace.push(f.simple(Op::LockAcquire, 0, 0x8000));
    f.trace.push(f.alu());
    f.trace.push(f.simple(Op::LockRelease, 0, 0x8000));
    f.start();
    f.runToCompletion();
    EXPECT_FALSE(f.locks->held(0x8000));
}

TEST(Core, PCommitDrainsWpq)
{
    CoreFixture f(LogScheme::PMEMPCommit);
    f.cfg.memCtrl.adr = false;
    f.trace.push(f.simple(Op::TxBegin, 1));
    f.trace.push(f.store(dataAddr, 0x55));
    f.trace.push(f.simple(Op::ClWb, 0, dataAddr));
    f.trace.push(f.simple(Op::SFence));
    f.trace.push(f.simple(Op::PCommit));
    f.trace.push(f.simple(Op::SFence));
    f.trace.push(f.simple(Op::TxEnd, 1));
    f.start();
    f.runToCompletion();
    // pcommit retired only after the WPQ drained to NVM.
    EXPECT_EQ(f.nvm.read64(dataAddr), 0x55u);
}

TEST(Core, LogSaveFlushesCoreLogs)
{
    CoreFixture f(LogScheme::Proteus);
    LogPayload payload;
    payload.fromAddr = logAlign(dataAddr);
    payload.txId = 1;
    f.trace.push(f.simple(Op::TxBegin, 1));
    MicroOp ll;
    ll.op = Op::LogLoad;
    ll.addr = logAlign(dataAddr);
    ll.size = logDataSize;
    ll.dst = 24;
    f.trace.push(ll);
    MicroOp lf;
    lf.op = Op::LogFlush;
    lf.addr = logAlign(dataAddr);
    lf.src0 = 24;
    lf.payload = f.trace.addPayload(payload);
    f.trace.push(lf);
    f.trace.push(f.store(dataAddr, 1));
    // Context switch in the middle of the transaction (Section 4.4).
    f.trace.push(f.simple(Op::LogSave));
    f.trace.push(f.simple(Op::TxEnd, 1));
    f.start();
    f.runToCompletion();
    // The log entry was forced to NVM instead of lingering in the LPQ.
    EXPECT_GE(f.mc->nvmWrites(), 1u);
}

TEST(Core, FrontendStallsAccumulateUnderPressure)
{
    CoreFixture f;
    f.cfg.cpu.robEntries = 8;       // tiny ROB forces dispatch stalls
    for (int i = 0; i < 200; ++i)
        f.trace.push(f.load(dataAddr + 4096ull * i, 1));
    f.start();
    f.runToCompletion();
    EXPECT_GT(f.core->frontendStallCycles(), 100u);
}

TEST(TxBlockSet, TracksStartedAndLoggedBlocksPerTransaction)
{
    using State = TxBlockSet::State;
    TxBlockSet set;
    EXPECT_EQ(set.get(0x1000), State::Absent);
    EXPECT_TRUE(set.start(0x1000));
    EXPECT_FALSE(set.start(0x1000));        // already in flight
    EXPECT_EQ(set.get(0x1000), State::Started);
    set.markLogged(0x1000);
    EXPECT_EQ(set.get(0x1000), State::Logged);
    EXPECT_FALSE(set.start(0x1000));        // logged blocks stay logged
    set.markLogged(0x2000);                 // logged without a start
    EXPECT_EQ(set.get(0x2000), State::Logged);
    EXPECT_EQ(set.size(), 2u);

    set.clear();
    EXPECT_EQ(set.size(), 0u);
    EXPECT_EQ(set.get(0x1000), State::Absent);
    EXPECT_EQ(set.get(0x2000), State::Absent);
    EXPECT_TRUE(set.start(0x2000));
}

TEST(TxBlockSet, MatchesOrderedSetsAcrossGrowthAndClears)
{
    // The two std::sets it replaced, driven by the same random ops.
    using State = TxBlockSet::State;
    TxBlockSet set;
    std::set<Addr> started, logged;
    Random rng(7);
    for (unsigned i = 0; i < 20000; ++i) {
        const Addr block = rng.nextBelow(700) * blockSize;
        switch (rng.nextBelow(3)) {
          case 0:
            EXPECT_EQ(set.start(block),
                      logged.count(block) == 0 &&
                          started.insert(block).second);
            break;
          case 1:
            set.markLogged(block);
            logged.insert(block);
            break;
          default:
            if (rng.nextBelow(100) == 0) {
                set.clear();
                started.clear();
                logged.clear();
            }
        }
        const State want = logged.count(block) ? State::Logged
            : started.count(block)             ? State::Started
                                               : State::Absent;
        ASSERT_EQ(set.get(block), want) << i;
    }
}
