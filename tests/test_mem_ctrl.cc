/** @file Unit tests for the memory controller (WPQ/LPQ/ADR, LWR, ATOM). */

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "faults/fault_config.hh"
#include "memctrl/mem_ctrl.hh"
#include "sim/logging.hh"

using namespace proteus;

namespace {

struct McFixture
{
    explicit McFixture(
        LogScheme scheme = LogScheme::Proteus,
        unsigned atom_truncation_entries = 64,
        const std::function<void(SystemConfig &)> &tweak = {})
    {
        cfg = baselineConfig();
        cfg.logging.scheme = scheme;
        cfg.logging.atomTruncationEntries = atom_truncation_entries;
        if (tweak)
            tweak(cfg);
        mc = std::make_unique<MemCtrl>(sim, cfg, nvm);
        sim.addTicked(mc.get());
    }

    WriteRequest
    dataWrite(Addr addr, std::uint64_t value)
    {
        WriteRequest req;
        req.addr = addr;
        req.kind = WriteKind::Data;
        std::memcpy(req.data.data(), &value, 8);
        return req;
    }

    WriteRequest
    logWrite(Addr log_to, CoreId core, TxId tx, Addr from,
             std::uint64_t seq, std::uint32_t extra_flags = 0)
    {
        LogRecord rec;
        rec.fromAddr = from;
        rec.txId = tx;
        rec.seq = seq;
        rec.flags = LogRecord::flagValid | extra_flags;
        rec.magic = LogRecord::magicValue;
        WriteRequest req;
        req.addr = log_to;
        req.kind = WriteKind::Log;
        req.core = core;
        req.txId = tx;
        req.data = rec.toBytes();
        return req;
    }

    /** Run until the array has seen @p n writes. @return the tick the
     *  n-th write issued on. */
    Tick
    runUntilWrites(std::uint64_t n, Tick max = 100000)
    {
        EXPECT_TRUE(
            sim.runUntil([&]() { return mc->nvmWrites() >= n; }, max));
        return sim.now() - 1;
    }

    /** Read @p addr and wait for it, leaving its row open. */
    void
    openRow(Addr addr)
    {
        bool done = false;
        mc->read(addr, [&]() { done = true; });
        ASSERT_TRUE(sim.runUntil([&]() { return done; }, 10000));
    }

    void
    runUntilEmpty(Tick max = 1000000)
    {
        ASSERT_TRUE(sim.runUntil([&]() { return mc->empty(); }, max));
    }

    Simulator sim;
    SystemConfig cfg;
    MemoryImage nvm;
    std::unique_ptr<MemCtrl> mc;
};

} // namespace

TEST(MemCtrl, ReadCompletes)
{
    McFixture f;
    bool done = false;
    f.mc->read(0x1000, [&]() { done = true; });
    f.sim.runUntil([&]() { return done; }, 10000);
    EXPECT_TRUE(done);
    EXPECT_EQ(f.mc->nvmReads(), 1u);
}

TEST(MemCtrl, WriteReachesNvmImage)
{
    McFixture f;
    f.mc->write(f.dataWrite(0x2000, 0xABCD));
    f.runUntilEmpty();
    EXPECT_EQ(f.nvm.read64(0x2000), 0xABCDu);
    EXPECT_EQ(f.mc->nvmWrites(), 1u);
}

TEST(MemCtrl, WpqForwardsToReads)
{
    McFixture f;
    f.mc->write(f.dataWrite(0x3000, 1));
    bool done = false;
    f.mc->read(0x3000, [&]() { done = true; });
    // Forwarding completes in a few cycles without a DRAM read.
    f.sim.run(20);
    EXPECT_TRUE(done);
    EXPECT_EQ(f.mc->nvmReads(), 0u);
}

TEST(MemCtrl, WriteCombiningMergesSameBlock)
{
    McFixture f;
    f.mc->write(f.dataWrite(0x4000, 1));
    f.mc->write(f.dataWrite(0x4000, 2));
    f.runUntilEmpty();
    EXPECT_EQ(f.mc->nvmWrites(), 1u);
    EXPECT_EQ(f.nvm.read64(0x4000), 2u);
}

TEST(MemCtrl, LogWritesGoToLpqAndAreHeld)
{
    McFixture f;
    f.mc->write(f.logWrite(0x9000, 0, 7, 0x5000, 0));
    // Proteus holds log entries in the LPQ: no NVM writes yet.
    f.sim.run(5000);
    EXPECT_EQ(f.mc->nvmWrites(), 0u);
    EXPECT_FALSE(f.mc->empty());
}

TEST(MemCtrl, TxEndFlashClearsLogEntries)
{
    McFixture f;
    for (unsigned i = 0; i < 4; ++i) {
        f.mc->write(f.logWrite(0x9000 + i * 64, 0, 7,
                               0x5000 + i * 32, i));
    }
    f.mc->txEnd(0, 7);
    // Three of four dropped; the last is the held tx-end marker.
    EXPECT_EQ(f.mc->droppedLogWrites(), 3u);
}

TEST(MemCtrl, MarkerDroppedBySuccessorTx)
{
    McFixture f;
    f.mc->write(f.logWrite(0x9000, 0, 7, 0x5000, 0));
    f.mc->txEnd(0, 7);
    // First log write of tx 8 discards tx 7's held marker.
    f.mc->write(f.logWrite(0x9040, 0, 8, 0x5020, 0));
    f.mc->txEnd(0, 8);
    f.sim.run(2);
    EXPECT_DOUBLE_EQ(
        f.sim.statsRegistry().lookup("mc.markersDropped"), 1.0);
    // Transaction 7 never cost an NVM write at all.
    EXPECT_EQ(f.mc->nvmWrites(), 0u);
}

TEST(MemCtrl, NoLwrWritesAllLogEntries)
{
    McFixture f(LogScheme::ProteusNoLWR);
    for (unsigned i = 0; i < 4; ++i) {
        f.mc->write(f.logWrite(0x9000 + i * 64, 0, 7,
                               0x5000 + i * 32, i));
    }
    f.mc->txEnd(0, 7);      // no-op without log write removal
    EXPECT_EQ(f.mc->droppedLogWrites(), 0u);
    f.runUntilEmpty();
    EXPECT_EQ(f.mc->nvmWrites(), 4u);
}

TEST(MemCtrl, LogGranuleDurableTracksAcceptance)
{
    McFixture f;
    EXPECT_FALSE(f.mc->logGranuleDurable(0, 7, 0x5000));
    f.mc->write(f.logWrite(0x9000, 0, 7, 0x5000, 0));
    EXPECT_TRUE(f.mc->logGranuleDurable(0, 7, 0x5000));
    EXPECT_TRUE(f.mc->logGranuleDurable(0, 7, 0x5010));  // same granule
    EXPECT_FALSE(f.mc->logGranuleDurable(0, 7, 0x5020));
    EXPECT_FALSE(f.mc->logGranuleDurable(1, 7, 0x5000)); // other core
}

TEST(MemCtrl, DrainWatermarkIgnoresLaterWrites)
{
    McFixture f;
    f.mc->write(f.dataWrite(0x2000, 1));
    bool drained = false;
    f.mc->drain([&]() { drained = true; });
    // Writes arriving after the pcommit do not delay it.
    f.mc->write(f.dataWrite(0x2040, 2));
    f.sim.runUntil([&]() { return drained; }, 100000);
    EXPECT_TRUE(drained);
}

TEST(MemCtrl, BatteryDrainAppliesQueuedWrites)
{
    McFixture f;
    f.mc->write(f.dataWrite(0x6000, 0x11));
    f.mc->write(f.logWrite(0x9000, 0, 7, 0x5000, 0));
    // Nothing has reached the NVM array yet.
    MemoryImage crash = f.nvm;
    f.mc->applyBatteryDrain(crash);
    EXPECT_EQ(crash.read64(0x6000), 0x11u);
    std::uint8_t bytes[logEntrySize];
    crash.read(0x9000, bytes, sizeof(bytes));
    EXPECT_TRUE(LogRecord::fromBytes(bytes).valid());
}

TEST(MemCtrl, AtomLogAllocatesSlotsAndAcks)
{
    McFixture f(LogScheme::ATOM);
    f.mc->bindAtomLogArea(0, 0xA0000, 0xA0000 + 64 * logEntrySize);
    LogRecord rec;
    rec.fromAddr = 0x5000;
    rec.txId = 3;
    rec.flags = LogRecord::flagValid;
    rec.magic = LogRecord::magicValue;
    EXPECT_TRUE(f.mc->atomLog(0, 3, rec));
    EXPECT_TRUE(f.mc->logGranuleDurable(0, 3, 0x5000));
    f.runUntilEmpty();
    // Entry written beyond the commit-record block.
    std::uint8_t bytes[logEntrySize];
    f.nvm.read(0xA0000 + logEntrySize, bytes, sizeof(bytes));
    EXPECT_TRUE(LogRecord::fromBytes(bytes).valid());
}

TEST(MemCtrl, AtomCommitRecordWritten)
{
    McFixture f(LogScheme::ATOM);
    f.mc->bindAtomLogArea(0, 0xA0000, 0xA0000 + 64 * logEntrySize);
    EXPECT_TRUE(f.mc->atomTxCommit(0, 42));
    f.runUntilEmpty();
    EXPECT_EQ(f.nvm.read64(0xA0000), 42u);
}

TEST(MemCtrl, AtomTruncationBeyondResourcesSearches)
{
    McFixture f(LogScheme::ATOM, 2);
    f.mc->bindAtomLogArea(0, 0xA0000, 0xA0000 + 64 * logEntrySize);

    LogRecord rec;
    rec.fromAddr = 0x5000;
    rec.txId = 3;
    rec.flags = LogRecord::flagValid;
    rec.magic = LogRecord::magicValue;
    for (unsigned i = 0; i < 5; ++i) {
        rec.seq = i;
        ASSERT_TRUE(f.mc->atomLog(0, 3, rec));
    }
    bool done = false;
    f.mc->atomTxEnd(0, 3, [&]() { done = true; });
    f.sim.runUntil([&]() { return done; }, 1000000);
    EXPECT_TRUE(done);
    // Three untracked entries needed a search read + invalidation.
    EXPECT_DOUBLE_EQ(
        f.sim.statsRegistry().lookup("mc.atomSearchReads"), 3.0);
    EXPECT_DOUBLE_EQ(
        f.sim.statsRegistry().lookup("mc.atomInvalidationWrites"), 3.0);
}

TEST(MemCtrl, FullQueuePanicsAndCanAcceptGuards)
{
    McFixture f;
    unsigned accepted = 0;
    while (f.mc->canAcceptWrite(WriteKind::Data)) {
        f.mc->write(f.dataWrite(0x100000 + accepted * 64, accepted));
        ++accepted;
    }
    EXPECT_EQ(accepted, f.cfg.memCtrl.wpqEntries);
    EXPECT_THROW(f.mc->write(f.dataWrite(0x9990000, 1)), PanicError);
}

TEST(MemCtrl, UnalignedWritePanics)
{
    McFixture f;
    EXPECT_THROW(f.mc->write(f.dataWrite(0x1001, 1)), PanicError);
}

TEST(MemCtrl, FlushCoreLogsDrains)
{
    McFixture f;
    f.mc->write(f.logWrite(0x9000, 0, 7, 0x5000, 0));
    bool done = false;
    f.mc->flushCoreLogs(0, [&]() { done = true; });
    f.sim.runUntil([&]() { return done; }, 1000000);
    EXPECT_TRUE(done);
    EXPECT_EQ(f.mc->nvmWrites(), 1u);   // forced to NVM
}

TEST(MemCtrl, FullReadQueuePanicsAndCanAcceptGuards)
{
    McFixture f;
    unsigned accepted = 0;
    while (f.mc->canAcceptRead()) {
        // Distinct unwritten blocks: no WPQ forwarding, all queue.
        f.mc->read(0x200000 + accepted * 64, []() {});
        ++accepted;
    }
    EXPECT_EQ(accepted, f.cfg.memCtrl.readQueueEntries);
    EXPECT_THROW(f.mc->read(0x9990000, []() {}), PanicError);
    // The queue drains normally afterwards and frees its slots.
    f.runUntilEmpty();
    EXPECT_TRUE(f.mc->canAcceptRead());
}

TEST(MemCtrl, TxEndMarkerPatchesInflightLogWrite)
{
    // Regression: tx-end arrives when (a) the transaction's last log
    // entry has already left the LPQ but its array write is still in
    // flight, and (b) the LPQ is full so no marker entry can queue. The
    // fallback must patch the in-flight payload — writing the NVM slot
    // directly would be overwritten by the stale (no tx-end) completion.
    McFixture f;
    f.mc->write(f.logWrite(0x9000, 0, 7, 0x5000, 0));
    bool flushed = false;
    f.mc->flushCoreLogs(0, [&]() { flushed = true; });
    ASSERT_TRUE(f.sim.runUntil([&]() { return f.mc->nvmWrites() == 1; },
                               100000));
    ASSERT_FALSE(flushed);      // issued to the array, not yet persisted

    // Fill the LPQ from another core so canAcceptWrite(Log) is false.
    unsigned filled = 0;
    while (f.mc->canAcceptWrite(WriteKind::Log)) {
        f.mc->write(f.logWrite(0xA0000 + filled * 64, 1, 99,
                               0x7000 + filled * 32, filled));
        ++filled;
    }
    ASSERT_GT(filled, 0u);

    f.mc->txEnd(0, 7);
    EXPECT_DOUBLE_EQ(f.sim.statsRegistry().lookup("mc.markerWrites"),
                     1.0);

    ASSERT_TRUE(f.sim.runUntil([&]() { return flushed; }, 1000000));
    std::uint8_t bytes[logEntrySize];
    f.nvm.read(0x9000, bytes, sizeof(bytes));
    const LogRecord rec = LogRecord::fromBytes(bytes);
    ASSERT_TRUE(rec.valid());
    EXPECT_TRUE(rec.committed());   // the completion carried the marker
    EXPECT_EQ(rec.txId, 7u);
}

TEST(MemCtrl, TxEndMarkerDirectWriteWhenEntryAlreadyPersisted)
{
    // Same LPQ-full fallback, but the entry's write has fully completed:
    // with nothing in flight for the slot the marker is applied to the
    // array directly.
    McFixture f;
    f.mc->write(f.logWrite(0x9000, 0, 7, 0x5000, 0));
    bool flushed = false;
    f.mc->flushCoreLogs(0, [&]() { flushed = true; });
    ASSERT_TRUE(f.sim.runUntil([&]() { return flushed; }, 1000000));

    unsigned filled = 0;
    while (f.mc->canAcceptWrite(WriteKind::Log)) {
        f.mc->write(f.logWrite(0xA0000 + filled * 64, 1, 99,
                               0x7000 + filled * 32, filled));
        ++filled;
    }
    f.mc->txEnd(0, 7);

    std::uint8_t bytes[logEntrySize];
    f.nvm.read(0x9000, bytes, sizeof(bytes));
    const LogRecord rec = LogRecord::fromBytes(bytes);
    ASSERT_TRUE(rec.valid());
    EXPECT_TRUE(rec.committed());
    EXPECT_EQ(rec.txId, 7u);
}

TEST(MemCtrl, FlashClearWhileFaultedLogWriteInFlight)
{
    // LWR flash-clear racing a media fault: the transaction's first log
    // entry is mid-flight to the array (and will tear on completion)
    // when tx-end flash-clears the LPQ-resident rest. The torn line
    // must be poisoned, the drops counted, and the controller must
    // still drain cleanly.
    Simulator sim;
    SystemConfig cfg = baselineConfig();
    cfg.logging.scheme = LogScheme::Proteus;
    cfg.faults =
        faults::parseFaultSpec("torn=1,detect=8,correct=1,seed=3");
    MemoryImage nvm;
    MemCtrl mc(sim, cfg, nvm);
    sim.addTicked(&mc);

    auto logWrite = [](Addr to, std::uint64_t seq) {
        LogRecord rec;
        rec.fromAddr = 0x5000 + seq * logDataSize;
        rec.txId = 7;
        rec.seq = seq;
        rec.flags = LogRecord::flagValid;
        rec.magic = LogRecord::magicValue;
        WriteRequest req;
        req.addr = to;
        req.kind = WriteKind::Log;
        req.core = 0;
        req.txId = 7;
        req.data = rec.toBytes();
        return req;
    };

    mc.write(logWrite(0x9000, 0));
    bool flushed = false;
    mc.flushCoreLogs(0, [&]() { flushed = true; });
    ASSERT_TRUE(sim.runUntil([&]() { return mc.nvmWrites() == 1; },
                             100000));
    ASSERT_FALSE(flushed);      // entry 0 in flight, about to tear

    for (std::uint64_t seq = 1; seq <= 3; ++seq)
        mc.write(logWrite(0x9000 + seq * 64, seq));
    mc.txEnd(0, 7);     // drops seq 1..2, holds seq 3 as the marker
    EXPECT_EQ(mc.droppedLogWrites(), 2u);

    bool drained = false;
    mc.flushCoreLogs(0, [&]() { drained = true; });
    ASSERT_TRUE(sim.runUntil(
        [&]() { return drained && mc.empty(); }, 1000000));

    // Both array writes (entry 0, marker) tore and were ECC-detected.
    EXPECT_DOUBLE_EQ(sim.statsRegistry().lookup("faults.tornWrites"),
                     2.0);
    EXPECT_TRUE(nvm.isPoisoned(0x9000));
    EXPECT_TRUE(nvm.isPoisoned(0x90C0));
    EXPECT_EQ(mc.nvmWrites(), 2u);
}

// ---------------------------------------------------------------------
// The write arbiter's pick memo: once a pick finds nothing, the MC
// answers "nothing" without rescanning until the queue, the banks or
// the pick's inputs change. Each test blocks a pick, then changes one
// of those inputs and checks the write issues on exactly the tick a
// full rescan would pick it — with cycle skipping on and off, since
// the memo also feeds nextWake.
// ---------------------------------------------------------------------

namespace {

/** Bank 0 of the baseline geometry (16 banks, 2 KiB rows) holds row r
 *  at r * 32 KiB + (r % 16) * 2 KiB; rows 0 and 1 of bank 0 conflict. */
constexpr Addr bank0Row0 = 0;
constexpr Addr bank0Row1 = 32768 + 2048;
/** A queued write's age at which it drains regardless of pressure
 *  (agedWriteTicks in mem_ctrl.cc). */
constexpr Tick agedTicks = 4000;

} // namespace

TEST(MemCtrlPickMemo, BankReadyTickUnblocksRowHit)
{
    for (const bool skip : {false, true}) {
        SCOPED_TRACE(skip);
        McFixture f;
        f.sim.setCycleSkip(skip);
        f.mc->write(f.dataWrite(bank0Row0, 1));
        f.runUntilWrites(1);    // the aged drain opens row 0
        const unsigned bank = f.mc->dram().bankIndex(bank0Row0);
        const Tick ready = f.mc->dram().bankReadyAt(bank);
        ASSERT_GT(ready, f.sim.now());
        // A row hit on the busy bank waits exactly until it is ready.
        f.mc->write(f.dataWrite(bank0Row0 + 64, 2));
        EXPECT_EQ(f.runUntilWrites(2), ready);
    }
}

TEST(MemCtrlPickMemo, NewWriteIsANewCandidate)
{
    for (const bool skip : {false, true}) {
        SCOPED_TRACE(skip);
        McFixture f;
        f.sim.setCycleSkip(skip);
        f.openRow(bank0Row0);
        f.mc->write(f.dataWrite(bank0Row1, 1));
        f.sim.run(50);
        ASSERT_EQ(f.mc->nvmWrites(), 0u);
        // A row hit behind the deferred conflict issues at once.
        const Tick arrived = f.sim.now();
        f.mc->write(f.dataWrite(bank0Row0 + 64, 2));
        EXPECT_EQ(f.runUntilWrites(1), arrived);
    }
}

TEST(MemCtrlPickMemo, ReadToSameBankOpensTheWritesRow)
{
    for (const bool skip : {false, true}) {
        SCOPED_TRACE(skip);
        McFixture f;
        f.sim.setCycleSkip(skip);
        f.openRow(bank0Row0);
        // A row-1 write conflicts with open row 0: deferred.
        f.mc->write(f.dataWrite(bank0Row1, 1));
        const Tick accepted = f.sim.now();
        f.sim.run(50);
        ASSERT_EQ(f.mc->nvmWrites(), 0u);
        // A read of another row-1 block opens row 1; the write becomes
        // a row hit the moment the bank is ready again.
        bool done = false;
        f.mc->read(bank0Row1 + 64, [&]() { done = true; });
        f.sim.run(1);
        ASSERT_EQ(f.mc->nvmReads(), 2u);
        const unsigned bank = f.mc->dram().bankIndex(bank0Row1);
        const Tick ready = f.mc->dram().bankReadyAt(bank);
        EXPECT_EQ(f.runUntilWrites(1), ready);
        EXPECT_LT(ready, accepted + agedTicks);
    }
}

TEST(MemCtrlPickMemo, FlushCoreLogsForcesBlockedEntry)
{
    for (const bool skip : {false, true}) {
        SCOPED_TRACE(skip);
        // Without log write removal the LPQ drains opportunistically,
        // so its arbiter picks (and finds nothing) every cycle.
        McFixture f(LogScheme::ProteusNoLWR);
        f.sim.setCycleSkip(skip);
        f.openRow(bank0Row0);
        f.mc->write(f.logWrite(bank0Row1, 0, 7, 0x5000, 0));
        f.sim.run(50);
        ASSERT_EQ(f.mc->nvmWrites(), 0u);
        // A forced entry issues on a ready bank even as a conflict.
        const Tick flushed = f.sim.now();
        f.mc->flushCoreLogs(0, nullptr);
        EXPECT_EQ(f.runUntilWrites(1), flushed);
    }
}

TEST(MemCtrlPickMemo, FlashClearBringsRowHitIntoScanWindow)
{
    for (const bool skip : {false, true}) {
        SCOPED_TRACE(skip);
        // Keep the LPQ pressured whenever it is non-empty, and far from
        // the occupancy that would allow conflicts.
        McFixture f(LogScheme::Proteus, 64, [](SystemConfig &c) {
            c.memCtrl.lpqDrainThreshold = 0.001;
            c.memCtrl.wpqEntries = 256;
        });
        f.sim.setCycleSkip(skip);
        f.openRow(bank0Row0);
        // Tx 7 fills the 64-entry scan window with row-1 and row-2
        // conflicts on bank 0; tx 8's row hit sits just past it.
        const Addr bank0Row2 = 2 * 32768 + 2 * 2048;
        for (unsigned i = 0; i < 64; ++i) {
            const Addr row = i < 32 ? bank0Row1 : bank0Row2;
            f.mc->write(f.logWrite(row + (i % 32) * 64, 0, 7,
                                   0x5000 + i * 32, i));
        }
        f.mc->write(f.logWrite(bank0Row0 + 64, 1, 8, 0x9000, 0));
        f.sim.run(50);
        ASSERT_EQ(f.mc->nvmWrites(), 0u);
        // Tx 7's end flash-clears all but its held marker (skipped by
        // the pick): tx 8's entry is now scanned and issues at once.
        const Tick ended = f.sim.now();
        f.mc->txEnd(0, 7);
        EXPECT_EQ(f.mc->droppedLogWrites(), 63u);
        EXPECT_EQ(f.runUntilWrites(1), ended);
    }
}

TEST(MemCtrlPickMemo, TxEndMarkerRewriteIsANewCandidate)
{
    for (const bool skip : {false, true}) {
        SCOPED_TRACE(skip);
        McFixture f(LogScheme::ProteusNoLWR);
        f.sim.setCycleSkip(skip);
        // Core 1's only log entry reaches the array, leaving its row
        // (row 0 of bank 0) open.
        f.mc->write(f.logWrite(bank0Row0, 1, 9, 0x9000, 0));
        f.mc->flushCoreLogs(1, nullptr);
        f.runUntilWrites(1);
        const unsigned bank = f.mc->dram().bankIndex(bank0Row0);
        f.sim.run(f.mc->dram().bankReadyAt(bank) - f.sim.now());
        // Core 0's row-1 entry conflicts and waits.
        f.mc->write(f.logWrite(bank0Row1, 0, 7, 0x5000, 0));
        f.sim.run(50);
        ASSERT_EQ(f.mc->nvmWrites(), 1u);
        // Tx 9's end rewrites its last entry with the tx-end flag: a
        // row hit the arbiter picks on the next cycle.
        const Tick ended = f.sim.now();
        f.mc->txEnd(1, 9);
        EXPECT_EQ(f.runUntilWrites(2), ended);
    }
}

TEST(MemCtrlPickMemo, DrainAllowsConflicts)
{
    for (const bool skip : {false, true}) {
        SCOPED_TRACE(skip);
        McFixture f;
        f.sim.setCycleSkip(skip);
        f.openRow(bank0Row0);
        f.mc->write(f.dataWrite(bank0Row1, 1));
        f.sim.run(50);
        ASSERT_EQ(f.mc->nvmWrites(), 0u);
        // pcommit: the deferred conflict must drain now.
        const Tick drained = f.sim.now();
        f.mc->drain(nullptr);
        EXPECT_EQ(f.runUntilWrites(1), drained);
    }
}

TEST(MemCtrlPickMemo, AgedWriteCrossesThreshold)
{
    for (const bool skip : {false, true}) {
        SCOPED_TRACE(skip);
        McFixture f;
        f.sim.setCycleSkip(skip);
        f.openRow(bank0Row0);
        const Tick accepted = f.sim.now();
        f.mc->write(f.dataWrite(bank0Row1, 1));
        // Conflict-averse until it is older than the aged threshold.
        EXPECT_EQ(f.runUntilWrites(1), accepted + agedTicks + 1);
    }
}
