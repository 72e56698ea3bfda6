/**
 * @file
 * Crash injection and recovery: the heart of failure safety.
 *
 * A simulation is stopped at an arbitrary cycle; the crash image is
 * what the persistency domain preserves (NVM + battery-backed WPQ/LPQ
 * under ADR). Recovery rolls back at most one in-flight transaction
 * per thread using the durable undo logs. Afterwards:
 *
 *  1. every structural invariant must hold (no torn transactions), and
 *  2. for single-threaded runs, the recovered state must equal a
 *     functional replay of exactly the committed transactions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <tuple>

#include "crashtest/crash_tester.hh"
#include "harness/system.hh"
#include "recovery/recovery.hh"
#include "sim/logging.hh"

using namespace proteus;

namespace {

WorkloadParams
crashParams(unsigned threads)
{
    WorkloadParams p;
    p.threads = threads;
    p.scale = 250;
    p.initScale = 100;
    p.seed = 11;
    return p;
}

using CrashCase = std::tuple<LogScheme, WorkloadKind, unsigned>;

class CrashRecovery : public ::testing::TestWithParam<CrashCase>
{
};

} // namespace

TEST_P(CrashRecovery, RecoversToAConsistentCommittedPrefix)
{
    const auto [scheme, kind, crash_percent] = GetParam();
    SystemConfig cfg = baselineConfig();
    cfg.logging.scheme = scheme;

    const WorkloadParams params = crashParams(1);
    FullSystem system(cfg, kind, params);

    // Find the total runtime once, then crash partway through it.
    const RunResult full = system.run(500'000'000ull);
    ASSERT_TRUE(full.finished);
    const Tick crash_at = full.cycles * crash_percent / 100;

    FullSystem crashed(cfg, kind, params);
    crashed.runFor(crash_at);
    MemoryImage image = crashed.crashImage();
    recoverAllThreads(crashed, image);

    // (1) No torn transactions.
    const std::string err =
        crashed.workload().checkInvariants(image);
    EXPECT_TRUE(err.empty()) << "crash at " << crash_at << ": " << err;

    // (2) Exact committed-prefix equivalence (single thread).
    const std::uint64_t committed =
        crashed.core(0).committedTxs().size();
    PersistentHeap replay_heap;
    auto replay = makeWorkload(kind, replay_heap, scheme, params);
    replay->setup();
    replay->replayOps(committed);
    EXPECT_EQ(crashed.workload().serialize(image),
              replay->serialize(replay_heap.volatileImage()))
        << "recovered state is not the committed prefix (committed="
        << committed << ", crash at " << crash_at << ")";
}

INSTANTIATE_TEST_SUITE_P(
    CrashMatrix, CrashRecovery,
    ::testing::Combine(
        ::testing::Values(LogScheme::PMEM, LogScheme::ATOM,
                          LogScheme::Proteus,
                          LogScheme::ProteusNoLWR),
        ::testing::Values(WorkloadKind::Queue, WorkloadKind::HashMap,
                          WorkloadKind::RbTree),
        ::testing::Values(13u, 37u, 61u, 88u)),
    [](const ::testing::TestParamInfo<CrashCase> &info) {
        std::string name = toString(std::get<0>(info.param));
        for (char &c : name) {
            if (c == '+')
                c = '_';
        }
        return name + "_" + toString(std::get<1>(info.param)) + "_at" +
               std::to_string(std::get<2>(info.param));
    });

namespace {

class CrashRecoveryMulti
    : public ::testing::TestWithParam<std::tuple<LogScheme, unsigned>>
{
};

} // namespace

TEST_P(CrashRecoveryMulti, InvariantsHoldAfterMultiThreadCrash)
{
    const auto [scheme, crash_percent] = GetParam();
    SystemConfig cfg = baselineConfig();
    cfg.logging.scheme = scheme;

    const WorkloadParams params = crashParams(4);
    FullSystem system(cfg, WorkloadKind::AvlTree, params);
    const RunResult full = system.run(500'000'000ull);
    ASSERT_TRUE(full.finished);

    FullSystem crashed(cfg, WorkloadKind::AvlTree, params);
    crashed.runFor(full.cycles * crash_percent / 100);
    MemoryImage image = crashed.crashImage();
    recoverAllThreads(crashed, image);
    const std::string err =
        crashed.workload().checkInvariants(image);
    EXPECT_TRUE(err.empty()) << err;
}

INSTANTIATE_TEST_SUITE_P(
    MultiThread, CrashRecoveryMulti,
    ::testing::Combine(::testing::Values(LogScheme::PMEM,
                                         LogScheme::ATOM,
                                         LogScheme::Proteus),
                       ::testing::Values(23u, 52u, 79u)),
    [](const ::testing::TestParamInfo<std::tuple<LogScheme, unsigned>>
           &info) {
        std::string name = toString(std::get<0>(info.param));
        for (char &c : name) {
            if (c == '+')
                c = '_';
        }
        return name + "_at" + std::to_string(std::get<1>(info.param));
    });

TEST(RecoveryUnit, ScanFindsOnlyValidRecords)
{
    MemoryImage image;
    LogRecord rec;
    rec.fromAddr = 0x5000;
    rec.txId = 1;
    rec.seq = 0;
    rec.flags = LogRecord::flagValid;
    rec.magic = LogRecord::magicValue;
    const auto bytes = rec.toBytes();
    image.write(0x9000, bytes.data(), bytes.size());
    // Garbage in the next slot.
    image.write64(0x9040, 0x1234);

    const auto records = Recovery::scanLog(image, 0x9000, 0x9000 + 640);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].fromAddr, 0x5000u);
}

TEST(RecoveryUnit, UndoUsesEarliestEntryPerGranule)
{
    MemoryImage image;
    image.write64(0x5000, 0xFFFF);      // corrupted current value

    // Two entries for the same granule: seq 1 (old value 0xAAAA) and
    // seq 2 (mid-transaction value 0xBBBB). Recovery must apply seq 1.
    for (unsigned i = 0; i < 2; ++i) {
        LogRecord rec;
        const std::uint64_t v = i == 0 ? 0xAAAA : 0xBBBB;
        std::memcpy(rec.data.data(), &v, 8);
        rec.fromAddr = 0x5000;
        rec.txId = 9;
        rec.seq = i + 1;
        rec.flags = LogRecord::flagValid;
        rec.magic = LogRecord::magicValue;
        const auto bytes = rec.toBytes();
        image.write(0x9000 + i * logEntrySize, bytes.data(),
                    bytes.size());
    }
    const auto result =
        Recovery::recoverProteus(image, 0x9000, 0x9000 + 2 * 64);
    EXPECT_TRUE(result.didUndo);
    EXPECT_EQ(result.undoneTx, 9u);
    EXPECT_EQ(image.read64(0x5000), 0xAAAAu);
}

TEST(RecoveryUnit, CommittedMarkerSuppressesUndo)
{
    MemoryImage image;
    image.write64(0x5000, 0x1);
    LogRecord rec;
    const std::uint64_t v = 0x0;
    std::memcpy(rec.data.data(), &v, 8);
    rec.fromAddr = 0x5000;
    rec.txId = 9;
    rec.seq = 1;
    rec.flags = LogRecord::flagValid | LogRecord::flagTxEnd;
    rec.magic = LogRecord::magicValue;
    const auto bytes = rec.toBytes();
    image.write(0x9000, bytes.data(), bytes.size());

    const auto result =
        Recovery::recoverProteus(image, 0x9000, 0x9000 + 64);
    EXPECT_FALSE(result.didUndo);
    EXPECT_EQ(image.read64(0x5000), 0x1u);  // committed data kept
}

TEST(RecoveryUnit, OnlyNewestTxIsLive)
{
    MemoryImage image;
    image.write64(0x5000, 0x22);    // committed by tx 8
    image.write64(0x6000, 0x33);    // in-flight write of tx 9

    auto put = [&](Addr slot, TxId tx, Addr from, std::uint64_t old) {
        LogRecord rec;
        std::memcpy(rec.data.data(), &old, 8);
        rec.fromAddr = from;
        rec.txId = tx;
        rec.seq = 0;
        rec.flags = LogRecord::flagValid;
        rec.magic = LogRecord::magicValue;
        const auto bytes = rec.toBytes();
        image.write(slot, bytes.data(), bytes.size());
    };
    // tx 8's stale entry (it committed; its marker was discarded when
    // tx 9's first entry arrived) and tx 9's live entry.
    put(0x9000, 8, 0x5000, 0x11);
    put(0x9040, 9, 0x6000, 0x00);

    const auto result =
        Recovery::recoverProteus(image, 0x9000, 0x9000 + 128);
    EXPECT_TRUE(result.didUndo);
    EXPECT_EQ(result.undoneTx, 9u);
    EXPECT_EQ(image.read64(0x6000), 0x0u);      // tx 9 undone
    EXPECT_EQ(image.read64(0x5000), 0x22u);     // tx 8 untouched
}

TEST(RecoveryUnit, SoftwareFlagGatesUndo)
{
    MemoryImage image;
    const Addr flag = 0x4000;
    image.write64(0x5000, 0x77);
    LogRecord rec;
    const std::uint64_t old = 0x55;
    std::memcpy(rec.data.data(), &old, 8);
    rec.fromAddr = 0x5000;
    rec.txId = 42;
    rec.seq = 0;
    rec.flags = LogRecord::flagValid;
    rec.magic = LogRecord::magicValue;
    const auto bytes = rec.toBytes();
    image.write(0x9000, bytes.data(), bytes.size());

    // Flag clear: no undo.
    image.write64(flag, 0);
    auto result =
        Recovery::recoverSoftware(image, 0x9000, 0x9040, flag);
    EXPECT_FALSE(result.didUndo);
    EXPECT_EQ(image.read64(0x5000), 0x77u);

    // Flag set to tx 42: undo applies and clears the flag.
    image.write64(flag, 42);
    result = Recovery::recoverSoftware(image, 0x9000, 0x9040, flag);
    EXPECT_TRUE(result.didUndo);
    EXPECT_EQ(image.read64(0x5000), 0x55u);
    EXPECT_EQ(image.read64(flag), 0u);
}

TEST(RecoveryUnit, AtomCommitRecordGatesUndo)
{
    MemoryImage image;
    const Addr area = 0xA000;
    image.write64(0x5000, 0x77);

    LogRecord rec;
    const std::uint64_t old = 0x55;
    std::memcpy(rec.data.data(), &old, 8);
    rec.fromAddr = 0x5000;
    rec.txId = 10;
    rec.seq = 0;
    rec.flags = LogRecord::flagValid;
    rec.magic = LogRecord::magicValue;
    const auto bytes = rec.toBytes();
    image.write(area + logEntrySize, bytes.data(), bytes.size());

    // Commit record already covers tx 10: no undo.
    image.write64(area, 10);
    auto result = Recovery::recoverAtom(image, area, area + 1024);
    EXPECT_FALSE(result.didUndo);

    // Commit record at tx 9: tx 10 was in flight and is undone.
    image.write64(area, 9);
    result = Recovery::recoverAtom(image, area, area + 1024);
    EXPECT_TRUE(result.didUndo);
    EXPECT_EQ(image.read64(0x5000), 0x55u);
}

TEST(RecoveryUnit, EmptyLogRegionIsANoOpForEveryScheme)
{
    MemoryImage image;
    image.write64(0x5000, 0x42);

    auto proteus = Recovery::recoverProteus(image, 0x9000, 0x9000 + 640);
    EXPECT_FALSE(proteus.didUndo);
    EXPECT_EQ(proteus.entriesScanned, 0u);
    EXPECT_FALSE(proteus.truncatedTail);
    EXPECT_EQ(proteus.tornSlots, 0u);

    auto atom = Recovery::recoverAtom(image, 0xA000, 0xA000 + 1024);
    EXPECT_FALSE(atom.didUndo);
    EXPECT_EQ(atom.tornSlots, 0u);

    auto sw = Recovery::recoverSoftware(image, 0x9000, 0x9000 + 640,
                                        0x4000);
    EXPECT_FALSE(sw.didUndo);
    EXPECT_FALSE(sw.truncatedTail);

    EXPECT_EQ(image.read64(0x5000), 0x42u);     // data untouched
}

namespace {

/** Write a valid undo record into @p image at @p slot. */
void
putRecord(MemoryImage &image, Addr slot, TxId tx, Addr from,
          std::uint64_t old_value, std::uint64_t seq = 0,
          std::uint8_t extra_flags = 0)
{
    LogRecord rec;
    std::memcpy(rec.data.data(), &old_value, 8);
    rec.fromAddr = from;
    rec.txId = tx;
    rec.seq = seq;
    rec.flags = LogRecord::flagValid | extra_flags;
    rec.magic = LogRecord::magicValue;
    const auto bytes = rec.toBytes();
    image.write(slot, bytes.data(), bytes.size());
}

} // namespace

TEST(RecoveryUnit, ContiguousScanStopsCleanlyAtTornTail)
{
    MemoryImage image;
    putRecord(image, 0x9000, 7, 0x5000, 0xAA, 0);
    // A torn tail: the next slot holds a partial record (nonzero bytes
    // but no valid flag/magic), as a crash mid-log-write leaves it.
    image.write64(0x9040, 0x123456);
    // A stale record beyond the tear must NOT be picked up by the
    // contiguous (software) scan: the log is rewritten from its base
    // every transaction, so nothing live can follow the first hole.
    putRecord(image, 0x9080, 99, 0x6000, 0xBB, 0);

    const auto scan =
        Recovery::scanLogContiguous(image, 0x9000, 0x9000 + 640);
    ASSERT_EQ(scan.records.size(), 1u);
    EXPECT_EQ(scan.records[0].txId, 7u);
    EXPECT_TRUE(scan.truncated);
    EXPECT_EQ(scan.tornSlot, 0x9040u);
    EXPECT_EQ(scan.tornSlots, 1u);
}

TEST(RecoveryUnit, SparseScanSkipsHolesAndCountsTornSlots)
{
    MemoryImage image;
    putRecord(image, 0x9000, 7, 0x5000, 0xAA, 0);
    image.write64(0x9040, 0x123456);            // torn slot
    // All-zero slot at 0x9080: an invalidated (ATOM-truncated) hole.
    putRecord(image, 0x90C0, 8, 0x6000, 0xBB, 0);

    const auto scan =
        Recovery::scanLogSparse(image, 0x9000, 0x9000 + 4 * 64);
    ASSERT_EQ(scan.records.size(), 2u);
    EXPECT_EQ(scan.records[0].txId, 7u);
    EXPECT_EQ(scan.records[1].txId, 8u);
    EXPECT_EQ(scan.tornSlots, 1u);
    EXPECT_EQ(scan.tornSlot, 0x9040u);
    EXPECT_EQ(scan.slotsScanned, 4u);
}

TEST(RecoveryUnit, SoftwareRecoveryReportsAndSurvivesTornTail)
{
    MemoryImage image;
    const Addr flag = 0x4000;
    image.write64(0x5000, 0xFFFF);              // torn current value
    putRecord(image, 0x9000, 42, 0x5000, 0x55, 0);
    // The transaction's second log entry was torn by the crash.
    image.write64(0x9040, 0xDEAD);
    image.write64(flag, 42);                    // tx 42 was in flight

    const auto result =
        Recovery::recoverSoftware(image, 0x9000, 0x9000 + 640, flag);
    EXPECT_TRUE(result.didUndo);
    EXPECT_TRUE(result.truncatedTail);
    EXPECT_EQ(result.tornSlot, 0x9040u);
    EXPECT_EQ(result.entriesApplied, 1u);
    EXPECT_EQ(image.read64(0x5000), 0x55u);     // valid prefix applied
    EXPECT_EQ(image.read64(flag), 0u);          // flag cleared
}

TEST(RecoveryUnit, BackToBackTxsOnSameAddressUndoToCommittedValue)
{
    // tx 8 committed value 0xBB over 0xAA; tx 9 then wrote 0xCC and
    // 0xDD in flight. Undo must use tx 9's *earliest* pre-image, which
    // is tx 8's committed value — not tx 8's own (stale) entry.
    MemoryImage image;
    image.write64(0x5000, 0xDD);                // tx 9's last store
    putRecord(image, 0x9000, 8, 0x5000, 0xAA, 0);
    putRecord(image, 0x9040, 9, 0x5000, 0xBB, 1);
    putRecord(image, 0x9080, 9, 0x5000, 0xCC, 2);

    const auto result =
        Recovery::recoverProteus(image, 0x9000, 0x9000 + 640);
    EXPECT_TRUE(result.didUndo);
    EXPECT_EQ(result.undoneTx, 9u);
    EXPECT_EQ(image.read64(0x5000), 0xBBu);
}

TEST(CrashAtCommitPoint, DurableCommitCycleKeepsTheTransaction)
{
    // Crash exactly at the cycle a mid-run transaction's tx-end
    // retires: the transaction is committed-counted and must survive
    // recovery; the recovered state must equal the replayed prefix.
    SystemConfig cfg = baselineConfig();
    cfg.logging.scheme = LogScheme::Proteus;

    const WorkloadParams params = crashParams(1);
    FullSystem reference(cfg, WorkloadKind::Queue, params);
    const RunResult full = reference.run(500'000'000ull);
    ASSERT_TRUE(full.finished);
    const auto &commits = reference.core(0).commitCycles();
    ASSERT_GT(commits.size(), 4u);
    const std::size_t k = commits.size() / 2;
    // runFor(T + 1) executes cycles 0..T, including the retire at T.
    const Tick crash_at = commits[k] + 1;

    FullSystem crashed(cfg, WorkloadKind::Queue, params);
    crashed.runFor(crash_at);
    const std::uint64_t committed =
        crashed.core(0).committedTxs().size();
    EXPECT_GE(committed, k + 1);

    MemoryImage image = crashed.crashImage();
    recoverAllThreads(crashed, image);
    EXPECT_TRUE(crashed.workload().checkInvariants(image).empty());

    PersistentHeap replay_heap;
    auto replay = makeWorkload(WorkloadKind::Queue, replay_heap,
                               LogScheme::Proteus, params);
    replay->setup();
    replay->replayOps(committed);
    EXPECT_EQ(crashed.workload().serialize(image),
              replay->serialize(replay_heap.volatileImage()));
}

namespace {

/** A slot-by-slot copy-out scan, as the scans read before they looked
 *  at pages in place: the reference for every LogScan field. */
Recovery::LogScan
copyingScan(const MemoryImage &image, Addr log_start, Addr log_end,
            bool contiguous)
{
    Recovery::LogScan scan;
    for (Addr slot = log_start; slot + logEntrySize <= log_end;
         slot += logEntrySize) {
        ++scan.slotsScanned;
        if (image.isPoisoned(slot)) {
            ++scan.poisonedSlots;
            if (scan.firstPoisonedSlot == invalidAddr)
                scan.firstPoisonedSlot = slot;
            if (contiguous) {
                scan.truncated = true;
                break;
            }
            continue;
        }
        std::uint8_t bytes[logEntrySize];
        image.read(slot, bytes, sizeof(bytes));
        const LogRecord rec = LogRecord::fromBytes(bytes);
        if (rec.valid()) {
            scan.records.push_back(rec);
            continue;
        }
        const bool torn = std::any_of(std::begin(bytes), std::end(bytes),
                                      [](std::uint8_t b) { return b; });
        if (torn) {
            ++scan.tornSlots;
            if (scan.tornSlot == invalidAddr)
                scan.tornSlot = slot;
        }
        if (contiguous) {
            scan.truncated = torn;
            break;
        }
    }
    return scan;
}

void
expectSameScan(const Recovery::LogScan &got, const Recovery::LogScan &want)
{
    ASSERT_EQ(got.records.size(), want.records.size());
    for (std::size_t i = 0; i < got.records.size(); ++i)
        EXPECT_EQ(got.records[i].toBytes(), want.records[i].toBytes()) << i;
    EXPECT_EQ(got.truncated, want.truncated);
    EXPECT_EQ(got.tornSlot, want.tornSlot);
    EXPECT_EQ(got.tornSlots, want.tornSlots);
    EXPECT_EQ(got.slotsScanned, want.slotsScanned);
    EXPECT_EQ(got.poisonedSlots, want.poisonedSlots);
    EXPECT_EQ(got.firstPoisonedSlot, want.firstPoisonedSlot);
}

/** Both scans over [@p start, @p end) agree with copyingScan. */
void
expectScansMatchCopying(const MemoryImage &image, Addr start, Addr end)
{
    {
        SCOPED_TRACE("sparse");
        expectSameScan(Recovery::scanLogSparse(image, start, end),
                       copyingScan(image, start, end, false));
    }
    {
        SCOPED_TRACE("contiguous");
        expectSameScan(Recovery::scanLogContiguous(image, start, end),
                       copyingScan(image, start, end, true));
    }
}

constexpr Addr scanPage = MemoryImage::pageBytes;
/** A four-page log area at a page boundary. */
constexpr Addr scanArea = 0x40000;
constexpr Addr scanEnd = scanArea + 4 * scanPage;

} // namespace

TEST(RecoveryScan, UntouchedPagesBetweenValidRecords)
{
    // Pages 1 and 3 were never written: every slot on them reads as
    // zero, a hole the sparse scan steps over.
    MemoryImage image;
    putRecord(image, scanArea, 3, 0x5000, 0xAA, 0);
    putRecord(image, scanArea + 2 * scanPage + 5 * logEntrySize, 4,
              0x6000, 0xBB, 1);
    const Recovery::LogScan sparse =
        Recovery::scanLogSparse(image, scanArea, scanEnd);
    ASSERT_EQ(sparse.records.size(), 2u);
    EXPECT_EQ(sparse.records[1].txId, 4u);
    EXPECT_EQ(sparse.slotsScanned, 4 * scanPage / logEntrySize);
    EXPECT_EQ(sparse.tornSlots, 0u);
    const Recovery::LogScan contiguous =
        Recovery::scanLogContiguous(image, scanArea, scanEnd);
    EXPECT_EQ(contiguous.records.size(), 1u);
    EXPECT_EQ(contiguous.slotsScanned, 2u);
    EXPECT_FALSE(contiguous.truncated);
    expectScansMatchCopying(image, scanArea, scanEnd);

    // The same when the first page of the area is the untouched one:
    // the contiguous scan ends cleanly on its first slot.
    MemoryImage late;
    putRecord(late, scanArea + scanPage, 5, 0x7000, 0xCC, 0);
    const Recovery::LogScan empty =
        Recovery::scanLogContiguous(late, scanArea, scanEnd);
    EXPECT_TRUE(empty.records.empty());
    EXPECT_EQ(empty.slotsScanned, 1u);
    expectScansMatchCopying(late, scanArea, scanEnd);
}

TEST(RecoveryScan, TornSlotAfterAHole)
{
    // A record, an untouched page, then a torn slot on a written page
    // (after zero slots there), then another record.
    MemoryImage image;
    putRecord(image, scanArea, 3, 0x5000, 0xAA, 0);
    const Addr torn = scanArea + 2 * scanPage + 3 * logEntrySize;
    image.write64(torn + 8, 0xDEAD);
    putRecord(image, torn + logEntrySize, 4, 0x6000, 0xBB, 0);
    const Recovery::LogScan sparse =
        Recovery::scanLogSparse(image, scanArea, scanEnd);
    EXPECT_EQ(sparse.records.size(), 2u);
    EXPECT_EQ(sparse.tornSlot, torn);
    EXPECT_EQ(sparse.tornSlots, 1u);
    expectScansMatchCopying(image, scanArea, scanEnd);

    // Contiguously from the hole's page on, the torn slot is the tail.
    const Recovery::LogScan tail = Recovery::scanLogContiguous(
        image, scanArea + 2 * scanPage, scanEnd);
    EXPECT_TRUE(tail.records.empty());
    EXPECT_FALSE(tail.truncated);   // a zero slot comes first
    expectScansMatchCopying(image, scanArea + 2 * scanPage, scanEnd);
    expectScansMatchCopying(image, torn, scanEnd);
    EXPECT_TRUE(Recovery::scanLogContiguous(image, torn, scanEnd).truncated);
}

TEST(RecoveryScan, PoisonedSlotOnAnUntouchedPage)
{
    // Poison is media metadata: it can mark a slot whose page holds no
    // bytes. The ECC verdict is still checked before the page.
    MemoryImage image;
    putRecord(image, scanArea, 3, 0x5000, 0xAA, 0);
    const Addr poisoned = scanArea + scanPage + 2 * logEntrySize;
    image.markPoisoned(poisoned);
    image.markPoisoned(scanArea + 3 * scanPage);
    putRecord(image, scanArea + 2 * scanPage, 4, 0x6000, 0xBB, 0);
    ASSERT_EQ(image.pageData(poisoned >> MemoryImage::pageBits), nullptr);

    const Recovery::LogScan sparse =
        Recovery::scanLogSparse(image, scanArea, scanEnd);
    EXPECT_EQ(sparse.records.size(), 2u);
    EXPECT_EQ(sparse.poisonedSlots, 2u);
    EXPECT_EQ(sparse.firstPoisonedSlot, poisoned);
    expectScansMatchCopying(image, scanArea, scanEnd);

    // Contiguously from the poisoned slot, its ECC verdict stops the
    // scan, though its page alone would end it cleanly.
    const Recovery::LogScan contiguous =
        Recovery::scanLogContiguous(image, poisoned, scanEnd);
    EXPECT_TRUE(contiguous.truncated);
    EXPECT_EQ(contiguous.poisonedSlots, 1u);
    EXPECT_EQ(contiguous.firstPoisonedSlot, poisoned);
    expectScansMatchCopying(image, poisoned, scanEnd);
    expectScansMatchCopying(image, scanArea + scanPage, scanEnd);
}

TEST(RecoveryScan, UnalignedAreaSlotsStraddlePages)
{
    // An area not aligned to logEntrySize puts one slot per page
    // boundary across two pages, written or not.
    MemoryImage image;
    const Addr start = scanArea + 24;
    const Addr end = start + 3 * scanPage;
    const Addr straddle = start + (scanPage / logEntrySize - 1) * logEntrySize;
    ASSERT_GT(straddle + logEntrySize, scanArea + scanPage);
    putRecord(image, start, 3, 0x5000, 0xAA, 0);
    putRecord(image, straddle, 4, 0x6000, 0xBB, 0);
    const Addr half_torn = straddle + scanPage;     // second half unwritten
    image.write64(half_torn, 0x77);
    const Recovery::LogScan sparse = Recovery::scanLogSparse(image, start, end);
    EXPECT_EQ(sparse.records.size(), 2u);
    EXPECT_EQ(sparse.tornSlot, half_torn);
    expectScansMatchCopying(image, start, end);
    expectScansMatchCopying(image, straddle, end);
}
