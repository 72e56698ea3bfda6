/** @file Unit tests for the LogQ (Section 4.2). */

#include <gtest/gtest.h>

#include <memory>

#include "logging/log_queue.hh"
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

std::unique_ptr<LogQueue>
makeQ(unsigned entries = 4)
{
    return std::make_unique<LogQueue>(entries, reg(),
                                      "logq" + std::to_string(counter++));
}

LogRecord
record(TxId tx, std::uint64_t seq)
{
    LogRecord rec;
    rec.txId = tx;
    rec.seq = seq;
    rec.flags = LogRecord::flagValid;
    rec.magic = LogRecord::magicValue;
    return rec;
}

} // namespace

TEST(LogQueue, AllocateUntilFull)
{
    auto qp = makeQ(2);
    auto &q = *qp;
    EXPECT_FALSE(q.full());
    q.allocate(1, 0x1000, 0x9000, record(1, 0));
    q.allocate(2, 0x1020, 0x9040, record(1, 1));
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.occupancy(), 2u);
    EXPECT_THROW(q.allocate(3, 0x1040, 0x9080, record(1, 2)),
                 PanicError);
}

TEST(LogQueue, DeallocateRecycles)
{
    auto qp = makeQ(1);
    auto &q = *qp;
    const auto id = q.allocate(1, 0x1000, 0x9000, record(1, 0));
    q.deallocate(id);
    EXPECT_TRUE(q.empty());
    EXPECT_NO_THROW(q.allocate(2, 0x2000, 0x9040, record(1, 1)));
    EXPECT_THROW(q.deallocate(id + 100), PanicError);
}

TEST(LogQueue, PendingOlderForMatchesGranule)
{
    auto qp = makeQ(4);
    auto &q = *qp;
    q.allocate(10, 0x1000, 0x9000, record(1, 0));

    // A younger store to any byte of the same 32B granule must wait.
    EXPECT_TRUE(q.pendingOlderFor(0x1000, 20));
    EXPECT_TRUE(q.pendingOlderFor(0x101F, 20));
    // A different granule is unconstrained.
    EXPECT_FALSE(q.pendingOlderFor(0x1020, 20));
    // An *older* store (smaller seq) is not gated by this entry.
    EXPECT_FALSE(q.pendingOlderFor(0x1000, 5));
}

TEST(LogQueue, PendingClearsOnAck)
{
    auto qp = makeQ(4);
    auto &q = *qp;
    const auto id = q.allocate(10, 0x1000, 0x9000, record(1, 0));
    ASSERT_TRUE(q.pendingOlderFor(0x1008, 20));
    q.deallocate(id);
    EXPECT_FALSE(q.pendingOlderFor(0x1008, 20));
}

TEST(LogQueue, EmptyForTx)
{
    auto qp = makeQ(4);
    auto &q = *qp;
    const auto a = q.allocate(1, 0x1000, 0x9000, record(7, 0));
    q.allocate(2, 0x2000, 0x9040, record(8, 0));
    EXPECT_FALSE(q.emptyForTx(7));
    EXPECT_FALSE(q.emptyForTx(8));
    EXPECT_TRUE(q.emptyForTx(9));
    q.deallocate(a);
    EXPECT_TRUE(q.emptyForTx(7));
    EXPECT_FALSE(q.emptyForTx(8));
}

TEST(LogQueue, StoresRecordAndLogTo)
{
    auto qp = makeQ(4);
    auto &q = *qp;
    const auto id = q.allocate(1, 0x1000, 0x9abc0, record(3, 9));
    EXPECT_EQ(q.logTo(id), 0x9abc0u);
    EXPECT_EQ(q.record(id).txId, 3u);
    EXPECT_EQ(q.record(id).seq, 9u);
}

TEST(LogQueue, TracksPeakOccupancy)
{
    auto qp = makeQ(4);
    auto &q = *qp;
    const auto a = q.allocate(1, 0x1000, 0x9000, record(1, 0));
    q.allocate(2, 0x2000, 0x9040, record(1, 1));
    q.deallocate(a);
    EXPECT_DOUBLE_EQ(q.peakOccupancy(), 2.0);
}

TEST(LogQueue, ZeroEntriesIsFatal)
{
    // Only the Proteus schemes use the LogQ. The config gate rejects an
    // empty one there; the other schemes build it empty and never
    // allocate from it.
    SystemConfig cfg = baselineConfig();
    cfg.logging.logQEntries = 0;
    EXPECT_THROW(cfg.validate(LogScheme::Proteus), FatalError);
    EXPECT_THROW(cfg.validate(LogScheme::ProteusNoLWR), FatalError);
    EXPECT_NO_THROW(cfg.validate(LogScheme::PMEM));
    EXPECT_TRUE(LogQueue(0, reg(), "zero").full());
}
