/** @file Unit tests for the per-core transaction registers. */

#include <gtest/gtest.h>

#include "logging/tx_context.hh"
#include "sim/config.hh"
#include "sim/logging.hh"

using namespace proteus;

TEST(TxContext, BeginEndLifecycle)
{
    TxContext ctx;
    EXPECT_FALSE(ctx.inTx());
    ctx.beginTx(5);
    EXPECT_TRUE(ctx.inTx());
    EXPECT_EQ(ctx.txId(), 5u);
    ctx.endTx();
    EXPECT_FALSE(ctx.inTx());
}

TEST(TxContext, NestedTxPanics)
{
    TxContext ctx;
    ctx.beginTx(1);
    EXPECT_THROW(ctx.beginTx(2), PanicError);
}

TEST(TxContext, EndWithoutBeginPanics)
{
    TxContext ctx;
    EXPECT_THROW(ctx.endTx(), PanicError);
}

TEST(TxContext, TxIdZeroReserved)
{
    TxContext ctx;
    EXPECT_THROW(ctx.beginTx(0), PanicError);
}

TEST(TxContext, LogToAutoIncrementAndWrap)
{
    TxContext ctx;
    ctx.bindLogArea(0x1000, 0x1000 + 3 * logEntrySize);
    ctx.beginTx(1);
    EXPECT_EQ(ctx.nextLogTo(), 0x1000u);
    EXPECT_EQ(ctx.nextLogTo(), 0x1000u + logEntrySize);
    EXPECT_EQ(ctx.nextLogTo(), 0x1000u + 2 * logEntrySize);
    ctx.endTx();
    ctx.beginTx(2);
    // Circular: the next transaction wraps to the start.
    EXPECT_EQ(ctx.nextLogTo(), 0x1000u);
}

TEST(TxContext, OverflowRaisesException)
{
    TxContext ctx;
    ctx.bindLogArea(0x1000, 0x1000 + 2 * logEntrySize);
    ctx.beginTx(1);
    ctx.nextLogTo();
    ctx.nextLogTo();
    // A third entry in one transaction exceeds the whole area
    // (Section 4.1: the processor raises an exception).
    EXPECT_THROW(ctx.nextLogTo(), FatalError);
}

TEST(TxContext, SeqIsPerTransaction)
{
    TxContext ctx;
    ctx.bindLogArea(0x1000, 0x2000);
    ctx.beginTx(1);
    EXPECT_EQ(ctx.nextSeq(), 0u);
    EXPECT_EQ(ctx.nextSeq(), 1u);
    ctx.endTx();
    ctx.beginTx(2);
    EXPECT_EQ(ctx.nextSeq(), 0u);
}

TEST(TxContext, BadLogAreaIsFatal)
{
    // The config gate owns the log-area rule: a positive number of
    // whole entries, under every scheme.
    SystemConfig cfg = baselineConfig();
    for (std::uint64_t bytes : {0u, 1u, 65u}) {
        cfg.logging.logAreaBytes = bytes;
        for (LogScheme scheme : allSchemes())
            EXPECT_THROW(cfg.validate(scheme), FatalError) << bytes;
    }
}

TEST(TxContext, UnboundLogToPanics)
{
    TxContext ctx;
    ctx.beginTx(1);
    EXPECT_THROW(ctx.nextLogTo(), PanicError);
}

TEST(TxContext, SaveRestoreRoundTrip)
{
    TxContext ctx;
    ctx.bindLogArea(0x1000, 0x2000);
    ctx.beginTx(9);
    ctx.nextLogTo();
    ctx.nextSeq();
    const auto saved = ctx.save();

    TxContext other;
    other.restore(saved);
    EXPECT_TRUE(other.inTx());
    EXPECT_EQ(other.txId(), 9u);
    EXPECT_EQ(other.curlog(), ctx.curlog());
    EXPECT_EQ(other.nextSeq(), 1u);
}
