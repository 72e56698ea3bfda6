/** @file Unit tests for the scheme-aware trace codegen. */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bundle_compare.hh"
#include "heap/persistent_heap.hh"
#include "logging/log_record.hh"
#include "sim/logging.hh"
#include "trace/trace_builder.hh"

using namespace proteus;

namespace {

struct Fixture
{
    explicit Fixture(LogScheme scheme)
        : tb(heap, scheme, 0), data(heap.alloc(256, blockSize))
    {
        const Addr area = heap.allocLogArea(1 << 16);
        tb.setLogArea(area, area + (1 << 16));
        heap.write<std::uint64_t>(data, 0x1111);
        tb.setRecording(true);
    }

    PersistentHeap heap;
    TraceBuilder tb;
    Addr data;
};

} // namespace

TEST(TraceBuilder, LoadsReturnHeapValues)
{
    Fixture f(LogScheme::PMEMNoLog);
    const Value v = f.tb.load(f.data, 8);
    EXPECT_EQ(v.v, 0x1111u);
    EXPECT_NE(v.reg, noReg);
    EXPECT_EQ(f.tb.trace().countOps(Op::Load), 1u);
}

TEST(TraceBuilder, StoresApplyToHeap)
{
    Fixture f(LogScheme::PMEMNoLog);
    f.tb.beginTx();
    f.tb.store(f.data, 8, 0x2222);
    f.tb.endTx();
    EXPECT_EQ(f.heap.read<std::uint64_t>(f.data), 0x2222u);
}

TEST(TraceBuilder, ProteusExpandsPerFigure4)
{
    // Each store becomes log-load; log-flush; st.
    Fixture f(LogScheme::Proteus);
    f.tb.beginTx();
    f.tb.store(f.data, 8, 1);
    f.tb.store(f.data + 64, 8, 2);
    f.tb.endTx();
    const Trace &t = f.tb.trace();
    EXPECT_EQ(t.countOps(Op::LogLoad), 2u);
    EXPECT_EQ(t.countOps(Op::LogFlush), 2u);
    EXPECT_EQ(t.countOps(Op::Store), 2u);
    EXPECT_EQ(t.countOps(Op::TxBegin), 1u);
    EXPECT_EQ(t.countOps(Op::TxEnd), 1u);
    EXPECT_EQ(t.countOps(Op::ClWb), 0u);     // hardware handles persists
    EXPECT_EQ(t.countOps(Op::SFence), 0u);
}

TEST(TraceBuilder, ProteusPayloadCapturesPreStoreData)
{
    Fixture f(LogScheme::Proteus);
    f.tb.beginTx();
    f.tb.store(f.data, 8, 0x9999);
    f.tb.endTx();
    const Trace &t = f.tb.trace();
    // Find the log-flush and inspect its payload.
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t.op(i).op == Op::LogFlush) {
            const LogPayload &p = t.logPayload(t.op(i).payload);
            std::uint64_t old = 0;
            std::memcpy(&old, p.bytes, 8);
            EXPECT_EQ(old, 0x1111u);            // pre-store value
            EXPECT_EQ(p.fromAddr, logAlign(f.data));
            return;
        }
    }
    FAIL() << "no log-flush found";
}

TEST(TraceBuilder, AtomEmitsPlainStores)
{
    Fixture f(LogScheme::ATOM);
    f.tb.beginTx();
    f.tb.store(f.data, 8, 1);
    f.tb.endTx();
    const Trace &t = f.tb.trace();
    EXPECT_EQ(t.countOps(Op::LogLoad), 0u);
    EXPECT_EQ(t.countOps(Op::Store), 1u);
    EXPECT_EQ(t.countOps(Op::ClWb), 0u);
}

TEST(TraceBuilder, SoftwareLoggingFollowsFigure2)
{
    Fixture f(LogScheme::PMEM);
    f.tb.beginTx();
    f.tb.declareLogged(f.data, 8);
    f.tb.store(f.data, 8, 5);
    f.tb.endTx();
    const Trace &t = f.tb.trace();
    // Step 1 writes a full log entry (8 stores) + clwb; steps 2/4
    // store/clear the flag with clwb; step 3 persists the data block.
    EXPECT_GE(t.countOps(Op::Store), 1u + 8u + 2u);
    EXPECT_GE(t.countOps(Op::ClWb), 4u);
    EXPECT_GE(t.countOps(Op::SFence), 4u);
    EXPECT_EQ(t.countOps(Op::PCommit), 0u);
    EXPECT_EQ(t.countOps(Op::LogLoad), 0u);
}

TEST(TraceBuilder, PCommitVariantAddsPCommit)
{
    Fixture f(LogScheme::PMEMPCommit);
    f.tb.beginTx();
    f.tb.declareLogged(f.data, 8);
    f.tb.store(f.data, 8, 5);
    f.tb.endTx();
    EXPECT_GE(f.tb.trace().countOps(Op::PCommit), 4u);
}

TEST(TraceBuilder, SoftwareLogEntryIsParseable)
{
    Fixture f(LogScheme::PMEM);
    f.tb.beginTx();
    f.tb.declareLogged(f.data, 8);
    f.tb.store(f.data, 8, 5);
    f.tb.endTx();
    // The software log entry was written to the heap in LogRecord
    // format at the start of the log area.
    std::uint8_t bytes[logEntrySize];
    f.heap.readBytes(f.tb.logAreaStart(), bytes, sizeof(bytes));
    const LogRecord rec = LogRecord::fromBytes(bytes);
    EXPECT_TRUE(rec.valid());
    EXPECT_EQ(rec.fromAddr, logAlign(f.data));
    std::uint64_t old = 0;
    std::memcpy(&old, rec.data.data(), 8);
    EXPECT_EQ(old, 0x1111u);
}

TEST(TraceBuilder, UndeclaredStorePanicsUnderSwLogging)
{
    Fixture f(LogScheme::PMEM);
    f.tb.beginTx();
    EXPECT_THROW(f.tb.store(f.data, 8, 1), PanicError);
}

TEST(TraceBuilder, StoreInitSkipsSwUndoLog)
{
    Fixture f(LogScheme::PMEM);
    f.tb.beginTx();
    f.tb.storeInit(f.data, 8, 1);   // fresh allocation: no undo entry
    f.tb.endTx();
    // No full log entry was emitted: far fewer stores than Figure 2.
    EXPECT_LT(f.tb.trace().countOps(Op::Store), 8u);
}

TEST(TraceBuilder, DeclareAfterStorePanics)
{
    Fixture f(LogScheme::PMEM);
    f.tb.beginTx();
    f.tb.declareLogged(f.data, 8);
    f.tb.store(f.data, 8, 1);
    EXPECT_THROW(f.tb.declareLogged(f.data + 64, 8), PanicError);
}

TEST(TraceBuilder, NoRecordingDuringWarmup)
{
    Fixture f(LogScheme::Proteus);
    f.tb.setRecording(false);
    f.tb.beginTx();
    f.tb.store(f.data, 8, 3);
    f.tb.endTx();
    EXPECT_TRUE(f.tb.trace().empty());
    EXPECT_EQ(f.heap.read<std::uint64_t>(f.data), 3u);
}

TEST(TraceBuilder, CollectTouchedRollsBack)
{
    Fixture f(LogScheme::PMEM);
    f.tb.beginTx();
    const auto touched = f.tb.collectTouched([&]() {
        const Value v = f.tb.load(f.data, 8);
        f.tb.store(f.data, 8, v.v + 1);
        f.tb.store(f.data + 32, 8, 7);
    });
    // The heap is unchanged and nothing was recorded...
    EXPECT_EQ(f.heap.read<std::uint64_t>(f.data), 0x1111u);
    EXPECT_EQ(f.heap.read<std::uint64_t>(f.data + 32), 0u);
    EXPECT_EQ(f.tb.trace().countOps(Op::Store), 0u);
    // ...but the touch set knows both granules.
    EXPECT_TRUE(touched.readGranules.count(logAlign(f.data)));
    EXPECT_TRUE(touched.writtenGranules.count(logAlign(f.data)));
    EXPECT_TRUE(touched.writtenGranules.count(logAlign(f.data + 32)));
    f.tb.endTx();
}

TEST(TraceBuilder, WorkEmitsAlu)
{
    Fixture f(LogScheme::PMEMNoLog);
    f.tb.work(10);
    EXPECT_EQ(f.tb.trace().countOps(Op::IntAlu), 10u);
}

TEST(TraceBuilder, WorkChaseEmitsDependentLoads)
{
    Fixture f(LogScheme::PMEMNoLog);
    f.tb.workChase(5);
    const Trace &t = f.tb.trace();
    ASSERT_EQ(t.countOps(Op::Load), 5u);
    // Each load (after the first) depends on the previous load's
    // destination register.
    for (std::size_t i = 1; i < t.size(); ++i)
        EXPECT_EQ(t.op(i).src0, t.op(i - 1).dst);
}

TEST(TraceBuilder, TxIdsAreMonotonicPerThread)
{
    Fixture f(LogScheme::PMEMNoLog);
    const TxId a = f.tb.beginTx();
    f.tb.endTx();
    const TxId b = f.tb.beginTx();
    f.tb.endTx();
    EXPECT_GT(b, a);
    EXPECT_GT(a, 0u);
}

TEST(TraceBuilder, StoreOutsideTxPanics)
{
    Fixture f(LogScheme::PMEMNoLog);
    EXPECT_THROW(f.tb.store(f.data, 8, 1), PanicError);
    EXPECT_NO_THROW(f.tb.storeRaw(f.data, 8, 1));
}

namespace {

/** Every write-observer callback, flattened for comparison. */
struct ObserverLog : TraceWriteObserver
{
    std::vector<std::uint64_t> events;

    void onTxBegin(CoreId thread, TxId tx) override
    {
        events.insert(events.end(), {1, thread, tx});
    }
    void onTxEnd(CoreId thread, TxId tx) override
    {
        events.insert(events.end(), {2, thread, tx});
    }
    void onStore(CoreId thread, TxId tx, Addr addr, unsigned size,
                 std::uint64_t before, std::uint64_t after,
                 ObservedWrite kind) override
    {
        events.insert(events.end(),
                      {3, thread, tx, addr, size, before, after,
                       static_cast<std::uint64_t>(kind)});
    }
};

enum class Mode { Functional, Recording, Collecting };

/** What one run of a word access left behind. */
struct WordRun
{
    explicit WordRun(LogScheme scheme, Mode mode) : f(scheme)
    {
        for (unsigned i = 0; i < 32; ++i) {
            f.heap.write<std::uint64_t>(f.data + i * 8,
                                        0x1000 + i * 0x11);
        }
        f.tb.setRecording(mode != Mode::Functional);
        f.tb.setWriteObserver(&observer);
    }

    Fixture f;
    ObserverLog observer;
    std::vector<std::uint64_t> loaded;
    TraceBuilder::TouchSet touched;
};

/**
 * Load @p n words at data + @p off, then store them back changed, in
 * one transaction: through the word helpers if @p bulk, else through
 * the per-word load/store loop they replace.
 */
void
runWords(WordRun &run, Mode mode, bool bulk, unsigned off, unsigned n)
{
    TraceBuilder &tb = run.f.tb;
    const Addr addr = run.f.data + off;
    tb.beginTx();
    tb.declareLogged(run.f.data, 128);
    const auto body = [&]() {
        const Value dep = tb.load(run.f.data + 192, 8);
        run.loaded.assign(n, 0);
        if (bulk) {
            tb.loadWords(addr, run.loaded.data(), n, dep);
        } else {
            for (unsigned i = 0; i < n; ++i)
                run.loaded[i] = tb.load(addr + i * 8, 8, dep).v;
        }
        std::vector<std::uint64_t> in(n);
        for (unsigned i = 0; i < n; ++i)
            in[i] = run.loaded[i] * 3 + i;
        if (bulk) {
            tb.storeWords(addr, in.data(), n);
        } else {
            for (unsigned i = 0; i < n; ++i)
                tb.store(addr + i * 8, 8, in[i]);
        }
    };
    if (mode == Mode::Collecting)
        run.touched = tb.collectTouched(body);
    else
        body();
    tb.endTx();
}

} // namespace

TEST(TraceBuilderWords, EqualThePerWordLoop)
{
    // (offset, words): one aligned node, and a run that starts inside
    // a log granule and crosses a cache block.
    const std::pair<unsigned, unsigned> spans[] = {{0, 8}, {24, 6}};
    for (LogScheme scheme : allSchemes()) {
        for (Mode mode :
             {Mode::Functional, Mode::Recording, Mode::Collecting}) {
            for (const auto &[off, n] : spans) {
                SCOPED_TRACE(std::string(toString(scheme)) + " mode " +
                             std::to_string(static_cast<int>(mode)) +
                             " off " + std::to_string(off));
                WordRun bulk(scheme, mode);
                WordRun loop(scheme, mode);
                runWords(bulk, mode, true, off, n);
                runWords(loop, mode, false, off, n);

                EXPECT_EQ(bulk.loaded, loop.loaded);
                EXPECT_TRUE(bulk.f.heap.volatileImage().identical(
                    loop.f.heap.volatileImage()));
                testbundle::expectTracesEqual(bulk.f.tb.trace(),
                                              loop.f.tb.trace());
                EXPECT_EQ(bulk.touched.readGranules,
                          loop.touched.readGranules);
                EXPECT_EQ(bulk.touched.writtenGranules,
                          loop.touched.writtenGranules);
                EXPECT_EQ(bulk.observer.events, loop.observer.events);
                EXPECT_EQ(bulk.f.tb.trace().empty(),
                          mode == Mode::Functional);
                EXPECT_EQ(bulk.touched.writtenGranules.empty(),
                          mode != Mode::Collecting);
            }
        }
    }
}

TEST(TraceBuilderWords, StoreWordsOutsideTxPanics)
{
    const std::uint64_t in[2] = {1, 2};
    for (bool recording : {false, true}) {
        Fixture f(LogScheme::PMEMNoLog);
        f.tb.setRecording(recording);
        EXPECT_THROW(f.tb.storeWords(f.data, in, 2), PanicError);
        EXPECT_EQ(f.heap.read<std::uint64_t>(f.data), 0x1111u);
    }
}
