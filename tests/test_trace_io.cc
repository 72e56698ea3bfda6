/**
 * @file
 * Round-trip tests of the .ptrace snapshot format: save -> load must
 * reproduce the bundle exactly, and a system wired from the loaded
 * bundle must produce a bit-identical RunResult to one that built its
 * traces in-process — for every logging scheme.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bundle_compare.hh"
#include "harness/system.hh"
#include "harness/trace_bundle.hh"
#include "harness/trace_io.hh"
#include "sim/logging.hh"

using namespace proteus;
using testbundle::expectTracesEqual;

namespace {

const std::vector<LogScheme> allSchemes{
    LogScheme::PMEM,    LogScheme::PMEMPCommit, LogScheme::PMEMNoLog,
    LogScheme::ATOM,    LogScheme::Proteus,     LogScheme::ProteusNoLWR,
};

TraceBundleKey
smallKey(LogScheme scheme, WorkloadKind kind = WorkloadKind::Queue)
{
    TraceBundleKey key;
    key.kind = kind;
    key.scheme = scheme;
    key.params.threads = 2;
    key.params.scale = 2000;
    key.params.initScale = 200;
    key.params.seed = 1;
    return key;
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

void
expectResultsEqual(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.finished, b.finished);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.retiredOps, b.retiredOps);
    EXPECT_EQ(a.nvmWrites, b.nvmWrites);
    EXPECT_EQ(a.nvmReads, b.nvmReads);
    EXPECT_EQ(a.frontendStallCycles, b.frontendStallCycles);
    EXPECT_EQ(a.committedTxs, b.committedTxs);
    EXPECT_EQ(a.logWritesDropped, b.logWritesDropped);
    EXPECT_EQ(a.lltMissRate, b.lltMissRate);
    EXPECT_EQ(a.cpi.base, b.cpi.base);
    EXPECT_EQ(a.cpi.robFull, b.cpi.robFull);
    EXPECT_EQ(a.cpi.iqLsqFull, b.cpi.iqLsqFull);
    EXPECT_EQ(a.cpi.branchRedirect, b.cpi.branchRedirect);
    EXPECT_EQ(a.cpi.persistStall, b.cpi.persistStall);
    EXPECT_EQ(a.cpi.wpqBackpressure, b.cpi.wpqBackpressure);
    EXPECT_EQ(a.cpi.lockWait, b.cpi.lockWait);
}

} // namespace

TEST(TraceIo, Crc32KnownVector)
{
    // The classic IEEE 802.3 check value.
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0u);
}

TEST(TraceIo, RoundTripPreservesEverything)
{
    for (const LogScheme scheme : allSchemes) {
        SCOPED_TRACE(toString(scheme));
        const TraceBundleKey key = smallKey(scheme);
        const auto built = TraceBundle::build(key, nullptr, true);
        const std::string path =
            tempPath(std::string("rt_") + toString(key.kind) + "_" +
                     std::to_string(static_cast<int>(scheme)) +
                     ".ptrace");
        saveTraceBundle(*built, path);
        const auto loaded = loadTraceBundle(path);

        EXPECT_TRUE(loaded->key == key);
        EXPECT_EQ(loaded->workload, nullptr);
        ASSERT_EQ(loaded->threads.size(), built->threads.size());
        for (std::size_t t = 0; t < built->threads.size(); ++t) {
            SCOPED_TRACE("thread " + std::to_string(t));
            const auto &x = built->threads[t];
            const auto &y = loaded->threads[t];
            EXPECT_EQ(x.logStart, y.logStart);
            EXPECT_EQ(x.logEnd, y.logEnd);
            EXPECT_EQ(x.logFlag, y.logFlag);
            EXPECT_EQ(x.txCount, y.txCount);
            expectTracesEqual(x.trace, y.trace);
        }
        EXPECT_TRUE(built->heap->volatileImage().identical(
            loaded->heap->volatileImage()));
        EXPECT_TRUE(built->heap->nvmImage().identical(
            loaded->heap->nvmImage()));
        EXPECT_EQ(built->lockMap, loaded->lockMap);
        ASSERT_NE(loaded->history, nullptr);
        EXPECT_EQ(built->history->events(), loaded->history->events());

        // The allocator must keep allocating from the same frontier —
        // this is what makes ATOM log-area addresses reproducible.
        EXPECT_EQ(built->heap->allocState().nextLogArea,
                  loaded->heap->allocState().nextLogArea);
        EXPECT_EQ(built->heap->alloc(64), loaded->heap->alloc(64));
        std::remove(path.c_str());
    }
}

TEST(TraceIo, LoadedBundleRunsBitIdentical)
{
    for (const LogScheme scheme : allSchemes) {
        SCOPED_TRACE(toString(scheme));
        const TraceBundleKey key = smallKey(scheme);

        SystemConfig cfg = baselineConfig();
        cfg.logging.scheme = scheme;
        cfg.memCtrl.adr = scheme != LogScheme::PMEMPCommit;

        // Classic path: build the traces in-process.
        FullSystem direct(cfg, key.kind, key.params);
        const RunResult want = direct.run();

        // Snapshot path: save, load, wire from the file.
        const auto built = TraceBundle::build(key);
        const std::string path = tempPath(
            std::string("run_") +
            std::to_string(static_cast<int>(scheme)) + ".ptrace");
        saveTraceBundle(*built, path);
        const auto loaded = loadTraceBundle(path);
        FullSystem replay(cfg, loaded);
        EXPECT_FALSE(replay.hasWorkload());
        const RunResult got = replay.run();

        expectResultsEqual(want, got);
        std::remove(path.c_str());
    }
}

TEST(TraceIo, VerifyAcceptsSoundFile)
{
    const auto bundle =
        TraceBundle::build(smallKey(LogScheme::Proteus), nullptr, true);
    const std::string path = tempPath("sound.ptrace");
    saveTraceBundle(*bundle, path);

    EXPECT_TRUE(verifyTraceFile(path).empty());

    const PtraceFileInfo info = inspectTraceFile(path);
    EXPECT_EQ(info.version, ptraceVersion);
    EXPECT_TRUE(info.key == bundle->key);
    EXPECT_EQ(info.totalOps, bundle->totalOps());
    EXPECT_EQ(info.totalPayloads, bundle->totalPayloads());
    EXPECT_EQ(info.totalTxs, bundle->totalTxs());
    EXPECT_EQ(info.historyEvents, bundle->history->events().size());
    for (const PtraceSectionInfo &s : info.sections)
        EXPECT_TRUE(s.crcOk) << s.tag;
    std::remove(path.c_str());
}

TEST(TraceIo, CorruptionIsDetectedNotCrashed)
{
    const auto bundle = TraceBundle::build(smallKey(LogScheme::Proteus));
    const std::string path = tempPath("corrupt.ptrace");
    saveTraceBundle(*bundle, path);

    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();

    // Flip one byte in the middle of the file (inside a section
    // payload): the CRC check must reject the file.
    std::vector<char> flipped = bytes;
    flipped[flipped.size() / 2] ^= 0x40;
    const std::string bad = tempPath("corrupt_flipped.ptrace");
    std::ofstream(bad, std::ios::binary)
        .write(flipped.data(),
               static_cast<std::streamsize>(flipped.size()));
    EXPECT_THROW(loadTraceBundle(bad), FatalError);
    EXPECT_FALSE(verifyTraceFile(bad).empty());

    // Truncation anywhere must also be rejected cleanly.
    std::vector<char> cut(bytes.begin(),
                          bytes.begin() +
                              static_cast<std::ptrdiff_t>(
                                  bytes.size() / 3));
    const std::string short_path = tempPath("corrupt_cut.ptrace");
    std::ofstream(short_path, std::ios::binary)
        .write(cut.data(), static_cast<std::streamsize>(cut.size()));
    EXPECT_THROW(loadTraceBundle(short_path), FatalError);

    // A non-ptrace file is rejected on the magic.
    const std::string junk = tempPath("corrupt_junk.ptrace");
    std::ofstream(junk) << "not a trace";
    EXPECT_THROW(loadTraceBundle(junk), FatalError);
    EXPECT_THROW(inspectTraceFile(junk), FatalError);

    std::remove(path.c_str());
    std::remove(bad.c_str());
    std::remove(short_path.c_str());
    std::remove(junk.c_str());
}
