/**
 * @file
 * NVM media fault injection: the seeded fault model (torn writes,
 * endurance wear, read bit-flips), MC-side ECC classification and
 * bounded retry, recovery-scan poison classification, and end-to-end
 * crash campaigns that must never report silent corruption.
 *
 * Every fault draw is a pure hash of (seed, line, ordinal), so each
 * test pins exact deterministic outcomes — across processes, --jobs
 * levels, and cycle-skip modes.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "crashtest/commit_oracle.hh"
#include "crashtest/crash_tester.hh"
#include "faults/fault_model.hh"
#include "harness/experiments.hh"
#include "heap/persistent_heap.hh"
#include "memctrl/mem_ctrl.hh"
#include "obs/tx_stats_io.hh"
#include "recovery/recovery.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

using namespace proteus;

namespace {

faults::FaultConfig
spec(const std::string &s)
{
    return faults::parseFaultSpec(s);
}

/** A fault model bound to a private registry and image. */
struct ModelFixture
{
    explicit ModelFixture(const std::string &s)
        : model(spec(s), sim.statsRegistry())
    {
    }

    double
    stat(const std::string &name)
    {
        return sim.statsRegistry().lookup("faults." + name);
    }

    Simulator sim;
    MemoryImage image;
    faults::FaultModel model;
};

std::array<std::uint8_t, blockSize>
pattern(std::uint8_t value)
{
    std::array<std::uint8_t, blockSize> data;
    data.fill(value);
    return data;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

} // namespace

// ---------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------

TEST(FaultSpec, RoundTripsThroughCanonicalForm)
{
    const faults::FaultConfig cfg = spec(
        "torn=0.01,readflip=1e-4,bits=3,endurance=500,stuck=4,detect=8,"
        "correct=2,retries=6,backoff=32,seed=42");
    EXPECT_DOUBLE_EQ(cfg.tornWriteRate, 0.01);
    EXPECT_DOUBLE_EQ(cfg.readFlipRate, 1e-4);
    EXPECT_EQ(cfg.readFlipBitsMax, 3u);
    EXPECT_EQ(cfg.enduranceWrites, 500u);
    EXPECT_EQ(cfg.stuckBits, 4u);
    EXPECT_EQ(cfg.eccDetectBits, 8u);
    EXPECT_EQ(cfg.eccCorrectBits, 2u);
    EXPECT_EQ(cfg.readRetryLimit, 6u);
    EXPECT_EQ(cfg.retryBackoffBase, 32u);
    EXPECT_EQ(cfg.seed, 42u);
    EXPECT_TRUE(cfg.enabled());
    // Canonical spec -> parse -> canonical is a fixed point.
    const std::string canon = faults::canonicalFaultSpec(cfg);
    EXPECT_EQ(faults::canonicalFaultSpec(spec(canon)), canon);
}

TEST(FaultSpec, RejectsNonsense)
{
    EXPECT_THROW(spec("torn=1.5"), FatalError);
    EXPECT_THROW(spec("readflip=-0.1"), FatalError);
    EXPECT_THROW(spec("bits=0"), FatalError);
    EXPECT_THROW(spec("detect=1,correct=2"), FatalError);
    EXPECT_THROW(spec("unknown=1"), FatalError);
    EXPECT_THROW(spec("torn"), FatalError);
    EXPECT_THROW(spec("torn=abc"), FatalError);
    EXPECT_THROW(spec("torn=0.01x"), FatalError);
    EXPECT_THROW(spec("readflip=nan"), FatalError);
    EXPECT_THROW(spec("detect=8x"), FatalError);
    EXPECT_THROW(spec("correct=1x"), FatalError);
    EXPECT_THROW(spec("stuck=-1"), FatalError);
    EXPECT_THROW(spec("bits=4294967296"), FatalError);
    EXPECT_THROW(spec("seed="), FatalError);
}

TEST(FaultSpec, DefaultIsDisabled)
{
    const faults::FaultConfig cfg;
    EXPECT_FALSE(cfg.enabled());
    // ECC/retry knobs alone do not arm injection.
    EXPECT_FALSE(spec("detect=16,correct=2,retries=8").enabled());
    EXPECT_TRUE(spec("torn=0.1").enabled());
    EXPECT_TRUE(spec("readflip=0.1").enabled());
    EXPECT_TRUE(spec("endurance=10").enabled());
}

// ---------------------------------------------------------------------
// Torn line writes
// ---------------------------------------------------------------------

TEST(FaultModel, TornWriteMergesOldAndNewChunks)
{
    ModelFixture f("torn=1,detect=8,correct=1,seed=7");
    const Addr line = 0x4000;
    f.image.write(line, pattern(0x00).data(), blockSize);
    f.image.write(line, pattern(0x00).data(), blockSize);  // heal marks

    const auto out =
        f.model.applyWrite(f.image, line, pattern(0xFF).data());
    EXPECT_EQ(out, faults::WriteOutcome::Torn);
    EXPECT_TRUE(f.image.isPoisoned(line));
    EXPECT_EQ(f.stat("tornWrites"), 1.0);
    EXPECT_EQ(f.stat("eccDetected"), 1.0);
    EXPECT_EQ(f.stat("linesPoisoned"), 1.0);

    // Each 8-byte chunk either landed whole (0xFF) or was lost whole
    // (0x00) — and a torn write by construction has at least one of
    // each.
    std::uint8_t got[blockSize];
    f.image.read(line, got, blockSize);
    unsigned landed = 0, lost = 0;
    for (unsigned c = 0; c < blockSize / 8; ++c) {
        bool allNew = true, allOld = true;
        for (unsigned b = 0; b < 8; ++b) {
            (got[c * 8 + b] == 0xFF ? allOld : allNew) = false;
        }
        ASSERT_TRUE(allNew || allOld) << "chunk " << c << " is mixed";
        (allNew ? landed : lost) += 1;
    }
    EXPECT_GE(landed, 1u);
    EXPECT_GE(lost, 1u);
}

TEST(FaultModel, TornWriteWithoutEccIsSilent)
{
    ModelFixture f("torn=1,detect=0,correct=0,seed=7");
    const auto out =
        f.model.applyWrite(f.image, 0x4000, pattern(0xFF).data());
    EXPECT_EQ(out, faults::WriteOutcome::Silent);
    EXPECT_FALSE(f.image.isPoisoned(0x4000));
    EXPECT_EQ(f.stat("silentFaults"), 1.0);
    EXPECT_EQ(f.stat("eccDetected"), 0.0);
}

TEST(FaultModel, TornOutcomesAreSeedDeterministic)
{
    ModelFixture a("torn=0.5,detect=8,seed=123");
    ModelFixture b("torn=0.5,detect=8,seed=123");
    for (unsigned i = 0; i < 64; ++i) {
        const Addr line = 0x10000 + i * blockSize;
        const auto oa =
            a.model.applyWrite(a.image, line, pattern(0xAB).data());
        const auto ob =
            b.model.applyWrite(b.image, line, pattern(0xAB).data());
        EXPECT_EQ(oa, ob);
        std::uint8_t ba[blockSize], bb[blockSize];
        a.image.read(line, ba, blockSize);
        b.image.read(line, bb, blockSize);
        EXPECT_EQ(std::memcmp(ba, bb, blockSize), 0);
    }
    // ...and a different seed tears a different subset of lines.
    ModelFixture c("torn=0.5,detect=8,seed=124");
    unsigned differs = 0;
    for (unsigned i = 0; i < 64; ++i) {
        const Addr line = 0x10000 + i * blockSize;
        const auto oc =
            c.model.applyWrite(c.image, line, pattern(0xAB).data());
        differs += (a.image.isPoisoned(line) !=
                    (oc == faults::WriteOutcome::Torn))
                       ? 1
                       : 0;
    }
    EXPECT_GT(differs, 0u);
}

// ---------------------------------------------------------------------
// Endurance wear and stuck-at cells
// ---------------------------------------------------------------------

TEST(FaultModel, EnduranceBudgetGatesWear)
{
    // One stuck cell, no correction: after 3 writes the line wears out
    // and exactly one of two complementary patterns disagrees with the
    // stuck value (whichever it is for this seed/line).
    ModelFixture f("endurance=3,stuck=1,detect=8,correct=0,seed=9");
    const Addr line = 0x8000;
    for (unsigned i = 0; i < 3; ++i) {
        EXPECT_EQ(f.model.applyWrite(f.image, line, pattern(0x00).data()),
                  faults::WriteOutcome::Clean);
    }
    EXPECT_EQ(f.stat("wornWrites"), 0.0);

    const auto zeros =
        f.model.applyWrite(f.image, line, pattern(0x00).data());
    ASSERT_TRUE(zeros == faults::WriteOutcome::Clean ||
                zeros == faults::WriteOutcome::Uncorrectable);
    const bool stuck_at_zero = zeros == faults::WriteOutcome::Clean;
    const auto failing = stuck_at_zero ? pattern(0xFF) : pattern(0x00);
    if (stuck_at_zero) {
        EXPECT_EQ(f.model.applyWrite(f.image, line, failing.data()),
                  faults::WriteOutcome::Uncorrectable);
    }

    // The failing write stored corrupted data differing in exactly the
    // stuck bit, and poisoned the line (1 flip > correct=0, <= detect).
    EXPECT_EQ(f.stat("wornWrites"), stuck_at_zero ? 2.0 : 1.0);
    EXPECT_EQ(f.stat("eccDetected"), 1.0);
    EXPECT_TRUE(f.image.isPoisoned(line));
    std::uint8_t got[blockSize];
    f.image.read(line, got, blockSize);
    unsigned flips = 0;
    for (unsigned i = 0; i < blockSize; ++i) {
        std::uint8_t diff =
            static_cast<std::uint8_t>(got[i] ^ failing[i]);
        while (diff) {
            flips += diff & 1;
            diff >>= 1;
        }
    }
    EXPECT_EQ(flips, 1u);

    // A pattern agreeing with the stuck cell stores clean — and the
    // full-line rewrite re-encodes the ECC, healing the poison.
    const auto agreeing = stuck_at_zero ? pattern(0x00) : pattern(0xFF);
    EXPECT_EQ(f.model.applyWrite(f.image, line, agreeing.data()),
              faults::WriteOutcome::Clean);
    EXPECT_FALSE(f.image.isPoisoned(line));
}

TEST(FaultModel, EccCorrectsWearWithinStrength)
{
    // correct=2 covers both stuck cells: the stored data is pristine
    // and the line never poisons, whatever the pattern.
    ModelFixture f("endurance=1,stuck=2,detect=8,correct=2,seed=9");
    const Addr line = 0x8000;
    f.model.applyWrite(f.image, line, pattern(0x00).data());
    for (std::uint8_t v : {0x00, 0xFF, 0x5A}) {
        const auto out =
            f.model.applyWrite(f.image, line, pattern(v).data());
        EXPECT_TRUE(out == faults::WriteOutcome::Clean ||
                    out == faults::WriteOutcome::Corrected);
        std::uint8_t got[blockSize];
        f.image.read(line, got, blockSize);
        EXPECT_EQ(std::memcmp(got, pattern(v).data(), blockSize), 0);
        EXPECT_FALSE(f.image.isPoisoned(line));
    }
}

TEST(FaultModel, WearBeyondDetectionIsSilent)
{
    // detect=0 disables ECC entirely: worn writes that flip bits are
    // stored corrupted with no poison mark.
    ModelFixture f("endurance=1,stuck=1,detect=0,correct=0,seed=9");
    const Addr line = 0x8000;
    f.model.applyWrite(f.image, line, pattern(0x00).data());
    const auto zeros =
        f.model.applyWrite(f.image, line, pattern(0x00).data());
    const auto ones =
        f.model.applyWrite(f.image, line, pattern(0xFF).data());
    const bool one_silent = (zeros == faults::WriteOutcome::Silent) !=
                            (ones == faults::WriteOutcome::Silent);
    EXPECT_TRUE(one_silent);
    EXPECT_FALSE(f.image.isPoisoned(line));
    EXPECT_EQ(f.stat("silentFaults"), 1.0);
}

// ---------------------------------------------------------------------
// Read faults and ECC thresholds
// ---------------------------------------------------------------------

TEST(FaultModel, ReadFlipsClassifyByEccStrength)
{
    // Every read faults with 1..2 flipped bits; correct=1 splits the
    // outcomes between Corrected (1 bit) and Transient (2 bits).
    ModelFixture f("readflip=1,bits=2,detect=8,correct=1,seed=5");
    f.image.write(0x4000, pattern(0).data(), blockSize);
    unsigned corrected = 0, transient = 0;
    for (unsigned i = 0; i < 64; ++i) {
        const Addr line = 0x4000 + (i % 4) * blockSize;
        switch (f.model.classifyRead(f.image, line)) {
          case faults::ReadOutcome::Corrected: ++corrected; break;
          case faults::ReadOutcome::Transient: ++transient; break;
          default: FAIL() << "unexpected outcome";
        }
    }
    EXPECT_GT(corrected, 0u);
    EXPECT_GT(transient, 0u);
    EXPECT_EQ(corrected + transient, 64u);
    EXPECT_EQ(f.stat("readFaults"), 64.0);
    EXPECT_EQ(f.stat("eccCorrected"), static_cast<double>(corrected));
    EXPECT_EQ(f.stat("eccDetected"), static_cast<double>(transient));

    // correct=2 swallows everything; detect=1,bits=4 leaks silently.
    ModelFixture g("readflip=1,bits=2,detect=8,correct=2,seed=5");
    for (unsigned i = 0; i < 16; ++i) {
        EXPECT_EQ(g.model.classifyRead(g.image, 0x4000),
                  faults::ReadOutcome::Corrected);
    }
    ModelFixture h("readflip=1,bits=8,detect=2,correct=0,seed=5");
    unsigned silent = 0;
    for (unsigned i = 0; i < 64; ++i) {
        if (h.model.classifyRead(h.image, 0x4000) ==
            faults::ReadOutcome::Silent) {
            ++silent;
        }
    }
    EXPECT_GT(silent, 0u);
    EXPECT_EQ(h.stat("silentFaults"), static_cast<double>(silent));
}

TEST(FaultModel, PoisonedLineAlwaysReadsUnrecoverable)
{
    ModelFixture f("readflip=0,torn=1,detect=8,seed=5");
    f.image.markPoisoned(0x4000);
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(f.model.classifyRead(f.image, 0x4000),
                  faults::ReadOutcome::Unrecoverable);
    }
    // An address inside the line maps to the same poisoned state.
    EXPECT_EQ(f.model.classifyRead(f.image, 0x4020),
              faults::ReadOutcome::Unrecoverable);
}

TEST(FaultModel, BackoffIsExponentialAndClamped)
{
    ModelFixture f("readflip=1,backoff=16,seed=1");
    EXPECT_EQ(f.model.backoff(0), 16u);
    EXPECT_EQ(f.model.backoff(1), 32u);
    EXPECT_EQ(f.model.backoff(4), 256u);
    // Shift clamps at 16 so huge attempt counts cannot overflow.
    EXPECT_EQ(f.model.backoff(16), f.model.backoff(100));

    ModelFixture g("readflip=1,backoff=0,seed=1");
    EXPECT_EQ(g.model.backoff(0), 1u);      // zero base still advances
}

// ---------------------------------------------------------------------
// MemoryImage poison plumbing
// ---------------------------------------------------------------------

TEST(MemoryImagePoison, FullLineRewriteHeals)
{
    MemoryImage image;
    image.markPoisoned(0x4000);
    image.markPoisoned(0x4040);
    EXPECT_TRUE(image.isPoisoned(0x4000));
    EXPECT_TRUE(image.isPoisoned(0x403F));      // same line
    EXPECT_EQ(image.poisonedCount(), 2u);

    // A partial write cannot re-establish the line's ECC.
    image.write64(0x4000, 1);
    EXPECT_TRUE(image.isPoisoned(0x4000));

    // A full-line write is a clean re-encode: poison clears.
    std::uint8_t block[blockSize] = {};
    image.write(0x4000, block, blockSize);
    EXPECT_FALSE(image.isPoisoned(0x4000));
    EXPECT_TRUE(image.isPoisoned(0x4040));
    EXPECT_EQ(image.poisonedLines(),
              (std::vector<Addr>{0x4040}));
}

TEST(MemoryImagePoison, CopiesAndClearsTravel)
{
    MemoryImage image;
    image.write64(0x4000, 7);
    image.markPoisoned(0x4000);
    MemoryImage copy = image;           // crash images are copies
    EXPECT_TRUE(copy.isPoisoned(0x4000));
    copy.clear();
    EXPECT_FALSE(copy.isPoisoned(0x4000));
    EXPECT_TRUE(image.isPoisoned(0x4000));
}

TEST(MemoryImagePoison, SpanningWriteHealsOnlyCoveredLines)
{
    MemoryImage image;
    image.markPoisoned(0x4000);
    image.markPoisoned(0x4040);
    // [0x4020, 0x4080) covers line 0x4040 fully, line 0x4000 partially.
    std::vector<std::uint8_t> buf(0x60, 0xCC);
    image.write(0x4020, buf.data(), buf.size());
    EXPECT_TRUE(image.isPoisoned(0x4000));
    EXPECT_FALSE(image.isPoisoned(0x4040));
}

// ---------------------------------------------------------------------
// MC retry path
// ---------------------------------------------------------------------

namespace {

struct FaultedMc
{
    explicit FaultedMc(const std::string &fault_spec,
                       unsigned read_queue_entries = 64)
    {
        cfg = baselineConfig();
        cfg.faults = spec(fault_spec);
        cfg.memCtrl.readQueueEntries = read_queue_entries;
        mc = std::make_unique<MemCtrl>(sim, cfg, nvm);
        sim.addTicked(mc.get());
    }

    double
    stat(const std::string &name)
    {
        return sim.statsRegistry().lookup("faults." + name);
    }

    Simulator sim;
    SystemConfig cfg;
    MemoryImage nvm;
    std::unique_ptr<MemCtrl> mc;
};

} // namespace

TEST(MemCtrlFaults, BoundedRetryExhaustsAndDegrades)
{
    // Every read faults beyond correction; 2 retries then give up.
    FaultedMc f("readflip=1,bits=2,detect=8,correct=0,retries=2,"
                "backoff=4,seed=3");
    bool done = false;
    f.mc->read(0x4000, [&]() { done = true; });
    ASSERT_TRUE(f.sim.runUntil([&]() { return done; }, 100000));

    EXPECT_EQ(f.stat("readRetries"), 2.0);
    EXPECT_EQ(f.stat("retriesExhausted"), 1.0);
    // backoff(0) + backoff(1) = 4 + 8.
    EXPECT_EQ(f.stat("retryBackoffCycles"), 12.0);
    EXPECT_TRUE(f.nvm.isPoisoned(0x4000));
    EXPECT_TRUE(f.mc->empty());

    // The faulted read still counts every array attempt.
    EXPECT_EQ(f.mc->nvmReads(), 3u);
}

TEST(MemCtrlFaults, RetrySucceedsWhenFaultClears)
{
    // ~half of reads fault (transient): a retry eventually lands a
    // clean attempt without exhausting the generous budget.
    FaultedMc f("readflip=0.5,bits=2,detect=8,correct=0,retries=10,"
                "backoff=2,seed=11");
    unsigned completed = 0;
    for (unsigned i = 0; i < 16; ++i) {
        f.mc->read(0x10000 + i * blockSize, [&]() { ++completed; });
        ASSERT_TRUE(
            f.sim.runUntil([&]() { return completed == i + 1; }, 100000));
    }
    EXPECT_EQ(completed, 16u);
    EXPECT_GT(f.stat("readRetries"), 0.0);
    EXPECT_EQ(f.stat("retriesExhausted"), 0.0);
    EXPECT_EQ(f.nvm.poisonedCount(), 0u);
}

TEST(MemCtrlFaults, PendingRetriesOccupyReadQueueSlots)
{
    // Two-entry read queue; both slots end up in retry backoff, so the
    // MC must refuse a third read until a retry resolves.
    FaultedMc f("readflip=1,bits=2,detect=8,correct=0,retries=3,"
                "backoff=256,seed=3",
                2);
    unsigned completed = 0;
    ASSERT_TRUE(f.mc->canAcceptRead());
    f.mc->read(0x4000, [&]() { ++completed; });
    ASSERT_TRUE(f.mc->canAcceptRead());
    f.mc->read(0x4040, [&]() { ++completed; });
    EXPECT_FALSE(f.mc->canAcceptRead());

    // Step into the backoff window: the queue drained into pending
    // retries, which still hold their slots.
    f.sim.runUntil([&]() { return f.mc->nvmReads() >= 2; }, 100000);
    EXPECT_FALSE(f.mc->canAcceptRead());
    EXPECT_FALSE(f.mc->empty());

    ASSERT_TRUE(f.sim.runUntil([&]() { return completed == 2; }, 100000));
    EXPECT_TRUE(f.mc->canAcceptRead());
    EXPECT_TRUE(f.mc->empty());
}

TEST(MemCtrlFaults, TornWriteReachesImagePoisoned)
{
    FaultedMc f("torn=1,detect=8,seed=7");
    WriteRequest req;
    req.addr = 0x2000;
    req.kind = WriteKind::Data;
    std::uint64_t v = 0xABCD;
    std::memcpy(req.data.data(), &v, 8);
    f.mc->write(req);
    ASSERT_TRUE(f.sim.runUntil([&]() { return f.mc->empty(); }, 100000));
    EXPECT_TRUE(f.nvm.isPoisoned(0x2000));
    EXPECT_EQ(f.stat("tornWrites"), 1.0);
}

TEST(MemCtrlFaults, StatsAbsentWhenDisabled)
{
    // The fault model (and its stats) must not exist when injection is
    // off — this is what keeps golden stat dumps bit-identical.
    Simulator sim;
    MemoryImage nvm;
    const SystemConfig cfg = baselineConfig();
    MemCtrl mc(sim, cfg, nvm);
    EXPECT_EQ(mc.faultModel(), nullptr);
    EXPECT_THROW(sim.statsRegistry().lookup("faults.tornWrites"),
                 PanicError);
}

// ---------------------------------------------------------------------
// Recovery-scan classification of poisoned slots
// ---------------------------------------------------------------------

namespace {

void
putRecord(MemoryImage &image, Addr slot, TxId tx, Addr from,
          std::uint64_t seq, std::uint64_t old_value,
          std::uint32_t extra_flags = 0)
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

TEST(RecoveryFaults, ContiguousScanStopsAtPoisonedSlot)
{
    MemoryImage image;
    putRecord(image, 0x9000, 3, 0x5000, 0, 0xAA);
    putRecord(image, 0x9040, 3, 0x5020, 1, 0xBB);
    putRecord(image, 0x9080, 3, 0x5040, 2, 0xCC);
    image.markPoisoned(0x9040);     // after writes: marks survive

    const auto scan =
        Recovery::scanLogContiguous(image, 0x9000, 0x9000 + 4 * 64);
    // The ECC mark outranks the parse: the slot may decode as a
    // plausible record yet must never be replayed; nothing after it is
    // trustworthy in a contiguous log.
    ASSERT_EQ(scan.records.size(), 1u);
    EXPECT_EQ(scan.records[0].fromAddr, 0x5000u);
    EXPECT_TRUE(scan.truncated);
    EXPECT_EQ(scan.poisonedSlots, 1u);
    EXPECT_EQ(scan.firstPoisonedSlot, 0x9040u);
}

TEST(RecoveryFaults, SparseScanSkipsPoisonedSlotAndContinues)
{
    MemoryImage image;
    putRecord(image, 0x9000, 3, 0x5000, 0, 0xAA);
    putRecord(image, 0x9040, 3, 0x5020, 1, 0xBB);
    putRecord(image, 0x9080, 3, 0x5040, 2, 0xCC);
    image.markPoisoned(0x9040);

    const auto scan =
        Recovery::scanLogSparse(image, 0x9000, 0x9000 + 3 * 64);
    // Circular areas legitimately have holes: later slots stay live.
    ASSERT_EQ(scan.records.size(), 2u);
    EXPECT_EQ(scan.records[0].fromAddr, 0x5000u);
    EXPECT_EQ(scan.records[1].fromAddr, 0x5040u);
    EXPECT_EQ(scan.poisonedSlots, 1u);
    EXPECT_EQ(scan.firstPoisonedSlot, 0x9040u);
}

TEST(RecoveryFaults, PoisonedSlotNeverReplaysIntoImage)
{
    // The poisoned slot holds the undo entry for 0x5000: recovery must
    // not apply it (its contents are untrustworthy) and must report the
    // classification.
    MemoryImage image;
    image.write64(0x5000, 0xFFFF);
    image.write64(0x6000, 0x33);
    putRecord(image, 0x9000, 9, 0x5000, 0, 0xAAAA);
    putRecord(image, 0x9040, 9, 0x6000, 1, 0x0);
    image.markPoisoned(0x9000);

    const auto result =
        Recovery::recoverProteus(image, 0x9000, 0x9000 + 2 * 64);
    EXPECT_EQ(result.poisonedSlots, 1u);
    EXPECT_EQ(result.firstPoisonedSlot, 0x9000u);
    EXPECT_TRUE(result.didUndo);
    EXPECT_EQ(image.read64(0x6000), 0x0u);      // surviving entry undone
    EXPECT_EQ(image.read64(0x5000), 0xFFFFu);   // poisoned entry skipped
}

// ---------------------------------------------------------------------
// End-to-end crash campaigns under media faults
// ---------------------------------------------------------------------

namespace {

CrashTestOptions
faultCampaign(const std::string &fault_spec)
{
    CrashTestOptions opts;
    opts.schemes = {LogScheme::PMEM,      LogScheme::PMEMPCommit,
                    LogScheme::PMEMNoLog, LogScheme::ATOM,
                    LogScheme::Proteus,   LogScheme::ProteusNoLWR};
    opts.workloads = {WorkloadKind::Queue};
    opts.threads = 1;
    opts.scale = 250;
    opts.initScale = 100;
    opts.seed = 11;
    opts.mode = CrashMode::Stride;
    opts.autoPoints = 4;
    opts.jobs = 2;
    opts.faults = spec(fault_spec);
    return opts;
}

} // namespace

TEST(CrashCampaignFaults, NoSilentCorruptionAcrossAllSchemes)
{
    // Full-strength ECC detection: every injected fault must surface
    // as a detected-unrecoverable verdict or be absorbed — never as a
    // silent oracle violation. This is the subsystem's core guarantee.
    CrashTestOptions opts = faultCampaign(
        "torn=0.05,readflip=0.01,detect=8,correct=1,seed=13");
    std::ostringstream os;
    const CrashTestSummary summary = runCrashTests(opts, os);
    EXPECT_EQ(summary.violations, 0u) << os.str();
    EXPECT_TRUE(summary.ok) << os.str();
    EXPECT_GT(summary.crashPoints, 0u);
    // At this tear rate some crash point somewhere must have lost data
    // detectably; the campaign reports rather than hides it.
    EXPECT_GT(summary.detectedUnrecoverable, 0u) << os.str();
}

TEST(CrashCampaignFaults, ReplayCommandCarriesFaultSpec)
{
    const CrashTestOptions opts =
        faultCampaign("torn=0.02,detect=8,seed=5");
    CrashPairResult pair;
    pair.scheme = LogScheme::Proteus;
    pair.workload = WorkloadKind::Queue;
    const std::string cmd = replayCommand(opts, pair);
    EXPECT_NE(cmd.find("--faults "), std::string::npos);
    EXPECT_NE(cmd.find("torn=0.02"), std::string::npos);
    EXPECT_NE(cmd.find("seed=5"), std::string::npos);

    // Fault-free campaigns keep the pre-fault command line.
    CrashTestOptions plain = opts;
    plain.faults = faults::FaultConfig{};
    EXPECT_EQ(replayCommand(plain, pair).find("--faults"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Determinism: jobs levels and cycle-skip modes
// ---------------------------------------------------------------------

TEST(FaultDeterminism, CampaignJsonIdenticalAcrossJobsAndCycleSkip)
{
    const std::string base = ::testing::TempDir();
    const std::string paths[3] = {base + "faults_j1.json",
                                  base + "faults_j4.json",
                                  base + "faults_noskip.json"};

    CrashTestOptions opts = faultCampaign(
        "torn=0.05,readflip=0.01,detect=8,correct=1,seed=13");
    opts.schemes = {LogScheme::Proteus, LogScheme::PMEM};
    opts.jobs = 1;
    opts.jsonPath = paths[0];
    std::ostringstream os1;
    runCrashTests(opts, os1);

    opts.jobs = 4;
    opts.jsonPath = paths[1];
    std::ostringstream os2;
    runCrashTests(opts, os2);

    // Fault retry events are scheduled events the kernel cannot skip
    // past, so quiescence skipping must not change a single byte.
    opts.jobs = 1;
    opts.cycleSkip = false;
    opts.jsonPath = paths[2];
    std::ostringstream os3;
    runCrashTests(opts, os3);

    const std::string j1 = slurp(paths[0]);
    ASSERT_FALSE(j1.empty());
    EXPECT_EQ(j1, slurp(paths[1]));
    EXPECT_EQ(j1, slurp(paths[2]));
    EXPECT_NE(j1.find("\"faults\": "), std::string::npos);
    EXPECT_NE(j1.find("\"detectedUnrecoverable\""), std::string::npos);
    for (const std::string &p : paths)
        std::remove(p.c_str());
}

TEST(FaultDeterminism, RunResultsIdenticalAcrossJobsAndCycleSkip)
{
    // Batch --json / --tx-stats serializations must be byte-identical
    // across --jobs levels and cycle-skip modes with faults injected.
    BenchOptions opts;
    opts.threads = 1;
    opts.scale = 400;
    opts.initScale = 100;
    opts.seed = 3;
    opts.faults = spec("torn=0.02,readflip=0.01,detect=8,correct=1");

    auto batch = [&](unsigned jobs, bool skip) {
        BenchOptions o = opts;
        o.jobs = jobs;
        o.cycleSkip = skip;
        std::vector<SimJob> jobsv;
        for (LogScheme s : {LogScheme::Proteus, LogScheme::PMEM}) {
            for (WorkloadKind w :
                 {WorkloadKind::Queue, WorkloadKind::HashMap}) {
                jobsv.push_back(SimJob{o.makeConfig(), s, w, {},
                                       std::string(toString(s))});
            }
        }
        ParallelRunner runner(jobs);
        const auto results = runner.run(jobsv, o);

        std::vector<JsonResultRow> rows;
        std::vector<obs::TxStatsRow> txRows;
        for (std::size_t i = 0; i < jobsv.size(); ++i) {
            rows.push_back(JsonResultRow{toString(jobsv[i].scheme),
                                         toString(jobsv[i].kind),
                                         results[i].result, 0.0});
            const SimJob &job = jobsv[i];
            txRows.push_back(makeTxStatsRow(
                runKey(o, job.cfg, job.kind, job.scheme, job.extras),
                results[i].result));
        }
        const std::string path = ::testing::TempDir() + "faults_rr.json";
        writeJsonResults(path, rows);
        std::ostringstream tx;
        obs::writeTxStatsJson(tx, txRows);
        const std::string out = slurp(path) + "\n---\n" + tx.str();
        std::remove(path.c_str());
        return out;
    };

    const std::string ref = batch(1, true);
    EXPECT_EQ(ref, batch(4, true));
    EXPECT_EQ(ref, batch(1, false));
    EXPECT_NE(ref.find("\"faults\": {"), std::string::npos);
    EXPECT_NE(ref.find("\"tornWrites\": "), std::string::npos);
}

// ---------------------------------------------------------------------
// Oracle classification of poisoned bytes
// ---------------------------------------------------------------------

TEST(OracleFaults, PoisonedBytesAreDetectedNotViolations)
{
    CommitOracle oracle;
    oracle.onTxBegin(0, 1);
    // A committed write the crash image then loses to a media fault.
    const Addr addr = PersistentHeap::persistentBase;
    oracle.onStore(0, 1, addr, 8, 0, 0x1122334455667788ull,
                   ObservedWrite::Logged);
    oracle.onTxEnd(0, 1);

    MemoryImage image;
    image.write64(addr, 0xDEAD);        // wrong value survived
    MemoryImage poisoned = image;
    poisoned.markPoisoned(addr);

    // Unpoisoned: a plain violation (silent corruption).
    const OracleReport bad = oracle.check(image, {1});
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.poisonedBytes, 0u);

    // Poisoned: detected loss — no violation, surfaced separately.
    const OracleReport det = oracle.check(poisoned, {1});
    EXPECT_TRUE(det.ok);
    EXPECT_EQ(det.violationCount, 0u);
    EXPECT_EQ(det.poisonedBytes, 8u);
    ASSERT_FALSE(det.poisonedSample.empty());
    EXPECT_EQ(det.poisonedSample[0].addr, addr);
    EXPECT_NE(det.summary().find("detected-unrecoverable"),
              std::string::npos);
}
