/**
 * @file
 * Corruption fuzzing: both deserializers that consume untrusted bytes —
 * the .ptrace snapshot loader and the crash-recovery log scanners —
 * must survive arbitrary byte flips, truncations, and garbage without
 * crashing. The loader may reject input only via FatalError; the
 * recovery scanners must treat any corruption as torn/invalid slots and
 * return normally. Each iteration is seeded and the seed echoed via
 * SCOPED_TRACE so failures replay exactly.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "harness/trace_bundle.hh"
#include "harness/trace_io.hh"
#include "heap/memory_image.hh"
#include "logging/log_record.hh"
#include "recovery/recovery.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

using namespace proteus;

namespace {

std::vector<char>
recordSeedFile()
{
    TraceBundleKey key;
    key.kind = WorkloadKind::Queue;
    key.scheme = LogScheme::Proteus;
    key.params.threads = 2;
    key.params.scale = 2000;
    key.params.initScale = 200;
    key.params.seed = 1;
    const auto bundle = TraceBundle::build(key, true);

    const std::string path = testing::TempDir() + "fuzz_seed.ptrace";
    saveTraceBundle(*bundle, path);
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    std::remove(path.c_str());
    return bytes;
}

/** Apply one random mutation (flips, truncation, extension, zeroing). */
std::vector<char>
mutate(const std::vector<char> &seed_bytes, Random &rng)
{
    std::vector<char> out = seed_bytes;
    switch (rng.nextBelow(4)) {
      case 0: {    // flip 1..16 bytes anywhere
        const std::uint64_t flips = rng.nextRange(1, 16);
        for (std::uint64_t i = 0; i < flips; ++i) {
            out[rng.nextBelow(out.size())] ^=
                static_cast<char>(1u << rng.nextBelow(8));
        }
        break;
      }
      case 1:    // truncate at a random offset (possibly to empty)
        out.resize(rng.nextBelow(out.size() + 1));
        break;
      case 2: {    // append random junk
        const std::uint64_t extra = rng.nextRange(1, 256);
        for (std::uint64_t i = 0; i < extra; ++i)
            out.push_back(static_cast<char>(rng.nextBelow(256)));
        break;
      }
      default: {    // zero a random range
        const std::size_t at = rng.nextBelow(out.size());
        const std::size_t n =
            std::min<std::size_t>(rng.nextRange(1, 512),
                                  out.size() - at);
        std::memset(out.data() + at, 0, n);
        break;
      }
    }
    return out;
}

} // namespace

TEST(FuzzPtrace, LoaderRejectsCorruptionWithoutCrashing)
{
    const std::vector<char> seed_bytes = recordSeedFile();
    ASSERT_FALSE(seed_bytes.empty());
    const std::string path = testing::TempDir() + "fuzz_mut.ptrace";

    unsigned rejected = 0;
    unsigned survived = 0;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        Random rng(seed * 0x9E3779B97F4A7C15ull);
        const std::vector<char> mutant = mutate(seed_bytes, rng);
        std::ofstream(path, std::ios::binary)
            .write(mutant.data(),
                   static_cast<std::streamsize>(mutant.size()));

        // Every entry point must either succeed or throw FatalError;
        // anything else (segfault, std::bad_alloc from a hostile count,
        // uncaught exception) fails the test run itself.
        try {
            const auto bundle = loadTraceBundle(path);
            ASSERT_NE(bundle, nullptr);
            ++survived;
        } catch (const FatalError &) {
            ++rejected;
        }
        try {
            inspectTraceFile(path);
        } catch (const FatalError &) {
        }
        try {
            verifyTraceFile(path);
        } catch (const FatalError &) {
        }
    }
    std::remove(path.c_str());

    // Most mutants must be rejected; a few byte flips may land in dead
    // bytes and load fine, which is acceptable — just not a majority.
    EXPECT_GT(rejected, survived);
    EXPECT_GE(rejected + survived, 300u);
}

namespace {

/** Lay out a plausible two-transaction undo log in an image. */
void
writeLogArea(MemoryImage &image, Addr start, std::uint64_t slots)
{
    std::uint64_t seq = 1;
    for (std::uint64_t i = 0; i < slots; ++i) {
        LogRecord rec;
        rec.magic = LogRecord::magicValue;
        rec.flags = LogRecord::flagValid;
        if (i == slots / 2 - 1)
            rec.flags |= LogRecord::flagTxEnd;
        rec.txId = i < slots / 2 ? 1 : 2;
        rec.seq = seq++;
        rec.fromAddr = 0x4000'0000ull + (i % 8) * logDataSize;
        for (std::size_t b = 0; b < logDataSize; ++b)
            rec.data[b] = static_cast<std::uint8_t>(i + b);
        const auto bytes = rec.toBytes();
        image.write(start + i * logEntrySize, bytes.data(),
                    bytes.size());
        // The logged-from granules exist in the image too, so undo has
        // something to write back over.
        image.write(rec.fromAddr, rec.data.data(), logDataSize);
    }
}

} // namespace

TEST(FuzzRecovery, ScansAndUndoNeverCrashOnCorruptLogs)
{
    constexpr Addr logStart = 0x1'4000'0000ull;
    constexpr std::uint64_t slots = 24;
    constexpr Addr logEnd = logStart + slots * logEntrySize;
    constexpr Addr flagAddr = 0x4000'2000ull;

    MemoryImage pristine;
    writeLogArea(pristine, logStart, slots);
    pristine.write64(flagAddr, 2);    // tx 2 in flight (software flag)

    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        Random rng(seed ^ 0xBF58476D1CE4E5B9ull);

        MemoryImage image = pristine;
        // Corrupt 1..32 random bytes across the log area, including
        // slot boundaries, magics, flags, and the length metadata.
        const std::uint64_t hits = rng.nextRange(1, 32);
        for (std::uint64_t i = 0; i < hits; ++i) {
            const Addr at = logStart +
                            rng.nextBelow(slots * logEntrySize);
            std::uint8_t byte = 0;
            image.read(at, &byte, 1);
            byte ^= static_cast<std::uint8_t>(1u << rng.nextBelow(8));
            image.write(at, &byte, 1);
        }
        // Occasionally corrupt the software log flag as well.
        if (rng.nextBool(0.25))
            image.write64(flagAddr, rng.next());

        // Every scan and every recovery family must return normally on
        // arbitrary log-area corruption — torn records are data, not
        // control flow.
        const Recovery::LogScan contiguous =
            Recovery::scanLogContiguous(image, logStart, logEnd);
        EXPECT_LE(contiguous.slotsScanned, slots);
        EXPECT_LE(contiguous.records.size(), slots);

        const Recovery::LogScan sparse =
            Recovery::scanLogSparse(image, logStart, logEnd);
        EXPECT_EQ(sparse.slotsScanned, slots);
        EXPECT_LE(sparse.records.size(), slots);

        const std::vector<LogRecord> all =
            Recovery::scanLog(image, logStart, logEnd);
        EXPECT_LE(all.size(), slots);

        {
            MemoryImage scratch = image;
            const RecoveryResult r =
                Recovery::recoverProteus(scratch, logStart, logEnd);
            EXPECT_LE(r.entriesApplied, slots);
        }
        {
            MemoryImage scratch = image;
            const RecoveryResult r =
                Recovery::recoverAtom(scratch, logStart, logEnd);
            EXPECT_LE(r.entriesApplied, slots);
        }
        {
            MemoryImage scratch = image;
            const RecoveryResult r = Recovery::recoverSoftware(
                scratch, logStart, logEnd, flagAddr);
            EXPECT_LE(r.entriesApplied, slots);
        }
    }
}

namespace {

/**
 * Corrupt @p image the way the NVM media fault model does: whole
 * 64B-line events — torn writes (8-byte chunks replaced by stale or
 * garbage data), transient 1..2-bit flips, and ECC poison marks.
 */
void
injectMediaShapedFaults(MemoryImage &image, Addr start,
                        std::uint64_t lines, Random &rng)
{
    const std::uint64_t events = rng.nextRange(1, 8);
    for (std::uint64_t i = 0; i < events; ++i) {
        const Addr line = start + rng.nextBelow(lines) * blockSize;
        switch (rng.nextBelow(3)) {
          case 0: {    // torn line: some 8B chunks lost or garbled
            std::uint8_t buf[blockSize];
            image.read(line, buf, blockSize);
            const std::uint64_t mask = rng.nextRange(1, 254);
            for (unsigned c = 0; c < blockSize / 8; ++c) {
                if (!(mask & (1ull << c)))
                    continue;
                for (unsigned b = 0; b < 8; ++b) {
                    buf[c * 8 + b] = rng.nextBool(0.5)
                        ? 0
                        : static_cast<std::uint8_t>(rng.nextBelow(256));
                }
            }
            image.write(line, buf, blockSize);
            break;
          }
          case 1: {    // transient flip of 1..2 bits
            const std::uint64_t flips = rng.nextRange(1, 2);
            for (std::uint64_t f = 0; f < flips; ++f) {
                const Addr at = line + rng.nextBelow(blockSize);
                std::uint8_t byte = 0;
                image.read(at, &byte, 1);
                byte ^=
                    static_cast<std::uint8_t>(1u << rng.nextBelow(8));
                image.write(at, &byte, 1);
            }
            break;
          }
          default:    // detected-uncorrectable: ECC poison mark
            image.markPoisoned(line);
            break;
        }
    }
}

} // namespace

TEST(FuzzRecovery, MediaFaultShapedCorruptionNeverCrashesOrReplays)
{
    constexpr Addr logStart = 0x1'4000'0000ull;
    constexpr std::uint64_t slots = 24;
    constexpr Addr logEnd = logStart + slots * logEntrySize;
    constexpr Addr flagAddr = 0x4000'2000ull;

    MemoryImage pristine;
    writeLogArea(pristine, logStart, slots);
    pristine.write64(flagAddr, 2);

    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        Random rng(seed * 0x94D049BB133111EBull);

        MemoryImage image = pristine;
        injectMediaShapedFaults(image, logStart, slots, rng);

        const Recovery::LogScan sparse =
            Recovery::scanLogSparse(image, logStart, logEnd);
        EXPECT_EQ(sparse.slotsScanned, slots);
        // Poisoned slots are classified, never parsed: the two sets
        // partition the area with the invalid/torn remainder.
        EXPECT_LE(sparse.records.size() + sparse.poisonedSlots, slots);
        EXPECT_EQ(sparse.poisonedSlots, image.poisonedCount());
        if (sparse.poisonedSlots > 0) {
            EXPECT_NE(sparse.firstPoisonedSlot, invalidAddr);
            EXPECT_TRUE(image.isPoisoned(sparse.firstPoisonedSlot));
        }

        const Recovery::LogScan contiguous =
            Recovery::scanLogContiguous(image, logStart, logEnd);
        EXPECT_LE(contiguous.records.size() + contiguous.poisonedSlots,
                  slots);

        for (int family = 0; family < 3; ++family) {
            MemoryImage scratch = image;
            RecoveryResult r;
            switch (family) {
              case 0:
                r = Recovery::recoverProteus(scratch, logStart, logEnd);
                break;
              case 1:
                r = Recovery::recoverAtom(scratch, logStart, logEnd);
                break;
              default:
                r = Recovery::recoverSoftware(scratch, logStart, logEnd,
                                              flagAddr);
                break;
            }
            EXPECT_LE(r.entriesApplied, slots);
            // Recovery only rewrites logged-from granules and log-area
            // metadata; it must never clear a media poison mark.
            for (Addr line : image.poisonedLines()) {
                if (line >= logStart && line < logEnd) {
                    EXPECT_TRUE(scratch.isPoisoned(line));
                }
            }
        }
    }
}

TEST(FuzzPtrace, MediaFaultShapedCorruptionIsRejectedOrLoads)
{
    // Line-granular corruption of the snapshot payload — whole 64B
    // spans torn or bit-flipped, as NVM media faults would shape them —
    // must never crash the loader.
    const std::vector<char> seed_bytes = recordSeedFile();
    ASSERT_FALSE(seed_bytes.empty());
    const std::string path = testing::TempDir() + "fuzz_media.ptrace";

    unsigned rejected = 0;
    unsigned survived = 0;
    for (std::uint64_t seed = 1; seed <= 150; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        Random rng(seed * 0xD6E8FEB86659FD93ull);

        std::vector<char> mutant = seed_bytes;
        const std::uint64_t lines = mutant.size() / blockSize;
        ASSERT_GT(lines, 0u);
        const std::uint64_t events = rng.nextRange(1, 6);
        for (std::uint64_t i = 0; i < events; ++i) {
            const std::size_t at = rng.nextBelow(lines) * blockSize;
            if (rng.nextBool(0.5)) {    // torn line
                const std::uint64_t mask = rng.nextRange(1, 254);
                for (unsigned c = 0; c < blockSize / 8; ++c) {
                    if (mask & (1ull << c))
                        std::memset(mutant.data() + at + c * 8, 0, 8);
                }
            } else {                    // 1..2-bit transient flip
                mutant[at + rng.nextBelow(blockSize)] ^=
                    static_cast<char>(1u << rng.nextBelow(8));
            }
        }
        std::ofstream(path, std::ios::binary)
            .write(mutant.data(),
                   static_cast<std::streamsize>(mutant.size()));

        try {
            const auto bundle = loadTraceBundle(path);
            ASSERT_NE(bundle, nullptr);
            ++survived;
        } catch (const FatalError &) {
            ++rejected;
        }
        try {
            verifyTraceFile(path);
        } catch (const FatalError &) {
        }
    }
    std::remove(path.c_str());
    EXPECT_EQ(rejected + survived, 150u);
    // Payload-section checksums must catch at least some line tears.
    EXPECT_GT(rejected, 0u);
}
