#include "fault_model.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "fault_rules.hh"
#include "sim/logging.hh"
#include "sim/parse_number.hh"

namespace proteus {
namespace faults {

namespace {

/** Torn writes persist 8-byte sub-chunks of the 64B line. */
constexpr unsigned tornChunk = 8;
constexpr unsigned tornChunks = blockSize / tornChunk;

/** Domain-separation salts for the per-purpose draw streams. */
constexpr std::uint64_t saltTorn = 0x746f726eull;       // "torn"
constexpr std::uint64_t saltTornMask = 0x6d61736bull;   // "mask"
constexpr std::uint64_t saltRead = 0x72656164ull;       // "read"
constexpr std::uint64_t saltReadBits = 0x62697473ull;   // "bits"
constexpr std::uint64_t saltStuck = 0x73747563ull;      // "stuc"

std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::string
formatDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

} // namespace

FaultConfig
parseFaultSpec(const std::string &spec, const FaultConfig &base)
{
    FaultConfig cfg = base;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t end = spec.find(',', pos);
        if (end == std::string::npos)
            end = spec.size();
        const std::string item = spec.substr(pos, end - pos);
        pos = end + 1;
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            fatal("--faults: expected key=value, got '", item, "'");
        const std::string key = item.substr(0, eq);
        const std::string val = item.substr(eq + 1);
        const std::string label = "--faults " + key;
        if (key == "torn")
            cfg.tornWriteRate = parseDouble(label, val);
        else if (key == "readflip")
            cfg.readFlipRate = parseDouble(label, val);
        else if (key == "bits")
            cfg.readFlipBitsMax = parseUnsigned<unsigned>(label, val);
        else if (key == "endurance")
            cfg.enduranceWrites = parseUnsigned<std::uint64_t>(label, val);
        else if (key == "stuck")
            cfg.stuckBits = parseUnsigned<unsigned>(label, val);
        else if (key == "detect")
            cfg.eccDetectBits = parseUnsigned<unsigned>(label, val);
        else if (key == "correct")
            cfg.eccCorrectBits = parseUnsigned<unsigned>(label, val);
        else if (key == "retries")
            cfg.readRetryLimit = parseUnsigned<unsigned>(label, val);
        else if (key == "backoff")
            cfg.retryBackoffBase = parseUnsigned<unsigned>(label, val);
        else if (key == "seed")
            cfg.seed = parseUnsigned<std::uint64_t>(label, val);
        else
            fatal("--faults: unknown key '", key, "'");
    }
    checkFaultRules(cfg, FaultSpelling::Spec);
    return cfg;
}

std::string
canonicalFaultSpec(const FaultConfig &cfg)
{
    std::string out;
    out += "torn=" + formatDouble(cfg.tornWriteRate);
    out += ",readflip=" + formatDouble(cfg.readFlipRate);
    out += ",bits=" + std::to_string(cfg.readFlipBitsMax);
    out += ",endurance=" + std::to_string(cfg.enduranceWrites);
    out += ",stuck=" + std::to_string(cfg.stuckBits);
    out += ",detect=" + std::to_string(cfg.eccDetectBits);
    out += ",correct=" + std::to_string(cfg.eccCorrectBits);
    out += ",retries=" + std::to_string(cfg.readRetryLimit);
    out += ",backoff=" + std::to_string(cfg.retryBackoffBase);
    out += ",seed=" + std::to_string(cfg.seed);
    return out;
}

FaultModel::FaultModel(const FaultConfig &cfg, stats::StatRegistry &stats)
    : _cfg(cfg),
      _tornWrites(stats, "faults.tornWrites",
                  "torn 64B line writes injected"),
      _wornWrites(stats, "faults.wornWrites",
                  "writes past the per-line endurance budget"),
      _readFaults(stats, "faults.readFaults",
                  "array read attempts that hit a fault"),
      _eccCorrected(stats, "faults.eccCorrected",
                    "faults corrected in line by ECC"),
      _eccDetected(stats, "faults.eccDetected",
                   "detected-but-uncorrectable fault events"),
      _silentFaults(stats, "faults.silentFaults",
                    "faults beyond ECC detection strength"),
      _readRetries(stats, "faults.readRetries",
                   "bounded-retry reads issued by the MC"),
      _retryBackoff(stats, "faults.retryBackoffCycles",
                    "cycles spent in read-retry backoff"),
      _retriesExhausted(stats, "faults.retriesExhausted",
                        "reads degraded after the retry budget"),
      _linesPoisoned(stats, "faults.linesPoisoned",
                     "lines marked poisoned (detected-uncorrectable)")
{
}

std::uint64_t
FaultModel::draw(std::uint64_t salt, Addr line,
                 std::uint64_t ordinal) const
{
    return mix(mix(mix(_cfg.seed ^ salt) ^ line) ^ ordinal);
}

double
FaultModel::drawUniform(std::uint64_t salt, Addr line,
                        std::uint64_t ordinal) const
{
    // 53 high-quality bits -> uniform double in [0, 1).
    return static_cast<double>(draw(salt, line, ordinal) >> 11) *
           0x1.0p-53;
}

WriteOutcome
FaultModel::applyWrite(MemoryImage &image, Addr addr,
                       const std::uint8_t *data)
{
    const Addr line = blockAlign(addr);
    LineState &st = _lines[line];
    ++st.writes;

    // Torn line write: only a deterministic subset of the 8-byte
    // sub-chunks reaches the medium; the rest keep their old contents.
    if (_cfg.tornWriteRate > 0.0 &&
        drawUniform(saltTorn, line, st.writes) < _cfg.tornWriteRate) {
        std::array<std::uint8_t, blockSize> merged;
        image.read(line, merged.data(), blockSize);
        std::uint64_t mask =
            draw(saltTornMask, line, st.writes) & ((1u << tornChunks) - 1);
        if (mask == 0)
            mask = 1;                           // at least one chunk lands
        if (mask == (1u << tornChunks) - 1)
            mask &= ~1ull;                      // at least one is lost
        for (unsigned c = 0; c < tornChunks; ++c) {
            if (mask & (1ull << c)) {
                std::memcpy(merged.data() + c * tornChunk,
                            data + c * tornChunk, tornChunk);
            }
        }
        image.write(line, merged.data(), blockSize);
        ++_tornWrites;
        if (_cfg.eccDetectBits > 0) {
            // The line's interleaved ECC no longer matches: detected.
            if (!image.isPoisoned(line))
                ++_linesPoisoned;
            image.markPoisoned(line);
            ++_eccDetected;
            return WriteOutcome::Torn;
        }
        ++_silentFaults;
        return WriteOutcome::Silent;
    }

    // Worn line: writes past the endurance budget hit stuck-at cells.
    if (_cfg.enduranceWrites > 0 && st.writes > _cfg.enduranceWrites &&
        _cfg.stuckBits > 0) {
        ++_wornWrites;
        std::array<std::uint8_t, blockSize> stored;
        std::memcpy(stored.data(), data, blockSize);
        // The line's stuck cells are fixed positions with fixed values;
        // only bits the incoming data disagrees with actually corrupt.
        unsigned flipped = 0;
        for (unsigned j = 0; j < _cfg.stuckBits; ++j) {
            const std::uint64_t d = draw(saltStuck + j, line, 0);
            const unsigned bit = static_cast<unsigned>(d % (blockSize * 8));
            const std::uint8_t stuckVal = (d >> 32) & 1;
            const unsigned byte = bit / 8;
            const std::uint8_t m =
                static_cast<std::uint8_t>(1u << (bit % 8));
            const std::uint8_t cur = (stored[byte] & m) ? 1 : 0;
            if (cur != stuckVal) {
                stored[byte] =
                    static_cast<std::uint8_t>(stored[byte] ^ m);
                ++flipped;
            }
        }
        if (flipped == 0) {
            image.write(line, data, blockSize);
            return WriteOutcome::Clean;
        }
        if (flipped <= _cfg.eccCorrectBits) {
            // ECC heals the flips on every read; store the intended
            // data (the functional view is the post-correction view).
            image.write(line, data, blockSize);
            ++_eccCorrected;
            return WriteOutcome::Corrected;
        }
        image.write(line, stored.data(), blockSize);
        if (flipped <= _cfg.eccDetectBits) {
            if (!image.isPoisoned(line))
                ++_linesPoisoned;
            image.markPoisoned(line);
            ++_eccDetected;
            return WriteOutcome::Uncorrectable;
        }
        ++_silentFaults;
        return WriteOutcome::Silent;
    }

    image.write(line, data, blockSize);
    return WriteOutcome::Clean;
}

ReadOutcome
FaultModel::classifyRead(const MemoryImage &image, Addr addr)
{
    const Addr line = blockAlign(addr);
    LineState &st = _lines[line];
    ++st.reads;

    // A poisoned line fails ECC on every attempt until rewritten.
    if (image.isPoisoned(line)) {
        ++_readFaults;
        ++_eccDetected;
        return ReadOutcome::Unrecoverable;
    }

    if (_cfg.readFlipRate <= 0.0 ||
        drawUniform(saltRead, line, st.reads) >= _cfg.readFlipRate) {
        return ReadOutcome::Clean;
    }

    ++_readFaults;
    const unsigned bits = 1 +
        static_cast<unsigned>(draw(saltReadBits, line, st.reads) %
                              _cfg.readFlipBitsMax);
    if (bits <= _cfg.eccCorrectBits) {
        ++_eccCorrected;
        return ReadOutcome::Corrected;
    }
    if (bits <= _cfg.eccDetectBits) {
        ++_eccDetected;
        return ReadOutcome::Transient;
    }
    ++_silentFaults;
    return ReadOutcome::Silent;
}

Tick
FaultModel::backoff(unsigned attempt) const
{
    const Tick base = std::max<Tick>(1, _cfg.retryBackoffBase);
    const unsigned shift = std::min(attempt, 16u);
    return base << shift;
}

void
FaultModel::noteRetry(Tick backoff_cycles)
{
    ++_readRetries;
    _retryBackoff += static_cast<double>(backoff_cycles);
}

void
FaultModel::noteRetriesExhausted(MemoryImage &image, Addr addr)
{
    const Addr line = blockAlign(addr);
    if (!image.isPoisoned(line)) {
        ++_linesPoisoned;
        image.markPoisoned(line);
    }
    ++_retriesExhausted;
}

FaultStatsSummary
FaultModel::summary(const MemoryImage &image) const
{
    FaultStatsSummary s;
    s.enabled = true;
    s.tornWrites = static_cast<std::uint64_t>(_tornWrites.value());
    s.wornWrites = static_cast<std::uint64_t>(_wornWrites.value());
    s.readFaults = static_cast<std::uint64_t>(_readFaults.value());
    s.eccCorrected = static_cast<std::uint64_t>(_eccCorrected.value());
    s.eccDetected = static_cast<std::uint64_t>(_eccDetected.value());
    s.silentFaults = static_cast<std::uint64_t>(_silentFaults.value());
    s.readRetries = static_cast<std::uint64_t>(_readRetries.value());
    s.retryBackoffCycles =
        static_cast<std::uint64_t>(_retryBackoff.value());
    s.retriesExhausted =
        static_cast<std::uint64_t>(_retriesExhausted.value());
    s.poisonedLines = image.poisonedCount();
    return s;
}

} // namespace faults
} // namespace proteus
