#include "spec.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "sim/logging.hh"
#include "sim/parse_number.hh"

namespace proteus {
namespace wlgen {

namespace {

constexpr char knownKeys[] =
    "read, update, insert, delete, rmw, keys, vsize, tables, keyspace, "
    "populate, ops, dist, theta, hot-frac, hot-ops";

/** Numbers are checked like command-line flags: no sign, trailing
 *  text or wrap-around. */
template <typename T>
T
parseNum(const std::string &key, const std::string &value)
{
    return parseUnsigned<T>("wl-spec " + key, value);
}

/** Parse a fraction and quantize to 1e-4 so equality, hashing, and the
 *  canonical string agree no matter how the value was spelled. */
double
parseFrac(const std::string &key, const std::string &value)
{
    const double v = parseDouble("wl-spec " + key, value);
    if (!(v >= 0.0 && v <= 1.0))
        fatal("wl-spec: ", key, "=", value, " must be in [0, 1]");
    return std::round(v * 10000.0) / 10000.0;
}

std::string
fmtFrac(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", v);
    std::string s(buf);
    while (s.size() > 1 && s.back() == '0')
        s.pop_back();
    if (!s.empty() && s.back() == '.')
        s.pop_back();
    return s;
}

void
applyKeyValue(GenSpec &spec, const std::string &key,
              const std::string &value)
{
    if (key == "read") {
        spec.readPct = parseNum<unsigned>(key, value);
    } else if (key == "update") {
        spec.updatePct = parseNum<unsigned>(key, value);
    } else if (key == "insert") {
        spec.insertPct = parseNum<unsigned>(key, value);
    } else if (key == "delete") {
        spec.deletePct = parseNum<unsigned>(key, value);
    } else if (key == "rmw") {
        spec.rmwPct = parseNum<unsigned>(key, value);
    } else if (key == "keys") {
        // "N" or "N-M", inclusive.
        const std::size_t dash = value.find('-');
        if (dash == std::string::npos) {
            spec.keysMin = spec.keysMax = parseNum<unsigned>(key, value);
        } else {
            spec.keysMin = parseNum<unsigned>(key, value.substr(0, dash));
            spec.keysMax = parseNum<unsigned>(key, value.substr(dash + 1));
        }
    } else if (key == "vsize") {
        spec.valueBytes = parseNum<unsigned>(key, value);
    } else if (key == "tables") {
        spec.tables = parseNum<unsigned>(key, value);
    } else if (key == "keyspace") {
        spec.keySpace = parseNum<std::uint64_t>(key, value);
    } else if (key == "populate") {
        spec.populatePct = parseNum<unsigned>(key, value);
    } else if (key == "ops") {
        spec.baseOps = parseNum<std::uint64_t>(key, value);
    } else if (key == "dist") {
        spec.dist = parseKeyDist(value);
    } else if (key == "theta") {
        spec.theta = parseFrac(key, value);
    } else if (key == "hot-frac") {
        spec.hotFrac = parseFrac(key, value);
    } else if (key == "hot-ops") {
        spec.hotOpFrac = parseFrac(key, value);
    } else {
        fatal("wl-spec: unknown key '", key, "' (known: ", knownKeys,
              ")");
    }
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

} // namespace

const char *
toString(KeyDist dist)
{
    switch (dist) {
      case KeyDist::Uniform: return "uniform";
      case KeyDist::Zipfian: return "zipf";
      case KeyDist::HotSet:  return "hot";
    }
    return "?";
}

KeyDist
parseKeyDist(const std::string &name)
{
    if (name == "uniform")
        return KeyDist::Uniform;
    if (name == "zipf" || name == "zipfian")
        return KeyDist::Zipfian;
    if (name == "hot" || name == "hotset")
        return KeyDist::HotSet;
    fatal("wl-spec: unknown dist '", name,
          "' (uniform | zipf | hot)");
}

GenSpec
GenSpec::parse(const std::string &kvs, const GenSpec &base)
{
    GenSpec spec = base;
    std::stringstream ss(kvs);
    std::string item;
    while (std::getline(ss, item, ',')) {
        item = trim(item);
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            fatal("wl-spec: '", item, "' is not key=value");
        applyKeyValue(spec, trim(item.substr(0, eq)),
                      trim(item.substr(eq + 1)));
    }
    spec.validate();
    return spec;
}

GenSpec
GenSpec::parse(const std::string &kvs)
{
    return parse(kvs, GenSpec());
}

GenSpec
GenSpec::parseFile(const std::string &path, const GenSpec &base)
{
    std::ifstream in(path);
    if (!in)
        fatal("wl-spec: cannot open spec file ", path);
    GenSpec spec = base;
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t hash_at = line.find('#');
        if (hash_at != std::string::npos)
            line = line.substr(0, hash_at);
        line = trim(line);
        if (line.empty())
            continue;
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            fatal("wl-spec: ", path, ": '", line, "' is not key = value");
        applyKeyValue(spec, trim(line.substr(0, eq)),
                      trim(line.substr(eq + 1)));
    }
    spec.validate();
    return spec;
}

GenSpec
GenSpec::parseFile(const std::string &path)
{
    return parseFile(path, GenSpec());
}

std::string
GenSpec::canonical() const
{
    std::ostringstream os;
    os << "read=" << readPct << ",update=" << updatePct << ",insert="
       << insertPct << ",delete=" << deletePct << ",rmw=" << rmwPct
       << ",keys=" << keysMin;
    if (keysMax != keysMin)
        os << "-" << keysMax;
    os << ",vsize=" << valueBytes << ",tables=" << tables
       << ",keyspace=" << keySpace << ",populate=" << populatePct
       << ",ops=" << baseOps << ",dist=" << toString(dist);
    if (dist == KeyDist::Zipfian)
        os << ",theta=" << fmtFrac(theta);
    if (dist == KeyDist::HotSet) {
        os << ",hot-frac=" << fmtFrac(hotFrac) << ",hot-ops="
           << fmtFrac(hotOpFrac);
    }
    return os.str();
}

void
GenSpec::validate() const
{
    const unsigned mix =
        readPct + updatePct + insertPct + deletePct + rmwPct;
    if (mix != 100) {
        fatal("wl-spec: op mix read+update+insert+delete+rmw must sum "
              "to 100 (got ", mix, ")");
    }
    if (keysMin == 0 || keysMax < keysMin || keysMax > 64) {
        fatal("wl-spec: keys range must satisfy 1 <= min <= max <= 64 "
              "(got ", keysMin, "-", keysMax, ")");
    }
    if (valueBytes == 0 || valueBytes % 8 != 0 || valueBytes > 4096) {
        fatal("wl-spec: vsize must be a multiple of 8 in [8, 4096] "
              "(got ", valueBytes, ")");
    }
    if (tables == 0 || tables > 64)
        fatal("wl-spec: tables must be in [1, 64] (got ", tables, ")");
    if (keySpace < 16 || keySpace > 100'000'000ull) {
        fatal("wl-spec: keyspace must be in [16, 1e8] (got ", keySpace,
              ")");
    }
    if (populatePct > 100)
        fatal("wl-spec: populate must be in [0, 100] (got ",
              populatePct, ")");
    if (baseOps == 0)
        fatal("wl-spec: ops must be nonzero");
    if (dist == KeyDist::Zipfian && !(theta >= 0.0 && theta < 1.0))
        fatal("wl-spec: theta must be in [0, 1) (got ", theta, ")");
    if (dist == KeyDist::HotSet) {
        if (!(hotFrac > 0.0 && hotFrac <= 1.0))
            fatal("wl-spec: hot-frac must be in (0, 1] (got ", hotFrac,
                  ")");
        if (!(hotOpFrac >= 0.0 && hotOpFrac <= 1.0))
            fatal("wl-spec: hot-ops must be in [0, 1] (got ", hotOpFrac,
                  ")");
    }
}

bool
GenSpec::operator==(const GenSpec &o) const
{
    // Fractions are quantized at parse time, so exact compare is sound.
    return readPct == o.readPct && updatePct == o.updatePct &&
           insertPct == o.insertPct && deletePct == o.deletePct &&
           rmwPct == o.rmwPct && keysMin == o.keysMin &&
           keysMax == o.keysMax && valueBytes == o.valueBytes &&
           tables == o.tables && keySpace == o.keySpace &&
           populatePct == o.populatePct && baseOps == o.baseOps &&
           dist == o.dist &&
           (dist != KeyDist::Zipfian || theta == o.theta) &&
           (dist != KeyDist::HotSet ||
            (hotFrac == o.hotFrac && hotOpFrac == o.hotOpFrac));
}

std::uint64_t
GenSpec::hash() const
{
    // The canonical string already encodes exactly the fields equality
    // compares (distribution-specific knobs only), so hash that.
    const std::string s = canonical();
    std::uint64_t h = 1469598103934665603ull;    // FNV-1a 64
    for (char c : s) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace wlgen
} // namespace proteus
