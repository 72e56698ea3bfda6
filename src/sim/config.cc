#include "config.hh"

#include <algorithm>
#include <cctype>
#include <map>
#include <type_traits>

#include "faults/fault_rules.hh"
#include "isa/micro_op.hh"
#include "logging.hh"
#include "parse_number.hh"

namespace proteus {

const char *
toString(LogScheme scheme)
{
    switch (scheme) {
      case LogScheme::PMEM:         return "PMEM";
      case LogScheme::PMEMPCommit:  return "PMEM+pcommit";
      case LogScheme::PMEMNoLog:    return "PMEM+nolog";
      case LogScheme::ATOM:         return "ATOM";
      case LogScheme::Proteus:      return "Proteus";
      case LogScheme::ProteusNoLWR: return "Proteus+NoLWR";
    }
    return "unknown";
}

LogScheme
parseScheme(const std::string &name)
{
    std::string key;
    key.reserve(name.size());
    for (char c : name)
        key.push_back(static_cast<char>(std::tolower(
            static_cast<unsigned char>(c))));

    static const std::map<std::string, LogScheme> table = {
        {"pmem", LogScheme::PMEM},
        {"pmem+pcommit", LogScheme::PMEMPCommit},
        {"pcommit", LogScheme::PMEMPCommit},
        {"pmem+nolog", LogScheme::PMEMNoLog},
        {"nolog", LogScheme::PMEMNoLog},
        {"ideal", LogScheme::PMEMNoLog},
        {"atom", LogScheme::ATOM},
        {"proteus", LogScheme::Proteus},
        {"proteus+nolwr", LogScheme::ProteusNoLWR},
        {"nolwr", LogScheme::ProteusNoLWR},
    };
    auto it = table.find(key);
    if (it == table.end())
        fatal("unknown logging scheme: ", name);
    return it->second;
}

std::vector<LogScheme>
allSchemes()
{
    return {LogScheme::PMEM,      LogScheme::PMEMPCommit,
            LogScheme::PMEMNoLog, LogScheme::ATOM,
            LogScheme::Proteus,   LogScheme::ProteusNoLWR};
}

std::vector<LogScheme>
parseSchemes(const std::string &list)
{
    if (list == "all")
        return allSchemes();
    std::vector<LogScheme> out;
    for (const std::string &name : splitList(list))
        out.push_back(parseScheme(name));
    if (out.empty())
        fatal("expected a comma list of schemes or 'all', got '", list,
              "'");
    return out;
}

bool
isSoftwareScheme(LogScheme scheme)
{
    return scheme == LogScheme::PMEM || scheme == LogScheme::PMEMPCommit ||
           scheme == LogScheme::PMEMNoLog;
}

void
SystemConfig::applyOverride(const std::string &spec)
{
    auto eq = spec.find('=');
    if (eq == std::string::npos)
        fatal("override must be key=value: ", spec);
    const std::string key = spec.substr(0, eq);
    const std::string value = spec.substr(eq + 1);

    // Numbers are checked the way command-line flags are: "8x", "-1"
    // and out-of-range values are errors, never truncated or wrapped.
    const std::string label = "override " + key;
    auto num = [&](auto &field) {
        using T = std::remove_reference_t<decltype(field)>;
        if constexpr (std::is_floating_point_v<T>)
            field = parseDouble(label, value);
        else
            field = parseUnsigned<T>(label, value);
    };
    auto as_bool = [&]() -> bool {
        if (value == "true" || value == "1") return true;
        if (value == "false" || value == "0") return false;
        fatal("bad boolean value in override: ", spec);
    };

    // No key sets the scheme, the persistency domain or the core count:
    // a run takes those from its trace bundle's key (FullSystem).
    if (key == "cpu.robEntries") num(cpu.robEntries);
    else if (key == "cpu.issueQueueEntries") num(cpu.issueQueueEntries);
    else if (key == "cpu.loadQueueEntries") num(cpu.loadQueueEntries);
    else if (key == "cpu.storeQueueEntries") num(cpu.storeQueueEntries);
    else if (key == "cpu.fetchWidth") num(cpu.fetchWidth);
    else if (key == "mem.nvmMode") mem.nvmMode = as_bool();
    else if (key == "mem.nvmReadTRCD") num(mem.nvmReadTRCD);
    else if (key == "mem.nvmWriteTRCD") num(mem.nvmWriteTRCD);
    else if (key == "mem.banks") num(mem.banks);
    else if (key == "memCtrl.wpqEntries") num(memCtrl.wpqEntries);
    else if (key == "memCtrl.lpqEntries") num(memCtrl.lpqEntries);
    else if (key == "memCtrl.wpqDrainThreshold")
        num(memCtrl.wpqDrainThreshold);
    else if (key == "memCtrl.lpqDrainThreshold")
        num(memCtrl.lpqDrainThreshold);
    else if (key == "logging.logRegisters") num(logging.logRegisters);
    else if (key == "logging.logQEntries") num(logging.logQEntries);
    else if (key == "logging.lltEntries") num(logging.lltEntries);
    else if (key == "logging.lltWays") num(logging.lltWays);
    else if (key == "logging.logAreaBytes") num(logging.logAreaBytes);
    else if (key == "logging.atomTruncationEntries")
        num(logging.atomTruncationEntries);
    else if (key == "faults.tornWriteRate") num(faults.tornWriteRate);
    else if (key == "faults.readFlipRate") num(faults.readFlipRate);
    else if (key == "faults.enduranceWrites") num(faults.enduranceWrites);
    else if (key == "faults.eccDetectBits") num(faults.eccDetectBits);
    else if (key == "faults.eccCorrectBits") num(faults.eccCorrectBits);
    else if (key == "faults.readRetryLimit") num(faults.readRetryLimit);
    else if (key == "faults.retryBackoffBase") num(faults.retryBackoffBase);
    else if (key == "faults.seed") num(faults.seed);
    else if (key == "obs.traceRingEntries") num(obs.traceRingEntries);
    else if (key == "obs.txSlowest") num(obs.txSlowest);
    else if (key == "cycleSkip") cycleSkip = as_bool();
    else
        fatal("unknown config override key: ", key);
}

namespace {

/** Caches index sets with a mask, so the set count is a power of two. */
void
checkCache(const char *level, const CacheConfig &cache)
{
    const std::uint64_t sets =
        cache.ways ? cache.sizeBytes /
                         (std::uint64_t{blockSize} * cache.ways)
                   : 0;
    if (sets == 0 || (sets & (sets - 1)) != 0)
        fatal("caches.", level, ".sizeBytes (", cache.sizeBytes,
              ") over caches.", level, ".ways (", cache.ways, ") of ",
              blockSize, " B lines must give a power-of-two set count");
}

} // namespace

void
SystemConfig::validate(LogScheme scheme) const
{
    // A zero width or queue would stall dispatch forever, and the run
    // would only end at the cycle limit.
    for (const auto &[key, value] :
         {std::pair{"cpu.fetchWidth", cpu.fetchWidth},
          {"cpu.robEntries", cpu.robEntries},
          {"cpu.issueQueueEntries", cpu.issueQueueEntries},
          {"cpu.loadQueueEntries", cpu.loadQueueEntries},
          {"cpu.storeQueueEntries", cpu.storeQueueEntries}}) {
        if (value == 0)
            fatal(key, " must be at least 1");
    }
    if (cpu.physIntRegs <= numArchRegs)
        fatal("cpu.physIntRegs (", cpu.physIntRegs, ") must exceed the ",
              numArchRegs, " architectural registers");
    if (cpu.branchPredictorBits == 0 || cpu.branchPredictorBits > 24)
        fatal("cpu.branchPredictorBits must be in [1, 24], got ",
              cpu.branchPredictorBits);
    checkCache("l1d", caches.l1d);
    checkCache("l2", caches.l2);
    checkCache("l3", caches.l3);

    if (mem.banks == 0)
        fatal("mem.banks must be at least 1");
    if (!(mem.cpuPerMemCycle > 0))
        fatal("mem.cpuPerMemCycle must be positive");

    // An empty queue would refuse every write forever.
    if (memCtrl.wpqEntries == 0)
        fatal("memCtrl.wpqEntries must be at least 1");
    // Occupancy fractions: a negative one would wrap when scaled to a
    // queue size, and one above 1 would switch draining off.
    for (const auto &[key, value] :
         {std::pair{"memCtrl.wpqDrainThreshold", memCtrl.wpqDrainThreshold},
          {"memCtrl.lpqDrainThreshold", memCtrl.lpqDrainThreshold}}) {
        if (!(value >= 0 && value <= 1))
            fatal(key, ": expected a fraction in [0, 1], got ", value);
    }

    // Every scheme records each thread's log area in whole entries.
    if (logging.logAreaBytes == 0 || logging.logAreaBytes % logEntrySize)
        fatal("logging.logAreaBytes must be a positive multiple of ",
              logEntrySize, ", got ", logging.logAreaBytes);
    // ATOM's area starts with its commit-record block.
    if (scheme == LogScheme::ATOM && logging.logAreaBytes < 2 * logEntrySize)
        fatal("logging.logAreaBytes must be at least ", 2 * logEntrySize,
              " under ATOM (a commit record and one entry), got ",
              logging.logAreaBytes);

    // Table 1's "Proteus" row: only the Proteus schemes use the log
    // registers, the LogQ, the LPQ and the LLT.
    if (scheme == LogScheme::Proteus || scheme == LogScheme::ProteusNoLWR) {
        const char *name = toString(scheme);
        // Every log-load holds a log register until its log-flush.
        if (logging.logRegisters == 0)
            fatal("logging.logRegisters must be at least 1 under ", name);
        if (logging.logQEntries == 0)
            fatal("logging.logQEntries must be at least 1 under ", name);
        if (memCtrl.lpqEntries == 0)
            fatal("memCtrl.lpqEntries must be at least 1 under ", name);
        if (logging.lltEntries == 0 || logging.lltWays == 0 ||
            logging.lltEntries % logging.lltWays != 0)
            fatal("logging.lltEntries (", logging.lltEntries,
                  ") must be a positive multiple of logging.lltWays (",
                  logging.lltWays, ") under ", name);
    }

    faults::checkFaultRules(faults, faults::FaultSpelling::Set);
}

SystemConfig
baselineConfig()
{
    SystemConfig cfg;
    return cfg;
}

SystemConfig
slowNvmConfig()
{
    SystemConfig cfg;
    // 300 ns write at 800 MHz DRAM clock = 240 memory cycles; read stays
    // at 50 ns (Section 7.1).
    cfg.mem.nvmWriteTRCD = 240;
    return cfg;
}

SystemConfig
dramConfig()
{
    SystemConfig cfg;
    cfg.mem.nvmMode = false;
    return cfg;
}

} // namespace proteus
