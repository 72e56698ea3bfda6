#include "experiments.hh"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "harness/check_runner.hh"
#include "harness/trace_cache.hh"
#include "sim/logging.hh"
#include "sim/parse_number.hh"

namespace proteus {

BenchOptions
BenchOptions::parse(int argc, char **argv)
{
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value after ", arg);
            return argv[++i];
        };
        if (arg == "--scale") {
            opts.scale = parseUnsigned<unsigned>(arg, next());
        } else if (arg == "--init-scale") {
            opts.initScale = parseUnsigned<unsigned>(arg, next());
        } else if (arg == "--threads") {
            opts.threads = parseUnsigned<unsigned>(arg, next());
        } else if (arg == "--jobs") {
            opts.jobs = parseUnsigned<unsigned>(arg, next());
        } else if (arg == "--json") {
            opts.jsonPath = next();
        } else if (arg == "--seed") {
            opts.seed = parseUnsigned<std::uint64_t>(arg, next());
        } else if (arg == "--dram") {
            opts.dram = true;
        } else if (arg == "--no-trace-cache") {
            opts.traceCache = false;
        } else if (arg == "--no-cycle-skip") {
            opts.cycleSkip = false;
        } else if (arg == "--set") {
            opts.overrides.push_back(next());
        } else if (arg == "--stats-interval") {
            opts.statsInterval = parseUnsigned<std::uint64_t>(arg, next());
        } else if (arg == "--stats-out") {
            opts.statsOut = next();
        } else if (arg == "--trace-events") {
            opts.traceEvents = next();
        } else if (arg == "--trace-categories") {
            opts.traceCategories = next();
        } else if (arg == "--tx-stats") {
            opts.txStats = next();
        } else if (arg == "--tx-slowest") {
            opts.txSlowest = parseUnsigned<std::uint64_t>(arg, next());
        } else if (arg == "--faults") {
            opts.faults = faults::parseFaultSpec(next(), opts.faults);
        } else if (arg == "--fault-seed") {
            opts.faults.seed = parseUnsigned<std::uint64_t>(arg, next());
        } else if (arg == "--check") {
            opts.check = true;
        } else if (arg == "--check-mutate") {
            opts.check = true;
            opts.checkMutate = parseUnsigned<std::uint32_t>(arg, next());
        } else if (arg == "--wl-spec") {
            opts.wlSpec = next();
        } else if (arg == "--wl-spec-file") {
            opts.wlSpecFile = next();
        } else if (arg == "--help" || arg == "-h") {
            std::cout
                << "options:\n"
                << "  --scale N      divide Table 2 SimOps by N "
                << "(default 200; 1 = paper size)\n"
                << "  --init-scale N divide Table 2 InitOps "
                << "(working-set size; default 1 = paper)\n"
                << "  --threads N    simulated cores (default 4)\n"
                << "  --jobs N       host threads for batch runs "
                << "(default: all cores)\n"
                << "  --seed N       workload RNG seed\n"
                << "  --dram         DRAM timing (Section 7.2)\n"
                << "  --json FILE    write per-run results as JSON "
                << "rows\n"
                << "  --set k=v      config override, e.g. "
                << "logging.logQEntries=8\n"
                << "  --no-trace-cache  rebuild traces per run instead "
                << "of sharing cached bundles\n"
                << "  --no-cycle-skip   tick every cycle instead of "
                << "skipping quiescent spans (same results, slower)\n"
                << "  --stats-interval N  sample scalar-stat deltas "
                << "every N cycles\n"
                << "  --stats-out FILE    interval time series "
                << "(.json or .csv)\n"
                << "  --trace-events FILE Chrome Trace Event JSON "
                << "(load in Perfetto)\n"
                << "  --trace-categories LIST  comma list of "
                << "cpu,memctrl,log,lock,all (default all)\n"
                << "  --tx-stats FILE     transaction flight-recorder "
                << "summary (.json or .csv)\n"
                << "  --tx-slowest K      retain full timelines for the "
                << "K slowest transactions (default 8)\n"
                << "  --faults SPEC       NVM media fault injection, "
                << "e.g. torn=0.01,readflip=1e-4,\n"
                << "                      endurance=1000,detect=8,"
                << "correct=1 (default: off)\n"
                << "  --fault-seed N      fault-draw seed (default 1)\n"
                << "  --check             arm the persistency-order "
                << "checker; any ordering\n"
                << "                      violation fails the run "
                << "(see proteus-check)\n"
                << "  --check-mutate N    seeded mutation campaign: "
                << "every armed rule must\n"
                << "                      catch one injected violation "
                << "(implies --check)\n"
                << "  --wl-spec k=v,...   generated-workload spec "
                << "(see proteus-sim --list-workloads)\n"
                << "  --wl-spec-file FILE base spec file; --wl-spec "
                << "overrides on top\n";
            std::exit(0);
        } else {
            fatal("unknown argument: ", arg);
        }
    }
    // Catch nonsense at the CLI boundary: a zero divisor or an
    // impossible thread count would otherwise surface as a confusing
    // failure deep inside workload construction.
    if (opts.scale == 0)
        fatal("--scale must be >= 1");
    if (opts.initScale == 0)
        fatal("--init-scale must be >= 1");
    if (opts.threads == 0 || opts.threads > 32)
        fatal("--threads must be in [1, 32] (got ", opts.threads, ")");
    if (!opts.wlSpec.empty() || !opts.wlSpecFile.empty())
        opts.genSpec();     // validate eagerly, fail fast
    return opts;
}

wlgen::GenSpec
BenchOptions::genSpec() const
{
    wlgen::GenSpec spec;
    if (!wlSpecFile.empty())
        spec = wlgen::GenSpec::parseFile(wlSpecFile);
    if (!wlSpec.empty())
        spec = wlgen::GenSpec::parse(wlSpec, spec);
    return spec;
}

SystemConfig
BenchOptions::makeConfig() const
{
    SystemConfig cfg = dram ? dramConfig() : baselineConfig();
    cfg.seed = seed;
    cfg.cycleSkip = cycleSkip;
    if (statsInterval > 0 && statsOut.empty())
        fatal("--stats-interval requires --stats-out FILE");
    cfg.obs.statsInterval = statsInterval;
    cfg.obs.statsOut = statsOut;
    cfg.obs.traceEvents = traceEvents;
    if (!traceEvents.empty())
        cfg.obs.traceCategories =
            TraceEventSink::parseCategories(traceCategories);
    cfg.obs.txStats = txStats;
    cfg.obs.txSlowest = txSlowest;
    cfg.faults = faults;
    for (const std::string &o : overrides)
        cfg.applyOverride(o);
    return cfg;
}

obs::TxStatsRow
makeTxStatsRow(const BenchOptions &opts, LogScheme scheme,
               WorkloadKind kind, const RunResult &result)
{
    obs::TxStatsRow row;
    row.scheme = toString(scheme);
    row.workload = toString(kind);
    row.threads = opts.threads;
    row.scale = opts.scale;
    row.initScale = opts.initScale;
    row.seed = opts.seed;
    row.cycles = result.cycles;
    // Bucket order follows CommitBucket.
    row.cpi = {result.cpi.base,          result.cpi.robFull,
               result.cpi.iqLsqFull,     result.cpi.branchRedirect,
               result.cpi.persistStall,  result.cpi.wpqBackpressure,
               result.cpi.lockWait};
    if (result.txStats)
        row.summary = *result.txStats;
    row.faults = result.faultStats;
    return row;
}

RunResult
runExperiment(SystemConfig cfg, LogScheme scheme, WorkloadKind kind,
              const BenchOptions &opts,
              const WorkloadExtras &extras)
{
    cfg.logging.scheme = scheme;
    // PMEM+pcommit models the pre-ADR persistency domain.
    cfg.memCtrl.adr = scheme != LogScheme::PMEMPCommit;
    if (opts.check) {
        cfg.analysis.check = true;
        cfg.analysis.repro = checkReproLine(scheme, kind, opts);
    }

    WorkloadParams params;
    params.threads = opts.threads;
    params.scale = opts.scale;
    params.initScale = opts.initScale;
    params.seed = opts.seed;
    params.logAreaBytes = cfg.logging.logAreaBytes;

    RunResult result;
    if (opts.traceCache) {
        TraceBundleKey key;
        key.kind = kind;
        key.scheme = scheme;
        key.params = params;
        key.llOpts = extras.ll;
        key.gen = extras.gen;
        // Checked runs need the write history so the software schemes
        // arm LogBeforeData too (undo-logged vs. storeInit stores).
        FullSystem system(
            cfg, TraceCache::global().get(key,
                                          /*want_history=*/opts.check));
        result = system.run();
    } else {
        FullSystem system(cfg, kind, params, extras);
        result = system.run();
    }
    if (opts.check && result.check && !result.check->pass()) {
        CheckRow row;
        row.scheme = scheme;
        row.kind = kind;
        row.run = result;
        row.outcome = *result.check;
        std::cerr << formatCheckReport(row);
        fatal("persistency-order check failed under ", toString(scheme),
              " / ", toString(kind), ": ",
              result.check->totalViolations, " violation(s)");
    }
    // Single-run tx-stats file. Batches route through the parallel
    // runner, which clears the per-job path and lets runBatch combine
    // every row into one file in submission order.
    if (!cfg.obs.txStats.empty() && result.txStats) {
        obs::writeTxStatsFile(
            cfg.obs.txStats,
            {makeTxStatsRow(opts, scheme, kind, result)});
    }
    return result;
}

void
writeJsonResults(const std::string &path,
                 const std::vector<JsonResultRow> &rows)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open --json output file: ", path);
    os << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const JsonResultRow &row = rows[i];
        const RunResult &r = row.result;
        os << "  {\"scheme\": \"" << row.scheme << "\""
           << ", \"workload\": \"" << row.workload << "\""
           << ", \"finished\": " << (r.finished ? "true" : "false")
           << ", \"cycles\": " << r.cycles
           << ", \"retiredOps\": " << r.retiredOps
           << ", \"nvmWrites\": " << r.nvmWrites
           << ", \"nvmReads\": " << r.nvmReads
           << ", \"committedTxs\": " << r.committedTxs
           << ", \"logWritesDropped\": " << r.logWritesDropped
           << ", \"cpi\": {"
           << "\"base\": " << r.cpi.base
           << ", \"robFull\": " << r.cpi.robFull
           << ", \"iqLsqFull\": " << r.cpi.iqLsqFull
           << ", \"branchRedirect\": " << r.cpi.branchRedirect
           << ", \"persistStall\": " << r.cpi.persistStall
           << ", \"wpqBackpressure\": " << r.cpi.wpqBackpressure
           << ", \"lockWait\": " << r.cpi.lockWait << "}";
        // The faults block appears only when injection ran so default
        // rows stay byte-identical to a faultless build.
        if (r.faultStats.enabled) {
            const auto &f = r.faultStats;
            os << ", \"faults\": {"
               << "\"tornWrites\": " << f.tornWrites
               << ", \"wornWrites\": " << f.wornWrites
               << ", \"readFaults\": " << f.readFaults
               << ", \"eccCorrected\": " << f.eccCorrected
               << ", \"eccDetected\": " << f.eccDetected
               << ", \"silentFaults\": " << f.silentFaults
               << ", \"readRetries\": " << f.readRetries
               << ", \"retryBackoffCycles\": " << f.retryBackoffCycles
               << ", \"retriesExhausted\": " << f.retriesExhausted
               << ", \"poisonedLines\": " << f.poisonedLines << "}";
        }
        os << ", \"wall_ms\": " << std::fixed << std::setprecision(1)
           << row.wallMs << std::defaultfloat << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "]\n";
    if (!os.flush())
        fatal("failed writing --json output file: ", path);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double log_sum = 0;
    for (double v : values) {
        if (v <= 0)
            panic("geomean of a non-positive value");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

TablePrinter::TablePrinter(std::vector<std::string> columns)
    : _columns(std::move(columns))
{
}

void
TablePrinter::printHeader(std::ostream &os) const
{
    for (std::size_t i = 0; i < _columns.size(); ++i)
        os << std::left << std::setw(i == 0 ? 16 : 12) << _columns[i];
    os << "\n";
    for (std::size_t i = 0; i < _columns.size(); ++i)
        os << std::left << std::setw(i == 0 ? 16 : 12)
           << std::string(std::min<std::size_t>(_columns[i].size(), 11),
                          '-');
    os << "\n";
}

void
TablePrinter::printRow(std::ostream &os,
                       const std::vector<std::string> &cells) const
{
    for (std::size_t i = 0; i < cells.size(); ++i)
        os << std::left << std::setw(i == 0 ? 16 : 12) << cells[i];
    os << "\n";
}

std::string
TablePrinter::fmt(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

} // namespace proteus
