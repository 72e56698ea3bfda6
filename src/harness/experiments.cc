#include "experiments.hh"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "harness/check_runner.hh"
#include "harness/trace_cache.hh"
#include "heap/persistent_heap.hh"
#include "sim/logging.hh"

namespace proteus {

std::vector<std::vector<cli::Option>>
BenchOptions::optionGroups()
{
    return {cli::sizeOptions(scale, initScale, threads, seed),
            cli::configOptions(dram, overrides),
            cli::machineOptions(cycleSkip, faults),
            cli::batchOptions(jobs, jsonPath),
            {cli::checkOption(check)},
            cli::traceOptions(obs),
            cli::txStatsOptions(obs)};
}

cli::OptionTable
BenchOptions::optionTable(const char *argv0)
{
    cli::OptionTable table(cli::programName(argv0) + " [options]");
    for (std::vector<cli::Option> &group : optionGroups())
        table.add(std::move(group));
    return table;
}

BenchOptions
BenchOptions::parse(int argc, char **argv)
{
    BenchOptions opts;
    opts.optionTable(argv[0]).parse(argc, argv);
    return opts;
}

wlgen::GenSpec
BenchOptions::genSpec() const
{
    return cli::genSpecFrom(wlSpec, wlSpecFile);
}

SystemConfig
BenchOptions::makeConfig() const
{
    SystemConfig cfg = dram ? dramConfig() : baselineConfig();
    cfg.cycleSkip = cycleSkip;
    if (obs.statsInterval > 0 && obs.statsOut.empty())
        fatal("--stats-interval requires --stats-out FILE");
    cfg.obs = obs;
    cfg.faults = faults;
    for (const std::string &o : overrides)
        cfg.applyOverride(o);
    return cfg;
}

TraceBundleKey
runKey(const BenchOptions &opts, const SystemConfig &cfg, WorkloadKind kind,
       LogScheme scheme, const WorkloadExtras &extras)
{
    // Reject a bad config before anything is populated or recorded.
    cfg.validate(scheme);
    // Each thread's log area comes out of the heap's log region, and
    // ATOM's wiring carves a second one per core.
    const unsigned areas = opts.threads * (scheme == LogScheme::ATOM ? 2 : 1);
    const std::uint64_t region =
        PersistentHeap::logLimit - PersistentHeap::logBase;
    if (cfg.logging.logAreaBytes > region / areas)
        fatal("logging.logAreaBytes (", cfg.logging.logAreaBytes,
              ") x --threads (", opts.threads, ")",
              scheme == LogScheme::ATOM ? " x 2 under ATOM" : "",
              " exceeds the ", region >> 30, " GiB log region");
    TraceBundleKey key;
    key.kind = kind;
    key.scheme = scheme;
    key.params.threads = opts.threads;
    key.params.scale = opts.scale;
    key.params.initScale = opts.initScale;
    key.params.seed = opts.seed;
    key.params.logAreaBytes = cfg.logging.logAreaBytes;
    key.llOpts = extras.ll;
    key.gen = extras.gen;
    return key;
}

std::string
runFlags(const BenchOptions &opts, WorkloadKind kind,
         const wlgen::GenSpec &gen, const std::string &mid)
{
    std::ostringstream os;
    os << " --seed " << opts.seed << " --threads " << opts.threads
       << " --scale " << opts.scale << " --init-scale " << opts.initScale;
    if (kind == WorkloadKind::Generated)
        os << " --wl-spec " << gen.canonical();
    os << mid;
    if (opts.dram)
        os << " --dram";
    if (opts.faults.enabled())
        os << " --faults " << faults::canonicalFaultSpec(opts.faults);
    // makeConfig applies the faults first and then the overrides in
    // order, wherever the flags stood on the original command line.
    for (const std::string &o : opts.overrides)
        os << " --set " << o;
    return os.str();
}

obs::TxStatsRow
makeTxStatsRow(const TraceBundleKey &key, const RunResult &result)
{
    obs::TxStatsRow row;
    row.scheme = toString(key.scheme);
    row.workload = toString(key.kind);
    row.threads = key.params.threads;
    row.scale = key.params.scale;
    row.initScale = key.params.initScale;
    row.seed = key.params.seed;
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
    const TraceBundleKey key = runKey(opts, cfg, kind, scheme, extras);
    if (opts.check) {
        cfg.analysis.check = true;
        cfg.analysis.repro = checkReproLine(key, opts);
    }
    // Checked runs need the write history so the software schemes arm
    // LogBeforeData too (undo-logged vs. storeInit stores).
    const RunResult result =
        FullSystem(cfg,
                   TraceCache::global().get(key, /*want_history=*/opts.check))
            .run();
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
    if (!cfg.obs.txStats.empty() && result.txStats)
        obs::writeTxStatsFile(cfg.obs.txStats,
                              {makeTxStatsRow(key, result)});
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
