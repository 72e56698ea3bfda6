#include "check_runner.hh"

#include <fstream>
#include <iomanip>
#include <sstream>

#include "harness/trace_cache.hh"
#include "sim/json_util.hh"
#include "sim/logging.hh"

namespace proteus {

namespace {

std::string
hex(Addr addr)
{
    std::ostringstream os;
    os << "0x" << std::hex << addr;
    return os.str();
}

/** Shared core of runCheck / the mutation campaign. @p mutations_out,
 *  when set, receives the mutator's applied-perturbation count. */
CheckRow
runCheckImpl(LogScheme scheme, WorkloadKind kind,
             const BenchOptions &opts, const WorkloadExtras &extras,
             int mutate_rule, std::uint64_t mutate_seed,
             std::uint64_t *mutations_out)
{
    SystemConfig cfg = opts.makeConfig();
    const TraceBundleKey key = runKey(opts, cfg, kind, scheme, extras);
    cfg.analysis.check = true;
    cfg.analysis.mutateRule = mutate_rule;
    cfg.analysis.mutateSeed = mutate_seed;
    cfg.analysis.repro = checkReproLine(key, opts);

    // The write history distinguishes undo-logged stores from
    // fresh-allocation stores, arming LogBeforeData for the software
    // schemes; always record it on the checking path.
    FullSystem system(cfg,
                      TraceCache::global().get(key, /*want_history=*/true));
    CheckRow row;
    row.scheme = scheme;
    row.kind = kind;
    row.run = system.run();
    if (row.run.check)
        row.outcome = *row.run.check;
    if (mutations_out) {
        *mutations_out =
            system.mutator() ? system.mutator()->mutations() : 0;
    }
    return row;
}

} // namespace

std::string
checkReproLine(const TraceBundleKey &key, const BenchOptions &opts)
{
    std::ostringstream os;
    os << "proteus-check run " << toString(key.kind)
       << " --scheme " << toString(key.scheme)
       << " --seed " << key.params.seed
       << " --threads " << key.params.threads
       << " --scale " << key.params.scale
       << " --init-scale " << key.params.initScale;
    if (key.kind == WorkloadKind::Generated)
        os << " --wl-spec " << key.gen.canonical();
    if (opts.dram)
        os << " --dram";
    if (opts.faults.enabled())
        os << " --faults " << faults::canonicalFaultSpec(opts.faults);
    // makeConfig applies the faults first and then the overrides in
    // order, wherever the flags stood on the original command line.
    for (const std::string &o : opts.overrides)
        os << " --set " << o;
    // Cycle skipping and --jobs are result-invariant by design, so the
    // repro line omits them — and check JSON stays byte-identical
    // across both settings.
    return os.str();
}

std::vector<std::vector<cli::Option>>
checkRunOptions(BenchOptions &opts, std::vector<LogScheme> &schemes)
{
    return {{cli::schemesOption("--scheme", schemes),
             cli::checkMutateOption(opts.checkMutate)},
            cli::sizeOptions(opts.scale, opts.initScale, opts.threads,
                             opts.seed),
            cli::specOptions(opts.wlSpec, opts.wlSpecFile),
            cli::configOptions(opts.dram, opts.overrides),
            cli::machineOptions(opts.cycleSkip, opts.faults),
            cli::batchOptions(opts.jobs, opts.jsonPath)};
}

CheckRow
runCheck(LogScheme scheme, WorkloadKind kind, const BenchOptions &opts,
         const WorkloadExtras &extras)
{
    return runCheckImpl(scheme, kind, opts, extras, /*mutate_rule=*/-1,
                        /*mutate_seed=*/1, nullptr);
}

CheckRow
runCheckOnBundle(std::shared_ptr<const TraceBundle> bundle,
                 const BenchOptions &opts, std::string repro)
{
    if (!bundle)
        fatal("runCheckOnBundle: null trace bundle");
    SystemConfig cfg = opts.makeConfig();
    cfg.analysis.check = true;
    cfg.analysis.repro = std::move(repro);

    FullSystem system(cfg, bundle);
    CheckRow row;
    row.scheme = bundle->key.scheme;
    row.kind = bundle->key.kind;
    row.run = system.run();
    if (row.run.check)
        row.outcome = *row.run.check;
    return row;
}

std::vector<CheckRow>
runCheckBatch(const std::vector<LogScheme> &schemes,
              const std::vector<WorkloadKind> &kinds,
              const BenchOptions &opts, ProgressReporter *progress)
{
    std::vector<std::pair<LogScheme, WorkloadKind>> jobs;
    for (LogScheme scheme : schemes) {
        for (WorkloadKind kind : kinds)
            jobs.emplace_back(scheme, kind);
    }
    WorkloadExtras extras;
    extras.gen = opts.genSpec();
    std::vector<CheckRow> rows(jobs.size());
    std::vector<ParallelRunner::Task> tasks;
    tasks.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto [scheme, kind] = jobs[i];
        std::ostringstream label;
        label << "check " << toString(scheme) << " / "
              << toString(kind);
        tasks.push_back(
            {label.str(), [&rows, &opts, &extras, scheme = scheme,
                           kind = kind, i]() {
                 rows[i] = runCheck(scheme, kind, opts, extras);
             }});
    }
    ParallelRunner runner(opts.jobs);
    runner.runTasks(tasks, progress);
    return rows;
}

std::vector<MutationRow>
runMutationCampaign(LogScheme scheme, WorkloadKind kind,
                    const BenchOptions &opts, std::uint64_t mutate_seed,
                    ProgressReporter *progress)
{
    // The campaign always records the write history (runCheckImpl), so
    // arm the same rule set the checked run will see.
    const auto armed =
        analysis::rulesForScheme(scheme, /*have_history=*/true);
    std::vector<unsigned> targets;
    for (unsigned r = 0; r < analysis::numRules; ++r) {
        if (armed[r])
            targets.push_back(r);
    }

    WorkloadExtras extras;
    extras.gen = opts.genSpec();
    std::vector<MutationRow> rows(targets.size());
    std::vector<ParallelRunner::Task> tasks;
    tasks.reserve(targets.size());
    for (std::size_t i = 0; i < targets.size(); ++i) {
        const unsigned r = targets[i];
        std::ostringstream label;
        label << "mutate " << toString(static_cast<analysis::Rule>(r))
              << " on " << toString(scheme) << " / " << toString(kind);
        tasks.push_back({label.str(), [&rows, &opts, &extras, scheme, kind,
                                       r, mutate_seed, i]() {
            std::uint64_t mutations = 0;
            const CheckRow run = runCheckImpl(
                scheme, kind, opts, extras, static_cast<int>(r),
                mutate_seed, &mutations);
            MutationRow &row = rows[i];
            row.rule = static_cast<analysis::Rule>(r);
            row.violations = run.outcome.rules[r].violations;
            row.fired = row.violations > 0;
            row.mutations = mutations;
        }});
    }
    ParallelRunner runner(opts.jobs);
    runner.runTasks(tasks, progress);
    return rows;
}

std::string
formatCheckReport(const CheckRow &row)
{
    const analysis::CheckOutcome &o = row.outcome;
    std::ostringstream os;
    os << "persistency-order check: " << toString(row.scheme) << " / "
       << toString(row.kind) << "\n";
    if (!o.repro.empty())
        os << "  repro: " << o.repro << "\n";
    os << "  events: " << o.eventsSeen << "\n";
    os << "  " << std::left << std::setw(26) << "rule" << std::setw(8)
       << "armed" << std::setw(14) << "checks" << "violations\n";
    for (unsigned r = 0; r < analysis::numRules; ++r) {
        os << "  " << std::left << std::setw(26)
           << analysis::toString(static_cast<analysis::Rule>(r))
           << std::setw(8) << (o.armed[r] ? "yes" : "no")
           << std::setw(14) << o.rules[r].checks
           << o.rules[r].violations << "\n";
    }
    for (std::size_t i = 0; i < o.violations.size(); ++i) {
        const analysis::Violation &v = o.violations[i];
        os << "  VIOLATION #" << (i + 1) << "  rule="
           << analysis::toString(v.rule) << "  core=" << v.core
           << "  tx=" << v.tx << "\n"
           << "    addr=" << hex(v.addr) << "  store-ordinal="
           << v.ordinal << "  tick=" << v.tick << "\n"
           << "    missing edge: " << v.missingEdge << "\n";
        if (!v.detail.empty())
            os << "    detail: " << v.detail << "\n";
    }
    if (o.pass()) {
        os << "  PASS\n";
    } else {
        os << "  FAIL: " << o.totalViolations << " violation"
           << (o.totalViolations == 1 ? "" : "s") << " ("
           << o.violations.size() << " shown; cap "
           << analysis::reportCap << ")\n";
    }
    return os.str();
}

std::string
formatMutationReport(LogScheme scheme, WorkloadKind kind,
                     const std::vector<MutationRow> &rows)
{
    std::ostringstream os;
    os << "mutation campaign: " << toString(scheme) << " / "
       << toString(kind) << "\n";
    os << "  " << std::left << std::setw(26) << "rule" << std::setw(12)
       << "mutations" << std::setw(14) << "violations" << "verdict\n";
    for (const MutationRow &row : rows) {
        os << "  " << std::left << std::setw(26)
           << analysis::toString(row.rule) << std::setw(12)
           << row.mutations << std::setw(14) << row.violations
           << (row.fired ? "fired" : "MISSED") << "\n";
    }
    os << (allFired(rows)
               ? "  PASS: every armed rule caught its injected "
                 "violation\n"
               : "  FAIL: at least one armed rule missed its injected "
                 "violation\n");
    return os.str();
}

std::string
checkRowsJson(const std::vector<CheckRow> &rows)
{
    std::ostringstream os;
    os << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const CheckRow &row = rows[i];
        const analysis::CheckOutcome &o = row.outcome;
        os << "  {\"scheme\": " << json::quoted(toString(row.scheme))
           << ", \"workload\": \"" << toString(row.kind)
           << "\", \"pass\": " << (o.pass() ? "true" : "false")
           << ", \"events\": " << o.eventsSeen
           << ", \"violations\": " << o.totalViolations
           << ", \"cycles\": " << row.run.cycles
           << ", \"committedTxs\": " << row.run.committedTxs
           << ", \"repro\": " << json::quoted(o.repro)
           << ", \"rules\": [";
        for (unsigned r = 0; r < analysis::numRules; ++r) {
            os << (r ? ", " : "") << "{\"name\": \""
               << analysis::toString(static_cast<analysis::Rule>(r))
               << "\", \"armed\": " << (o.armed[r] ? "true" : "false")
               << ", \"checks\": " << o.rules[r].checks
               << ", \"violations\": " << o.rules[r].violations << "}";
        }
        os << "], \"reports\": [";
        for (std::size_t v = 0; v < o.violations.size(); ++v) {
            const analysis::Violation &viol = o.violations[v];
            os << (v ? ", " : "") << "{\"rule\": \""
               << analysis::toString(viol.rule) << "\", \"core\": "
               << viol.core << ", \"tx\": " << viol.tx
               << ", \"addr\": \"" << hex(viol.addr)
               << "\", \"ordinal\": " << viol.ordinal << ", \"tick\": "
               << viol.tick << ", \"missingEdge\": "
               << json::quoted(viol.missingEdge) << ", \"detail\": "
               << json::quoted(viol.detail) << "}";
        }
        os << "]}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "]\n";
    return os.str();
}

std::string
mutationRowsJson(LogScheme scheme, WorkloadKind kind,
                 std::uint64_t mutate_seed,
                 const std::vector<MutationRow> &rows)
{
    std::ostringstream os;
    os << "{\"scheme\": " << json::quoted(toString(scheme))
       << ", \"workload\": \"" << toString(kind)
       << "\", \"seed\": " << mutate_seed
       << ", \"pass\": " << (allFired(rows) ? "true" : "false")
       << ", \"rules\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const MutationRow &row = rows[i];
        os << "  {\"rule\": \"" << analysis::toString(row.rule)
           << "\", \"fired\": " << (row.fired ? "true" : "false")
           << ", \"mutations\": " << row.mutations
           << ", \"violations\": " << row.violations << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "]}\n";
    return os.str();
}

void
writeJsonFile(const std::string &path, const std::string &json)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open --json output file: ", path);
    os << json;
    if (!os.flush())
        fatal("failed writing --json output file: ", path);
}

bool
allPass(const std::vector<CheckRow> &rows)
{
    for (const CheckRow &row : rows) {
        if (!row.outcome.pass())
            return false;
    }
    return true;
}

bool
allFired(const std::vector<MutationRow> &rows)
{
    for (const MutationRow &row : rows) {
        if (!row.fired)
            return false;
    }
    return true;
}

} // namespace proteus
