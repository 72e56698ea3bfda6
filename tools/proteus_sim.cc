/**
 * @file
 * proteus-sim: the command-line front end to the simulator.
 *
 *   proteus-sim run    <workload> [options]
 *   proteus-sim replay <file.ptrace> [options]
 *   proteus-sim list
 *
 * Each command accepts exactly the flags its code reads; `proteus-sim
 * <command> --help` lists them (harness/options.hh). Batches are
 * proteus-bench's (fig06 is every scheme x workload), crash campaigns
 * proteus-crashtest's and mutation campaigns proteus-check's.
 */

#include <iostream>
#include <vector>

#include "harness/check_runner.hh"
#include "harness/experiments.hh"
#include "harness/system.hh"
#include "harness/trace_io.hh"
#include "sim/logging.hh"
#include "workloads/registry.hh"

using namespace proteus;

namespace {

/** The flags only proteus-sim reads; BenchOptions holds the rest. */
struct CliExtras
{
    LogScheme scheme = LogScheme::Proteus;
    bool stats = false;
    bool json = false;
};

/** Print @p system's finished run @p r, write its tx-stats row under
 *  its bundle key, and print the check report and the statistics dump
 *  that @p opts and @p extras ask for. @p invariants (if set) is the
 *  workload's verdict, printed before the dump. @return the exit
 *  status: 0 if the run finished and passed. */
int
reportRun(FullSystem &system, const RunResult &r, const BenchOptions &opts,
          const CliExtras &extras, const std::string *invariants)
{
    const TraceBundleKey &key = system.bundle().key;
    std::cout << "finished:           "
              << (r.finished ? "yes" : "NO (cycle limit)") << "\n"
              << "cycles:             " << r.cycles << "\n"
              << "micro-ops retired:  " << r.retiredOps << "\n"
              << "transactions:       " << r.committedTxs << "\n"
              << "NVM writes:         " << r.nvmWrites << "\n"
              << "NVM reads:          " << r.nvmReads << "\n"
              << "log writes dropped: " << r.logWritesDropped << "\n"
              << "frontend stalls:    " << r.frontendStallCycles
              << "\n"
              << "LLT miss rate:      "
              << TablePrinter::fmt(100.0 * r.lltMissRate, 1) << "%\n";
    // Printed only when injection is armed so default output stays
    // byte-identical to a faultless run.
    if (r.faultStats.enabled) {
        const auto &f = r.faultStats;
        std::cout << "media faults:       " << f.tornWrites << " torn, "
                  << f.wornWrites << " worn, " << f.readFaults
                  << " read; ECC " << f.eccCorrected << " corrected / "
                  << f.eccDetected << " detected, " << f.readRetries
                  << " retries (" << f.retriesExhausted
                  << " exhausted), " << f.poisonedLines
                  << " lines poisoned, " << f.silentFaults
                  << " silent\n";
    }
    std::cout << "kernel steps:       " << system.sim().kernelSteps()
              << " (" << system.sim().skippedCycles()
              << " cycles skipped)\n";
    if (!opts.obs.txStats.empty() && r.txStats)
        obs::writeTxStatsFile(opts.obs.txStats, {makeTxStatsRow(key, r)});
    bool ok = r.finished;
    if (opts.check && r.check) {
        std::cout << formatCheckReport(
            CheckRow{key.scheme, key.kind, r, *r.check});
        ok = ok && r.check->pass();
    }
    // The structural invariants hold only for a drained run; an
    // unfinished one gets no verdict, least of all "OK".
    if (invariants) {
        std::cout << "invariants:         "
                  << (!r.finished           ? "not checked (unfinished)"
                      : invariants->empty() ? "OK"
                                            : *invariants)
                  << "\n";
        ok = ok && invariants->empty();
    }
    if (extras.json)
        system.sim().statsRegistry().dumpJson(std::cout);
    else if (extras.stats)
        system.sim().statsRegistry().dump(std::cout);
    return ok ? 0 : 1;
}

int
cmdList()
{
    std::cout << "workloads:\n";
    for (const WorkloadRegistration &reg : workloadRegistry()) {
        std::cout << "  " << reg.abbrev << " / " << reg.cliName << "\n"
                  << "      " << reg.summary << "\n";
        if (*reg.knobs)
            std::cout << "      knobs: " << reg.knobs << "\n";
    }
    std::cout << "\nschemes (Figure 6):\n";
    for (LogScheme s : allSchemes())
        std::cout << "  " << toString(s) << "\n";
    return 0;
}

int
cmdRun(WorkloadKind kind, const CliExtras &extras,
       const BenchOptions &opts)
{
    SystemConfig cfg = opts.makeConfig();
    const TraceBundleKey key = runKey(opts, cfg, kind, extras.scheme,
                                      {LinkedListOptions{}, opts.genSpec()});
    if (opts.check) {
        cfg.analysis.check = true;
        cfg.analysis.repro = checkReproLine(key, opts);
    }

    std::cout << "running " << toString(kind) << " under "
              << toString(extras.scheme) << " (" << opts.threads
              << " cores)...\n";
    // The checker's LogBeforeData rule needs the write history for the
    // software schemes.
    FullSystem system(cfg, TraceBundle::build(key, cfg.analysis.check));
    const RunResult r = system.run();
    const std::string err = system.workload().checkInvariants(
        system.heap().volatileImage());
    return reportRun(system, r, opts, extras, &err);
}

int
cmdReplay(const std::string &path, const CliExtras &extras,
          const BenchOptions &opts)
{
    const auto bundle = loadTraceBundle(path);
    SystemConfig cfg = opts.makeConfig();
    if (opts.check) {
        cfg.analysis.check = true;
        cfg.analysis.repro = "proteus-check replay " + path;
    }

    std::cout << "replaying " << path << " ("
              << bundle->key.describe() << ")...\n";
    FullSystem system(cfg, bundle);
    const RunResult r = system.run();
    // No workload object travels with a snapshot, so structural
    // invariants cannot be checked here; proteus-trace verify covers
    // the file instead.
    return reportRun(system, r, opts, extras, nullptr);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts;
    CliExtras extras;
    using namespace cli;
    const std::vector<Option> dumps{
        flag("--stats", "dump the full statistics registry", extras.stats),
        flag("--json", "dump the statistics registry as JSON",
             extras.json),
    };
    const std::vector<Option> size =
        sizeOptions(opts.scale, opts.initScale, opts.threads, opts.seed);
    const std::vector<Option> spec =
        specOptions(opts.wlSpec, opts.wlSpecFile);
    const std::vector<Option> config = configOptions(opts.dram, opts.overrides);
    const std::vector<Option> machine =
        machineOptions(opts.cycleSkip, opts.faults);
    const std::vector<Option> trace = traceOptions(opts.obs);
    const std::vector<Option> txStats = txStatsOptions(opts.obs);
    const Option check = checkOption(opts.check);

    return dispatch(argc, argv, {
        {"run", {"<workload>"}, "simulate one workload to completion",
         {{schemeOption(extras.scheme), check},
          dumps, size, spec, config, machine, trace, txStats},
         [&](const std::vector<std::string> &args) {
             return cmdRun(parseWorkload(args[0]), extras, opts);
         }},
        {"replay", {"<file>"},
         "simulate a .ptrace trace snapshot (proteus-trace record)",
         {{check}, dumps, config, machine, trace, txStats},
         [&](const std::vector<std::string> &args) {
             return cmdReplay(args[0], extras, opts);
         }},
        {"list", {}, "show every workload with its knobs, and the schemes",
         {},
         [](const std::vector<std::string> &) { return cmdList(); }},
    });
}
