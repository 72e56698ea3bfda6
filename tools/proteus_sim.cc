/**
 * @file
 * proteus-sim: the command-line front end to the simulator.
 *
 *   proteus-sim run    <workload> [--scheme S] [--stats] [--json]
 *   proteus-sim replay <file.ptrace> [--stats] [--json]
 *   proteus-sim crash  <workload> [--scheme S] [--at PERCENT]
 *   proteus-sim matrix [--jobs N] [--json FILE]
 *   proteus-sim list
 *
 * plus the shared options every harness binary takes: --scale,
 * --init-scale, --threads, --seed, --dram, --set key=value, and the
 * observability flags --stats-interval/--stats-out/--trace-events/
 * --trace-categories.
 */

#include <cstring>
#include <iostream>
#include <vector>

#include "harness/check_runner.hh"
#include "harness/experiments.hh"
#include "harness/parallel_runner.hh"
#include "harness/system.hh"
#include "harness/trace_io.hh"
#include "recovery/recovery.hh"
#include "sim/logging.hh"
#include "sim/parse_number.hh"
#include "workloads/registry.hh"

using namespace proteus;

namespace {

int
usage()
{
    std::cout
        << "usage: proteus_sim <command> [args]\n\n"
        << "commands:\n"
        << "  run <workload>     simulate one workload to completion\n"
        << "  replay <file>      simulate a .ptrace trace snapshot "
        << "(proteus-trace record)\n"
        << "  crash <workload>   crash partway, recover, validate\n"
        << "  matrix             every scheme x workload, in parallel\n"
        << "  list               show workloads and schemes\n"
        << "  --list-workloads   show every workload with its extra "
        << "knobs\n\n"
        << "options (run/crash):\n"
        << "  --scheme S         pmem | pmem+pcommit | pmem+nolog |\n"
        << "                     atom | proteus | proteus+nolwr\n"
        << "  --at PERCENT       crash point as %% of the full run "
        << "(crash; default 50)\n"
        << "  --stats            dump the full statistics registry\n"
        << "  --json             dump statistics as JSON\n"
        << "  --scale N          divide Table 2 SimOps (default 200)\n"
        << "  --init-scale N     divide Table 2 InitOps (default 1)\n"
        << "  --threads N        simulated cores (default 4)\n"
        << "  --seed N           workload RNG seed\n"
        << "  --dram             DRAM timing (Section 7.2)\n"
        << "  --set k=v          config override\n"
        << "  --no-cycle-skip    tick every cycle instead of skipping "
        << "quiescent spans (same results, slower)\n"
        << "  --check            arm the persistency-order checker "
        << "(see proteus-check);\n"
        << "                     any ordering violation fails the run\n"
        << "  --check-mutate N   seeded mutation campaign (run): every "
        << "armed rule must\n"
        << "                     catch one injected violation\n"
        << "  --faults SPEC      NVM media fault injection: comma list "
        << "of torn=RATE,\n"
        << "                     readflip=RATE, bits=N, endurance=N, "
        << "stuck=N, detect=N,\n"
        << "                     correct=N, retries=N, backoff=N, "
        << "seed=N (default: off)\n"
        << "  --fault-seed N     fault-draw seed (default 1)\n"
        << "  --wl-spec k=v,...  generated-workload spec (workload "
        << "'gen')\n"
        << "  --wl-spec-file F   spec file; --wl-spec overrides on "
        << "top\n\n"
        << "observability (run/crash/matrix):\n"
        << "  --stats-interval N sample scalar-stat deltas every N "
        << "cycles\n"
        << "  --stats-out FILE   interval time series (.json or .csv)\n"
        << "  --trace-events FILE\n"
        << "                     Chrome Trace Event JSON; open in "
        << "Perfetto (ui.perfetto.dev)\n"
        << "  --trace-categories LIST\n"
        << "                     comma list of cpu,memctrl,log,lock,all"
        << " (default all)\n"
        << "  --tx-stats FILE    transaction flight-recorder summary "
        << "(.json or .csv; see proteus-txstats)\n"
        << "  --tx-slowest K     retain full timelines for the K "
        << "slowest transactions (default 8)\n\n"
        << "options (matrix):\n"
        << "  --jobs N           host worker threads (0 = all cores)\n"
        << "  --json FILE        write per-run result rows as JSON\n";
    return 2;
}

/** Options the harness parser does not know about. */
struct CliExtras
{
    LogScheme scheme = LogScheme::Proteus;
    unsigned crashPercent = 50;
    bool stats = false;
    bool json = false;
};

/** Strip CLI-only flags, leaving argv for BenchOptions::parse. */
CliExtras
extractExtras(std::vector<char *> &args)
{
    CliExtras extras;
    for (std::size_t i = 1; i < args.size();) {
        const std::string arg = args[i];
        auto take_value = [&](unsigned count) {
            args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                       args.begin() +
                           static_cast<std::ptrdiff_t>(i + count));
        };
        if (arg == "--scheme" && i + 1 < args.size()) {
            extras.scheme = parseScheme(args[i + 1]);
            take_value(2);
        } else if (arg == "--at" && i + 1 < args.size()) {
            extras.crashPercent =
                parseUnsigned<unsigned>(arg, args[i + 1]);
            take_value(2);
        } else if (arg == "--stats") {
            extras.stats = true;
            take_value(1);
        } else if (arg == "--json") {
            extras.json = true;
            take_value(1);
        } else {
            ++i;
        }
    }
    return extras;
}

void
printSummary(const RunResult &r)
{
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
}

int
cmdList()
{
    std::cout << "workloads:\n";
    for (const WorkloadRegistration &reg : workloadRegistry())
        std::cout << "  " << reg.abbrev << " (" << reg.summary << ")\n";
    std::cout << "\nschemes (Figure 6):\n";
    for (LogScheme s :
         {LogScheme::PMEM, LogScheme::PMEMPCommit,
          LogScheme::PMEMNoLog, LogScheme::ATOM, LogScheme::Proteus,
          LogScheme::ProteusNoLWR}) {
        std::cout << "  " << toString(s) << "\n";
    }
    return 0;
}

int
cmdListWorkloads()
{
    for (const WorkloadRegistration &reg : workloadRegistry()) {
        std::cout << reg.abbrev << " / " << reg.cliName << "\n"
                  << "    " << reg.summary << "\n"
                  << "    knobs: " << reg.knobs << "\n";
    }
    return 0;
}

int
cmdRun(WorkloadKind kind, const CliExtras &extras,
       const BenchOptions &opts)
{
    if (opts.checkMutate >= 0) {
        // Seeded mutation campaign: every armed rule must catch its
        // own injected violation (see tools/proteus-check).
        ProgressReporter progress(std::cerr);
        const auto rows = runMutationCampaign(
            extras.scheme, kind, opts,
            static_cast<std::uint64_t>(opts.checkMutate), &progress);
        std::cout << formatMutationReport(extras.scheme, kind, rows);
        return allFired(rows) ? 0 : 1;
    }

    SystemConfig cfg = opts.makeConfig();
    cfg.logging.scheme = extras.scheme;
    cfg.memCtrl.adr = extras.scheme != LogScheme::PMEMPCommit;
    if (opts.check) {
        cfg.analysis.check = true;
        cfg.analysis.repro = checkReproLine(extras.scheme, kind, opts);
    }

    WorkloadParams params;
    params.threads = opts.threads;
    params.scale = opts.scale;
    params.initScale = opts.initScale;
    params.seed = opts.seed;

    WorkloadExtras wlExtras;
    wlExtras.gen = opts.genSpec();

    std::cout << "running " << toString(kind) << " under "
              << toString(extras.scheme) << " (" << params.threads
              << " cores)...\n";
    FullSystem system(cfg, kind, params, wlExtras);
    const RunResult r = system.run();
    printSummary(r);
    std::cout << "kernel steps:       " << system.sim().kernelSteps()
              << " (" << system.sim().skippedCycles()
              << " cycles skipped)\n";
    if (!cfg.obs.txStats.empty() && r.txStats) {
        obs::writeTxStatsFile(
            cfg.obs.txStats,
            {makeTxStatsRow(opts, extras.scheme, kind, r)});
    }

    bool check_ok = true;
    if (opts.check && r.check) {
        CheckRow row{extras.scheme, kind, r, *r.check};
        std::cout << formatCheckReport(row);
        check_ok = r.check->pass();
    }

    const std::string err = system.workload().checkInvariants(
        system.heap().volatileImage());
    std::cout << "invariants:         "
              << (err.empty() ? "OK" : err) << "\n";
    if (extras.json)
        system.sim().statsRegistry().dumpJson(std::cout);
    else if (extras.stats)
        system.sim().statsRegistry().dump(std::cout);
    return r.finished && err.empty() && check_ok ? 0 : 1;
}

int
cmdReplay(const std::string &path, const CliExtras &extras,
          const BenchOptions &opts)
{
    const auto bundle = loadTraceBundle(path);
    SystemConfig cfg = opts.makeConfig();
    cfg.logging.scheme = bundle->key.scheme;
    cfg.memCtrl.adr = bundle->key.scheme != LogScheme::PMEMPCommit;
    if (cfg.cores < bundle->key.params.threads)
        cfg.cores = bundle->key.params.threads;
    if (opts.check) {
        cfg.analysis.check = true;
        cfg.analysis.repro = "proteus-check replay " + path;
    }

    std::cout << "replaying " << path << " ("
              << bundle->key.describe() << ")...\n";
    FullSystem system(cfg, bundle);
    const RunResult r = system.run();
    printSummary(r);
    std::cout << "kernel steps:       " << system.sim().kernelSteps()
              << " (" << system.sim().skippedCycles()
              << " cycles skipped)\n";
    if (!cfg.obs.txStats.empty() && r.txStats) {
        obs::writeTxStatsFile(cfg.obs.txStats,
                              {makeTxStatsRow(opts, bundle->key.scheme,
                                              bundle->key.kind, r)});
    }
    bool check_ok = true;
    if (opts.check && r.check) {
        CheckRow row{bundle->key.scheme, bundle->key.kind, r, *r.check};
        std::cout << formatCheckReport(row);
        check_ok = r.check->pass();
    }
    // No workload object travels with a snapshot, so structural
    // invariants cannot be checked here — proteus-trace verify covers
    // the file's integrity instead.
    if (extras.json)
        system.sim().statsRegistry().dumpJson(std::cout);
    else if (extras.stats)
        system.sim().statsRegistry().dump(std::cout);
    return r.finished && check_ok ? 0 : 1;
}

int
cmdMatrix(const BenchOptions &opts)
{
    const std::vector<LogScheme> schemes{
        LogScheme::PMEM, LogScheme::PMEMPCommit, LogScheme::PMEMNoLog,
        LogScheme::ATOM, LogScheme::Proteus, LogScheme::ProteusNoLWR};
    const auto workloads = allPaperWorkloads();

    std::vector<SimJob> jobs;
    for (LogScheme s : schemes) {
        for (WorkloadKind w : workloads)
            jobs.push_back(SimJob{opts.makeConfig(), s, w, {},
                                  std::string(toString(s)) + " / " +
                                      toString(w)});
    }

    ParallelRunner runner(opts.jobs);
    std::cout << "running " << jobs.size() << " simulations on "
              << runner.workers() << " host thread(s)...\n";
    ProgressReporter progress(std::cerr);
    const auto results = runner.run(jobs, opts, &progress);

    std::vector<std::string> cols{"scheme"};
    for (WorkloadKind w : workloads)
        cols.push_back(toString(w));
    TablePrinter table(cols);
    std::cout << "\ncycles per (scheme, workload)\n";
    table.printHeader(std::cout);

    std::vector<JsonResultRow> rows;
    std::vector<obs::TxStatsRow> tx_rows;
    std::size_t i = 0;
    bool all_finished = true;
    for (LogScheme s : schemes) {
        std::vector<std::string> cells{toString(s)};
        for (WorkloadKind w : workloads) {
            const SimJobResult &r = results[i++];
            cells.push_back(std::to_string(r.result.cycles));
            all_finished = all_finished && r.result.finished;
            rows.push_back(JsonResultRow{toString(s), toString(w),
                                         r.result, r.wallMs});
            if (!opts.txStats.empty())
                tx_rows.push_back(makeTxStatsRow(opts, s, w, r.result));
        }
        table.printRow(std::cout, cells);
    }
    if (!opts.jsonPath.empty())
        writeJsonResults(opts.jsonPath, rows);
    if (!opts.txStats.empty())
        obs::writeTxStatsFile(opts.txStats, tx_rows);
    return all_finished ? 0 : 1;
}

int
cmdCrash(WorkloadKind kind, const CliExtras &extras,
         const BenchOptions &opts)
{
    SystemConfig cfg = opts.makeConfig();
    cfg.logging.scheme = extras.scheme;
    cfg.memCtrl.adr = extras.scheme != LogScheme::PMEMPCommit;
    if (extras.scheme == LogScheme::PMEMNoLog)
        fatal("pmem+nolog is not failure-safe; nothing to recover");

    WorkloadParams params;
    params.threads = opts.threads;
    params.scale = opts.scale;
    params.initScale = opts.initScale;
    params.seed = opts.seed;

    WorkloadExtras wlExtras;
    wlExtras.gen = opts.genSpec();

    std::cout << "measuring the full run...\n";
    FullSystem full(cfg, kind, params, wlExtras);
    const RunResult complete = full.run();
    const Tick crash_at =
        complete.cycles * extras.crashPercent / 100;

    std::cout << "crashing at cycle " << crash_at << " ("
              << extras.crashPercent << "% of " << complete.cycles
              << ")...\n";
    FullSystem sys(cfg, kind, params, wlExtras);
    sys.runFor(crash_at);
    MemoryImage image = sys.crashImage();

    std::uint64_t committed = 0;
    for (unsigned t = 0; t < sys.coreCount(); ++t)
        committed += sys.core(t).committedTxs().size();
    std::cout << "committed transactions at crash: " << committed
              << "\n";

    for (unsigned t = 0; t < sys.coreCount(); ++t) {
        TraceBuilder &tb = sys.workload().builder(t);
        RecoveryResult rec;
        switch (extras.scheme) {
          case LogScheme::PMEM:
          case LogScheme::PMEMPCommit:
            rec = Recovery::recoverSoftware(image, tb.logAreaStart(),
                                            tb.logAreaEnd(),
                                            tb.logFlagAddr());
            break;
          case LogScheme::ATOM: {
            const auto [start, end] = sys.atomLogArea(t);
            rec = Recovery::recoverAtom(image, start, end);
            break;
          }
          default:
            rec = Recovery::recoverProteus(image, tb.logAreaStart(),
                                           tb.logAreaEnd());
            break;
        }
        std::cout << "  thread " << t << ": "
                  << (rec.didUndo ? "rolled back one transaction"
                                  : "nothing in flight")
                  << " (" << rec.entriesApplied << " entries)\n";
    }

    const std::string err = sys.workload().checkInvariants(image);
    std::cout << "invariants after recovery: "
              << (err.empty() ? "OK" : err) << "\n";
    return err.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    if (command == "list")
        return cmdList();
    if (command == "--list-workloads" || command == "list-workloads")
        return cmdListWorkloads();
    if (command == "--help" || command == "-h")
        return usage();
    if (command == "matrix") {
        try {
            std::vector<char *> args;
            args.push_back(argv[0]);
            for (int i = 2; i < argc; ++i)
                args.push_back(argv[i]);
            return cmdMatrix(BenchOptions::parse(
                static_cast<int>(args.size()), args.data()));
        } catch (const FatalError &e) {
            std::cerr << e.what() << "\n";
            return 1;
        }
    }
    if (command != "run" && command != "crash" && command != "replay") {
        std::cerr << "unknown command: " << command << "\n";
        return usage();
    }
    if (argc < 3) {
        std::cerr << command << " requires a "
                  << (command == "replay" ? "trace file" : "workload")
                  << "\n";
        return usage();
    }

    try {
        std::vector<char *> args;
        args.push_back(argv[0]);
        for (int i = 3; i < argc; ++i)
            args.push_back(argv[i]);
        const CliExtras extras = extractExtras(args);
        const BenchOptions opts = BenchOptions::parse(
            static_cast<int>(args.size()), args.data());
        if (command == "replay")
            return cmdReplay(argv[2], extras, opts);
        const WorkloadKind kind = parseWorkload(argv[2]);
        return command == "run" ? cmdRun(kind, extras, opts)
                                : cmdCrash(kind, extras, opts);
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
}
