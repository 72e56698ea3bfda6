/**
 * @file
 * proteus-check: the persistency-order checker front end.
 *
 *   proteus-check run <workload|all> [--scheme S|all] [options]
 *   proteus-check replay <file.ptrace> [options]
 *   proteus-check rules [--scheme S]
 *
 * `run` replays the workload through the full timing machine with the
 * online happens-before checker armed and reports every ordering
 * violation crashtest-style (guilty transaction, store ordinal, the
 * missing edge, a one-command repro line). `--check-mutate N` instead
 * runs the seeded mutation campaign: for every rule armed for the
 * scheme, one injected protocol violation that the checker must catch
 * — the CI gate proving the rules are live.
 */

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/rules.hh"
#include "harness/check_runner.hh"
#include "harness/trace_io.hh"
#include "sim/logging.hh"
#include "sim/parse_number.hh"
#include "workloads/registry.hh"

using namespace proteus;

namespace {

int
usage()
{
    std::cout
        << "usage: proteus-check <command> [args]\n\n"
        << "commands:\n"
        << "  run <workload|all>  check one workload (or every paper "
        << "workload)\n"
        << "  replay <file>       check a .ptrace trace snapshot\n"
        << "  rules               print the rule set per scheme\n\n"
        << "options:\n"
        << "  --scheme S|all     pmem | pmem+pcommit | pmem+nolog | "
        << "atom |\n"
        << "                     proteus | proteus+nolwr | all "
        << "(default: all)\n"
        << "  --check-mutate N   seeded mutation campaign: inject one "
        << "violation per\n"
        << "                     armed rule (seed N) and require every "
        << "rule to fire\n"
        << "  --json FILE        deterministic JSON verdict (no "
        << "wall-clock)\n"
        << "  --jobs N           host worker threads (0 = all cores)\n"
        << "  --scale N          divide Table 2 SimOps (default 200)\n"
        << "  --init-scale N     divide Table 2 InitOps (default 1)\n"
        << "  --threads N        simulated cores (default 4)\n"
        << "  --seed N           workload RNG seed\n"
        << "  --dram             DRAM timing (Section 7.2)\n"
        << "  --set k=v          config override\n"
        << "  --no-cycle-skip    tick every cycle (verdicts are "
        << "bit-identical)\n"
        << "  --wl-spec k=v,...  generated-workload spec (workload "
        << "'gen')\n";
    return 2;
}

/** Options BenchOptions::parse does not know about. */
struct CliExtras
{
    std::vector<LogScheme> schemes;     ///< empty = all
    long mutateSeed = -1;               ///< --check-mutate N (-1 = off)
};

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
            if (std::string(args[i + 1]) != "all")
                extras.schemes.push_back(parseScheme(args[i + 1]));
            take_value(2);
        } else if (arg == "--check-mutate" && i + 1 < args.size()) {
            extras.mutateSeed =
                parseUnsigned<std::uint32_t>(arg, args[i + 1]);
            take_value(2);
        } else {
            ++i;
        }
    }
    return extras;
}

std::vector<LogScheme>
allSchemes()
{
    return {LogScheme::PMEM,  LogScheme::PMEMPCommit,
            LogScheme::PMEMNoLog, LogScheme::ATOM,
            LogScheme::Proteus,   LogScheme::ProteusNoLWR};
}

int
cmdRules(const CliExtras &extras)
{
    const auto schemes =
        extras.schemes.empty() ? allSchemes() : extras.schemes;
    std::cout << "rules:\n";
    for (unsigned r = 0; r < analysis::numRules; ++r) {
        const auto rule = static_cast<analysis::Rule>(r);
        std::cout << "  " << analysis::toString(rule) << ": "
                  << analysis::describe(rule) << "\n";
    }
    std::cout << "\narmed per scheme (with a recorded write history):\n";
    for (LogScheme s : schemes) {
        const bool adr = s != LogScheme::PMEMPCommit;
        const auto armed = analysis::rulesForScheme(s, adr, true);
        std::cout << "  " << toString(s) << ":";
        for (unsigned r = 0; r < analysis::numRules; ++r) {
            if (armed[r]) {
                std::cout << " "
                          << analysis::toString(
                                 static_cast<analysis::Rule>(r));
            }
        }
        std::cout << "\n";
    }
    return 0;
}

int
cmdRun(const std::vector<WorkloadKind> &kinds, const CliExtras &extras,
       const BenchOptions &opts)
{
    const auto schemes =
        extras.schemes.empty() ? allSchemes() : extras.schemes;

    if (extras.mutateSeed >= 0) {
        // Mutation campaign: every (scheme, workload) pair must catch
        // every armed rule's injected violation.
        bool all_ok = true;
        std::string json;
        for (LogScheme scheme : schemes) {
            for (WorkloadKind kind : kinds) {
                ProgressReporter progress(std::cerr);
                const auto rows = runMutationCampaign(
                    scheme, kind, opts,
                    static_cast<std::uint64_t>(extras.mutateSeed),
                    &progress);
                std::cout << formatMutationReport(scheme, kind, rows);
                json += mutationRowsJson(
                    scheme, kind,
                    static_cast<std::uint64_t>(extras.mutateSeed),
                    rows);
                all_ok = all_ok && allFired(rows);
            }
        }
        if (!opts.jsonPath.empty())
            writeJsonFile(opts.jsonPath, json);
        return all_ok ? 0 : 1;
    }

    ProgressReporter progress(std::cerr);
    const auto rows = runCheckBatch(schemes, kinds, opts, &progress);
    for (const CheckRow &row : rows)
        std::cout << formatCheckReport(row);
    if (!opts.jsonPath.empty())
        writeJsonFile(opts.jsonPath, checkRowsJson(rows));
    return allPass(rows) ? 0 : 1;
}

int
cmdReplay(const std::string &path, const BenchOptions &opts)
{
    const auto bundle = loadTraceBundle(path);
    const CheckRow row = runCheckOnBundle(
        bundle, opts, "proteus-check replay " + path);
    std::cout << formatCheckReport(row);
    if (!opts.jsonPath.empty())
        writeJsonFile(opts.jsonPath, checkRowsJson({row}));
    return row.outcome.pass() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    if (command == "--help" || command == "-h")
        return usage();
    if (command != "run" && command != "replay" && command != "rules") {
        std::cerr << "unknown command: " << command << "\n";
        return usage();
    }
    const bool takes_operand = command != "rules";
    if (takes_operand && argc < 3) {
        std::cerr << command << " requires a "
                  << (command == "replay" ? "trace file" : "workload")
                  << "\n";
        return usage();
    }

    try {
        std::vector<char *> args;
        args.push_back(argv[0]);
        for (int i = takes_operand ? 3 : 2; i < argc; ++i)
            args.push_back(argv[i]);
        const CliExtras extras = extractExtras(args);
        const BenchOptions opts = BenchOptions::parse(
            static_cast<int>(args.size()), args.data());
        if (command == "rules")
            return cmdRules(extras);
        if (command == "replay")
            return cmdReplay(argv[2], opts);
        const std::string operand = argv[2];
        const std::vector<WorkloadKind> kinds =
            operand == "all" ? allPaperWorkloads()
                             : std::vector<WorkloadKind>{
                                   parseWorkload(operand)};
        return cmdRun(kinds, extras, opts);
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
}
