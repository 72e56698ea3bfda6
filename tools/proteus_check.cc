/**
 * @file
 * proteus-check: the persistency-order checker front end.
 *
 *   proteus-check run <workload|all> [options]
 *   proteus-check replay <file.ptrace> [options]
 *   proteus-check rules [--scheme LIST]
 *
 * `run` replays the workload through the full timing machine with the
 * online happens-before checker armed and reports every ordering
 * violation crashtest-style (guilty transaction, store ordinal, the
 * missing edge, a one-command repro line). `--check-mutate N` instead
 * runs the seeded mutation campaign: for every rule armed for the
 * scheme, one injected protocol violation that the checker must catch
 * — the CI gate proving the rules are live.
 */

#include <iostream>
#include <string>
#include <vector>

#include "analysis/rules.hh"
#include "harness/check_runner.hh"
#include "harness/trace_io.hh"
#include "sim/logging.hh"
#include "workloads/registry.hh"

using namespace proteus;

namespace {

int
cmdRules(const std::vector<LogScheme> &schemes)
{
    std::cout << "rules:\n";
    for (unsigned r = 0; r < analysis::numRules; ++r) {
        const auto rule = static_cast<analysis::Rule>(r);
        std::cout << "  " << analysis::toString(rule) << ": "
                  << analysis::describe(rule) << "\n";
    }
    std::cout << "\narmed per scheme (with a recorded write history):\n";
    for (LogScheme s : schemes) {
        const auto armed = analysis::rulesForScheme(s, true);
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
cmdRun(const std::vector<WorkloadKind> &kinds,
       const std::vector<LogScheme> &schemes, const BenchOptions &opts)
{
    if (opts.checkMutate >= 0) {
        // Mutation campaign: every (scheme, workload) pair must catch
        // every armed rule's injected violation.
        bool all_ok = true;
        std::string json;
        for (LogScheme scheme : schemes) {
            for (WorkloadKind kind : kinds) {
                ProgressReporter progress(std::cerr);
                const auto rows = runMutationCampaign(
                    scheme, kind, opts,
                    static_cast<std::uint64_t>(opts.checkMutate),
                    &progress);
                std::cout << formatMutationReport(scheme, kind, rows);
                json += mutationRowsJson(
                    scheme, kind,
                    static_cast<std::uint64_t>(opts.checkMutate),
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
    BenchOptions opts;
    std::vector<LogScheme> schemes = allSchemes();
    using namespace cli;
    const std::vector<Option> config = configOptions(opts.dram, opts.overrides);
    const std::vector<Option> machine =
        machineOptions(opts.cycleSkip, opts.faults);

    return dispatch(argc, argv, {
        {"run", {"<workload|all>"},
         "check one workload, or every paper workload",
         checkRunOptions(opts, schemes),
         [&](const std::vector<std::string> &args) {
             const std::vector<WorkloadKind> kinds =
                 args[0] == "all"
                     ? allPaperWorkloads()
                     : std::vector<WorkloadKind>{parseWorkload(args[0])};
             return cmdRun(kinds, schemes, opts);
         }},
        {"replay", {"<file>"}, "check a .ptrace trace snapshot",
         {config, machine,
          {text("--json", "FILE", "write the verdict as JSON",
                opts.jsonPath)}},
         [&](const std::vector<std::string> &args) {
             return cmdReplay(args[0], opts);
         }},
        {"rules", {}, "print the rule set per scheme",
         {{schemesOption("--scheme", schemes)}},
         [&](const std::vector<std::string> &) {
             return cmdRules(schemes);
         }},
    });
}
