/**
 * @file
 * proteus-crashtest: oracle-checked crash injection and recovery
 * fuzzing across the scheme x workload matrix.
 *
 *   proteus-crashtest --sweep [--sweep-points N] [--jobs J] ...
 *   proteus-crashtest --crash-stride N ...
 *   proteus-crashtest --crash-at C1,C2,... ...
 *   proteus-crashtest --fuzz N --seed S ...
 *
 * Every mode is deterministic given --seed, and the JSON output is
 * bit-identical at any --jobs level. Exit status is nonzero when any
 * crash point violates the oracle, a structural invariant, or the
 * committed-prefix replay.
 */

#include <iostream>
#include <string>
#include <vector>

#include "crashtest/crash_tester.hh"
#include "harness/options.hh"
#include "sim/logging.hh"
#include "sim/parse_number.hh"

using namespace proteus;

namespace {

std::vector<WorkloadKind>
parseWorkloads(const std::string &arg)
{
    if (arg == "all") {
        // The six paper workloads plus the linked list (Table 3): crash
        // consistency must hold everywhere, not just where Figure 6
        // reports performance.
        std::vector<WorkloadKind> all = allPaperWorkloads();
        all.push_back(WorkloadKind::LinkedList);
        return all;
    }
    std::vector<WorkloadKind> out;
    for (const std::string &name : splitList(arg))
        out.push_back(parseWorkload(name));
    if (out.empty())
        fatal("--workloads: expected a comma list or 'all', got '", arg,
              "'");
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    return cli::run([&] {
        CrashTestOptions opts;
        opts.schemes = allSchemes();
        opts.workloads = parseWorkloads("all");

        using namespace cli;
        OptionTable(programName(argv[0]) + " [options]",
                    "Crash every (scheme x workload) pair at many points, "
                    "recover, and check the\nimage against the commit "
                    "oracle. The last mode flag wins (default --sweep).")
            .add({"--sweep", "",
                  "crash every totalCycles/N cycles (N = --sweep-points)",
                  "",
                  [&](const std::string &) {
                      opts.mode = CrashMode::Stride;
                      opts.stride = 0;
                  }})
            .add(number("--sweep-points", "N", "target points per pair",
                        opts.autoPoints))
            .add({"--crash-stride", "N", "crash every N cycles", "",
                  [&](const std::string &v) {
                      opts.mode = CrashMode::Stride;
                      opts.stride = parseUnsigned<Tick>("--crash-stride", v);
                  }})
            .add({"--crash-at", "LIST",
                  "crash at the given cycles (comma list)", "",
                  [&](const std::string &v) {
                      opts.mode = CrashMode::Points;
                      opts.points.clear();
                      for (const std::string &c : splitList(v))
                          opts.points.push_back(
                              parseUnsigned<Tick>("--crash-at", c));
                  }})
            .add({"--fuzz", "N", "N seeded-random crash points per pair", "",
                  [&](const std::string &v) {
                      opts.mode = CrashMode::Fuzz;
                      opts.fuzzCount = parseUnsigned<unsigned>("--fuzz", v);
                  }})
            .add(schemesOption("--schemes", opts.schemes))
            .add({"--workloads", "LIST",
                  "comma list of workloads ('gen' = generated), or all: the "
                  "paper's and LL",
                  "all",
                  [&](const std::string &v) {
                      opts.workloads = parseWorkloads(v);
                  }})
            .add(sizeOptions(opts.scale, opts.initScale, opts.threads,
                             opts.seed))
            .add(specOptions(opts.wlSpec, opts.wlSpecFile))
            .add(batchOptions(opts.jobs, opts.jsonPath))
            .add(checkOption(opts.check))
            .add(number("--max-violations", "N",
                        "report at most N bytes per crash point",
                        opts.maxViolations))
            .add(flag("--no-serialize",
                      "skip the committed-prefix replay check",
                      opts.checkSerialization, false))
            .add(configOptions(opts.dram, opts.overrides))
            .add(machineOptions(opts.cycleSkip, opts.faults))
            .add(flag("--break-recovery",
                      "testing hook: skip recovery (expect violations)",
                      opts.breakRecovery))
            .parse(argc, argv);
        opts.gen = opts.genSpec();

        std::cout << "crash-testing " << opts.schemes.size()
                  << " schemes x " << opts.workloads.size()
                  << " workloads (" << toString(opts.mode) << ", seed "
                  << opts.seed << ")\n";
        const CrashTestSummary summary = runCrashTests(opts, std::cout);

        std::cout << summary.crashPoints << " crash points, "
                  << summary.violations << " violations";
        if (opts.faults.enabled())
            std::cout << ", " << summary.detectedUnrecoverable
                      << " detected-unrecoverable";
        if (!opts.jsonPath.empty())
            std::cout << " -> " << opts.jsonPath;
        std::cout << "\n"
                  << (summary.ok ? "CONSISTENT" : "INCONSISTENT")
                  << "\n";
        return summary.ok ? 0 : 1;
    });
}
