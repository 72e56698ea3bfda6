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

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "crashtest/crash_tester.hh"
#include "sim/logging.hh"
#include "sim/parse_number.hh"

using namespace proteus;

namespace {

int
usage()
{
    std::cout
        << "usage: proteus-crashtest [mode] [options]\n\n"
        << "modes (default: --sweep):\n"
        << "  --sweep            crash every totalCycles/N cycles "
        << "(N = --sweep-points)\n"
        << "  --crash-stride N   crash every N cycles\n"
        << "  --crash-at LIST    crash at the given cycles "
        << "(comma-separated)\n"
        << "  --fuzz N           N seeded-random crash points per pair\n\n"
        << "options:\n"
        << "  --schemes LIST     comma list or 'all' (default all):\n"
        << "                     pmem | pmem+pcommit | pmem+nolog |\n"
        << "                     atom | proteus | proteus+nolwr\n"
        << "  --workloads LIST   comma list or 'all' (default all "
        << "paper workloads);\n"
        << "                     'gen' selects the generated workload\n"
        << "  --wl-spec k=v,...  generated-workload spec (workload "
        << "'gen')\n"
        << "  --wl-spec-file F   spec file; --wl-spec overrides on "
        << "top\n"
        << "  --sweep-points N   target points per pair for --sweep "
        << "(default 50)\n"
        << "  --seed N           workload + fuzz seed (default 11)\n"
        << "  --threads N        simulated cores (default 1; byte-exact\n"
        << "                     oracle checking requires 1)\n"
        << "  --scale N          divide Table 2 SimOps (default 250)\n"
        << "  --init-scale N     divide Table 2 InitOps (default 100)\n"
        << "  --jobs J           host worker threads (0 = all cores)\n"
        << "  --json FILE        write per-crash-point rows as JSON\n"
        << "  --max-violations N report at most N bytes per point "
        << "(default 8)\n"
        << "  --no-serialize     skip the committed-prefix replay check\n"
        << "  --check            arm the persistency-order checker on "
        << "each pair's\n"
        << "                     reference run (see proteus-check)\n"
        << "  --no-trace-cache   rebuild traces per run instead of "
        << "sharing cached bundles\n"
        << "  --no-cycle-skip    tick every cycle instead of skipping "
        << "quiescent spans (same results, slower)\n"
        << "  --faults SPEC      NVM media fault injection, e.g.\n"
        << "                     torn=0.01,readflip=1e-4,detect=8,"
        << "correct=1\n"
        << "                     (crash points with detected media loss\n"
        << "                     pass as detected-unrecoverable; silent\n"
        << "                     corruption always fails)\n"
        << "  --fault-seed N     fault-draw seed (default 1)\n"
        << "  --break-recovery   testing hook: skip recovery (expect "
        << "violations)\n";
    return 2;
}

std::vector<std::string>
splitList(const std::string &arg)
{
    std::vector<std::string> out;
    std::stringstream ss(arg);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

std::vector<LogScheme>
parseSchemes(const std::string &arg)
{
    if (arg == "all") {
        return {LogScheme::PMEM,    LogScheme::PMEMPCommit,
                LogScheme::PMEMNoLog, LogScheme::ATOM,
                LogScheme::Proteus, LogScheme::ProteusNoLWR};
    }
    std::vector<LogScheme> out;
    for (const std::string &name : splitList(arg))
        out.push_back(parseScheme(name));
    return out;
}

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
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    CrashTestOptions opts;
    opts.schemes = parseSchemes("all");
    opts.workloads = parseWorkloads("all");
    std::string wlSpec;
    std::string wlSpecFile;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    fatal(arg + " needs a value");
                return argv[++i];
            };
            if (arg == "--sweep") {
                opts.mode = CrashMode::Stride;
                opts.stride = 0;
            } else if (arg == "--sweep-points") {
                opts.autoPoints = parseUnsigned<unsigned>(arg, value());
            } else if (arg == "--crash-stride") {
                opts.mode = CrashMode::Stride;
                opts.stride = parseUnsigned<Tick>(arg, value());
            } else if (arg == "--crash-at") {
                opts.mode = CrashMode::Points;
                opts.points.clear();
                for (const std::string &c : splitList(value()))
                    opts.points.push_back(parseUnsigned<Tick>(arg, c));
            } else if (arg == "--fuzz") {
                opts.mode = CrashMode::Fuzz;
                opts.fuzzCount = parseUnsigned<unsigned>(arg, value());
            } else if (arg == "--schemes") {
                opts.schemes = parseSchemes(value());
            } else if (arg == "--workloads") {
                opts.workloads = parseWorkloads(value());
            } else if (arg == "--wl-spec") {
                wlSpec = value();
            } else if (arg == "--wl-spec-file") {
                wlSpecFile = value();
            } else if (arg == "--seed") {
                opts.seed = parseUnsigned<std::uint64_t>(arg, value());
            } else if (arg == "--threads") {
                opts.threads = parseUnsigned<unsigned>(arg, value());
            } else if (arg == "--scale") {
                opts.scale = parseUnsigned<unsigned>(arg, value());
            } else if (arg == "--init-scale") {
                opts.initScale = parseUnsigned<unsigned>(arg, value());
            } else if (arg == "--jobs") {
                opts.jobs = parseUnsigned<unsigned>(arg, value());
            } else if (arg == "--json") {
                opts.jsonPath = value();
            } else if (arg == "--max-violations") {
                opts.maxViolations =
                    parseUnsigned<std::size_t>(arg, value());
            } else if (arg == "--no-serialize") {
                opts.checkSerialization = false;
            } else if (arg == "--check") {
                opts.check = true;
            } else if (arg == "--no-trace-cache") {
                opts.useTraceCache = false;
            } else if (arg == "--no-cycle-skip") {
                opts.cycleSkip = false;
            } else if (arg == "--faults") {
                opts.faults = faults::parseFaultSpec(value(),
                                                     opts.faults);
            } else if (arg == "--fault-seed") {
                opts.faults.seed =
                    parseUnsigned<std::uint64_t>(arg, value());
            } else if (arg == "--break-recovery") {
                opts.breakRecovery = true;
            } else if (arg == "--help" || arg == "-h") {
                return usage();
            } else {
                std::cerr << "unknown option: " << arg << "\n";
                return usage();
            }
        }

        if (opts.scale == 0)
            fatal("--scale must be >= 1");
        if (opts.initScale == 0)
            fatal("--init-scale must be >= 1");
        if (opts.threads == 0 || opts.threads > 32)
            fatal("--threads must be in [1, 32], got " +
                  std::to_string(opts.threads));
        if (!wlSpecFile.empty())
            opts.gen = wlgen::GenSpec::parseFile(wlSpecFile);
        if (!wlSpec.empty())
            opts.gen = wlgen::GenSpec::parse(wlSpec, opts.gen);

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
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 2;
    } catch (const PanicError &e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
}
