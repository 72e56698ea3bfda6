/**
 * @file
 * Fault-injection sweep: throughput degradation and corruption
 * detection across a fault-rate x scheme x workload matrix, with a
 * crash-testing campaign composed on top of every faulty cell.
 *
 * Three fault tiers (plus the fault-free baseline) run every logging
 * scheme over two workloads. For each cell the sweep reports the
 * slowdown versus the fault-free run (ECC retries occupy real queue
 * cycles) and the media/ECC counters, then replays the same fault
 * configuration under crash injection: detected-unrecoverable losses
 * are acceptable, but the undetected-corruption count across the whole
 * matrix must be zero — the ECC detect strength used here (detect=8)
 * is chosen so no injected fault can escape detection.
 *
 * Emits BENCH_faults.json (default; --out FILE) for CI tracking.
 */

#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <vector>

#include "crashtest/crash_tester.hh"
#include "faults/fault_config.hh"
#include "harness/parallel_runner.hh"
#include "sim/json_util.hh"
#include "sim/logging.hh"

using namespace proteus;

namespace {

/** One named fault intensity; spec "" is the fault-free baseline. */
struct FaultTier
{
    const char *name;
    const char *spec;
};

constexpr FaultTier tiers[] = {
    {"off", ""},
    {"low", "torn=0.001,readflip=0.001,detect=8,correct=1"},
    {"mid", "torn=0.01,readflip=0.01,detect=8,correct=1"},
    {"high",
     "torn=0.05,readflip=0.05,endurance=400,stuck=2,detect=8,correct=1"},
};

/** Crash-campaign outcome of one (scheme, workload) cell. */
struct CrashCell
{
    std::uint64_t crashPoints = 0;
    std::uint64_t silentCorruption = 0;     ///< must stay 0
    std::uint64_t detectedUnrecoverable = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    return cli::run([&] {
        BenchOptions opts;
        std::string outPath = "BENCH_faults.json";
        opts.optionTable(argv[0])
            .add(cli::text("--out", "FILE", "sweep results as JSON",
                           outPath))
            .parse(argc, argv);

        const std::vector<LogScheme> schemes = allSchemes();
        const std::vector<WorkloadKind> workloads{WorkloadKind::Queue,
                                                  WorkloadKind::HashMap};

        std::cout << "Fault-injection sweep: " << std::size(tiers)
                  << " tiers x " << schemes.size() << " schemes x "
                  << workloads.size() << " workloads\n"
                  << "scale=" << opts.scale << " threads=" << opts.threads
                  << " fault-seed=" << opts.faults.seed << "\n";

        // Timing runs: one batch over the full matrix; each job carries its
        // tier's fault config (the batch is bit-identical at any --jobs).
        std::vector<SimJob> jobs;
        for (const FaultTier &tier : tiers) {
            for (LogScheme s : schemes) {
                for (WorkloadKind w : workloads) {
                    SystemConfig cfg = opts.makeConfig();
                    if (*tier.spec) {
                        cfg.faults = faults::parseFaultSpec(tier.spec,
                                                            opts.faults);
                    }
                    jobs.push_back(SimJob{cfg, s, w, {},
                                          std::string(tier.name) + " / " +
                                              jobLabel(s, w)});
                }
            }
        }
        const auto outcomes = runBatch(opts, jobs);

        // Crash campaigns: every faulty tier, all schemes x workloads,
        // byte-exact oracle checking (threads=1 by requirement).
        std::map<std::string, std::map<std::pair<std::string, std::string>,
                                       CrashCell>>
            crashCells;
        std::uint64_t undetected = 0;
        for (const FaultTier &tier : tiers) {
            if (!*tier.spec)
                continue;
            CrashTestOptions ct = crashTestOptionsFor(opts);
            ct.schemes = schemes;
            ct.workloads = workloads;
            ct.autoPoints = 5;
            ct.faults = faults::parseFaultSpec(tier.spec, opts.faults);
            std::ostringstream progress;
            const CrashTestSummary summary = runCrashTests(ct, progress);
            for (const CrashPairResult &pair : summary.pairs) {
                CrashCell cell;
                cell.crashPoints = pair.points.size();
                cell.silentCorruption = pair.violations;
                cell.detectedUnrecoverable = pair.detectedUnrecoverable;
                crashCells[tier.name][{toString(pair.scheme),
                                       toString(pair.workload)}] = cell;
            }
            undetected += summary.violations;
            std::cout << "crashtest tier " << tier.name << ": "
                      << summary.crashPoints << " points, "
                      << summary.violations << " silent, "
                      << summary.detectedUnrecoverable
                      << " detected-unrecoverable\n";
            if (!summary.ok)
                std::cout << progress.str();
        }

        // Sum silent (ECC-missed) faults from the timing runs too: the
        // sweep's detect strength must make them impossible.
        for (const auto &outcome : outcomes) {
            if (outcome.result.faultStats.enabled)
                undetected += outcome.result.faultStats.silentFaults;
        }

        // Baseline cycles per (scheme, workload) for the slowdown column.
        std::map<std::pair<std::string, std::string>, double> baseCycles;
        std::size_t job = 0;
        for (const FaultTier &tier : tiers) {
            if (*tier.spec) {
                job += schemes.size() * workloads.size();
                continue;
            }
            for (LogScheme s : schemes) {
                for (WorkloadKind w : workloads) {
                    baseCycles[{toString(s), toString(w)}] =
                        static_cast<double>(outcomes[job].result.cycles);
                    ++job;
                }
            }
        }

        std::ofstream os(outPath);
        if (!os)
            fatal("cannot open --out file: ", outPath);
        os << "{\"benchmark\": \"fault_sweep\", \"scale\": " << opts.scale
           << ", \"threads\": " << opts.threads
           << ", \"seed\": " << opts.seed
           << ", \"faultSeed\": " << opts.faults.seed
           << ", \"undetectedCorruption\": " << undetected
           << ", \"rows\": [\n";

        TablePrinter table({"tier / scheme", "workload", "slowdown",
                            "detected", "retries", "silent", "crash-ok"});
        table.printHeader(std::cout);

        job = 0;
        bool firstRow = true;
        for (const FaultTier &tier : tiers) {
            for (LogScheme s : schemes) {
                for (WorkloadKind w : workloads) {
                    const RunResult &r = outcomes[job].result;
                    const double base =
                        baseCycles[{toString(s), toString(w)}];
                    const double slowdown =
                        base > 0 ? static_cast<double>(r.cycles) / base
                                 : 0.0;
                    CrashCell cell;
                    if (*tier.spec) {
                        cell = crashCells[tier.name][{toString(s),
                                                      toString(w)}];
                    }

                    if (!firstRow)
                        os << ",\n";
                    firstRow = false;
                    os << "  {\"tier\": " << json::quoted(tier.name)
                       << ", \"scheme\": " << json::quoted(toString(s))
                       << ", \"workload\": " << json::quoted(toString(w))
                       << ", \"faults\": " << json::quoted(tier.spec)
                       << ", \"cycles\": " << r.cycles
                       << ", \"slowdown\": " << std::fixed
                       << std::setprecision(4) << slowdown
                       << std::defaultfloat
                       << ", \"tornWrites\": " << r.faultStats.tornWrites
                       << ", \"wornWrites\": " << r.faultStats.wornWrites
                       << ", \"eccCorrected\": " << r.faultStats.eccCorrected
                       << ", \"eccDetected\": " << r.faultStats.eccDetected
                       << ", \"silentFaults\": " << r.faultStats.silentFaults
                       << ", \"readRetries\": " << r.faultStats.readRetries
                       << ", \"retriesExhausted\": "
                       << r.faultStats.retriesExhausted
                       << ", \"poisonedLines\": "
                       << r.faultStats.poisonedLines
                       << ", \"crashPoints\": " << cell.crashPoints
                       << ", \"silentCorruption\": " << cell.silentCorruption
                       << ", \"detectedUnrecoverable\": "
                       << cell.detectedUnrecoverable << "}";

                    table.printRow(
                        std::cout,
                        {std::string(tier.name) + " / " + toString(s),
                         toString(w), TablePrinter::fmt(slowdown, 3),
                         std::to_string(r.faultStats.eccDetected),
                         std::to_string(r.faultStats.readRetries),
                         std::to_string(r.faultStats.silentFaults),
                         *tier.spec
                             ? std::to_string(cell.crashPoints -
                                              cell.silentCorruption) +
                                   "/" + std::to_string(cell.crashPoints)
                             : "-"});
                    ++job;
                }
            }
        }
        os << "\n]}\n";
        if (!os.flush())
            fatal("failed writing --out file: ", outPath);

        std::cout << "\nundetected corruption: " << undetected
                  << " (must be 0) -> " << outPath << "\n";
        return undetected == 0 ? 0 : 1;
    });
}
