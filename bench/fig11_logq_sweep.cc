/**
 * @file
 * Figure 11: Proteus speedup over PMEM while varying the LogQ size
 * from 1 to 64 entries.
 *
 * Paper anchors: speedup grows with LogQ size with diminishing
 * returns; 8 entries reach 1.44x, 64 entries ~1.47x; the paper picks
 * 16 because the 8->16 step matters more on DRAM (run with --dram to
 * reproduce that sensitivity, Section 7.2).
 */

#include "bench_util.hh"

using namespace proteus;

int
main(int argc, char **argv)
{
    return cli::run([&] {
        BenchOptions opts = BenchOptions::parse(argc, argv);
        std::cout << "Figure 11: speedup vs LogQ size (baseline PMEM"
                  << (opts.dram ? ", DRAM timing" : "") << ")\n"
                  << "scale=" << opts.scale << " threads=" << opts.threads
                  << "\n";

        const auto workloads = allPaperWorkloads();
        const std::vector<unsigned> logqs{1u, 2u, 4u, 8u, 16u, 32u, 64u};

        // One batch: per-workload PMEM baselines, then the whole sweep.
        std::vector<SimJob> jobs;
        for (WorkloadKind w : workloads) {
            jobs.push_back(SimJob{opts.makeConfig(), LogScheme::PMEM, w, {},
                                  std::string("baseline PMEM / ") +
                                      toString(w)});
        }
        for (unsigned logq : logqs) {
            for (WorkloadKind w : workloads) {
                SystemConfig cfg = opts.makeConfig();
                cfg.logging.logQEntries = logq;
                jobs.push_back(SimJob{cfg, LogScheme::Proteus, w, {},
                                      "LogQ=" + std::to_string(logq) +
                                          " / " + toString(w)});
            }
        }
        const auto results = bench::runBatch(opts, jobs);

        std::vector<std::string> cols{"LogQ"};
        for (WorkloadKind w : workloads)
            cols.push_back(toString(w));
        cols.push_back("geomean");
        TablePrinter table(cols);
        std::cout << "\nProteus speedup over PMEM (paper Figure 11)\n";
        table.printHeader(std::cout);

        for (std::size_t q = 0; q < logqs.size(); ++q) {
            std::vector<std::string> cells{std::to_string(logqs[q])};
            std::vector<double> speedups;
            for (std::size_t i = 0; i < workloads.size(); ++i) {
                const double base = static_cast<double>(
                    results[i].result.cycles);
                const RunResult &r =
                    results[(q + 1) * workloads.size() + i].result;
                const double s = base / r.cycles;
                speedups.push_back(s);
                cells.push_back(TablePrinter::fmt(s));
            }
            cells.push_back(TablePrinter::fmt(geomean(speedups)));
            table.printRow(std::cout, cells);
        }
        return 0;
    });
}
