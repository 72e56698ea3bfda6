/**
 * @file
 * Figure 12: Proteus speedup over PMEM while varying the LPQ size
 * (with the LogQ fixed at the chosen 16 entries).
 *
 * Paper anchor: performance is flat once the LPQ is large enough for
 * the transaction footprint and drops rapidly below that; the paper
 * selects 256 entries.
 */

#include "bench_util.hh"

using namespace proteus;

int
main(int argc, char **argv)
{
    return cli::run([&] {
        BenchOptions opts = BenchOptions::parse(argc, argv);
        std::cout << "Figure 12: speedup vs LPQ size (LogQ=16, baseline "
                  << "PMEM)\n"
                  << "scale=" << opts.scale << " threads=" << opts.threads
                  << "\n";

        const auto workloads = allPaperWorkloads();
        const std::vector<unsigned> lpqs{8u, 16u, 32u, 64u, 128u, 256u,
                                         512u};

        // One batch: per-workload PMEM baselines, then the whole sweep.
        std::vector<SimJob> jobs;
        for (WorkloadKind w : workloads) {
            jobs.push_back(SimJob{opts.makeConfig(), LogScheme::PMEM, w, {},
                                  std::string("baseline PMEM / ") +
                                      toString(w)});
        }
        for (unsigned lpq : lpqs) {
            for (WorkloadKind w : workloads) {
                SystemConfig cfg = opts.makeConfig();
                cfg.logging.logQEntries = 16;
                cfg.memCtrl.lpqEntries = lpq;
                jobs.push_back(SimJob{cfg, LogScheme::Proteus, w, {},
                                      "LPQ=" + std::to_string(lpq) + " / " +
                                          toString(w)});
            }
        }
        const auto results = bench::runBatch(opts, jobs);

        std::vector<std::string> cols{"LPQ"};
        for (WorkloadKind w : workloads)
            cols.push_back(toString(w));
        cols.push_back("geomean");
        TablePrinter table(cols);
        std::cout << "\nProteus speedup over PMEM (paper Figure 12)\n";
        table.printHeader(std::cout);

        for (std::size_t q = 0; q < lpqs.size(); ++q) {
            std::vector<std::string> cells{std::to_string(lpqs[q])};
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
