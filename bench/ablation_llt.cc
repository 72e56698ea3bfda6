/**
 * @file
 * Ablation: LLT size (Section 4.2). Sweeps the Log Lookup Table and
 * reports the miss rate and log traffic per size; a larger LLT absorbs
 * more repeated-granule logging.
 */

#include "bench_util.hh"

using namespace proteus;

int
main(int argc, char **argv)
{
    return cli::run([&] {
        BenchOptions opts = BenchOptions::parse(argc, argv);
        std::cout << "Ablation: LLT size sweep (8-way)\n"
                  << "scale=" << opts.scale << " threads=" << opts.threads
                  << "\n\n";

        const std::vector<unsigned> sizes{8u, 16u, 32u, 64u, 128u, 256u};
        std::vector<SimJob> jobs;
        for (unsigned entries : sizes) {
            SystemConfig cfg = opts.makeConfig();
            cfg.logging.lltEntries = entries;
            cfg.logging.lltWays = std::min(entries, 8u);
            jobs.push_back(SimJob{cfg, LogScheme::Proteus,
                                  WorkloadKind::Queue, {},
                                  "LLT=" + std::to_string(entries) + " QE"});
            jobs.push_back(SimJob{cfg, LogScheme::Proteus,
                                  WorkloadKind::RbTree, {},
                                  "LLT=" + std::to_string(entries) + " RT"});
        }
        const auto results = bench::runBatch(opts, jobs);

        TablePrinter table({"LLT", "QE miss", "RT miss", "QE cyc x",
                            "RT cyc x"});
        table.printHeader(std::cout);

        const double qe_base = static_cast<double>(results[0].result.cycles);
        const double rt_base = static_cast<double>(results[1].result.cycles);
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            const RunResult &qe = results[2 * i].result;
            const RunResult &rt = results[2 * i + 1].result;
            table.printRow(
                std::cout,
                {std::to_string(sizes[i]),
                 TablePrinter::fmt(100.0 * qe.lltMissRate, 1) + "%",
                 TablePrinter::fmt(100.0 * rt.lltMissRate, 1) + "%",
                 TablePrinter::fmt(qe.cycles / qe_base),
                 TablePrinter::fmt(rt.cycles / rt_base)});
        }
        return 0;
    });
}
