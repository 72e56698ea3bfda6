/**
 * @file
 * Ablation: log write removal (Section 4.3). Compares Proteus with and
 * without LWR on performance, NVM writes, and the disposition of every
 * log entry (dropped at the LPQ vs spilled to NVM).
 */

#include "bench_util.hh"

using namespace proteus;

int
main(int argc, char **argv)
{
    return cli::run([&] {
        BenchOptions opts = BenchOptions::parse(argc, argv);
        std::cout << "Ablation: log write removal on/off\n"
                  << "scale=" << opts.scale << " threads=" << opts.threads
                  << "\n\n";

        const auto workloads = allPaperWorkloads();
        std::vector<SimJob> jobs;
        for (WorkloadKind w : workloads) {
            jobs.push_back(SimJob{opts.makeConfig(), LogScheme::Proteus, w,
                                  {}, bench::jobLabel(LogScheme::Proteus, w)});
            jobs.push_back(SimJob{opts.makeConfig(), LogScheme::ProteusNoLWR,
                                  w,
                                  {},
                                  bench::jobLabel(LogScheme::ProteusNoLWR,
                                                  w)});
        }
        const auto results = bench::runBatch(opts, jobs);

        TablePrinter table({"benchmark", "speedup", "writes x", "dropped"});
        std::cout << "Proteus relative to Proteus+NoLWR\n";
        table.printHeader(std::cout);
        for (std::size_t i = 0; i < workloads.size(); ++i) {
            const RunResult &lwr = results[2 * i].result;
            const RunResult &nolwr = results[2 * i + 1].result;
            table.printRow(
                std::cout,
                {toString(workloads[i]),
                 TablePrinter::fmt(static_cast<double>(nolwr.cycles) /
                                   lwr.cycles),
                 TablePrinter::fmt(static_cast<double>(lwr.nvmWrites) /
                                   nolwr.nvmWrites),
                 std::to_string(lwr.logWritesDropped)});
        }
        std::cout << "\n(The paper reports LWR's performance gain as "
                  << "insignificant but its endurance gain as the point: "
                  << "most log writes never reach NVM.)\n";
        return 0;
    });
}
