/**
 * @file
 * Table 4: LLT miss rate per benchmark with the 64-entry, 8-way LLT.
 *
 * Paper anchors: AT 37.2, BT 36.1, HM 39.2, RT 51.6, SS 24.5,
 * QE 22.5 (percent). Higher miss rate = more log entries per
 * transaction; the LLT absorbs half to three quarters of logging
 * traffic.
 */

#include "bench_util.hh"

using namespace proteus;

int
main(int argc, char **argv)
{
    return cli::run([&] {
        BenchOptions opts = BenchOptions::parse(argc, argv);
        std::cout << "Table 4: LLT miss rate (64 entries, 8-way)\n"
                  << "scale=" << opts.scale << " threads=" << opts.threads
                  << "\n\n";

        const std::map<std::string, double> paper = {
            {"AT", 37.2}, {"BT", 36.1}, {"HM", 39.2},
            {"RT", 51.6}, {"SS", 24.5}, {"QE", 22.5}};

        const auto workloads = allPaperWorkloads();
        std::vector<SimJob> jobs;
        for (WorkloadKind w : workloads) {
            jobs.push_back(SimJob{opts.makeConfig(), LogScheme::Proteus, w,
                                  {}, toString(w)});
        }
        const auto results = bench::runBatch(opts, jobs);

        TablePrinter table({"benchmark", "miss rate", "paper"});
        table.printHeader(std::cout);
        for (std::size_t i = 0; i < workloads.size(); ++i) {
            const RunResult &r = results[i].result;
            table.printRow(
                std::cout,
                {toString(workloads[i]),
                 TablePrinter::fmt(100.0 * r.lltMissRate, 1) + "%",
                 TablePrinter::fmt(paper.at(toString(workloads[i])), 1) +
                     "%"});
        }
        return 0;
    });
}
