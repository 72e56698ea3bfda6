/**
 * @file
 * Table 3: speedups for large transactions — the linked-list
 * microbenchmark updates 1024..8192 elements per node in a single
 * durable transaction.
 *
 * Paper anchors: Proteus 1.20-1.24 vs ideal 1.23-1.27 over PMEM; the
 * LogQ/LLT/LPQ sustain transactions with 20-156x more log entries.
 */

#include "bench_util.hh"

using namespace proteus;

int
main(int argc, char **argv)
{
    return cli::run([&] {
        BenchOptions opts = BenchOptions::parse(argc, argv);
        std::cout << "Table 3: speedups for large transactions "
                  << "(linked-list microbenchmark)\n"
                  << "scale=" << opts.scale << " threads=" << opts.threads
                  << "\n\n";

        TablePrinter table({"tx size", "Proteus", "ideal",
                            "LLT miss", "dropped"});
        table.printHeader(std::cout);

        const std::vector<unsigned> sizes{1024u, 2048u, 4096u, 8192u};
        const std::vector<LogScheme> schemes{
            LogScheme::PMEM, LogScheme::Proteus, LogScheme::PMEMNoLog};

        std::vector<SimJob> jobs;
        for (unsigned elements : sizes) {
            WorkloadExtras extras;
            extras.ll.elementsPerNode = elements;
            for (LogScheme s : schemes) {
                jobs.push_back(SimJob{opts.makeConfig(), s,
                                      WorkloadKind::LinkedList, extras,
                                      "elements=" +
                                          std::to_string(elements) + " " +
                                          toString(s)});
            }
        }
        const auto results = bench::runBatch(opts, jobs);

        for (std::size_t i = 0; i < sizes.size(); ++i) {
            const double base = static_cast<double>(
                results[i * schemes.size()].result.cycles);
            const RunResult &proteus = results[i * schemes.size() + 1].result;
            const RunResult &ideal = results[i * schemes.size() + 2].result;

            table.printRow(
                std::cout,
                {std::to_string(sizes[i]),
                 TablePrinter::fmt(base / proteus.cycles),
                 TablePrinter::fmt(base / ideal.cycles),
                 TablePrinter::fmt(100.0 * proteus.lltMissRate, 1) + "%",
                 std::to_string(proteus.logWritesDropped)});
        }
        return 0;
    });
}
