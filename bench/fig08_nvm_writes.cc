/**
 * @file
 * Figure 8: the number of NVMM writes, normalized to PMEM with no
 * logging.
 *
 * Paper anchors: ATOM averages 3.4x (QE > 4x, AT worst at 6x);
 * Proteus stays within 6% of the no-logging write count thanks to
 * log write removal.
 */

#include "bench_util.hh"

using namespace proteus;

int
main(int argc, char **argv)
{
    return cli::run([&] {
        BenchOptions opts = BenchOptions::parse(argc, argv);
        std::cout << "Figure 8: NVM writes normalized to PMEM+nolog\n"
                  << "scale=" << opts.scale << " threads=" << opts.threads
                  << "\n";

        const auto matrix = bench::runMatrix(
            opts,
            {LogScheme::PMEMNoLog, LogScheme::PMEM, LogScheme::ATOM,
             LogScheme::Proteus, LogScheme::ProteusNoLWR},
            allPaperWorkloads());

        bench::printNormalized(
            matrix, LogScheme::PMEMNoLog,
            [](const RunResult &r) {
                return static_cast<double>(r.nvmWrites);
            },
            "NVM writes / PMEM+nolog (paper Figure 8)");

        std::cout << "\nProteus log writes dropped at the LPQ "
                  << "(log write removal):\n";
        for (std::size_t i = 0; i < matrix.workloads.size(); ++i) {
            std::cout << "  " << toString(matrix.workloads[i]) << ": "
                      << matrix.at(LogScheme::Proteus, i).logWritesDropped
                      << " dropped\n";
        }
        return 0;
    });
}
