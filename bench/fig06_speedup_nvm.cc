/**
 * @file
 * Figure 6: speedup on NVMM for every logging scheme, with software
 * logging (PMEM, ADR, no pcommit) as the baseline.
 *
 * Paper anchors: PMEM+pcommit 0.79, ATOM 1.33, Proteus 1.46,
 * PMEM+nolog 1.51 (geomean); Proteus within 3.3% of the ideal;
 * BT nolog up to 2.98x.
 */

#include "bench_util.hh"

using namespace proteus;

int
main(int argc, char **argv)
{
    return cli::run([&] {
        BenchOptions opts = BenchOptions::parse(argc, argv);
        std::cout << "Figure 6: speedup on NVMM (baseline: PMEM software "
                  << "logging, ADR)\n"
                  << "scale=" << opts.scale << " threads=" << opts.threads
                  << "\n";

        const auto matrix = bench::runMatrix(
            opts,
            {LogScheme::PMEM, LogScheme::PMEMPCommit, LogScheme::ATOM,
             LogScheme::Proteus, LogScheme::ProteusNoLWR,
             LogScheme::PMEMNoLog},
            allPaperWorkloads());

        bench::printSpeedups(matrix, LogScheme::PMEM,
                             "Speedup over PMEM (paper Figure 6)");

        // Section 6 headline derived metrics.
        std::vector<double> proteus, ideal, atom;
        for (std::size_t i = 0; i < matrix.workloads.size(); ++i) {
            const double base =
                static_cast<double>(matrix.at(LogScheme::PMEM, i).cycles);
            proteus.push_back(base /
                              matrix.at(LogScheme::Proteus, i).cycles);
            ideal.push_back(base /
                            matrix.at(LogScheme::PMEMNoLog, i).cycles);
            atom.push_back(base / matrix.at(LogScheme::ATOM, i).cycles);
        }
        const double gp = geomean(proteus);
        const double gi = geomean(ideal);
        const double ga = geomean(atom);
        std::cout << "\nderived (Section 6):\n"
                  << "  Proteus vs ideal gap:  "
                  << TablePrinter::fmt(100.0 * (1.0 - gp / gi), 1)
                  << "%  (paper: 3.3%)\n"
                  << "  Proteus vs ATOM:       "
                  << TablePrinter::fmt(100.0 * (gp / ga - 1.0), 1)
                  << "%  (paper: ~10%)\n";
        return 0;
    });
}
