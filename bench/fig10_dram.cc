/**
 * @file
 * Figure 10: speedup on DRAM timing (battery-backed NVDIMM study),
 * baseline PMEM software logging.
 *
 * Paper anchors: geomeans 1.31 (ATOM), 1.47 (Proteus), 1.52 (ideal).
 */

#include "bench_util.hh"

using namespace proteus;

int
main(int argc, char **argv)
{
    return cli::run([&] {
        BenchOptions opts = BenchOptions::parse(argc, argv);
        opts.dram = true;
        std::cout << "Figure 10: speedup on DRAM (NVDIMM, Section 7.2)\n"
                  << "scale=" << opts.scale << " threads=" << opts.threads
                  << "\n";

        const auto matrix = bench::runMatrix(
            opts,
            {LogScheme::PMEM, LogScheme::PMEMPCommit, LogScheme::ATOM,
             LogScheme::Proteus, LogScheme::PMEMNoLog},
            allPaperWorkloads());

        bench::printSpeedups(matrix, LogScheme::PMEM,
                             "Speedup over PMEM on DRAM "
                             "(paper Figure 10)");
        return 0;
    });
}
