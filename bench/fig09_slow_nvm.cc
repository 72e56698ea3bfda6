/**
 * @file
 * Figure 9: speedup on slow NVMM (write latency 300 ns, read 50 ns),
 * baseline PMEM software logging.
 *
 * Paper anchors: geomeans 1.33 (ATOM), 1.49 (Proteus), 1.53 (ideal);
 * Proteus's advantage grows with write latency.
 */

#include "bench_util.hh"

using namespace proteus;

int
main(int argc, char **argv)
{
    return cli::run([&] {
        BenchOptions opts = BenchOptions::parse(argc, argv);
        // Section 7.1: write tRCD of 240 memory cycles (300 ns at 800 MHz).
        opts.overrides.push_back("mem.nvmWriteTRCD=240");
        std::cout << "Figure 9: speedup on slow NVMM (300 ns writes)\n"
                  << "scale=" << opts.scale << " threads=" << opts.threads
                  << "\n";

        const auto matrix = bench::runMatrix(
            opts,
            {LogScheme::PMEM, LogScheme::ATOM, LogScheme::Proteus,
             LogScheme::PMEMNoLog},
            allPaperWorkloads());

        bench::printSpeedups(matrix, LogScheme::PMEM,
                             "Speedup over PMEM on slow NVM "
                             "(paper Figure 9)");
        return 0;
    });
}
