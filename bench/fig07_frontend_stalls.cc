/**
 * @file
 * Figure 7: pipeline front-end stall cycles (dispatch blocked on ROB /
 * physical registers / LSQ / logging hardware), normalized to
 * PMEM+nolog.
 *
 * Paper anchors: ATOM has 16% more stalls than the ideal case and 12%
 * more than Proteus; Proteus is within 4% of the ideal.
 */

#include "bench_util.hh"

using namespace proteus;

int
main(int argc, char **argv)
{
    return cli::run([&] {
        BenchOptions opts = BenchOptions::parse(argc, argv);
        std::cout << "Figure 7: front-end stall cycles normalized to "
                  << "PMEM+nolog\n"
                  << "scale=" << opts.scale << " threads=" << opts.threads
                  << "\n";

        const auto matrix = bench::runMatrix(
            opts,
            {LogScheme::PMEMNoLog, LogScheme::ATOM, LogScheme::Proteus},
            allPaperWorkloads());

        bench::printNormalized(
            matrix, LogScheme::PMEMNoLog,
            [](const RunResult &r) {
                return static_cast<double>(r.frontendStallCycles);
            },
            "Front-end stalls / PMEM+nolog (paper Figure 7)");

        double atom_sum = 0, proteus_sum = 0;
        for (std::size_t i = 0; i < matrix.workloads.size(); ++i) {
            const double base = static_cast<double>(
                matrix.at(LogScheme::PMEMNoLog, i).frontendStallCycles);
            if (base <= 0)
                continue;
            atom_sum +=
                matrix.at(LogScheme::ATOM, i).frontendStallCycles / base;
            proteus_sum +=
                matrix.at(LogScheme::Proteus, i).frontendStallCycles /
                base;
        }
        const double n = static_cast<double>(matrix.workloads.size());
        std::cout << "\nderived:\n"
                  << "  ATOM stalls vs ideal:    +"
                  << TablePrinter::fmt(100.0 * (atom_sum / n - 1.0), 1)
                  << "%  (paper: +16%)\n"
                  << "  Proteus stalls vs ideal: +"
                  << TablePrinter::fmt(100.0 * (proteus_sum / n - 1.0), 1)
                  << "%  (paper: +4%)\n";

        // CPI stack: where commit slots went, as % of total core cycles,
        // aggregated over the Table 2 workloads. Every cycle lands in
        // exactly one bucket, so each row sums to 100%.
        std::cout << "\nCPI stack (% of core cycles; one bucket per "
                  << "commit-slot cycle)\n";
        TablePrinter cpi_table({"scheme", "base", "rob", "iq/lsq", "branch",
                                "persist", "wpq", "lock"});
        cpi_table.printHeader(std::cout);
        for (const auto &[scheme, results] : matrix.results) {
            CpiStack total;
            for (const RunResult &r : results)
                total += r.cpi;
            const double cycles = static_cast<double>(total.total());
            if (cycles <= 0)
                continue;
            auto pct = [&](std::uint64_t v) {
                return TablePrinter::fmt(100.0 * v / cycles, 1);
            };
            cpi_table.printRow(std::cout,
                               {toString(scheme), pct(total.base),
                                pct(total.robFull), pct(total.iqLsqFull),
                                pct(total.branchRedirect),
                                pct(total.persistStall),
                                pct(total.wpqBackpressure),
                                pct(total.lockWait)});
        }
        return 0;
    });
}
