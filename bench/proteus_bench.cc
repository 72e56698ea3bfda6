/**
 * @file
 * proteus-bench: the paper's evaluation and the sweeps beyond it, one
 * command per batch.
 *
 *   proteus-bench fig06 .. fig12 [options]     Figures 6-12
 *   proteus-bench table3 | table4 [options]    Tables 3 and 4
 *   proteus-bench ablation-lwr | ablation-llt [options]
 *   proteus-bench all [options]                every one, in table order
 *   proteus-bench gen-sweep [options]          skew x tx size, generated
 *   proteus-bench fault-sweep [options]        media faults x crashes
 *
 * `all` runs the figures, tables and ablations in one process, so each
 * workload is populated and each trace recorded once for the whole
 * suite (TraceCache). Its stdout is the commands' stdouts concatenated.
 * Every command runs on its own copy of the parsed options, so one
 * figure's config change (fig09's slow NVM writes, fig10's DRAM timing)
 * never reaches the next. Every batch goes through runBatch, which
 * names each --json and --tx-stats row after its job: a batch that
 * repeats a (scheme, workload) pair names what it varies ("QE LogQ=4").
 */

#include <algorithm>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "crashtest/crash_tester.hh"
#include "faults/fault_config.hh"
#include "harness/experiments.hh"
#include "harness/parallel_runner.hh"
#include "sim/json_util.hh"
#include "wlgen/spec.hh"

using namespace proteus;

namespace {

/** Results of a (scheme x workload) sweep. */
struct Matrix
{
    std::vector<WorkloadKind> workloads;
    std::map<LogScheme, std::vector<RunResult>> results;

    const RunResult &
    at(LogScheme s, std::size_t w) const
    {
        return results.at(s)[w];
    }
};

/** Run every (scheme, Table 2 workload) pair with shared options as
 *  one batch. Rows print in LogScheme order, not in @p schemes order. */
Matrix
runMatrix(const BenchOptions &opts, const std::vector<LogScheme> &schemes)
{
    const std::vector<WorkloadKind> workloads = allPaperWorkloads();
    std::vector<SimJob> jobs;
    jobs.reserve(schemes.size() * workloads.size());
    for (LogScheme s : schemes) {
        for (WorkloadKind w : workloads)
            jobs.push_back(SimJob{opts.makeConfig(), s, w});
    }
    const auto outcomes = runBatch(opts, jobs);

    Matrix m;
    m.workloads = workloads;
    std::size_t i = 0;
    for (LogScheme s : schemes) {
        for (std::size_t k = 0; k < workloads.size(); ++k)
            m.results[s].push_back(outcomes[i++].result);
    }
    return m;
}

/** The title line and the "scale=N threads=N" line under it. */
void
printTitle(const BenchOptions &opts, const std::string &title)
{
    std::cout << title << "\n"
              << "scale=" << opts.scale << " threads=" << opts.threads
              << "\n";
}

/** A table with columns @p first, the workloads, then @p last. */
TablePrinter
workloadTable(const std::string &first,
              const std::vector<WorkloadKind> &workloads,
              const std::string &last)
{
    std::vector<std::string> cols{first};
    for (WorkloadKind w : workloads)
        cols.push_back(toString(w));
    cols.push_back(last);
    return TablePrinter(cols);
}

/** Print a speedup table: rows = schemes, columns = workloads+geomean,
 *  baseline = @p baseline cycles per workload. */
void
printSpeedups(const Matrix &m, LogScheme baseline, const std::string &title)
{
    const TablePrinter table = workloadTable("scheme", m.workloads, "geomean");
    std::cout << "\n" << title << "\n";
    table.printHeader(std::cout);
    for (const auto &[scheme, results] : m.results) {
        std::vector<std::string> cells{toString(scheme)};
        std::vector<double> speedups;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const double base =
                static_cast<double>(m.at(baseline, i).cycles);
            const double s = base / results[i].cycles;
            speedups.push_back(s);
            cells.push_back(TablePrinter::fmt(s));
        }
        cells.push_back(TablePrinter::fmt(geomean(speedups)));
        table.printRow(std::cout, cells);
    }
}

/** Print a per-workload metric normalized to @p baseline's metric. */
void
printNormalized(const Matrix &m, LogScheme baseline,
                const std::function<double(const RunResult &)> &metric,
                const std::string &title)
{
    const TablePrinter table = workloadTable("scheme", m.workloads, "mean");
    std::cout << "\n" << title << "\n";
    table.printHeader(std::cout);
    for (const auto &[scheme, results] : m.results) {
        std::vector<std::string> cells{toString(scheme)};
        double sum = 0;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const double base = metric(m.at(baseline, i));
            const double v =
                base > 0 ? metric(results[i]) / base : 0.0;
            sum += v;
            cells.push_back(TablePrinter::fmt(v));
        }
        cells.push_back(TablePrinter::fmt(
            sum / static_cast<double>(results.size())));
        table.printRow(std::cout, cells);
    }
}

/**
 * Figs. 11 and 12: Proteus's speedup over per-workload PMEM baselines
 * while one knob, @p knob, sweeps @p values; @p apply sets it in a
 * config. One batch: the baselines, then the whole sweep.
 */
void
printKnobSweep(const BenchOptions &opts, const std::string &knob,
               const std::string &figure,
               const std::vector<unsigned> &values,
               const std::function<void(SystemConfig &, unsigned)> &apply)
{
    const auto workloads = allPaperWorkloads();
    std::vector<SimJob> jobs;
    for (WorkloadKind w : workloads)
        jobs.push_back(SimJob{opts.makeConfig(), LogScheme::PMEM, w});
    for (unsigned v : values) {
        for (WorkloadKind w : workloads) {
            SystemConfig cfg = opts.makeConfig();
            apply(cfg, v);
            jobs.push_back(SimJob{cfg, LogScheme::Proteus, w, {},
                                  std::string(toString(w)) + " " + knob +
                                      "=" + std::to_string(v)});
        }
    }
    const auto results = runBatch(opts, jobs);

    const TablePrinter table = workloadTable(knob, workloads, "geomean");
    std::cout << "\nProteus speedup over PMEM (paper Figure " << figure
              << ")\n";
    table.printHeader(std::cout);
    for (std::size_t q = 0; q < values.size(); ++q) {
        std::vector<std::string> cells{std::to_string(values[q])};
        std::vector<double> speedups;
        for (std::size_t i = 0; i < workloads.size(); ++i) {
            const double base =
                static_cast<double>(results[i].result.cycles);
            const RunResult &r =
                results[(q + 1) * workloads.size() + i].result;
            const double s = base / r.cycles;
            speedups.push_back(s);
            cells.push_back(TablePrinter::fmt(s));
        }
        cells.push_back(TablePrinter::fmt(geomean(speedups)));
        table.printRow(std::cout, cells);
    }
}

/**
 * Figure 6: speedup on NVMM for every logging scheme, with software
 * logging (PMEM, ADR, no pcommit) as the baseline.
 *
 * Paper anchors: PMEM+pcommit 0.79, ATOM 1.33, Proteus 1.46,
 * PMEM+nolog 1.51 (geomean); Proteus within 3.3% of the ideal;
 * BT nolog up to 2.98x.
 */
void
fig06(const BenchOptions &opts)
{
    printTitle(opts, "Figure 6: speedup on NVMM (baseline: PMEM software "
                     "logging, ADR)");
    const auto matrix = runMatrix(
        opts,
        {LogScheme::PMEM, LogScheme::PMEMPCommit, LogScheme::ATOM,
         LogScheme::Proteus, LogScheme::ProteusNoLWR, LogScheme::PMEMNoLog});

    printSpeedups(matrix, LogScheme::PMEM,
                  "Speedup over PMEM (paper Figure 6)");

    // Section 6 headline derived metrics.
    std::vector<double> proteus, ideal, atom;
    for (std::size_t i = 0; i < matrix.workloads.size(); ++i) {
        const double base =
            static_cast<double>(matrix.at(LogScheme::PMEM, i).cycles);
        proteus.push_back(base / matrix.at(LogScheme::Proteus, i).cycles);
        ideal.push_back(base / matrix.at(LogScheme::PMEMNoLog, i).cycles);
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
}

/**
 * Figure 7: pipeline front-end stall cycles (dispatch blocked on ROB /
 * physical registers / LSQ / logging hardware), normalized to
 * PMEM+nolog, and the CPI stack behind them.
 *
 * Paper anchors: ATOM has 16% more stalls than the ideal case and 12%
 * more than Proteus; Proteus is within 4% of the ideal.
 */
void
fig07(const BenchOptions &opts)
{
    printTitle(opts, "Figure 7: front-end stall cycles normalized to "
                     "PMEM+nolog");
    const auto matrix = runMatrix(
        opts, {LogScheme::PMEMNoLog, LogScheme::ATOM, LogScheme::Proteus});

    printNormalized(
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
        atom_sum += matrix.at(LogScheme::ATOM, i).frontendStallCycles / base;
        proteus_sum +=
            matrix.at(LogScheme::Proteus, i).frontendStallCycles / base;
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
}

/**
 * Figure 8: the number of NVMM writes, normalized to PMEM with no
 * logging.
 *
 * Paper anchors: ATOM averages 3.4x (QE > 4x, AT worst at 6x); Proteus
 * stays within 6% of the no-logging write count thanks to log write
 * removal.
 */
void
fig08(const BenchOptions &opts)
{
    printTitle(opts, "Figure 8: NVM writes normalized to PMEM+nolog");
    const auto matrix = runMatrix(
        opts,
        {LogScheme::PMEMNoLog, LogScheme::PMEM, LogScheme::ATOM,
         LogScheme::Proteus, LogScheme::ProteusNoLWR});

    printNormalized(
        matrix, LogScheme::PMEMNoLog,
        [](const RunResult &r) { return static_cast<double>(r.nvmWrites); },
        "NVM writes / PMEM+nolog (paper Figure 8)");

    std::cout << "\nProteus log writes dropped at the LPQ "
              << "(log write removal):\n";
    for (std::size_t i = 0; i < matrix.workloads.size(); ++i) {
        std::cout << "  " << toString(matrix.workloads[i]) << ": "
                  << matrix.at(LogScheme::Proteus, i).logWritesDropped
                  << " dropped\n";
    }
}

/**
 * Figure 9: speedup on slow NVMM (write latency 300 ns, read 50 ns),
 * baseline PMEM software logging.
 *
 * Paper anchors: geomeans 1.33 (ATOM), 1.49 (Proteus), 1.53 (ideal);
 * Proteus's advantage grows with write latency.
 */
void
fig09(const BenchOptions &parsed)
{
    BenchOptions opts = parsed;
    // Section 7.1: write tRCD of 240 memory cycles (300 ns at 800 MHz).
    opts.overrides.push_back("mem.nvmWriteTRCD=240");
    printTitle(opts, "Figure 9: speedup on slow NVMM (300 ns writes)");
    const auto matrix = runMatrix(
        opts,
        {LogScheme::PMEM, LogScheme::ATOM, LogScheme::Proteus,
         LogScheme::PMEMNoLog});
    printSpeedups(matrix, LogScheme::PMEM,
                  "Speedup over PMEM on slow NVM (paper Figure 9)");
}

/**
 * Figure 10: speedup on DRAM timing (battery-backed NVDIMM study),
 * baseline PMEM software logging.
 *
 * Paper anchors: geomeans 1.31 (ATOM), 1.47 (Proteus), 1.52 (ideal).
 */
void
fig10(const BenchOptions &parsed)
{
    BenchOptions opts = parsed;
    opts.dram = true;
    printTitle(opts, "Figure 10: speedup on DRAM (NVDIMM, Section 7.2)");
    const auto matrix = runMatrix(
        opts,
        {LogScheme::PMEM, LogScheme::PMEMPCommit, LogScheme::ATOM,
         LogScheme::Proteus, LogScheme::PMEMNoLog});
    printSpeedups(matrix, LogScheme::PMEM,
                  "Speedup over PMEM on DRAM (paper Figure 10)");
}

/**
 * Figure 11: Proteus speedup over PMEM while the LogQ size varies from
 * 1 to 64 entries.
 *
 * Paper anchors: speedup grows with LogQ size with diminishing
 * returns; 8 entries reach 1.44x, 64 entries ~1.47x; the paper picks
 * 16 because the 8->16 step matters more on DRAM (run with --dram to
 * reproduce that sensitivity, Section 7.2).
 */
void
fig11(const BenchOptions &opts)
{
    printTitle(opts, std::string("Figure 11: speedup vs LogQ size "
                                 "(baseline PMEM") +
                         (opts.dram ? ", DRAM timing" : "") + ")");
    printKnobSweep(opts, "LogQ", "11", {1u, 2u, 4u, 8u, 16u, 32u, 64u},
                   [](SystemConfig &cfg, unsigned logq) {
                       cfg.logging.logQEntries = logq;
                   });
}

/**
 * Figure 12: Proteus speedup over PMEM while the LPQ size varies, with
 * the LogQ fixed at the chosen 16 entries.
 *
 * Paper anchor: performance is flat once the LPQ is large enough for
 * the transaction footprint and drops rapidly below that; the paper
 * selects 256 entries.
 */
void
fig12(const BenchOptions &opts)
{
    printTitle(opts,
               "Figure 12: speedup vs LPQ size (LogQ=16, baseline PMEM)");
    printKnobSweep(opts, "LPQ", "12",
                   {8u, 16u, 32u, 64u, 128u, 256u, 512u},
                   [](SystemConfig &cfg, unsigned lpq) {
                       cfg.logging.logQEntries = 16;
                       cfg.memCtrl.lpqEntries = lpq;
                   });
}

/**
 * Table 3: speedups for large transactions: the linked-list
 * microbenchmark updates 1024..8192 elements per node in a single
 * durable transaction.
 *
 * Paper anchors: Proteus 1.20-1.24 vs ideal 1.23-1.27 over PMEM; the
 * LogQ/LLT/LPQ sustain transactions with 20-156x more log entries.
 */
void
table3(const BenchOptions &opts)
{
    printTitle(opts, "Table 3: speedups for large transactions "
                     "(linked-list microbenchmark)");
    std::cout << "\n";
    TablePrinter table({"tx size", "Proteus", "ideal", "LLT miss",
                        "dropped"});
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
                                  std::string(toString(
                                      WorkloadKind::LinkedList)) +
                                      " elements=" +
                                      std::to_string(elements)});
        }
    }
    const auto results = runBatch(opts, jobs);

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
}

/**
 * Table 4: LLT miss rate per benchmark with the 64-entry, 8-way LLT.
 *
 * Paper anchors: AT 37.2, BT 36.1, HM 39.2, RT 51.6, SS 24.5, QE 22.5
 * (percent). A higher miss rate means more log entries per
 * transaction; the LLT absorbs half to three quarters of the logging
 * traffic.
 */
void
table4(const BenchOptions &opts)
{
    printTitle(opts, "Table 4: LLT miss rate (64 entries, 8-way)");
    std::cout << "\n";
    const std::map<std::string, double> paper = {
        {"AT", 37.2}, {"BT", 36.1}, {"HM", 39.2},
        {"RT", 51.6}, {"SS", 24.5}, {"QE", 22.5}};

    const auto workloads = allPaperWorkloads();
    std::vector<SimJob> jobs;
    for (WorkloadKind w : workloads)
        jobs.push_back(SimJob{opts.makeConfig(), LogScheme::Proteus, w});
    const auto results = runBatch(opts, jobs);

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
}

/**
 * Ablation: log write removal (Section 4.3). Compares Proteus with and
 * without LWR on performance, NVM writes, and the disposition of every
 * log entry (dropped at the LPQ vs spilled to NVM).
 */
void
ablationLwr(const BenchOptions &opts)
{
    printTitle(opts, "Ablation: log write removal on/off");
    std::cout << "\n";
    const auto workloads = allPaperWorkloads();
    std::vector<SimJob> jobs;
    for (WorkloadKind w : workloads) {
        for (LogScheme s : {LogScheme::Proteus, LogScheme::ProteusNoLWR})
            jobs.push_back(SimJob{opts.makeConfig(), s, w});
    }
    const auto results = runBatch(opts, jobs);

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
}

/**
 * Ablation: LLT size (Section 4.2). Sweeps the Log Lookup Table and
 * reports the miss rate and log traffic per size; a larger LLT absorbs
 * more repeated-granule logging.
 */
void
ablationLlt(const BenchOptions &opts)
{
    printTitle(opts, "Ablation: LLT size sweep (8-way)");
    std::cout << "\n";
    const std::vector<unsigned> sizes{8u, 16u, 32u, 64u, 128u, 256u};
    std::vector<SimJob> jobs;
    for (unsigned entries : sizes) {
        SystemConfig cfg = opts.makeConfig();
        cfg.logging.lltEntries = entries;
        cfg.logging.lltWays = std::min(entries, 8u);
        for (WorkloadKind w : {WorkloadKind::Queue, WorkloadKind::RbTree})
            jobs.push_back(SimJob{cfg, LogScheme::Proteus, w, {},
                                  std::string(toString(w)) + " LLT=" +
                                      std::to_string(entries)});
    }
    const auto results = runBatch(opts, jobs);

    TablePrinter table({"LLT", "QE miss", "RT miss", "QE cyc x",
                        "RT cyc x"});
    table.printHeader(std::cout);
    const double qe_base = static_cast<double>(results[0].result.cycles);
    const double rt_base = static_cast<double>(results[1].result.cycles);
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        const RunResult &qe = results[2 * i].result;
        const RunResult &rt = results[2 * i + 1].result;
        table.printRow(std::cout,
                       {std::to_string(sizes[i]),
                        TablePrinter::fmt(100.0 * qe.lltMissRate, 1) + "%",
                        TablePrinter::fmt(100.0 * rt.lltMissRate, 1) + "%",
                        TablePrinter::fmt(qe.cycles / qe_base),
                        TablePrinter::fmt(rt.cycles / rt_base)});
    }
}

/** One command of the suite; `all` runs them in this order. A
 *  command that changes the options changes its own copy. */
struct Experiment
{
    const char *name;
    const char *help;
    void (*run)(const BenchOptions &opts);
};

const Experiment experiments[] = {
    {"fig06", "Fig. 6: speedup on NVMM, every scheme", fig06},
    {"fig07", "Fig. 7: front-end stall cycles and CPI stacks", fig07},
    {"fig08", "Fig. 8: NVM writes", fig08},
    {"fig09", "Fig. 9: speedup on slow NVM (300 ns writes)", fig09},
    {"fig10", "Fig. 10: speedup on DRAM/NVDIMM timing", fig10},
    {"fig11", "Fig. 11: LogQ size sweep (add --dram for Section 7.2)",
     fig11},
    {"fig12", "Fig. 12: LPQ size sweep", fig12},
    {"table3", "Table 3: 1024-8192-element transactions", table3},
    {"table4", "Table 4: LLT miss rates", table4},
    {"ablation-lwr", "log write removal on/off", ablationLwr},
    {"ablation-llt", "LLT size sweep", ablationLlt},
};

/**
 * Generated-workload sweep: skew (Zipfian theta) x transaction size
 * (keys per transaction) x every logging scheme, over one GenSpec base
 * (--wl-spec/--wl-spec-file). This is the missing axis of the paper's
 * evaluation: Table 2 fixes both the contention profile and the
 * transaction footprint per workload; here each one is a knob. Each
 * combo's rows carry its name, e.g. "gen(t0.9,k4)".
 */
void
genSweep(const BenchOptions &opts, const std::vector<std::string> &thetas,
         const std::vector<std::string> &txKeys)
{
    const wlgen::GenSpec base = opts.genSpec();
    const std::vector<LogScheme> schemes = allSchemes();

    // One combo per (theta, keys-per-tx); each parses on top of the base
    // spec so --wl-spec still controls mix/value size/key space.
    std::vector<std::string> combos;
    std::vector<SimJob> jobs;
    for (const std::string &theta : thetas) {
        for (const std::string &keys : txKeys) {
            combos.push_back("gen(t" + theta + ",k" + keys + ")");
            WorkloadExtras extras;
            extras.gen = wlgen::GenSpec::parse(
                "dist=zipf,theta=" + theta + ",keys=" + keys, base);
            for (LogScheme s : schemes)
                jobs.push_back(SimJob{opts.makeConfig(), s,
                                      WorkloadKind::Generated, extras,
                                      combos.back()});
        }
    }

    std::cout << "generated-workload sweep: " << thetas.size()
              << " thetas x " << txKeys.size() << " tx sizes x "
              << schemes.size() << " schemes\n"
              << "base spec: " << base.canonical() << "\n"
              << "scale=" << opts.scale << " threads=" << opts.threads
              << "\n\n";
    const auto results = runBatch(opts, jobs);

    std::vector<std::string> cols{"combo"};
    for (LogScheme s : schemes)
        cols.push_back(toString(s));
    TablePrinter cycles(cols);
    std::cout << "cycles per (combo, scheme)\n";
    cycles.printHeader(std::cout);
    for (std::size_t c = 0; c < combos.size(); ++c) {
        std::vector<std::string> cells{combos[c]};
        for (std::size_t s = 0; s < schemes.size(); ++s)
            cells.push_back(std::to_string(
                results[c * schemes.size() + s].result.cycles));
        cycles.printRow(std::cout, cells);
    }

    TablePrinter speedup(cols);
    std::cout << "\nspeedup over PMEM\n";
    speedup.printHeader(std::cout);
    for (std::size_t c = 0; c < combos.size(); ++c) {
        const double pmem = static_cast<double>(
            results[c * schemes.size()].result.cycles);
        std::vector<std::string> cells{combos[c]};
        for (std::size_t s = 0; s < schemes.size(); ++s)
            cells.push_back(TablePrinter::fmt(
                pmem / static_cast<double>(
                           results[c * schemes.size() + s].result.cycles)));
        speedup.printRow(std::cout, cells);
    }
    if (!opts.jsonPath.empty())
        std::cout << "\nwrote " << opts.jsonPath << "\n";
}

/** One named fault intensity; spec "" is the fault-free baseline. */
struct FaultTier
{
    const char *name;
    const char *spec;
};

constexpr FaultTier faultTiers[] = {
    {"off", ""},
    {"low", "torn=0.001,readflip=0.001,detect=8,correct=1"},
    {"mid", "torn=0.01,readflip=0.01,detect=8,correct=1"},
    {"high",
     "torn=0.05,readflip=0.05,endurance=400,stuck=2,detect=8,correct=1"},
};

/** Crash-campaign outcome of one (scheme, workload) cell. */
struct CrashCell
{
    std::uint64_t crashPoints = 0;
    std::uint64_t silentCorruption = 0;     ///< must stay 0
    std::uint64_t detectedUnrecoverable = 0;
};

/**
 * Fault-injection sweep: throughput degradation and corruption
 * detection across a fault-rate x scheme x workload matrix, with a
 * crash-testing campaign composed on top of every faulty cell.
 *
 * Three fault tiers (plus the fault-free baseline "off") run every
 * logging scheme over two workloads; each timing row is named after its
 * tier ("QE tier=low"). For each cell the sweep reports the slowdown
 * versus the fault-free run (ECC retries occupy real queue cycles) and
 * the media/ECC counters, then replays the same fault configuration
 * under crash injection: detected-unrecoverable losses are acceptable,
 * but the undetected-corruption count across the whole matrix must be
 * zero. The ECC detect strength used here (detect=8) is chosen so no
 * injected fault can escape detection. Writes @p outPath; exits 1 on
 * any undetected corruption.
 */
int
faultSweep(const BenchOptions &opts, const std::string &outPath)
{
    const std::vector<LogScheme> schemes = allSchemes();
    const std::vector<WorkloadKind> workloads{WorkloadKind::Queue,
                                              WorkloadKind::HashMap};

    std::cout << "Fault-injection sweep: " << std::size(faultTiers)
              << " tiers x " << schemes.size() << " schemes x "
              << workloads.size() << " workloads\n"
              << "scale=" << opts.scale << " threads=" << opts.threads
              << " fault-seed=" << opts.faults.seed << "\n";

    // Timing runs: one batch over the full matrix; each job carries its
    // tier's fault config (the batch is bit-identical at any --jobs).
    std::vector<SimJob> jobs;
    for (const FaultTier &tier : faultTiers) {
        for (LogScheme s : schemes) {
            for (WorkloadKind w : workloads) {
                SystemConfig cfg = opts.makeConfig();
                if (*tier.spec)
                    cfg.faults = faults::parseFaultSpec(tier.spec,
                                                        opts.faults);
                jobs.push_back(SimJob{cfg, s, w, {},
                                      std::string(toString(w)) + " tier=" +
                                          tier.name});
            }
        }
    }
    const auto outcomes = runBatch(opts, jobs);

    // Crash campaigns: every faulty tier, all schemes x workloads,
    // byte-exact oracle checking (threads=1 by requirement).
    std::map<std::string,
             std::map<std::pair<std::string, std::string>, CrashCell>>
        crashCells;
    std::uint64_t undetected = 0;
    for (const FaultTier &tier : faultTiers) {
        if (!*tier.spec)
            continue;
        CrashTestOptions ct(opts);
        ct.schemes = schemes;
        ct.workloads = workloads;
        ct.autoPoints = 5;
        ct.faults = faults::parseFaultSpec(tier.spec, opts.faults);
        std::ostringstream progress;
        const CrashTestSummary summary = runCrashTests(ct, progress);
        for (const CrashPairResult &pair : summary.pairs) {
            CrashCell cell;
            cell.crashPoints = pair.points.size();
            cell.silentCorruption = pair.violations;
            cell.detectedUnrecoverable = pair.detectedUnrecoverable;
            crashCells[tier.name][{toString(pair.scheme),
                                   toString(pair.workload)}] = cell;
        }
        undetected += summary.violations;
        std::cout << "crashtest tier " << tier.name << ": "
                  << summary.crashPoints << " points, "
                  << summary.violations << " silent, "
                  << summary.detectedUnrecoverable
                  << " detected-unrecoverable\n";
        if (!summary.ok)
            std::cout << progress.str();
    }

    // Sum silent (ECC-missed) faults from the timing runs too: the
    // sweep's detect strength must make them impossible.
    for (const auto &outcome : outcomes) {
        if (outcome.result.faultStats.enabled)
            undetected += outcome.result.faultStats.silentFaults;
    }

    // Baseline cycles per (scheme, workload) for the slowdown column:
    // the first tier's rows.
    std::map<std::pair<std::string, std::string>, double> baseCycles;
    std::size_t job = 0;
    for (LogScheme s : schemes) {
        for (WorkloadKind w : workloads)
            baseCycles[{toString(s), toString(w)}] =
                static_cast<double>(outcomes[job++].result.cycles);
    }

    std::ofstream os(outPath);
    if (!os)
        fatal("cannot open --out file: ", outPath);
    os << "{\"benchmark\": \"fault_sweep\", \"scale\": " << opts.scale
       << ", \"threads\": " << opts.threads << ", \"seed\": " << opts.seed
       << ", \"faultSeed\": " << opts.faults.seed
       << ", \"undetectedCorruption\": " << undetected
       << ", \"rows\": [\n";

    TablePrinter table({"tier / scheme", "workload", "slowdown",
                        "detected", "retries", "silent", "crash-ok"});
    table.printHeader(std::cout);

    job = 0;
    for (const FaultTier &tier : faultTiers) {
        for (LogScheme s : schemes) {
            for (WorkloadKind w : workloads) {
                const RunResult &r = outcomes[job].result;
                const double base = baseCycles[{toString(s), toString(w)}];
                const double slowdown =
                    base > 0 ? static_cast<double>(r.cycles) / base : 0.0;
                CrashCell cell;
                if (*tier.spec)
                    cell = crashCells[tier.name][{toString(s),
                                                  toString(w)}];

                if (job > 0)
                    os << ",\n";
                os << "  {\"tier\": " << json::quoted(tier.name)
                   << ", \"scheme\": " << json::quoted(toString(s))
                   << ", \"workload\": " << json::quoted(toString(w))
                   << ", \"faults\": " << json::quoted(tier.spec)
                   << ", \"cycles\": " << r.cycles
                   << ", \"slowdown\": " << std::fixed
                   << std::setprecision(4) << slowdown << std::defaultfloat
                   << ", \"tornWrites\": " << r.faultStats.tornWrites
                   << ", \"wornWrites\": " << r.faultStats.wornWrites
                   << ", \"eccCorrected\": " << r.faultStats.eccCorrected
                   << ", \"eccDetected\": " << r.faultStats.eccDetected
                   << ", \"silentFaults\": " << r.faultStats.silentFaults
                   << ", \"readRetries\": " << r.faultStats.readRetries
                   << ", \"retriesExhausted\": "
                   << r.faultStats.retriesExhausted
                   << ", \"poisonedLines\": " << r.faultStats.poisonedLines
                   << ", \"crashPoints\": " << cell.crashPoints
                   << ", \"silentCorruption\": " << cell.silentCorruption
                   << ", \"detectedUnrecoverable\": "
                   << cell.detectedUnrecoverable << "}";

                table.printRow(
                    std::cout,
                    {std::string(tier.name) + " / " + toString(s),
                     toString(w), TablePrinter::fmt(slowdown, 3),
                     std::to_string(r.faultStats.eccDetected),
                     std::to_string(r.faultStats.readRetries),
                     std::to_string(r.faultStats.silentFaults),
                     *tier.spec
                         ? std::to_string(cell.crashPoints -
                                          cell.silentCorruption) +
                               "/" + std::to_string(cell.crashPoints)
                         : "-"});
                ++job;
            }
        }
    }
    os << "\n]}\n";
    if (!os.flush())
        fatal("failed writing --out file: ", outPath);

    std::cout << "\nundetected corruption: " << undetected
              << " (must be 0) -> " << outPath << "\n";
    return undetected == 0 ? 0 : 1;
}

/** A sweep axis: a non-empty comma list of values. */
cli::Option
axisOption(const std::string &flag, std::string help,
           std::vector<std::string> &dst)
{
    std::string dflt;
    for (const std::string &v : dst)
        dflt += (dflt.empty() ? "" : ",") + v;
    return {flag, "LIST", std::move(help), dflt,
            [&dst, flag](const std::string &v) {
                dst = splitList(v);
                if (dst.empty())
                    fatal(flag, ": needs a non-empty comma list");
            }};
}

/** The flags that name or shape one command's output files. Under
 *  `all` eleven commands would write each file in turn, so `all`
 *  rejects them. */
bool
perFileOutput(const cli::Option &o)
{
    static const std::vector<std::string> flags{
        "--json",         "--tx-stats",         "--tx-slowest",
        "--trace-events", "--trace-categories", "--stats-interval",
        "--stats-out"};
    return std::find(flags.begin(), flags.end(), o.flag) != flags.end();
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts;
    const std::vector<std::vector<cli::Option>> groups = opts.optionGroups();

    std::vector<cli::Command> commands;
    for (const Experiment &e : experiments) {
        commands.push_back({e.name, {}, e.help, groups,
                            [&opts, &e](const std::vector<std::string> &) {
                                e.run(opts);
                                return 0;
                            }});
    }
    std::vector<std::vector<cli::Option>> suiteGroups = groups;
    for (std::vector<cli::Option> &group : suiteGroups)
        std::erase_if(group, perFileOutput);
    commands.push_back({"all", {},
                        "every command above in one process, in order",
                        suiteGroups,
                        [&opts](const std::vector<std::string> &) {
                            for (const Experiment &e : experiments)
                                e.run(opts);
                            return 0;
                        }});

    std::vector<std::string> thetas{"0", "0.5", "0.9", "0.99"};
    std::vector<std::string> txKeys{"1", "4", "16"};
    std::vector<std::vector<cli::Option>> genGroups = groups;
    genGroups.push_back(cli::specOptions(opts.wlSpec, opts.wlSpecFile));
    genGroups.push_back(
        {axisOption("--thetas", "Zipfian thetas to sweep", thetas),
         axisOption("--tx-keys", "keys per transaction to sweep", txKeys)});
    commands.push_back({"gen-sweep", {},
                        "generated workload: Zipfian theta x keys per "
                        "transaction x every scheme",
                        genGroups,
                        [&](const std::vector<std::string> &) {
                            genSweep(opts, thetas, txKeys);
                            return 0;
                        }});

    std::string faultOut = "BENCH_faults.json";
    std::vector<std::vector<cli::Option>> faultGroups = groups;
    faultGroups.push_back(
        {cli::text("--out", "FILE", "sweep results as JSON", faultOut)});
    commands.push_back({"fault-sweep", {},
                        "media-fault tiers x every scheme x QE, HM, with "
                        "crash campaigns; exits 1 on undetected corruption",
                        faultGroups,
                        [&](const std::vector<std::string> &) {
                            return faultSweep(opts, faultOut);
                        }});
    return cli::dispatch(argc, argv, commands);
}
