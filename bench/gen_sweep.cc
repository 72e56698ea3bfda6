/**
 * @file
 * Generated-workload sweep: skew (Zipfian theta) x transaction size
 * (keys per transaction) x every logging scheme, over one GenSpec
 * base. This is the missing axis of the paper's evaluation — Table 2
 * fixes both the contention profile and the transaction footprint per
 * workload; here each one is a knob.
 *
 *   gen_sweep [--thetas 0,0.5,0.9,0.99] [--tx-keys 1,4,16]
 *             [--wl-spec k=v,...] [--jobs N] [--json FILE]
 *             [--tx-stats FILE] ...
 *
 * Emits BENCH_gen.json (one row per scheme x combo, the workload field
 * carrying the combo) unless --json names another file. Results are
 * bit-identical at any --jobs level.
 */

#include <iostream>

#include "harness/parallel_runner.hh"
#include "sim/logging.hh"
#include "wlgen/spec.hh"

using namespace proteus;

namespace {

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

} // namespace

int
main(int argc, char **argv)
{
    return cli::run([&] {
        BenchOptions opts;
        opts.jsonPath = "BENCH_gen.json";
        std::vector<std::string> thetas{"0", "0.5", "0.9", "0.99"};
        std::vector<std::string> txKeys{"1", "4", "16"};
        opts.optionTable(argv[0])
            .add(cli::specOptions(opts.wlSpec, opts.wlSpecFile))
            .add(axisOption("--thetas", "Zipfian thetas to sweep", thetas))
            .add(axisOption("--tx-keys", "keys per transaction to sweep",
                            txKeys))
            .parse(argc, argv);

        const wlgen::GenSpec base = opts.genSpec();
        const std::vector<LogScheme> schemes = allSchemes();

        // One combo per (theta, keys-per-tx); each parses on top of the
        // base spec so --wl-spec still controls mix/value size/key space.
        struct Combo
        {
            std::string name;       ///< e.g. "gen(t0.9,k4)"
            wlgen::GenSpec spec;
        };
        std::vector<Combo> combos;
        for (const std::string &theta : thetas) {
            for (const std::string &keys : txKeys) {
                const std::string delta =
                    "dist=zipf,theta=" + theta + ",keys=" + keys;
                combos.push_back(
                    Combo{"gen(t" + theta + ",k" + keys + ")",
                          wlgen::GenSpec::parse(delta, base)});
            }
        }

        std::cout << "generated-workload sweep: " << thetas.size()
                  << " thetas x " << txKeys.size() << " tx sizes x "
                  << schemes.size() << " schemes\n"
                  << "base spec: " << base.canonical() << "\n"
                  << "scale=" << opts.scale << " threads=" << opts.threads
                  << "\n\n";

        std::vector<SimJob> jobs;
        jobs.reserve(combos.size() * schemes.size());
        for (const Combo &c : combos) {
            WorkloadExtras extras;
            extras.gen = c.spec;
            for (LogScheme s : schemes)
                jobs.push_back(SimJob{opts.makeConfig(), s,
                                      WorkloadKind::Generated, extras,
                                      c.name + " " + toString(s)});
        }

        // Run directly (not runBatch): the JSON and tx-stats rows
        // must carry the combo name, not the bare "GEN" workload label.
        ParallelRunner runner(opts.jobs);
        ProgressReporter progress(std::cerr);
        const auto results = runner.run(jobs, opts, &progress);

        std::vector<JsonResultRow> rows;
        std::vector<obs::TxStatsRow> tx_rows;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const Combo &c = combos[i / schemes.size()];
            rows.push_back(JsonResultRow{toString(jobs[i].scheme), c.name,
                                         results[i].result,
                                         results[i].wallMs});
            if (!opts.txStats.empty()) {
                const SimJob &job = jobs[i];
                obs::TxStatsRow row = makeTxStatsRow(
                    runKey(opts, job.cfg, job.kind, job.scheme, job.extras),
                    results[i].result);
                row.workload = c.name;
                tx_rows.push_back(row);
            }
        }
        writeJsonResults(opts.jsonPath, rows);
        if (!opts.txStats.empty())
            obs::writeTxStatsFile(opts.txStats, tx_rows);

        std::vector<std::string> cols{"combo"};
        for (LogScheme s : schemes)
            cols.push_back(toString(s));
        TablePrinter cycles(cols);
        std::cout << "cycles per (combo, scheme)\n";
        cycles.printHeader(std::cout);
        bool all_finished = true;
        for (std::size_t c = 0; c < combos.size(); ++c) {
            std::vector<std::string> cells{combos[c].name};
            for (std::size_t s = 0; s < schemes.size(); ++s) {
                const SimJobResult &r = results[c * schemes.size() + s];
                cells.push_back(std::to_string(r.result.cycles));
                all_finished = all_finished && r.result.finished;
            }
            cycles.printRow(std::cout, cells);
        }

        TablePrinter speedup(cols);
        std::cout << "\nspeedup over PMEM\n";
        speedup.printHeader(std::cout);
        for (std::size_t c = 0; c < combos.size(); ++c) {
            const double pmem = static_cast<double>(
                results[c * schemes.size()].result.cycles);
            std::vector<std::string> cells{combos[c].name};
            for (std::size_t s = 0; s < schemes.size(); ++s) {
                const SimJobResult &r = results[c * schemes.size() + s];
                cells.push_back(TablePrinter::fmt(
                    pmem / static_cast<double>(r.result.cycles)));
            }
            speedup.printRow(std::cout, cells);
        }
        std::cout << "\nwrote " << opts.jsonPath << "\n";
        return all_finished ? 0 : 1;
    });
}
