/**
 * @file
 * proteus-txstats: offline reporting over transaction flight-recorder
 * files (--tx-stats FILE, JSON form).
 *
 *   proteus-txstats report <file.json> [--per-workload]
 *   proteus-txstats diff   <a.json> <b.json>
 *
 * report merges every workload's per-stage histogram into one
 * distribution per (scheme, stage) — the qhist arrays carry the exact
 * HDR percentile state, so merged p50/p95/p99 are computed from the
 * recorded samples, not averaged from per-row percentiles — and prints
 * per-stage latency tables, the per-transaction critical-path
 * attribution, and the CPI cross-check (the recorder's slotTotal
 * buckets must equal the CPI-stack commit-slot counts bucket for
 * bucket; a mismatch means lost or double-counted cycles and fails the
 * command).
 *
 * diff matches rows of two files by (scheme, workload) and prints
 * per-stage percentile deltas, for before/after comparisons across a
 * config or code change. A file with two rows under one key cannot be
 * paired and is rejected.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/options.hh"
#include "obs/json_reader.hh"
#include "obs/tx_tracker.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

using namespace proteus;

namespace {

/** One stage snapshot read back from a tx-stats row. */
struct StageData
{
    std::uint64_t count = 0;
    double sum = 0;
    double max = 0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
    std::vector<std::pair<double, std::uint64_t>> qhist;
};

/** One row of a tx-stats file, decoded. */
struct Row
{
    std::string scheme;
    std::string workload;
    std::uint64_t cycles = 0;
    std::uint64_t committedTxs = 0;
    std::array<std::uint64_t, obs::numTxSlots> cpi{};
    std::array<std::uint64_t, obs::numTxSlots> slotTotal{};
    std::array<std::uint64_t, obs::numTxSlots> critPath{};
    std::array<StageData, obs::numTxStages> stages;
};

std::array<std::uint64_t, obs::numTxSlots>
readSlots(const obs::JsonValue &v)
{
    std::array<std::uint64_t, obs::numTxSlots> out{};
    for (unsigned s = 0; s < obs::numTxSlots; ++s)
        out[s] = v.at(obs::slotKey(static_cast<CommitBucket>(s))).asU64();
    return out;
}

StageData
readStage(const obs::JsonValue &v)
{
    StageData d;
    d.count = v.at("count").asU64();
    d.sum = v.at("sum").asNumber();
    d.max = v.at("max").asNumber();
    d.p50 = v.at("p50").asNumber();
    d.p95 = v.at("p95").asNumber();
    d.p99 = v.at("p99").asNumber();
    for (const obs::JsonValue &pair : v.at("qhist").array) {
        if (pair.array.size() != 2)
            fatal("malformed qhist entry: expected [value, count]");
        d.qhist.emplace_back(pair.array[0].asNumber(),
                             pair.array[1].asU64());
    }
    return d;
}

std::vector<Row>
readRows(const std::string &path)
{
    const obs::JsonValue doc = obs::parseJsonFile(path);
    if (doc.at("version").asU64() != 1)
        fatal(path, ": unsupported tx-stats version");
    std::vector<Row> rows;
    for (const obs::JsonValue &rv : doc.at("rows").array) {
        Row row;
        row.scheme = rv.at("scheme").asString();
        row.workload = rv.at("workload").asString();
        row.cycles = rv.at("cycles").asU64();
        row.committedTxs = rv.at("counters").at("committedTxs").asU64();
        row.cpi = readSlots(rv.at("cpi"));
        row.slotTotal = readSlots(rv.at("slotTotal"));
        row.critPath = readSlots(rv.at("critPath"));
        const obs::JsonValue &stages = rv.at("stages");
        for (unsigned s = 0; s < obs::numTxStages; ++s)
            row.stages[s] = readStage(
                stages.at(obs::toString(static_cast<obs::TxStage>(s))));
        rows.push_back(std::move(row));
    }
    return rows;
}

std::string
fmtCycles(double v)
{
    std::ostringstream os;
    if (v == static_cast<double>(static_cast<std::int64_t>(v)))
        os << static_cast<std::int64_t>(v);
    else
        os << std::fixed << std::setprecision(1) << v;
    return os.str();
}

void
printStageTable(const std::array<StageData, obs::numTxStages> &stages)
{
    std::cout << "  " << std::left << std::setw(22) << "stage"
              << std::right << std::setw(10) << "count"
              << std::setw(12) << "mean" << std::setw(12) << "p50"
              << std::setw(12) << "p95" << std::setw(12) << "p99"
              << std::setw(12) << "max" << "\n";
    for (unsigned s = 0; s < obs::numTxStages; ++s) {
        const StageData &d = stages[s];
        if (d.count == 0)
            continue;
        const double mean = d.sum / static_cast<double>(d.count);
        std::cout << "  " << std::left << std::setw(22)
                  << obs::toString(static_cast<obs::TxStage>(s))
                  << std::right << std::setw(10) << d.count
                  << std::setw(12) << fmtCycles(mean)
                  << std::setw(12) << fmtCycles(d.p50)
                  << std::setw(12) << fmtCycles(d.p95)
                  << std::setw(12) << fmtCycles(d.p99)
                  << std::setw(12) << fmtCycles(d.max) << "\n";
    }
}

/** Merge one stage across rows by replaying the recorded qhists.
 *  quantizeKey is idempotent on qhist keys, so replaying them as
 *  samples reconstructs the exact percentile state of a live merge. */
StageData
mergeStage(const std::vector<const Row *> &rows, unsigned stage)
{
    stats::StatRegistry reg;
    stats::Distribution dist(reg, "merge", "", 0, 16384, 64);
    StageData out;
    for (const Row *row : rows) {
        const StageData &d = row->stages[stage];
        out.count += d.count;
        out.sum += d.sum;
        out.max = std::max(out.max, d.max);
        for (const auto &[value, count] : d.qhist)
            dist.sample(value, count);
    }
    out.p50 = dist.percentile(50);
    out.p95 = dist.percentile(95);
    out.p99 = dist.percentile(99);
    for (const auto &[value, count] : dist.quantized())
        out.qhist.emplace_back(value, count);
    return out;
}

int
cmdReport(const std::string &path, bool per_workload)
{
    const std::vector<Row> rows = readRows(path);
    if (rows.empty()) {
        std::cout << path << ": no rows\n";
        return 0;
    }

    // Group rows per scheme, preserving first-appearance order.
    std::vector<std::string> schemes;
    std::map<std::string, std::vector<const Row *>> byScheme;
    for (const Row &row : rows) {
        if (byScheme.find(row.scheme) == byScheme.end())
            schemes.push_back(row.scheme);
        byScheme[row.scheme].push_back(&row);
    }

    std::cout << path << ": " << rows.size() << " rows, "
              << schemes.size() << " schemes\n";

    bool cpi_ok = true;
    for (const std::string &scheme : schemes) {
        const std::vector<const Row *> &group = byScheme[scheme];
        std::uint64_t txs = 0;
        std::array<std::uint64_t, obs::numTxSlots> crit{};
        for (const Row *row : group) {
            txs += row->committedTxs;
            for (unsigned s = 0; s < obs::numTxSlots; ++s)
                crit[s] += row->critPath[s];
        }

        std::cout << "\n== " << scheme << " (" << group.size()
                  << " workloads, " << txs << " committed txs) ==\n";
        std::array<StageData, obs::numTxStages> merged;
        for (unsigned s = 0; s < obs::numTxStages; ++s)
            merged[s] = mergeStage(group, s);
        printStageTable(merged);

        std::uint64_t crit_total = 0;
        for (std::uint64_t c : crit)
            crit_total += c;
        std::cout << "  critical path:";
        bool first = true;
        for (unsigned s = 0; s < obs::numTxSlots; ++s) {
            if (crit[s] == 0)
                continue;
            std::cout << (first ? " " : ", ")
                      << obs::slotKey(static_cast<CommitBucket>(s))
                      << " " << crit[s];
            if (crit_total) {
                std::cout << " ("
                          << (100 * crit[s] + crit_total / 2) /
                                 crit_total
                          << "%)";
            }
            first = false;
        }
        if (first)
            std::cout << " (none recorded)";
        std::cout << "\n";

        // The recorder's per-bucket commit-slot totals must equal the
        // CPI stack the core accounted independently.
        unsigned bad = 0;
        for (const Row *row : group) {
            for (unsigned s = 0; s < obs::numTxSlots; ++s) {
                if (row->slotTotal[s] != row->cpi[s]) {
                    ++bad;
                    std::cout << "  CPI MISMATCH " << row->workload
                              << " "
                              << obs::slotKey(
                                     static_cast<CommitBucket>(s))
                              << ": slotTotal " << row->slotTotal[s]
                              << " != cpi " << row->cpi[s] << "\n";
                }
            }
        }
        std::cout << "  CPI cross-check: "
                  << (bad == 0 ? "PASS" : "FAIL") << " ("
                  << group.size() << " rows x " << obs::numTxSlots
                  << " buckets)\n";
        cpi_ok = cpi_ok && bad == 0;

        if (per_workload) {
            for (const Row *row : group) {
                std::cout << "\n-- " << scheme << " / " << row->workload
                          << " (" << row->committedTxs << " txs, "
                          << row->cycles << " cycles) --\n";
                printStageTable(row->stages);
            }
        }
    }
    return cpi_ok ? 0 : 1;
}

/** @p rows of @p path by (scheme, workload); a repeated key is
 *  fatal. */
std::map<std::pair<std::string, std::string>, const Row *>
indexRows(const std::string &path, const std::vector<Row> &rows)
{
    std::map<std::pair<std::string, std::string>, const Row *> index;
    for (const Row &row : rows) {
        if (!index.emplace(std::pair{row.scheme, row.workload}, &row).second)
            fatal(path, ": two rows for ", row.scheme, " / ", row.workload,
                  "; diff pairs rows by (scheme, workload)");
    }
    return index;
}

int
cmdDiff(const std::string &path_a, const std::string &path_b)
{
    const std::vector<Row> a = readRows(path_a);
    const std::vector<Row> b = readRows(path_b);
    indexRows(path_a, a);
    const auto index = indexRows(path_b, b);

    auto delta = [](double from, double to) {
        std::ostringstream os;
        os << fmtCycles(from) << " -> " << fmtCycles(to);
        if (from > 0) {
            const double pct = 100.0 * (to - from) / from;
            os << " (" << (pct >= 0 ? "+" : "") << std::fixed
               << std::setprecision(1) << pct << "%)";
        }
        return os.str();
    };

    std::size_t matched = 0;
    for (const Row &row : a) {
        const auto it = index.find({row.scheme, row.workload});
        if (it == index.end())
            continue;
        ++matched;
        const Row &other = *it->second;
        std::cout << row.scheme << " / " << row.workload << "\n";
        for (unsigned s = 0; s < obs::numTxStages; ++s) {
            const StageData &da = row.stages[s];
            const StageData &db = other.stages[s];
            if (da.count == 0 && db.count == 0)
                continue;
            std::cout << "  " << std::left << std::setw(22)
                      << obs::toString(static_cast<obs::TxStage>(s))
                      << " p50 " << delta(da.p50, db.p50) << ", p95 "
                      << delta(da.p95, db.p95) << ", p99 "
                      << delta(da.p99, db.p99) << "\n";
        }
    }
    std::cout << matched << " row(s) matched by (scheme, workload); "
              << a.size() - matched << " only in " << path_a << ", "
              << b.size() - matched << " only in " << path_b << "\n";
    return matched ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    bool perWorkload = false;
    return cli::dispatch(argc, argv, {
        {"report", {"<file.json>"},
         "per-scheme stage latency percentiles (merged across workloads), "
         "critical-path\nattribution, and the CPI cross-check; exits 1 if "
         "the cross-check fails",
         {{cli::flag("--per-workload", "also print one table per workload",
                     perWorkload)}},
         [&](const std::vector<std::string> &args) {
             return cmdReport(args[0], perWorkload);
         }},
        {"diff", {"<a.json>", "<b.json>"},
         "per-stage percentile deltas for rows in both files, matched by "
         "(scheme, workload)",
         {},
         [](const std::vector<std::string> &args) {
             return cmdDiff(args[0], args[1]);
         }},
    });
}
