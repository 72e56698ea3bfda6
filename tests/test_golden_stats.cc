/**
 * @file
 * Golden-stats regression test: every logging scheme x {QE, HM, BT} at
 * a small fixed scale must reproduce the exact counter values recorded
 * in tests/golden/golden_stats.txt. The simulator is deterministic, so
 * any drift is a real behavior change — either a bug, or an intended
 * change that must be rebaselined consciously:
 *
 *   PROTEUS_GOLDEN_REBASELINE=1 ./proteus_unit_tests \
 *       --gtest_filter='GoldenStats.*'
 * or  ./proteus_unit_tests --rebaseline --gtest_filter='GoldenStats.*'
 *
 * Failures print a per-counter diff (golden vs actual) so the drift is
 * readable at a glance in CI logs.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiments.hh"
#include "sim/logging.hh"

using namespace proteus;

#ifndef PROTEUS_GOLDEN_DIR
#error "PROTEUS_GOLDEN_DIR must be defined by the build"
#endif

namespace {

const char *goldenPath = PROTEUS_GOLDEN_DIR "/golden_stats.txt";

const std::vector<WorkloadKind> goldenWorkloads{
    WorkloadKind::Queue, WorkloadKind::HashMap, WorkloadKind::BTree,
};

/** The counters pinned by the golden file, in file order. */
using Counters = std::vector<std::pair<std::string, std::uint64_t>>;

Counters
countersOf(const RunResult &r)
{
    return Counters{
        {"cycles", r.cycles},
        {"retiredOps", r.retiredOps},
        {"nvmWrites", r.nvmWrites},
        {"nvmReads", r.nvmReads},
        {"committedTxs", r.committedTxs},
        {"logWritesDropped", r.logWritesDropped},
        {"frontendStallCycles", r.frontendStallCycles},
        {"cpiPersistStall", static_cast<std::uint64_t>(r.cpi.persistStall)},
        {"cpiLockWait", static_cast<std::uint64_t>(r.cpi.lockWait)},
    };
}

bool
rebaselineRequested()
{
    if (std::getenv("PROTEUS_GOLDEN_REBASELINE"))
        return true;
    for (const std::string &arg : testing::internal::GetArgvs()) {
        if (arg == "--rebaseline")
            return true;
    }
    return false;
}

RunResult
runCell(LogScheme scheme, WorkloadKind kind)
{
    BenchOptions opts;
    opts.scale = 2000;
    opts.initScale = 200;
    opts.threads = 2;
    opts.seed = 1;
    return runExperiment(baselineConfig(), scheme, kind, opts);
}

/** The one generated-workload spec pinned by the golden file. */
RunResult
runGenCell(LogScheme scheme)
{
    BenchOptions opts;
    opts.scale = 1;
    opts.initScale = 1;
    opts.threads = 2;
    opts.seed = 1;
    opts.wlSpec = "dist=zipf,theta=0.9,keyspace=4096,ops=500";
    WorkloadExtras extras;
    extras.gen = opts.genSpec();
    return runExperiment(baselineConfig(), scheme,
                         WorkloadKind::Generated, opts, extras);
}

/** golden file line: "<scheme> <workload> k=v k=v ..." */
std::map<std::string, Counters>
loadGolden()
{
    std::map<std::string, Counters> golden;
    std::ifstream in(goldenPath);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ss(line);
        std::string scheme, workload, kv;
        ss >> scheme >> workload;
        Counters counters;
        while (ss >> kv) {
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos) {
                ADD_FAILURE() << "bad golden line: " << line;
                continue;
            }
            counters.emplace_back(kv.substr(0, eq),
                                  std::stoull(kv.substr(eq + 1)));
        }
        golden[scheme + " " + workload] = std::move(counters);
    }
    return golden;
}

} // namespace

TEST(GoldenStats, SchemesMatchGoldenCounters)
{
    const bool rebaseline = rebaselineRequested();

    std::ostringstream out;
    out << "# Golden simulation counters: scheme x workload at "
           "--scale 2000 --init-scale 200 --threads 2 --seed 1.\n"
        << "# Regenerate consciously with PROTEUS_GOLDEN_REBASELINE=1 "
           "(or --rebaseline).\n";

    std::map<std::string, Counters> golden;
    if (!rebaseline) {
        std::ifstream probe(goldenPath);
        ASSERT_TRUE(probe.good())
            << "golden file missing: " << goldenPath
            << " — run once with PROTEUS_GOLDEN_REBASELINE=1";
        loadGolden().swap(golden);
    }

    const auto checkCell = [&](const std::string &cell,
                               const RunResult &r) {
        SCOPED_TRACE(cell);
        ASSERT_TRUE(r.finished);
        const Counters actual = countersOf(r);

        if (rebaseline) {
            out << cell;
            for (const auto &[k, v] : actual)
                out << " " << k << "=" << v;
            out << "\n";
            return;
        }

        const auto it = golden.find(cell);
        ASSERT_NE(it, golden.end())
            << "no golden row for " << cell << " — rebaseline";
        const Counters &want = it->second;
        ASSERT_EQ(want.size(), actual.size()) << "counter set "
                                              << "changed; rebaseline";
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(want[i].first, actual[i].first);
            EXPECT_EQ(want[i].second, actual[i].second)
                << cell << ": counter '" << want[i].first
                << "' drifted (golden " << want[i].second
                << ", actual " << actual[i].second << ")";
        }
    };

    for (const LogScheme scheme : allSchemes()) {
        for (const WorkloadKind kind : goldenWorkloads) {
            checkCell(std::string(toString(scheme)) + " " +
                          toString(kind),
                      runCell(scheme, kind));
        }
    }
    // The generated workload: one fixed spec (see runGenCell), pinned
    // per scheme so GenSpec/keydist/GenWorkload drift is caught at the
    // counter level, not just functionally.
    for (const LogScheme scheme : allSchemes()) {
        checkCell(std::string(toString(scheme)) + " GEN",
                  runGenCell(scheme));
    }

    if (rebaseline) {
        std::ofstream os(goldenPath);
        ASSERT_TRUE(os.good()) << "cannot write " << goldenPath;
        os << out.str();
        std::cout << "rebaselined " << goldenPath << "\n";
    }
}

namespace {

const char *registryGoldenPath = PROTEUS_GOLDEN_DIR "/golden_registry.txt";

/** One full-registry cell: a (scheme, workload) run under a config. */
struct RegistryCell
{
    std::string tag;    ///< config label in the golden file
    LogScheme scheme;
    WorkloadKind kind;
    unsigned threads;
    bool dram;
    std::vector<std::string> overrides;
};

std::vector<RegistryCell>
registryCells()
{
    std::vector<RegistryCell> cells;
    for (const LogScheme scheme : allSchemes()) {
        for (const WorkloadKind kind : {WorkloadKind::Queue,
                                        WorkloadKind::HashMap,
                                        WorkloadKind::AvlTree}) {
            cells.push_back({"base", scheme, kind, 2, false, {}});
        }
    }
    // A starved controller: a tiny WPQ over two banks keeps the write
    // arbiter blocked most cycles, and every scheme hits back-pressure.
    for (const LogScheme scheme : allSchemes()) {
        cells.push_back({"stress", scheme, WorkloadKind::AvlTree, 4, false,
                         {"memCtrl.wpqEntries=8", "mem.banks=2"}});
    }
    cells.push_back({"dram", LogScheme::Proteus, WorkloadKind::HashMap, 4,
                     true, {}});
    cells.push_back({"dram", LogScheme::ATOM, WorkloadKind::AvlTree, 4,
                     true, {}});
    return cells;
}

/** Every registered stat of one run, "name value" per line, values at
 *  full precision so any drift in an average shows. */
std::string
registryDump(const RegistryCell &cell)
{
    BenchOptions opts;
    opts.dram = cell.dram;
    opts.overrides = cell.overrides;
    SystemConfig cfg = opts.makeConfig();
    cfg.logging.scheme = cell.scheme;
    WorkloadParams params;
    params.threads = cell.threads;
    params.scale = 2000;
    params.initScale = 200;
    params.seed = 1;
    FullSystem system(cfg, cell.kind, params);
    const RunResult r = system.run();
    std::ostringstream os;
    os << std::setprecision(17);
    os << "finished " << r.finished << "\n";
    for (const auto &[name, stat] : system.sim().statsRegistry().all()) {
        os << name << " ";
        stat->dumpJsonValue(os);
        os << "\n";
    }
    return os.str();
}

} // namespace

/**
 * The whole stat registry, not just the headline counters: arbiter
 * attempt counters, queue-occupancy averages, per-bank DRAM outcomes
 * and every per-core stall class. Changes to the MC's arbiter or to
 * cycle skipping must leave all of it bit-identical. The golden file
 * holds one "== <tag> <scheme> <workload>" header per cell followed by
 * its dump; rebaseline as for SchemesMatchGoldenCounters.
 */
TEST(GoldenStats, FullRegistryMatchesGolden)
{
    const bool rebaseline = rebaselineRequested();
    std::ostringstream out;
    out << "# Full stat registry per cell: --scale 2000 --init-scale 200 "
           "--seed 1 (see registryCells in test_golden_stats.cc).\n";

    std::map<std::string, std::string> golden;
    if (!rebaseline) {
        std::ifstream in(registryGoldenPath);
        ASSERT_TRUE(in.good())
            << "golden file missing: " << registryGoldenPath
            << " — run once with PROTEUS_GOLDEN_REBASELINE=1";
        std::string line, cell;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            if (line.rfind("== ", 0) == 0)
                cell = line.substr(3);
            else
                golden[cell] += line + "\n";
        }
    }

    for (const RegistryCell &c : registryCells()) {
        const std::string cell = c.tag + " " + toString(c.scheme) + " " +
                                 toString(c.kind);
        SCOPED_TRACE(cell);
        const std::string actual = registryDump(c);
        if (rebaseline) {
            out << "== " << cell << "\n" << actual;
            continue;
        }
        const auto it = golden.find(cell);
        ASSERT_NE(it, golden.end()) << "no golden cell " << cell;
        // Compare line by line so a drift names its stat.
        std::istringstream want(it->second), got(actual);
        std::string w, g;
        while (std::getline(want, w)) {
            ASSERT_TRUE(std::getline(got, g)) << "missing stat " << w;
            EXPECT_EQ(w, g) << cell;
        }
        EXPECT_FALSE(std::getline(got, g)) << "extra stat " << g;
    }

    if (rebaseline) {
        std::ofstream os(registryGoldenPath);
        ASSERT_TRUE(os.good()) << "cannot write " << registryGoldenPath;
        os << out.str();
        std::cout << "rebaselined " << registryGoldenPath << "\n";
    }
}
