/** @file Tests for the JSON stats dump and harness option parsing. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "harness/experiments.hh"
#include "obs/json_reader.hh"
#include "sim/logging.hh"
#include "sim/parse_number.hh"
#include "sim/stats.hh"
#include "sim/trace_events.hh"

using namespace proteus;

TEST(StatsJson, WellFormedFlatObject)
{
    stats::StatRegistry reg;
    stats::Scalar a(reg, "a.count", "");
    stats::Scalar b(reg, "b.count", "");
    a += 3;
    b += 4;
    std::ostringstream os;
    reg.dumpJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"a.count\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"b.count\": 4"), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json[json.size() - 2], '}');
    // Exactly one comma between two entries.
    EXPECT_EQ(std::count(json.begin(), json.end(), ','), 1);
}

TEST(StatsJson, NonFiniteValuesEmitNull)
{
    stats::StatRegistry reg;
    stats::Formula nan_stat(reg, "weird.nan", "", []() {
        return std::numeric_limits<double>::quiet_NaN();
    });
    stats::Formula inf_stat(reg, "weird.inf", "", []() {
        return std::numeric_limits<double>::infinity();
    });
    std::ostringstream os;
    reg.dumpJson(os);
    const std::string json = os.str();
    EXPECT_NO_THROW(obs::parseJson(json)) << json;
    EXPECT_NE(json.find("\"weird.nan\": null"), std::string::npos);
    EXPECT_NE(json.find("\"weird.inf\": null"), std::string::npos);
}

TEST(StatsJson, EscapesStatNames)
{
    stats::StatRegistry reg;
    stats::Scalar s(reg, "odd\"name\\with\tescapes", "");
    s += 1;
    std::ostringstream os;
    reg.dumpJson(os);
    const std::string json = os.str();
    EXPECT_NO_THROW(obs::parseJson(json)) << json;
    EXPECT_NE(json.find("odd\\\"name\\\\with\\tescapes"),
              std::string::npos);
}

TEST(StatsJson, DistributionEmitsBucketsAndBounds)
{
    stats::StatRegistry reg;
    stats::Distribution d(reg, "lat", "", 0, 100, 4);
    d.sample(-5);       // underflow
    d.sample(10);
    d.sample(60);
    d.sample(250);      // overflow
    std::ostringstream os;
    reg.dumpJson(os);
    const std::string json = os.str();
    EXPECT_NO_THROW(obs::parseJson(json)) << json;
    EXPECT_NE(json.find("\"underflow\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"overflow\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"min\": -5"), std::string::npos);
    EXPECT_NE(json.find("\"max\": 250"), std::string::npos);
    EXPECT_NE(json.find("\"buckets\": [1, 0, 1, 0]"),
              std::string::npos);
    EXPECT_EQ(d.underflow(), 1u);
    EXPECT_EQ(d.overflow(), 1u);
}

TEST(BenchOptionsParse, RecognizesAllFlags)
{
    // Every entry of every shared group (harness/options.hh), bound to
    // one BenchOptions: the bench table plus the entries only the tools
    // compose.
    BenchOptions opts;
    LogScheme scheme = LogScheme::Proteus;
    std::vector<LogScheme> schemes = allSchemes();
    cli::OptionTable table = opts.optionTable("prog");
    table.add(cli::specOptions(opts.wlSpec, opts.wlSpecFile))
        .add(cli::checkMutateOption(opts.checkMutate))
        .add(cli::schemeOption(scheme))
        .add(cli::schemesOption("--schemes", schemes));
    const char *argv[] = {
        "prog",
        "--scale", "25", "--init-scale", "4", "--threads", "2",
        "--seed", "9",
        "--dram", "--set", "obs.traceRingEntries=1024",
        "--no-cycle-skip", "--faults", "torn=0.01", "--fault-seed", "7",
        "--jobs", "3", "--json", "rows.json",
        "--check",
        "--stats-interval", "1000", "--stats-out", "iv.json",
        "--trace-events", "trace.json", "--trace-categories", "cpu,log",
        "--tx-stats", "tx.json", "--tx-slowest", "5",
        "--wl-spec", "keys=4", "--wl-spec-file", "base.spec",
        "--check-mutate", "6",
        "--scheme", "atom", "--schemes", "pmem,proteus",
    };
    // The argv above names every flag in the table.
    for (const cli::Option &o : table.options()) {
        EXPECT_NE(std::find_if(std::begin(argv), std::end(argv),
                               [&](const char *a) { return o.flag == a; }),
                  std::end(argv))
            << o.flag;
    }
    table.parse(static_cast<int>(std::size(argv)),
                const_cast<char **>(argv));
    EXPECT_EQ(opts.scale, 25u);
    EXPECT_EQ(opts.initScale, 4u);
    EXPECT_EQ(opts.threads, 2u);
    EXPECT_EQ(opts.seed, 9u);
    EXPECT_TRUE(opts.dram);
    EXPECT_FALSE(opts.cycleSkip);
    EXPECT_EQ(opts.faults.tornWriteRate, 0.01);
    EXPECT_EQ(opts.faults.seed, 7u);
    EXPECT_EQ(opts.jobs, 3u);
    EXPECT_EQ(opts.jsonPath, "rows.json");
    EXPECT_TRUE(opts.check);
    EXPECT_EQ(opts.obs.statsInterval, 1000u);
    EXPECT_EQ(opts.obs.statsOut, "iv.json");
    EXPECT_EQ(opts.obs.traceEvents, "trace.json");
    EXPECT_EQ(opts.obs.traceCategories, unsigned{TraceCatCpu | TraceCatLog});
    EXPECT_EQ(opts.obs.txStats, "tx.json");
    EXPECT_EQ(opts.obs.txSlowest, 5u);
    EXPECT_EQ(opts.wlSpec, "keys=4");
    EXPECT_EQ(opts.wlSpecFile, "base.spec");
    EXPECT_EQ(opts.checkMutate, 6);
    EXPECT_EQ(scheme, LogScheme::ATOM);
    EXPECT_EQ(schemes, (std::vector<LogScheme>{LogScheme::PMEM,
                                               LogScheme::Proteus}));

    const SystemConfig cfg = opts.makeConfig();
    EXPECT_FALSE(cfg.mem.nvmMode);      // --dram
    EXPECT_FALSE(cfg.cycleSkip);
    EXPECT_EQ(cfg.faults.seed, 7u);
    EXPECT_EQ(cfg.obs.txSlowest, 5u);
    // --set applies after the flags' obs block.
    EXPECT_EQ(cfg.obs.traceRingEntries, 1024u);
    EXPECT_EQ(cfg.obs.traceEvents, "trace.json");
}

TEST(BenchOptionsParse, ObservabilityFlags)
{
    const char *argv[] = {"prog",
                          "--stats-interval", "1000",
                          "--stats-out", "iv.json",
                          "--trace-events", "trace.json",
                          "--trace-categories", "cpu,log"};
    BenchOptions opts = BenchOptions::parse(
        static_cast<int>(std::size(argv)),
        const_cast<char **>(argv));
    const SystemConfig cfg = opts.makeConfig();
    EXPECT_EQ(cfg.obs.statsInterval, 1000u);
    EXPECT_EQ(cfg.obs.statsOut, "iv.json");
    EXPECT_EQ(cfg.obs.traceEvents, "trace.json");
    EXPECT_EQ(cfg.obs.traceCategories,
              unsigned{TraceCatCpu | TraceCatLog});
}

TEST(BenchOptionsParse, StatsIntervalWithoutOutIsFatal)
{
    const char *argv[] = {"prog", "--stats-interval", "100"};
    BenchOptions opts = BenchOptions::parse(
        3, const_cast<char **>(argv));
    EXPECT_THROW(opts.makeConfig(), FatalError);
}

TEST(BenchOptionsParse, UnknownFlagIsFatal)
{
    const char *argv[] = {"prog", "--bogus"};
    EXPECT_THROW(BenchOptions::parse(2, const_cast<char **>(argv)),
                 FatalError);
}

TEST(BenchOptionsParse, MissingValueIsFatal)
{
    const char *argv[] = {"prog", "--scale"};
    EXPECT_THROW(BenchOptions::parse(2, const_cast<char **>(argv)),
                 FatalError);
}

TEST(BenchOptionsParse, NonNumericValuesAreFatal)
{
    // std::stoul would throw std::invalid_argument through main (an
    // abort) or wrap "-1" around; each must be a clean FatalError.
    const std::vector<std::pair<const char *, const char *>> bad = {
        {"--scale", "abc"}, {"--scale", "-1"}, {"--seed", "5x"},
        {"--threads", "+2"}, {"--jobs", ""}, {"--init-scale", " 4"},
        {"--check-mutate", "-1"},
        {"--seed", "99999999999999999999"},   // overflows 64 bits
        {"--scale", "4294967296"},            // overflows 32 bits
        {"--scale", "0"}, {"--init-scale", "0"}, {"--threads", "0"},
        {"--threads", "33"},                  // range checks
        {"--fault-seed", "x"}, {"--faults", "torn=0.01x"},
    };
    for (const auto &[flag, value] : bad) {
        const char *argv[] = {"prog", flag, value};
        EXPECT_THROW(BenchOptions::parse(3, const_cast<char **>(argv)),
                     FatalError)
            << flag << " " << value;
    }
}

TEST(ParseUnsigned, CheckedConversion)
{
    EXPECT_EQ(parseUnsigned<unsigned>("--n", "0"), 0u);
    EXPECT_EQ(parseUnsigned<unsigned>("--n", "4294967295"), 4294967295u);
    EXPECT_EQ(parseUnsigned<std::uint64_t>("--n", "18446744073709551615"),
              18446744073709551615ull);
    EXPECT_THROW(parseUnsigned<unsigned>("--n", "4294967296"), FatalError);
    EXPECT_THROW(parseUnsigned<unsigned>("--n", "5x"), FatalError);
    EXPECT_THROW(parseUnsigned<unsigned>("--n", "-0"), FatalError);
    try {
        parseUnsigned<unsigned>("--scale", "abc");
        FAIL() << "no FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("--scale: "),
                  std::string::npos)
            << e.what();
    }
}

TEST(ParseDouble, CheckedConversion)
{
    EXPECT_EQ(parseDouble("--x", "0.01"), 0.01);
    EXPECT_EQ(parseDouble("--x", "1e-4"), 1e-4);
    EXPECT_EQ(parseDouble("--x", "-0.5"), -0.5);    // ranges are the caller's
    for (const char *bad : {"", "0.01x", " 1", "abc", "nan", "inf", "1e999"})
        EXPECT_THROW(parseDouble("--x", bad), FatalError) << bad;
}

TEST(Geomean, Basics)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({2.0, 2.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_THROW(geomean({1.0, 0.0}), PanicError);
}

TEST(TablePrinterFmt, Precision)
{
    EXPECT_EQ(TablePrinter::fmt(1.2345), "1.23");
    EXPECT_EQ(TablePrinter::fmt(1.2345, 1), "1.2");
    EXPECT_EQ(TablePrinter::fmt(2.0, 0), "2");
}
