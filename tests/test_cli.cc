/**
 * @file
 * The command-line contract of every front end: the option table and
 * its one parser in-process, then each built tool and bench binary as
 * a child process. --help exits 0 and lists every flag of the table,
 * an unknown flag exits 2 with "fatal:" (never an abort), and the flags
 * a front end used to accept and then ignore are rejected up front.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/check_runner.hh"
#include "harness/experiments.hh"
#include "harness/options.hh"
#include "obs/json_reader.hh"
#include "obs/tx_stats_io.hh"
#include "sim/logging.hh"

using namespace proteus;

namespace {

/** Run @p argv (space-separated) from @p dir; exit status and output. */
struct Outcome
{
    int status = -1;        ///< exit code, or 128 + signal
    std::string output;     ///< stdout, and stderr unless redirected
};

Outcome
runBinary(const std::string &dir, const std::string &args,
          const std::string &stderrTo = "&1")
{
    const std::string cmd = dir + "/" + args + " 2>" + stderrTo;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe)
        return {};
    Outcome out;
    char buf[4096];
    std::size_t n;
    while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0)
        out.output.append(buf, n);
    const int status = pclose(pipe);
    out.status = WIFEXITED(status) ? WEXITSTATUS(status)
                                   : 128 + WTERMSIG(status);
    return out;
}

Outcome
tool(const std::string &args)
{
    return runBinary(PROTEUS_TOOLS_DIR, args);
}

Outcome
bench(const std::string &args)
{
    return runBinary(PROTEUS_BENCH_DIR, args);
}

/** argv for OptionTable::parse from a space-separated string. */
struct Argv
{
    explicit Argv(const std::string &line)
    {
        std::istringstream is("prog " + line);
        for (std::string w; is >> w;)
            words.push_back(w);
        for (std::string &w : words)
            ptrs.push_back(w.data());
    }
    int argc() const { return static_cast<int>(ptrs.size()); }
    std::vector<std::string> words;
    std::vector<char *> ptrs;
};

/** The message parse() fails with on @p line, or "" if it succeeds. */
std::string
parseError(const cli::OptionTable &table, const std::string &line)
{
    Argv args(line);
    try {
        table.parse(args.argc(), args.ptrs.data());
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

/** @p table's --help text with each whitespace run made one space,
 *  so searches ignore the word wrap. */
std::string
helpOf(const cli::OptionTable &table)
{
    std::ostringstream os;
    table.printHelp(os);
    std::istringstream words(os.str());
    std::string out;
    for (std::string w; words >> w;)
        out += " " + w;
    return out + " ";
}

/** The number after the first "@p label" in @p text (0 if none). */
std::uint64_t
numberAfter(const std::string &text, const std::string &label)
{
    const std::size_t at = text.find(label);
    if (at == std::string::npos)
        return 0;
    return std::stoull(text.substr(at + label.size()));
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** The "<scheme> / <workload>" of every row of a --json result array
 *  or a tx-stats file ({"rows": [...]}), in file order. */
std::vector<std::string>
rowKeys(const std::string &path)
{
    const obs::JsonValue doc = obs::parseJsonFile(path);
    const std::vector<obs::JsonValue> &rows =
        doc.type == obs::JsonValue::Type::Array ? doc.array
                                                : doc.at("rows").array;
    std::vector<std::string> out;
    for (const obs::JsonValue &row : rows)
        out.push_back(row.at("scheme").asString() + " / " +
                      row.at("workload").asString());
    return out;
}

std::vector<std::string>
flagsOf(const cli::OptionTable &table)
{
    std::vector<std::string> out;
    for (const cli::Option &o : table.options())
        out.push_back(o.flag);
    return out;
}

} // namespace

TEST(CliOptionTable, EachEntryKindStoresIntoItsField)
{
    unsigned n = 3;
    bool on = false;
    bool skip = true;
    std::string path;
    std::vector<std::string> sets;
    cli::OptionTable table("prog [options]");
    table.add(cli::number("--n", "N", "a number", n, 1u, 9u))
        .add(cli::flag("--on", "a switch", on))
        .add(cli::flag("--no-skip", "a clearing switch", skip, false))
        .add(cli::text("--out", "FILE", "a path", path))
        .add({"--set", "k=v", "repeatable", "",
              [&sets](const std::string &v) { sets.push_back(v); }});
    Argv args("--n 7 --on --no-skip --out f.json --set a=1 --set b=2");
    table.parse(args.argc(), args.ptrs.data());
    EXPECT_EQ(n, 7u);
    EXPECT_TRUE(on);
    EXPECT_FALSE(skip);
    EXPECT_EQ(path, "f.json");
    EXPECT_EQ(sets, (std::vector<std::string>{"a=1", "b=2"}));
}

TEST(CliOptionTable, ErrorsNameTheFlag)
{
    unsigned n = 3;
    cli::OptionTable table("prog [options]");
    table.add(cli::number("--n", "N", "a number", n, 1u, 9u));
    EXPECT_EQ(parseError(table, "--bogus"),
              "fatal: --bogus: unknown option (see --help)");
    EXPECT_EQ(parseError(table, "--n"), "fatal: --n: missing value N");
    EXPECT_EQ(parseError(table, "--n abc"),
              "fatal: --n: expected an unsigned integer, got 'abc'");
    EXPECT_EQ(parseError(table, "--n 0"),
              "fatal: --n: must be in [1, 9], got 0");
    EXPECT_EQ(parseError(table, "--n 10"),
              "fatal: --n: must be in [1, 9], got 10");
    EXPECT_EQ(parseError(table, "positional"),
              "fatal: positional: unknown option (see --help)");
    EXPECT_EQ(n, 3u);
}

TEST(CliOptionTable, ValuesAreCheckedAtTheFlag)
{
    // Each was accepted by the parser and failed (or was dropped) only
    // when a run built its config.
    BenchOptions opts;
    const cli::OptionTable table = opts.optionTable("prog");
    for (const char *line :
         {"--set bogus=1", "--set logging.logQEntries=8x",
          "--trace-categories nope", "--faults torn=2",
          "--threads 33", "--scale 0"})
        EXPECT_NE(parseError(table, line), "") << line;
    EXPECT_TRUE(opts.overrides.empty());
}

TEST(CliOptionTable, DuplicateFlagPanics)
{
    bool a = false;
    cli::OptionTable table("prog");
    table.add(cli::flag("--a", "", a));
    EXPECT_THROW(table.add(cli::flag("--a", "", a)), PanicError);
}

TEST(CliOptionTable, HelpDefaultsComeFromTheBoundFields)
{
    // One size group, two front ends' defaults: fig06's 200 and
    // crashtest's 250, with no hand-kept default strings.
    BenchOptions bench;
    const std::string benchHelp = helpOf(bench.optionTable("fig06"));
    unsigned scale = 250, initScale = 100, threads = 1;
    std::uint64_t seed = 11;
    cli::OptionTable crash("crashtest [options]");
    crash.add(cli::sizeOptions(scale, initScale, threads, seed));
    const std::string crashHelp = helpOf(crash);
    EXPECT_NE(benchHelp.find("paper size (default 200)"), std::string::npos)
        << benchHelp;
    EXPECT_NE(crashHelp.find("paper size (default 250)"), std::string::npos)
        << crashHelp;
    EXPECT_NE(crashHelp.find("(default 11)"), std::string::npos);
    for (const std::string &flag : flagsOf(bench.optionTable("fig06")))
        EXPECT_NE(benchHelp.find(" " + flag + " "), std::string::npos)
            << flag;
}

TEST(CliOptionTable, HelpIsShownThenSignalled)
{
    BenchOptions opts;
    const cli::OptionTable table = opts.optionTable("prog");
    Argv args("--scale 5 --help --bogus");
    testing::internal::CaptureStdout();
    EXPECT_THROW(table.parse(args.argc(), args.ptrs.data()),
                 cli::HelpShown);
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(out.rfind("usage: prog [options]\n", 0), 0u) << out;
}

TEST(CliOptionTable, CheckMutateTakesAnUnsigned32BitSeed)
{
    long seed = -1;
    cli::OptionTable table("prog");
    table.add(cli::checkMutateOption(seed));
    EXPECT_NE(parseError(table, "--check-mutate -1"), "");
    EXPECT_NE(parseError(table, "--check-mutate 4294967296"), "");
    EXPECT_EQ(parseError(table, "--check-mutate 4294967295"), "");
    EXPECT_EQ(seed, 4294967295L);
}

TEST(CliRun, ExitStatuses)
{
    EXPECT_EQ(cli::run([] { return 1; }), 1);
    EXPECT_EQ(cli::run([]() -> int { throw cli::HelpShown{}; }), 0);
    testing::internal::CaptureStderr();
    EXPECT_EQ(cli::run([]() -> int { fatal("--x: bad"); }), 2);
    EXPECT_EQ(cli::run([]() -> int { panic("broken"); }), 2);
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "fatal: --x: bad\npanic: broken\n");
}

namespace {

/** One binary or subcommand and the flags its table holds. */
struct Front
{
    const char *dir;
    std::string invocation;
    std::vector<std::string> flags;
};

const char *const toolsDir = PROTEUS_TOOLS_DIR;
const char *const benchDir = PROTEUS_BENCH_DIR;

const std::vector<std::string> sizeFlags{"--scale", "--init-scale",
                                         "--threads", "--seed"};
const std::vector<std::string> specFlags{"--wl-spec", "--wl-spec-file"};
const std::vector<std::string> machineFlags{
    "--dram", "--set", "--no-cycle-skip", "--faults", "--fault-seed"};
const std::vector<std::string> traceFlags{
    "--stats-interval", "--stats-out", "--trace-events",
    "--trace-categories"};
const std::vector<std::string> txFlags{"--tx-stats", "--tx-slowest"};
const std::vector<std::string> batchFlags{"--jobs", "--json"};

std::vector<std::string>
cat(std::initializer_list<std::vector<std::string>> groups)
{
    std::vector<std::string> out;
    for (const auto &g : groups)
        out.insert(out.end(), g.begin(), g.end());
    return out;
}

/** The proteus-bench commands that run one experiment each, in the
 *  order `all` runs them. */
const std::vector<std::string> benchCommands{
    "fig06", "fig07",  "fig08",  "fig09",        "fig10",       "fig11",
    "fig12", "table3", "table4", "ablation-lwr", "ablation-llt"};

/** The proteus-bench sweeps, which `all` leaves out. */
const std::vector<std::string> sweepCommands{"gen-sweep", "fault-sweep"};

/** The flags that write or shape one command's files; `proteus-bench
 *  all` rejects them. */
const std::vector<std::string> perFileFlags{
    "--json",         "--tx-stats",         "--tx-slowest",
    "--trace-events", "--trace-categories", "--stats-interval",
    "--stats-out"};

/** Every front end. The bench binaries' lists come from the table
 *  itself; the tools' are their CLI contract, written out. */
std::vector<Front>
frontEnds()
{
    BenchOptions opts;
    const std::vector<std::string> benchFlags =
        flagsOf(opts.optionTable("bench"));
    std::vector<std::string> suiteFlags;
    for (const std::string &flag : benchFlags) {
        if (std::find(perFileFlags.begin(), perFileFlags.end(), flag) ==
            perFileFlags.end())
            suiteFlags.push_back(flag);
    }
    std::vector<Front> out;
    out.push_back({benchDir, "proteus-bench",
                   cat({benchCommands, {"all"}, sweepCommands})});
    for (const std::string &c : benchCommands)
        out.push_back({benchDir, "proteus-bench " + c, benchFlags});
    out.push_back({benchDir, "proteus-bench all", suiteFlags});
    out.push_back({benchDir, "proteus-bench gen-sweep",
                   cat({benchFlags, specFlags, {"--thetas", "--tx-keys"}})});
    out.push_back({benchDir, "proteus-bench fault-sweep",
                   cat({benchFlags, {"--out"}})});
    out.push_back({benchDir, "micro_kernel",
                   {"--cycles", "--devices", "--json"}});
    out.push_back({benchDir, "micro_components", {"--benchmark_filter"}});

    out.push_back({toolsDir, "proteus-sim", {"run", "replay", "list"}});
    out.push_back({toolsDir, "proteus-sim run",
                   cat({{"--scheme", "--check", "--stats", "--json"},
                        sizeFlags, specFlags, machineFlags, traceFlags,
                        txFlags})});
    out.push_back({toolsDir, "proteus-sim replay",
                   cat({{"--check", "--stats", "--json"}, machineFlags,
                        traceFlags, txFlags})});
    out.push_back({toolsDir, "proteus-check", {"run", "replay", "rules"}});
    out.push_back({toolsDir, "proteus-check run",
                   cat({{"--scheme", "--check-mutate"}, sizeFlags,
                        specFlags, machineFlags, batchFlags})});
    out.push_back({toolsDir, "proteus-check replay",
                   cat({machineFlags, {"--json"}})});
    out.push_back({toolsDir, "proteus-check rules", {"--scheme"}});
    out.push_back({toolsDir, "proteus-crashtest",
                   cat({{"--sweep", "--sweep-points", "--crash-stride",
                         "--crash-at", "--fuzz", "--schemes", "--workloads",
                         "--check", "--max-violations", "--no-serialize",
                         "--break-recovery"},
                        sizeFlags, specFlags, machineFlags, batchFlags})});
    out.push_back({toolsDir, "proteus-trace", {"record", "info", "verify"}});
    out.push_back({toolsDir, "proteus-trace record",
                   cat({{"--out", "--scheme", "--with-history",
                         "--log-area-bytes", "--elements-per-node"},
                        sizeFlags, specFlags})});
    out.push_back({toolsDir, "proteus-txstats", {"report", "diff"}});
    out.push_back({toolsDir, "proteus-txstats report", {"--per-workload"}});
    return out;
}

} // namespace

TEST(CliContract, HelpExitsZeroAndListsEveryFlag)
{
    for (const Front &f : frontEnds()) {
        SCOPED_TRACE(f.invocation);
        const Outcome out = runBinary(f.dir, f.invocation + " --help");
        EXPECT_EQ(out.status, 0) << out.output;
        for (const std::string &flag : f.flags)
            EXPECT_NE(out.output.find(flag), std::string::npos) << flag;
    }
}

TEST(CliContract, UnknownFlagExitsTwoWithFatal)
{
    for (const Front &f : frontEnds()) {
        SCOPED_TRACE(f.invocation);
        // Subcommands that take an operand get one that parses.
        std::string line = f.invocation;
        if (line == "proteus-sim run" || line == "proteus-check run" ||
            line == "proteus-trace record")
            line += " QE";
        else if (line.find(' ') != std::string::npos &&
                 line != "proteus-check rules" &&
                 line.rfind("proteus-bench ", 0) != 0)
            line += " file";
        // The trace cache's off switch was a batch flag: every run now
        // takes its traces from the cache, and no front end accepts it.
        for (const char *flag : {"--no-such-flag", "--no-trace-cache"}) {
            const Outcome out = runBinary(f.dir, line + " " + flag);
            EXPECT_EQ(out.status, 2) << flag << "\n" << out.output;
            EXPECT_NE(out.output.find("fatal: "), std::string::npos)
                << out.output;
        }
    }
}

TEST(CliContract, BadValuesExitTwoNotAbort)
{
    // Each of these ended in an uncaught exception (exit 134) before
    // the bench mains shared one catch.
    for (const char *args :
         {"proteus-bench fig06 --scale abc", "proteus-bench fig06 --bogus",
          "proteus-bench fig11 --threads 0",
          "proteus-bench fault-sweep --jobs x",
          "proteus-bench gen-sweep --thetas ,",
          "proteus-bench table3 --seed 5x",
          "micro_kernel --cycles abc", "micro_kernel --devices -1",
          "proteus-bench", "proteus-bench bogus"}) {
        SCOPED_TRACE(args);
        const Outcome out = bench(args);
        EXPECT_EQ(out.status, 2) << out.output;
        EXPECT_NE(out.output.find("fatal: "), std::string::npos)
            << out.output;
    }
    for (const char *args :
         {"proteus-sim run QE --scale 0", "proteus-sim run QE --scheme x",
          "proteus-crashtest --schemes pmem,bogus",
          "proteus-trace record QE --threads 33 --out x.ptrace",
          "proteus-sim", "proteus-sim bogus", "proteus-sim run",
          "proteus-txstats diff a.json"}) {
        SCOPED_TRACE(args);
        const Outcome out = tool(args);
        EXPECT_EQ(out.status, 2) << out.output;
        EXPECT_NE(out.output.find("fatal: "), std::string::npos)
            << out.output;
    }
}

TEST(CliContract, FlagsOnceAcceptedAndIgnoredAreRejected)
{
    // Each exited 0 before, without the effect the flag names (no file
    // written, no campaign run, no range check).
    for (const char *args :
         {"proteus-check run QE --tx-stats tx.json",
          "proteus-check run QE --stats-interval 5 --stats-out iv.json",
          "proteus-check run QE --trace-events t.json",
          "proteus-check run QE --check",
          "proteus-check replay f.ptrace --scale 5",
          "proteus-check rules --jobs 2",
          "proteus-sim run QE --jobs 2",
          "proteus-sim replay f.ptrace --seed 3",
          "proteus-sim list --scale 5",
          "proteus-crashtest --verbose"}) {
        SCOPED_TRACE(args);
        const Outcome out = tool(args);
        EXPECT_EQ(out.status, 2) << out.output;
        EXPECT_NE(out.output.find("fatal: "), std::string::npos)
            << out.output;
    }
    for (const char *args :
         {"proteus-bench fig06 --check-mutate 1",
          "proteus-bench fig06 --wl-spec keys=4",
          "proteus-bench fault-sweep --wl-spec keys=4",
          "proteus-bench fault-sweep --thetas 0"}) {
        SCOPED_TRACE(args);
        const Outcome out = bench(args);
        EXPECT_EQ(out.status, 2) << out.output;
    }
}

TEST(CliContract, CopiesOfOtherToolsCommandsAreGone)
{
    // proteus-sim kept copies of proteus-bench fig06 (matrix),
    // proteus-crashtest (crash), proteus-check --check-mutate and its
    // own list (--list-workloads).
    for (const char *args :
         {"proteus-sim matrix", "proteus-sim crash QE",
          "proteus-sim --list-workloads",
          "proteus-sim run QE --check-mutate 1"}) {
        SCOPED_TRACE(args);
        const Outcome out = tool(args);
        EXPECT_EQ(out.status, 2) << out.output;
        EXPECT_NE(out.output.find("fatal: "), std::string::npos)
            << out.output;
    }
    // `list` now carries what --list-workloads printed.
    const Outcome list = tool("proteus-sim list");
    EXPECT_EQ(list.status, 0) << list.output;
    for (const char *text : {"QE / queue", "GEN / gen", "knobs: ",
                             "schemes (Figure 6):", "Proteus+NoLWR"})
        EXPECT_NE(list.output.find(text), std::string::npos) << text;
}

TEST(CliContract, SuiteRejectsPerFileOutputs)
{
    // Under `all` every command would write the same file in turn.
    for (const std::string &flag : perFileFlags) {
        SCOPED_TRACE(flag);
        const Outcome out = bench("proteus-bench all " + flag + " x");
        EXPECT_EQ(out.status, 2) << out.output;
        EXPECT_NE(out.output.find("fatal: " + flag + ": unknown option"),
                  std::string::npos)
            << out.output;
    }
}

TEST(CliContract, ZeroSizedQueuesAreRejectedBeforeRunning)
{
    // Each hung (the WPQ and LPQ) or skipped to the cycle limit and
    // still printed "invariants: OK" (the core's queues and widths).
    for (const char *field :
         {"memCtrl.wpqEntries", "memCtrl.lpqEntries", "cpu.fetchWidth",
          "cpu.robEntries", "cpu.issueQueueEntries",
          "cpu.loadQueueEntries", "cpu.storeQueueEntries",
          "logging.logRegisters", "logging.logQEntries",
          "logging.lltEntries"}) {
        SCOPED_TRACE(field);
        const Outcome out =
            tool(std::string("proteus-sim run QE --scale 2000 "
                             "--init-scale 100 --set ") +
                 field + "=0");
        EXPECT_EQ(out.status, 2) << out.output;
        EXPECT_NE(out.output.find("fatal: "), std::string::npos)
            << out.output;
        EXPECT_NE(out.output.find(field), std::string::npos) << out.output;
        EXPECT_EQ(out.output.find("cycles:"), std::string::npos)
            << out.output;
    }
    // Only the Proteus schemes use the LPQ, the log registers, the LogQ
    // and the LLT; the others run exactly as with the default sizes.
    // PMEM once rejected an empty LogQ or LLT.
    const std::string pmem_run =
        "proteus-sim run QE --scale 2000 --init-scale 100 --scheme pmem";
    const Outcome pmem_base = tool(pmem_run);
    for (const char *field :
         {"memCtrl.lpqEntries", "logging.logRegisters",
          "logging.logQEntries", "logging.lltEntries", "logging.lltWays"}) {
        SCOPED_TRACE(field);
        const Outcome pmem = tool(pmem_run + " --set " + field + "=0");
        EXPECT_EQ(pmem.status, 0) << pmem.output;
        EXPECT_EQ(pmem.output, pmem_base.output);
    }
    // Proteus+NoLWR issues log-loads too: logRegisters=0 ran to the
    // cycle limit there as well.
    const Outcome nolwr = tool("proteus-sim run QE --scale 2000 "
                               "--init-scale 100 --scheme proteus+nolwr "
                               "--set logging.logRegisters=0");
    EXPECT_EQ(nolwr.status, 2) << nolwr.output;
    EXPECT_NE(nolwr.output.find("logging.logRegisters"), std::string::npos)
        << nolwr.output;

    // A valid config can still miss the cycle limit (here every NVM
    // write activation outlasts it). Its verdict is "did not finish":
    // it printed "invariants: OK" for the undrained run before.
    const Outcome slow = tool("proteus-sim run QE --scale 2000 "
                              "--init-scale 100 "
                              "--set mem.nvmWriteTRCD=1000000000");
    EXPECT_EQ(slow.status, 1) << slow.output;
    EXPECT_NE(slow.output.find("finished:           NO"),
              std::string::npos)
        << slow.output;
    EXPECT_EQ(slow.output.find("invariants:         OK"),
              std::string::npos)
        << slow.output;
}

TEST(BenchSuite, AllPrintsTheCommandsInTableOrder)
{
    // `all` runs every command in one process, each on its own copy of
    // the options: fig09's slow NVM writes or fig10's DRAM timing
    // leaking into a later command would change its table.
    for (const char *jobs : {"1", "4"}) {
        SCOPED_TRACE(jobs);
        const std::string flags =
            std::string(" --scale 100000 --init-scale 1000 --threads 1 "
                        "--jobs ") +
            jobs;
        const Outcome all =
            runBinary(benchDir, "proteus-bench all" + flags, "/dev/null");
        ASSERT_EQ(all.status, 0) << all.output;
        std::string each;
        for (const std::string &c : benchCommands) {
            const Outcome out = runBinary(
                benchDir, "proteus-bench " + c + flags, "/dev/null");
            ASSERT_EQ(out.status, 0) << c << "\n" << out.output;
            each += out.output;
        }
        EXPECT_NE(all.output.find("Ablation: LLT size sweep"),
                  std::string::npos)
            << all.output;
        EXPECT_EQ(all.output, each);
    }
}

TEST(BenchSuite, EveryCommandNamesItsRowsUniquely)
{
    // fig11 wrote seven Proteus/QE rows, table3 four PMEM/LL rows and
    // the fault sweep every pair four times, so proteus-txstats diff
    // paired rows of different sweep points.
    const std::string dir = ::testing::TempDir();
    for (const std::string &c : cat({benchCommands, sweepCommands})) {
        SCOPED_TRACE(c);
        const std::string json = dir + "/rows_" + c + ".json";
        const std::string tx = dir + "/tx_" + c + ".json";
        std::string line = "proteus-bench " + c +
                           " --scale 100000 --init-scale 1000 --threads 1"
                           " --jobs 4 --json " + json + " --tx-stats " + tx;
        if (c == "gen-sweep")
            line += " --thetas 0,0.9 --tx-keys 1,4 --wl-spec ops=200";
        if (c == "fault-sweep")
            line += " --out " + dir + "/faults.json";
        const Outcome out = runBinary(benchDir, line, "/dev/null");
        ASSERT_EQ(out.status, 0) << out.output;
        for (const std::string &path : {json, tx}) {
            const std::vector<std::string> keys = rowKeys(path);
            EXPECT_FALSE(keys.empty()) << path;
            const std::set<std::string> unique(keys.begin(), keys.end());
            EXPECT_EQ(unique.size(), keys.size()) << path;
        }
        // A file diffed with itself pairs every row with its own.
        const Outcome diff = tool("proteus-txstats diff " + tx + " " + tx);
        EXPECT_EQ(diff.status, 0) << diff.output;
        EXPECT_NE(diff.output.find(
                      std::to_string(rowKeys(tx).size()) +
                      " row(s) matched by (scheme, workload); 0 only in"),
                  std::string::npos)
            << diff.output;
    }
}

TEST(BenchSuite, SweepRowsNameWhatTheyVary)
{
    const std::string dir = ::testing::TempDir();
    const std::string json = dir + "/gen_rows.json";
    const std::string tx = dir + "/gen_tx.json";
    const Outcome gen = runBinary(
        benchDir,
        "proteus-bench gen-sweep --thetas 0,0.9 --tx-keys 1,4 "
        "--wl-spec ops=200 --scale 100000 --init-scale 1000 --threads 1 "
        "--json " + json + " --tx-stats " + tx,
        "/dev/null");
    ASSERT_EQ(gen.status, 0) << gen.output;
    EXPECT_NE(gen.output.find("\nwrote " + json + "\n"), std::string::npos)
        << gen.output;
    std::vector<std::string> want;
    for (const char *combo :
         {"gen(t0,k1)", "gen(t0,k4)", "gen(t0.9,k1)", "gen(t0.9,k4)"}) {
        for (LogScheme s : allSchemes())
            want.push_back(std::string(toString(s)) + " / " + combo);
    }
    EXPECT_EQ(rowKeys(json), want);
    EXPECT_EQ(rowKeys(tx), want);

    // Without --json, gen-sweep writes no rows, like every command.
    const Outcome quiet = runBinary(
        benchDir,
        "proteus-bench gen-sweep --thetas 0 --tx-keys 1 --wl-spec ops=200 "
        "--scale 100000 --init-scale 1000 --threads 1",
        "/dev/null");
    ASSERT_EQ(quiet.status, 0) << quiet.output;
    EXPECT_EQ(quiet.output.find("wrote"), std::string::npos) << quiet.output;

    // The knob sweeps name the knob after the workload.
    const std::string fig11 = dir + "/fig11_rows.json";
    const Outcome knob = runBinary(
        benchDir,
        "proteus-bench fig11 --scale 100000 --init-scale 1000 --threads 1 "
        "--json " + fig11,
        "/dev/null");
    ASSERT_EQ(knob.status, 0) << knob.output;
    const std::vector<std::string> rows = rowKeys(fig11);
    ASSERT_EQ(rows.size(), 8u * allPaperWorkloads().size());
    EXPECT_EQ(rows.front(),
              std::string("PMEM / ") + toString(allPaperWorkloads()[0]));
    EXPECT_EQ(rows.back(), std::string("Proteus / ") +
                               toString(allPaperWorkloads().back()) +
                               " LogQ=64");
}

TEST(TxStatsDiff, RejectsAFileWithTwoRowsUnderOneKey)
{
    const std::string dir = ::testing::TempDir();
    obs::TxStatsRow row;
    row.scheme = "PMEM";
    row.workload = "QE";
    const std::string one = dir + "/tx_one.json";
    const std::string two = dir + "/tx_two.json";
    obs::writeTxStatsFile(one, {row});
    obs::writeTxStatsFile(two, {row, row});

    EXPECT_EQ(tool("proteus-txstats diff " + one + " " + one).status, 0);
    for (const std::string &args : {two + " " + one, one + " " + two}) {
        SCOPED_TRACE(args);
        const Outcome out = tool("proteus-txstats diff " + args);
        EXPECT_EQ(out.status, 2) << out.output;
        EXPECT_NE(out.output.find("fatal: " + two +
                                  ": two rows for PMEM / QE"),
                  std::string::npos)
            << out.output;
        EXPECT_EQ(out.output.find("matched"), std::string::npos)
            << out.output;
    }
}

TEST(CliContract, CheckedNumbersInSetAndFaults)
{
    for (const char *args :
         {"proteus-sim run QE --set logging.logQEntries=8x",
          "proteus-sim run QE --set logging.atomTruncationEntries=-1",
          "proteus-sim run QE --set memCtrl.lpqDrainThreshold=-1",
          "proteus-sim run QE --faults torn=0.01x,detect=8x,correct=1",
          "proteus-sim run QE --faults torn=5",
          "proteus-sim run QE --set faults.tornWriteRate=5",
          "proteus-sim run QE --set faults.eccCorrectBits=9"}) {
        SCOPED_TRACE(args);
        const Outcome out = tool(args);
        EXPECT_EQ(out.status, 2) << out.output;
        EXPECT_NE(out.output.find("fatal: "), std::string::npos)
            << out.output;
        EXPECT_EQ(out.output.find("cycles:"), std::string::npos)
            << out.output;
    }
}

TEST(CliContract, RunIdentityKeysAreRejected)
{
    // A run takes its scheme, persistency domain and core count from
    // its trace bundle's key, and the config seed has no reader: each
    // of these was accepted and changed nothing.
    for (const char *spec :
         {"cores=8", "seed=5", "logging.scheme=atom", "memCtrl.adr=false"}) {
        SCOPED_TRACE(spec);
        const Outcome out =
            tool(std::string("proteus-sim run QE --set ") + spec);
        EXPECT_EQ(out.status, 2) << out.output;
        const std::string key(spec, std::strchr(spec, '='));
        EXPECT_NE(out.output.find("fatal: unknown config override key: " +
                                  key),
                  std::string::npos)
            << out.output;
    }
}

TEST(CliContract, FlagSpelledSettingsHaveNoSetKey)
{
    // Cycle skipping and the tx-stats timelines are --no-cycle-skip and
    // --tx-slowest; a second spelling under --set is gone.
    for (const char *spec : {"cycleSkip=false", "obs.txSlowest=4"}) {
        SCOPED_TRACE(spec);
        const Outcome out =
            tool(std::string("proteus-sim run QE --set ") + spec);
        EXPECT_EQ(out.status, 2) << out.output;
        const std::string key(spec, std::strchr(spec, '='));
        EXPECT_NE(out.output.find("fatal: unknown config override key: " +
                                  key),
                  std::string::npos)
            << out.output;
    }
}

TEST(CliContract, LogAreasMustFitTheLogRegion)
{
    // threads x logging.logAreaBytes (twice that under ATOM, whose
    // wiring adds an area per core) must fit PersistentHeap's 1 GiB
    // log region. Too much died mid-run, after the "running" banner,
    // with a fatal that named the heap rather than the key.
    constexpr std::uint64_t region = 1ull << 30;
    for (const LogScheme scheme : {LogScheme::PMEM, LogScheme::ATOM}) {
        SCOPED_TRACE(toString(scheme));
        BenchOptions opts;
        opts.threads = 32;
        const std::uint64_t fits =
            region / (opts.threads * (scheme == LogScheme::ATOM ? 2 : 1));
        SystemConfig cfg = baselineConfig();
        cfg.logging.logAreaBytes = fits;
        EXPECT_EQ(runKey(opts, cfg, WorkloadKind::Queue, scheme)
                      .params.logAreaBytes,
                  fits);
        cfg.logging.logAreaBytes = fits + 64;
        try {
            runKey(opts, cfg, WorkloadKind::Queue, scheme);
            ADD_FAILURE() << "accepted " << fits + 64;
        } catch (const FatalError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("logging.logAreaBytes"), std::string::npos)
                << what;
            EXPECT_NE(what.find("--threads"), std::string::npos) << what;
        }
    }

    // The bound is exact: ATOM at two threads fills the region.
    BenchOptions opts;
    opts.scale = 2000;
    opts.initScale = 100;
    opts.threads = 2;
    opts.overrides = {"logging.logAreaBytes=" + std::to_string(region / 4)};
    EXPECT_TRUE(runExperiment(opts.makeConfig(), LogScheme::ATOM,
                              WorkloadKind::Queue, opts)
                    .finished);

    const Outcome out = tool(
        "proteus-sim run QE --threads 32 --set logging.logAreaBytes=67108864");
    EXPECT_EQ(out.status, 2) << out.output;
    EXPECT_NE(out.output.find("fatal: logging.logAreaBytes (67108864) x "
                              "--threads (32)"),
              std::string::npos)
        << out.output;
    EXPECT_EQ(out.output.find("running"), std::string::npos) << out.output;
}

TEST(CliContract, LogAreaOverrideReachesEveryRun)
{
    // proteus-sim run and its crash command built their keys with the
    // default log area, so --set logging.logAreaBytes changed only the
    // runs that went through runExperiment and runCheck. Crash runs are
    // proteus-crashtest's now; its pairs take the override too.
    BenchOptions opts;
    opts.scale = 2000;
    opts.initScale = 100;
    opts.threads = 2;
    opts.overrides = {"logging.logAreaBytes=256"};
    const SystemConfig cfg = opts.makeConfig();
    EXPECT_EQ(runKey(opts, cfg, WorkloadKind::Queue, LogScheme::PMEM)
                  .params.logAreaBytes,
              256u);
    const Tick cycles =
        runExperiment(cfg, LogScheme::PMEM, WorkloadKind::Queue, opts)
            .cycles;
    EXPECT_EQ(runCheck(LogScheme::PMEM, WorkloadKind::Queue, opts).run.cycles,
              cycles);

    const std::string args =
        " QE --scheme pmem --scale 2000 --init-scale 100 --threads 2";
    const std::string set = " --set logging.logAreaBytes=256";
    const Outcome run = tool("proteus-sim run" + args + set);
    EXPECT_EQ(run.status, 0) << run.output;
    EXPECT_EQ(numberAfter(run.output, "cycles:"), cycles) << run.output;
    const std::string crashJson =
        ::testing::TempDir() + "/log_area_crash.json";
    const Outcome crash = tool(
        "proteus-crashtest --schemes pmem --workloads QE --scale 2000 "
        "--init-scale 100 --threads 2 --seed 1 --crash-at 1000 --json " +
        crashJson + set);
    EXPECT_EQ(crash.status, 0) << crash.output;
    EXPECT_NE(slurp(crashJson).find("\"totalCycles\": " +
                                    std::to_string(cycles) + ","),
              std::string::npos)
        << slurp(crashJson);
    // The override is visible: the default log area runs differently.
    EXPECT_NE(numberAfter(tool("proteus-sim run" + args).output, "cycles:"),
              cycles);
}

TEST(CliContract, AtomTransactionCannotWrapOntoItself)
{
    // ATOM's memory controller wrapped a transaction's log entries
    // round its core's area onto the transaction's own undo data, so a
    // too-small area lost crash consistency silently (2 violations in
    // 50 ATOM/QE points at 128 bytes). It now stops with the overflow
    // fatal TxContext raises for Proteus.
    const std::string campaign =
        "proteus-crashtest --schemes atom --workloads QE --scale 2000 "
        "--init-scale 100 --sweep-points 50 --set logging.logAreaBytes=";
    const Outcome small = tool(campaign + "128");
    EXPECT_EQ(small.status, 2) << small.output;
    EXPECT_NE(small.output.find("fatal: a transaction overflowed its "
                                "1-entry log area (logging.logAreaBytes)"),
              std::string::npos)
        << small.output;
    EXPECT_EQ(small.output.find("violation"), std::string::npos)
        << small.output;
    for (const char *bytes : {"1024", "4096"}) {
        const Outcome out = tool(campaign + bytes);
        EXPECT_EQ(out.status, 0) << bytes << "\n" << out.output;
        EXPECT_NE(out.output.find("50 crash points, 0 violations\n"
                                  "CONSISTENT\n"),
                  std::string::npos)
            << bytes << "\n" << out.output;
    }
}

TEST(CliContract, CrashProgressGoesToStderr)
{
    // Progress lines come in worker order; on stdout they made two
    // --jobs runs' reports differ.
    const std::string args =
        "proteus-crashtest --schemes pmem,atom --workloads QE,HM "
        "--scale 2000 --init-scale 100 --sweep-points 4 --jobs 2";
    const Outcome quiet = runBinary(PROTEUS_TOOLS_DIR, args, "/dev/null");
    EXPECT_EQ(quiet.status, 0) << quiet.output;
    EXPECT_EQ(quiet.output.find("running"), std::string::npos)
        << quiet.output;
    EXPECT_EQ(quiet.output.find("done"), std::string::npos) << quiet.output;
    EXPECT_NE(quiet.output.find("16 crash points, 0 violations\n"
                                "CONSISTENT\n"),
              std::string::npos)
        << quiet.output;
    const Outcome all = tool(args);
    EXPECT_NE(all.output.find("  done    ATOM / HM"), std::string::npos)
        << all.output;
}

TEST(CliContract, EightThreadsRunEverywhere)
{
    // --threads takes 1 to 32, but above the baseline's four cores
    // these died with "threads exceed core count": FullSystem now
    // wires one core per thread of the bundle.
    for (const char *line :
         {"proteus-sim run QE --threads 8 --scale 2000 --init-scale 100",
          "proteus-check run QE --scheme pmem,proteus --threads 8 "
          "--scale 2000 --init-scale 100"}) {
        SCOPED_TRACE(line);
        const Outcome out = runBinary(toolsDir, line, "/dev/null");
        EXPECT_EQ(out.status, 0) << out.output;
    }
    const Outcome fig = runBinary(
        benchDir,
        "proteus-bench table4 --threads 8 --scale 100000 --init-scale 1000",
        "/dev/null");
    EXPECT_EQ(fig.status, 0) << fig.output;
}

TEST(CheckRepro, LineParsesBackToTheSameRun)
{
    // The repro line dropped --set, --faults and --fault-seed, so a
    // violation found under an override named a different machine.
    BenchOptions opts;
    opts.scale = 300;
    opts.initScale = 7;
    opts.threads = 3;
    opts.seed = 9;
    opts.dram = true;
    opts.faults = faults::parseFaultSpec("torn=0.01,detect=8,correct=1",
                                         opts.faults);
    opts.faults.seed = 5;
    opts.overrides = {"logging.logAreaBytes=4096", "memCtrl.wpqEntries=8",
                      "memCtrl.wpqEntries=16", "faults.seed=6"};
    opts.wlSpec = "keys=64";
    const auto machine = [](const SystemConfig &cfg) {
        std::ostringstream os;
        os << cfg.mem.nvmMode << " " << cfg.logging.logAreaBytes << " "
           << cfg.memCtrl.wpqEntries << " "
           << faults::canonicalFaultSpec(cfg.faults);
        return os.str();
    };
    for (const WorkloadKind kind :
         {WorkloadKind::Queue, WorkloadKind::Generated}) {
        SCOPED_TRACE(toString(kind));
        const TraceBundleKey key =
            runKey(opts, opts.makeConfig(), kind, LogScheme::ATOM,
                   {LinkedListOptions{}, opts.genSpec()});
        const std::string line = checkReproLine(key, opts);
        const std::string head =
            std::string("proteus-check run ") + toString(kind) + " ";
        ASSERT_EQ(line.rfind(head, 0), 0u) << line;

        BenchOptions back;
        std::vector<LogScheme> schemes;
        cli::OptionTable table("proteus-check run");
        for (std::vector<cli::Option> &group :
             checkRunOptions(back, schemes))
            table.add(std::move(group));
        Argv args(line.substr(head.size()));
        table.parse(args.argc(), args.ptrs.data());

        ASSERT_EQ(schemes, std::vector<LogScheme>{LogScheme::ATOM});
        const SystemConfig cfg = back.makeConfig();
        EXPECT_TRUE(runKey(back, cfg, parseWorkload(toString(kind)),
                           schemes[0],
                           {LinkedListOptions{}, back.genSpec()}) == key)
            << line;
        EXPECT_EQ(machine(cfg), machine(opts.makeConfig())) << line;
        EXPECT_EQ(back.overrides, opts.overrides);
    }

    // Default options add nothing, so default check JSON is unchanged.
    EXPECT_EQ(checkReproLine(runKey(BenchOptions{}, baselineConfig(),
                                    WorkloadKind::Queue, LogScheme::PMEM),
                             BenchOptions{}),
              "proteus-check run QE --scheme PMEM --seed 1 --threads 4 "
              "--scale 200 --init-scale 1");
}
