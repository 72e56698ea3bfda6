#include "options.hh"

#include <algorithm>
#include <iostream>
#include <sstream>

#include "sim/trace_events.hh"

namespace proteus {
namespace cli {

namespace {

bool
isHelp(const std::string &arg)
{
    return arg == "--help" || arg == "-h";
}

/** "PMEM, PMEM+pcommit, ...": the names parseScheme accepts, in any
 *  case. */
std::string
schemeNames()
{
    std::string out;
    for (LogScheme s : allSchemes())
        out += (out.empty() ? "" : ", ") + std::string(toString(s));
    return out;
}

/** Print "  <left>  <right>" rows with the right column aligned and
 *  word-wrapped to 79 columns. */
void
printRows(std::ostream &os,
          const std::vector<std::pair<std::string, std::string>> &rows)
{
    std::size_t indent = 0;
    for (const auto &row : rows)
        indent = std::max(indent, row.first.size() + 4);
    for (const auto &[left, right] : rows) {
        std::string line = "  " + left;
        line.resize(indent, ' ');
        std::istringstream words(right);
        for (std::string word; words >> word; line += word) {
            if (line.size() == indent)
                continue;
            if (line.size() + 1 + word.size() <= 79) {
                line += ' ';
                continue;
            }
            os << line << "\n";
            line.assign(indent, ' ');
        }
        os << line << "\n";
    }
}

/** "name <operand>...", a command's synopsis. */
std::string
synopsis(const Command &c)
{
    std::string out = c.name;
    for (const std::string &operand : c.operands)
        out += " " + operand;
    return out;
}

} // namespace

Option
flag(std::string flag, std::string help, bool &dst, bool value)
{
    return {std::move(flag), "", std::move(help), "",
            [&dst, value](const std::string &) { dst = value; }};
}

Option
text(std::string flag, std::string metavar, std::string help,
     std::string &dst)
{
    return {std::move(flag), std::move(metavar), std::move(help), dst,
            [&dst](const std::string &value) { dst = value; }};
}

OptionTable::OptionTable(std::string usage, std::string summary)
    : _usage(std::move(usage)), _summary(std::move(summary))
{
}

OptionTable &
OptionTable::add(Option option)
{
    for (const Option &o : _options) {
        if (o.flag == option.flag)
            panic("option table lists ", option.flag, " twice");
    }
    _options.push_back(std::move(option));
    return *this;
}

OptionTable &
OptionTable::add(std::vector<Option> group)
{
    for (Option &o : group)
        add(std::move(o));
    return *this;
}

void
OptionTable::parse(int argc, char *const *argv, int first) const
{
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (isHelp(arg)) {
            printHelp(std::cout);
            throw HelpShown{};
        }
        const auto it = std::find_if(
            _options.begin(), _options.end(),
            [&](const Option &o) { return o.flag == arg; });
        if (it == _options.end())
            fatal(arg, ": unknown option (see --help)");
        if (it->metavar.empty()) {
            it->set("");
            continue;
        }
        if (i + 1 >= argc)
            fatal(arg, ": missing value ", it->metavar);
        it->set(argv[++i]);
    }
}

void
OptionTable::printHelp(std::ostream &os) const
{
    os << "usage: " << _usage << "\n";
    if (!_summary.empty())
        os << "\n" << _summary << "\n";
    if (_options.empty())
        return;
    std::vector<std::pair<std::string, std::string>> rows;
    for (const Option &o : _options) {
        rows.emplace_back(
            o.metavar.empty() ? o.flag : o.flag + " " + o.metavar,
            o.dflt.empty() ? o.help
                           : o.help + " (default " + o.dflt + ")");
    }
    os << "\noptions:\n";
    printRows(os, rows);
}

int
dispatch(int argc, char **argv, const std::vector<Command> &commands)
{
    const std::string program = programName(argv[0]);
    return run([&] {
        const std::string name = argc > 1 ? argv[1] : "";
        if (isHelp(name)) {
            std::vector<std::pair<std::string, std::string>> rows;
            for (const Command &c : commands)
                rows.emplace_back(synopsis(c), c.help);
            std::cout << "usage: " << program
                      << " <command> [options]\n\ncommands:\n";
            printRows(std::cout, rows);
            std::cout << "\n'" << program
                      << " <command> --help' lists a command's options.\n";
            return 0;
        }
        if (name.empty())
            fatal("missing command (see ", program, " --help)");
        const auto cmd = std::find_if(
            commands.begin(), commands.end(),
            [&](const Command &c) { return c.name == name; });
        if (cmd == commands.end())
            fatal(name, ": unknown command (see ", program, " --help)");

        OptionTable table(program + " " + synopsis(*cmd) +
                              (cmd->options.empty() ? "" : " [options]"),
                          cmd->help);
        for (const std::vector<Option> &group : cmd->options)
            table.add(group);

        std::vector<std::string> operands;
        int i = 2;
        for (const std::string &operand : cmd->operands) {
            if (i < argc && isHelp(argv[i]))
                break;  // parse() below prints the help
            if (i >= argc || argv[i][0] == '-')
                fatal(name, ": missing ", operand);
            operands.push_back(argv[i++]);
        }
        table.parse(argc, argv, i);
        return cmd->run(operands);
    });
}

int
run(const std::function<int()> &body)
{
    try {
        return body();
    } catch (const HelpShown &) {
        return 0;
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
    } catch (const PanicError &e) {
        std::cerr << e.what() << "\n";
    }
    return 2;
}

std::string
programName(const char *argv0)
{
    const std::string path = argv0;
    return path.substr(path.find_last_of('/') + 1);
}

std::vector<Option>
sizeOptions(unsigned &scale, unsigned &initScale, unsigned &threads,
            std::uint64_t &seed)
{
    // A zero divisor or an impossible thread count would otherwise fail
    // deep inside workload construction.
    return {
        number("--scale", "N",
               "divide Table 2 SimOps by N; 1 = paper size", scale, 1u),
        number("--init-scale", "N",
               "divide Table 2 InitOps (the working set); 1 = paper size",
               initScale, 1u),
        number("--threads", "N", "simulated cores, 1 to 32", threads, 1u, 32u),
        number("--seed", "N", "workload RNG seed", seed),
    };
}

std::vector<Option>
specOptions(std::string &spec, std::string &specFile)
{
    return {
        text("--wl-spec", "k=v,...",
             "generated-workload spec for workload 'gen' (see "
             "proteus-sim list)",
             spec),
        text("--wl-spec-file", "FILE",
             "base spec file; --wl-spec applies on top", specFile),
    };
}

std::vector<Option>
configOptions(bool &dram, std::vector<std::string> &overrides)
{
    return {
        flag("--dram", "DRAM timing (Section 7.2)", dram),
        {"--set", "k=v",
         "config override, e.g. logging.logQEntries=8 (repeatable)", "",
         [&overrides](const std::string &v) {
             baselineConfig().applyOverride(v);     // reject it here
             overrides.push_back(v);
         }},
    };
}

std::vector<Option>
machineOptions(bool &cycleSkip, faults::FaultConfig &faults)
{
    return {
        flag("--no-cycle-skip",
             "tick every cycle instead of skipping quiescent spans "
             "(same results, slower)",
             cycleSkip, false),
        {"--faults", "SPEC",
         "NVM media fault injection, e.g. "
         "torn=0.01,readflip=1e-4,detect=8,correct=1",
         "off",
         [&faults](const std::string &v) {
             faults = faults::parseFaultSpec(v, faults);
         }},
        number("--fault-seed", "N", "fault-draw seed", faults.seed),
    };
}

std::vector<Option>
batchOptions(unsigned &jobs, std::string &jsonPath)
{
    return {
        number("--jobs", "N", "host worker threads; 0 = all cores", jobs),
        text("--json", "FILE", "write the results as JSON", jsonPath),
    };
}

Option
checkOption(bool &check)
{
    return flag("--check",
                "arm the persistency-order checker; an ordering "
                "violation fails the run (see proteus-check)",
                check);
}

Option
checkMutateOption(long &seed)
{
    return {"--check-mutate", "N",
            "seeded mutation campaign: inject one violation per armed "
            "rule (seed N) and require every rule to fire",
            "", [&seed](const std::string &v) {
                seed = parseUnsigned<std::uint32_t>("--check-mutate", v);
            }};
}

std::vector<Option>
traceOptions(ObservabilityConfig &obs)
{
    return {
        number("--stats-interval", "N",
               "sample scalar-stat deltas every N cycles into --stats-out; "
               "0 = off",
               obs.statsInterval),
        text("--stats-out", "FILE", "interval time series (.json or .csv)",
             obs.statsOut),
        text("--trace-events", "FILE",
             "Chrome Trace Event JSON (load in ui.perfetto.dev)",
             obs.traceEvents),
        {"--trace-categories", "LIST",
         "comma list of cpu,memctrl,log,lock,faults,all", "all",
         [&obs](const std::string &v) {
             obs.traceCategories = TraceEventSink::parseCategories(v);
         }},
    };
}

std::vector<Option>
txStatsOptions(ObservabilityConfig &obs)
{
    return {
        text("--tx-stats", "FILE",
             "transaction flight-recorder summary (.json or .csv; see "
             "proteus-txstats)",
             obs.txStats),
        number("--tx-slowest", "K",
               "keep full timelines for the K slowest transactions",
               obs.txSlowest),
    };
}

Option
schemeOption(LogScheme &dst)
{
    return {"--scheme", "S", "logging scheme: one of " + schemeNames(),
            toString(dst),
            [&dst](const std::string &v) { dst = parseScheme(v); }};
}

Option
schemesOption(std::string flag, std::vector<LogScheme> &dst)
{
    return {std::move(flag), "LIST",
            "comma list of " + schemeNames() + ", or all",
            dst == allSchemes() ? "all" : "",
            [&dst](const std::string &v) { dst = parseSchemes(v); }};
}

wlgen::GenSpec
genSpecFrom(const std::string &spec, const std::string &specFile)
{
    wlgen::GenSpec out;
    if (!specFile.empty())
        out = wlgen::GenSpec::parseFile(specFile);
    if (!spec.empty())
        out = wlgen::GenSpec::parse(spec, out);
    return out;
}

} // namespace cli
} // namespace proteus
