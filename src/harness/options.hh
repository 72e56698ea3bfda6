/**
 * @file
 * One option table for every front end. Each flag is declared once:
 * flag, metavar, one help line and a setter bound to the destination
 * field. The parser and --help both come from that declaration, with
 * defaults read from the bound field. The shared groups bind to the
 * caller's fields; each binary and subcommand composes only the groups
 * and entries its code reads, so every other flag is rejected.
 */

#ifndef PROTEUS_HARNESS_OPTIONS_HH
#define PROTEUS_HARNESS_OPTIONS_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "faults/fault_config.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/parse_number.hh"
#include "wlgen/spec.hh"

namespace proteus {

struct BenchOptions;

namespace cli {

/** One command-line flag. */
struct Option
{
    std::string flag;       ///< e.g. "--scale"
    std::string metavar;    ///< e.g. "N"; empty for a switch
    std::string help;       ///< one line
    std::string dflt;       ///< shown as "(default X)"; "" = none
    /** Store the value ("" for a switch) in the bound field; throws
     *  FatalError("<flag>: ...") on a bad value. */
    std::function<void(const std::string &)> set;
};

/// @name Entries bound to one field; the field's value is the default
/// @{
Option flag(std::string flag, std::string help, bool &dst,
            bool value = true);
Option text(std::string flag, std::string metavar, std::string help,
            std::string &dst);

/** An unsigned number in [@p lo, @p hi] (parseUnsigned). */
template <typename T>
Option
number(std::string flag, std::string metavar, std::string help, T &dst,
       T lo = 0, T hi = std::numeric_limits<T>::max())
{
    Option o{std::move(flag), std::move(metavar), std::move(help),
             std::to_string(dst), nullptr};
    o.set = [&dst, name = o.flag, lo, hi](const std::string &value) {
        const T n = parseUnsigned<T>(name, value);
        if (n < lo && hi == std::numeric_limits<T>::max())
            fatal(name, ": must be >= ", lo, ", got ", n);
        if (n < lo || n > hi)
            fatal(name, ": must be in [", lo, ", ", hi, "], got ", n);
        dst = n;
    };
    return o;
}
/// @}

/** Thrown once --help is printed; run() exits 0 on it. */
struct HelpShown
{
};

/** The flags one binary or subcommand accepts. */
class OptionTable
{
  public:
    /** @p usage follows "usage: " in --help. */
    explicit OptionTable(std::string usage, std::string summary = "");

    /** Append entries; a flag already in the table panics. */
    OptionTable &add(Option option);
    OptionTable &add(std::vector<Option> group);

    /** Apply argv[first, argc) in order. --help/-h prints the help and
     *  throws HelpShown; an unknown flag, a missing value or a bad
     *  value throws FatalError("<flag>: ..."). */
    void parse(int argc, char *const *argv, int first = 1) const;

    void printHelp(std::ostream &os) const;

    const std::vector<Option> &options() const { return _options; }

  private:
    std::string _usage;
    std::string _summary;
    std::vector<Option> _options;
};

/** One subcommand of a multi-command tool. */
struct Command
{
    std::string name;
    std::vector<std::string> operands;  ///< metavars, e.g. "<workload>"
    std::string help;                   ///< one line
    std::vector<std::vector<Option>> options;   ///< groups, in order
    std::function<int(const std::vector<std::string> &operands)> run;
};

/** The whole main() of a multi-command tool: argv[1] names the command,
 *  its operands follow, then its options. */
int dispatch(int argc, char **argv, const std::vector<Command> &commands);

/** The one catch around every main(): --help exits 0, a FatalError or
 *  PanicError prints its message and exits 2, and otherwise @p body's
 *  status (a verdict's 0/1) is returned. */
int run(const std::function<int()> &body);

/** @p argv0 without its directory. */
std::string programName(const char *argv0);

/// @name Shared flag groups, bound to the caller's fields
/// @{
/** --scale, --init-scale, --threads, --seed */
std::vector<Option> sizeOptions(unsigned &scale, unsigned &initScale,
                                unsigned &threads, std::uint64_t &seed);
/** --wl-spec, --wl-spec-file (see genSpecFrom) */
std::vector<Option> specOptions(std::string &spec, std::string &specFile);
/** --dram, --set (each override's key and number are checked here;
 *  its value rules are SystemConfig::validate's, applied per run) */
std::vector<Option> configOptions(bool &dram,
                                  std::vector<std::string> &overrides);
/** --no-cycle-skip, --faults, --fault-seed */
std::vector<Option> machineOptions(bool &cycleSkip,
                                   faults::FaultConfig &faults);
/** --jobs, --json FILE */
std::vector<Option> batchOptions(unsigned &jobs, std::string &jsonPath);
/** --stats-interval, --stats-out, --trace-events, --trace-categories */
std::vector<Option> traceOptions(BenchOptions &opts);
/** --tx-stats, --tx-slowest */
std::vector<Option> txStatsOptions(BenchOptions &opts);
Option checkOption(bool &check);
/** --check-mutate N: the mutation campaign's seed (-1 = off) */
Option checkMutateOption(long &seed);
/** --scheme S (parseScheme) */
Option schemeOption(LogScheme &dst);
/** A comma list of schemes or "all" (parseSchemes) */
Option schemesOption(std::string flag, std::vector<LogScheme> &dst);
/// @}

/** The spec of a --wl-spec / --wl-spec-file pair: the file (if any)
 *  with the inline spec applied on top. */
wlgen::GenSpec genSpecFrom(const std::string &spec,
                           const std::string &specFile);

} // namespace cli
} // namespace proteus

#endif // PROTEUS_HARNESS_OPTIONS_HH
