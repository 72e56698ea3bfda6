/**
 * @file
 * Experiment-harness helpers shared by the bench binaries: running one
 * (scheme x workload) configuration, speedup/geomean math, and the
 * fixed-width table printing used to reproduce the paper's figures.
 */

#ifndef PROTEUS_HARNESS_EXPERIMENTS_HH
#define PROTEUS_HARNESS_EXPERIMENTS_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "faults/fault_config.hh"
#include "obs/tx_stats_io.hh"
#include "options.hh"
#include "system.hh"

namespace proteus {

/** Command-line options shared by every bench binary. */
struct BenchOptions
{
    unsigned scale = 200;       ///< divide Table 2 SimOps
    unsigned initScale = 1;     ///< divide Table 2 InitOps (footprint)
    unsigned threads = 4;
    unsigned jobs = 0;          ///< host worker threads; 0 = all cores
    std::uint64_t seed = 1;
    bool dram = false;          ///< use the Section 7.2 DRAM config
    std::string jsonPath;       ///< write per-run JSON rows ("" = off)
    bool cycleSkip = true;      ///< --no-cycle-skip to force per-cycle
    std::vector<std::string> overrides;

    /** The trace and tx-stats flags (--stats-interval, --stats-out,
     *  --trace-events, --trace-categories, --tx-stats, --tx-slowest);
     *  makeConfig copies them into the run's config. */
    ObservabilityConfig obs;

    /// @name Generated workload (WorkloadKind::Generated)
    /// @{
    std::string wlSpec;         ///< --wl-spec k=v,... (inline spec)
    std::string wlSpecFile;     ///< --wl-spec-file FILE (base spec)
    /// @}

    /** NVM media fault injection (--faults SPEC / --fault-seed N);
     *  disabled by default, in which case every output stays
     *  bit-identical to a faultless build. */
    faults::FaultConfig faults;

    /// @name Persistency-order checking (src/analysis)
    /// @{
    bool check = false;     ///< --check: arm the online order checker
    long checkMutate = -1;  ///< --check-mutate N: campaign seed (-1 off)
    /// @}

    /** The bench flags: the size, config, machine, batch, check,
     *  trace and tx-stats groups of harness/options.hh, bound to this
     *  object's fields. */
    std::vector<std::vector<cli::Option>> optionGroups();

    /** optionGroups() as one table; @p argv0 names the program. */
    cli::OptionTable optionTable(const char *argv0);

    /** Parse argv against optionTable(); see cli::OptionTable::parse. */
    static BenchOptions parse(int argc, char **argv);

    /** Baseline config with the options applied. */
    SystemConfig makeConfig() const;

    /** The generated-workload spec of --wl-spec-file / --wl-spec
     *  (cli::genSpecFrom). Defaults when neither is set. */
    wlgen::GenSpec genSpec() const;
};

/**
 * The trace-bundle key of one run: @p kind recorded under @p scheme at
 * @p opts' threads, scale, init-scale and seed, with @p cfg's log-area
 * size (opts.makeConfig(), so --set logging.logAreaBytes counts) and
 * @p extras. Every front end builds its keys here; FullSystem takes the
 * machine's scheme, persistency domain, core count and log-area size
 * from the key. Throws FatalError if @p cfg fails
 * SystemConfig::validate under @p scheme, or if the threads' log areas
 * (two per thread under ATOM) outgrow PersistentHeap's log region.
 */
TraceBundleKey runKey(const BenchOptions &opts, const SystemConfig &cfg,
                      WorkloadKind kind, LogScheme scheme,
                      const WorkloadExtras &extras = {});

/**
 * The flags that rebuild a run of @p opts on @p kind, as both repro
 * lines print them (checkReproLine, replayCommand): --seed, --threads,
 * --scale and --init-scale, --wl-spec @p gen for a generated workload,
 * then @p mid (the caller's own flags), then --dram, --faults and every
 * --set in the order given. Each flag comes with a leading space.
 */
std::string runFlags(const BenchOptions &opts, WorkloadKind kind,
                     const wlgen::GenSpec &gen, const std::string &mid = "");

/** Run one (scheme, workload) pair to completion. When cfg.obs.txStats
 *  names a file and the run produced a flight-recorder summary, the
 *  single-run tx-stats file is written here; batches clear the per-job
 *  path and combine rows instead (see ParallelRunner). */
RunResult runExperiment(SystemConfig cfg, LogScheme scheme,
                        WorkloadKind kind, const BenchOptions &opts,
                        const WorkloadExtras &extras = {});

/** Bind a run's flight-recorder summary to its identity, the run's
 *  bundle key, for serialization (no-op row with a default summary if
 *  the recorder did not run). */
obs::TxStatsRow makeTxStatsRow(const TraceBundleKey &key,
                               const RunResult &result);

/** Geometric mean of @p values (which must be positive). */
double geomean(const std::vector<double> &values);

/** One machine-readable result row for --json output. */
struct JsonResultRow
{
    std::string scheme;
    std::string workload;
    RunResult result;
    double wallMs = 0;      ///< host wall-clock of the whole run
};

/**
 * Write @p rows as a JSON array to @p path so perf trajectories can be
 * tracked across commits. Throws FatalError if the file cannot be
 * written.
 */
void writeJsonResults(const std::string &path,
                      const std::vector<JsonResultRow> &rows);

/** Fixed-width table printer. */
class TablePrinter
{
  public:
    explicit TablePrinter(std::vector<std::string> columns);

    void printHeader(std::ostream &os) const;
    void printRow(std::ostream &os,
                  const std::vector<std::string> &cells) const;

    /** Format a double with @p precision decimals. */
    static std::string fmt(double v, int precision = 2);

  private:
    std::vector<std::string> _columns;
};

} // namespace proteus

#endif // PROTEUS_HARNESS_EXPERIMENTS_HH
