/**
 * @file
 * A fixed-size thread pool that runs batches of independent simulation
 * jobs — one FullSystem per (SystemConfig, LogScheme, WorkloadKind)
 * triple — concurrently.
 *
 * Every FullSystem is a self-contained deterministic machine (its own
 * Simulator, stats registry, heap, and per-thread RNGs seeded from the
 * job's config), so a batch is embarrassingly parallel. Results land in
 * submission order regardless of completion order, which makes a run at
 * --jobs N bit-identical to --jobs 1.
 */

#ifndef PROTEUS_HARNESS_PARALLEL_RUNNER_HH
#define PROTEUS_HARNESS_PARALLEL_RUNNER_HH

#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "experiments.hh"
#include "system.hh"

namespace proteus {

/**
 * Derive the per-job output path used for multi-job batches: inserts
 * ".job<index>" before the extension ("out/iv.json", 2 ->
 * "out/iv.job2.json"). Empty paths stay empty.
 */
std::string perJobPath(const std::string &path, std::size_t index);

/** One independent simulation to run. */
struct SimJob
{
    SystemConfig cfg;
    LogScheme scheme;
    WorkloadKind kind;
    WorkloadExtras extras{};
    /** The workload its result rows carry; a batch that repeats a
     *  (scheme, kind) pair names what it varies, e.g. "QE LogQ=4".
     *  Empty means toString(kind). */
    std::string name{};

    /** The row's workload name: @ref name, or toString(kind). */
    std::string workload() const;
};

/** Outcome of one job: simulated counters plus host wall-clock. */
struct SimJobResult
{
    RunResult result;
    double wallMs = 0;
};

/**
 * Serializes progress lines from concurrent jobs so per-job start and
 * finish messages never interleave mid-line. When armed via
 * beginBatch, the per-job lines also carry jobs-in-flight counts and a
 * wall-clock ETA extrapolated from finished jobs' wallMs.
 */
class ProgressReporter
{
  public:
    explicit ProgressReporter(std::ostream &os);

    /** Print @p text plus a newline, atomically. */
    void line(const std::string &text);

    /** Arm batch tracking: @p total jobs over @p workers threads. */
    void beginBatch(std::size_t total, unsigned workers);
    /** Emit the "running LABEL..." line (with in-flight count). */
    void jobStarted(const std::string &label);
    /** Emit the "done LABEL (N ms)" line (with progress and ETA). */
    void jobFinished(const std::string &label, double wall_ms);

  private:
    std::mutex _mutex;
    std::ostream &_os;
    std::size_t _total = 0;
    std::size_t _done = 0;
    std::size_t _inFlight = 0;
    unsigned _workers = 1;
    double _wallMsSum = 0;
};

/** Fixed-size thread pool for batches of simulation jobs. */
class ParallelRunner
{
  public:
    /**
     * One arbitrary unit of pool work (crash sweeps, custom batches).
     * The closure owns its own result storage — tasks claimed from the
     * shared counter write to submission-indexed slots, so batches stay
     * bit-identical at any worker count.
     */
    struct Task
    {
        std::string label;          ///< progress text
        std::function<void()> fn;
    };

    /** @p jobs worker threads; 0 means hardware_concurrency. */
    explicit ParallelRunner(unsigned jobs);

    /** Worker threads a batch may use. */
    unsigned workers() const { return _workers; }

    /**
     * Run @p batch to completion and return per-job results in
     * submission order. @p opts supplies the workload parameters shared
     * by every job (threads, scale, seed). The first job exception (in
     * submission order) is rethrown after the batch drains.
     */
    std::vector<SimJobResult> run(const std::vector<SimJob> &batch,
                                  const BenchOptions &opts,
                                  ProgressReporter *progress = nullptr);

    /**
     * Run @p tasks on the pool and return each task's host wall-clock
     * in milliseconds, indexed by submission order. The first task
     * exception (in submission order) is rethrown after the batch
     * drains.
     */
    std::vector<double> runTasks(const std::vector<Task> &tasks,
                                 ProgressReporter *progress = nullptr);

  private:
    unsigned _workers;
};

/**
 * The one batch path of the proteus-bench commands: run @p jobs on
 * opts.jobs worker threads with "<scheme> / <workload>" progress lines
 * on stderr; results come back in submission order. Honors the batch
 * outputs: --json writes one result row per job and --tx-stats one
 * combined flight-recorder file, both in submission order under each
 * job's SimJob::workload(), so their bytes are identical at any --jobs
 * level. Throws FatalError naming the first job that did not finish
 * (cycle limit), after writing those files, so no table prints an
 * unfinished run's counters as a result.
 */
std::vector<SimJobResult> runBatch(const BenchOptions &opts,
                                   const std::vector<SimJob> &jobs);

} // namespace proteus

#endif // PROTEUS_HARNESS_PARALLEL_RUNNER_HH
