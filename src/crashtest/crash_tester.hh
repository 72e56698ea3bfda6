/**
 * @file
 * Crash injection, recovery, and oracle checking over full systems.
 *
 * A CrashTester drives one FullSystem per (scheme, workload) pair
 * through an ascending series of crash points. At each point it
 * materializes the crash image non-destructively (NVM plus the
 * battery-drained queues under ADR), runs the scheme's recovery on the
 * copy, and confronts the result with the CommitOracle's per-byte
 * expectations, the workload's structural invariants, and — for
 * single-threaded runs — an end-to-end serialize comparison against a
 * functional replay of exactly the committed prefix.
 *
 * Each pair takes its trace state from the process-global TraceCache:
 * the reference run and the crash-injected run are wired from one
 * bundle, and the oracle is filled by replaying the bundle's recorded
 * WriteHistory, so repeated campaigns in one process skip trace
 * generation entirely.
 *
 * Crash points come from a fixed list (--crash-at), a cycle stride
 * (--crash-stride / --sweep), or a seeded fuzzer (--fuzz); every mode
 * is deterministic given the seed, and results are bit-identical at
 * any --jobs level (pairs are independent machines; rows land in
 * submission order).
 */

#ifndef PROTEUS_CRASHTEST_CRASH_TESTER_HH
#define PROTEUS_CRASHTEST_CRASH_TESTER_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "commit_oracle.hh"
#include "faults/fault_config.hh"
#include "harness/experiments.hh"
#include "harness/parallel_runner.hh"
#include "harness/system.hh"
#include "recovery/recovery.hh"

namespace proteus {

/** How crash points are chosen within one (scheme, workload) run. */
enum class CrashMode
{
    Stride,     ///< every N cycles (0 = auto: ~points per run)
    Points,     ///< explicit cycle list
    Fuzz,       ///< seeded-random cycles in (0, totalCycles)
};

const char *toString(CrashMode mode);

/**
 * Options of one crash-testing campaign: a bench run's settings plus
 * its crash points. Every pair runs on the machine makeConfig builds,
 * without observability outputs. With --faults a crash point may lose
 * data the media destroyed: it is verdicted detectedUnrecoverable
 * (acceptable) when ECC/poison flagged the loss; silent corruption
 * always fails. --check arms the persistency-order checker on each
 * pair's reference run. Cycle skipping clamps to the crash points, so
 * sweeps are bit-identical either way.
 */
struct CrashTestOptions : BenchOptions
{
    /** The campaign defaults: 1 thread (the byte-exact oracle needs
     *  it), scale 250, init-scale 100, seed 11 and 1 job. */
    CrashTestOptions();
    /** A campaign on every setting of @p run (proteus-bench
     *  fault-sweep's), at 1 thread and without --json; the
     *  generated-workload spec is @p run's genSpec(). */
    explicit CrashTestOptions(const BenchOptions &run);

    std::vector<LogScheme> schemes;
    std::vector<WorkloadKind> workloads;
    /** Spec for WorkloadKind::Generated entries in `workloads`. */
    wlgen::GenSpec gen;
    CrashMode mode = CrashMode::Stride;
    Tick stride = 0;                ///< Stride mode; 0 = auto
    unsigned autoPoints = 50;       ///< target points for auto stride
    std::vector<Tick> points;       ///< Points mode, cycles
    unsigned fuzzCount = 50;        ///< Fuzz mode draws per pair
    std::size_t maxViolations = 8;  ///< materialized per crash point
    /**
     * Test-only hook: skip recovery so in-flight state survives into
     * the checked image. The oracle must then report violations — this
     * is how the subsystem's own detection power is regression-tested.
     */
    bool breakRecovery = false;
    bool checkSerialization = true; ///< committed-prefix replay compare
};

/** Outcome of one crash point. */
struct CrashPointResult
{
    Tick crashCycle = 0;
    std::uint64_t committed = 0;        ///< tx-ends retired, all threads
    std::uint64_t replayed = 0;         ///< prefix used for serialize cmp
    OracleReport oracle;
    bool invariantsOk = true;
    std::string invariantError;
    bool serializeOk = true;
    std::string serializeError;
    bool truncatedTail = false;         ///< any thread's log scan
    std::uint64_t tornSlots = 0;        ///< summed over threads
    /** Log slots classified poisoned by the recovery scans. */
    std::uint64_t poisonedSlots = 0;
    /** Poisoned lines anywhere in the recovered image. */
    std::uint64_t poisonedLines = 0;
    /**
     * The crash point lost data, but every loss was *detected* (ECC
     * poison on the lines involved): an acceptable degraded outcome.
     * Rows with check failures and no detected media loss stay plain
     * failures — silent corruption is never excused.
     */
    bool detectedUnrecoverable = false;
    bool ok = true;
};

/** Outcome of one (scheme, workload) pair. */
struct CrashPairResult
{
    LogScheme scheme{};
    WorkloadKind workload{};
    Tick totalCycles = 0;               ///< full-run length
    std::uint64_t totalTxs = 0;         ///< recorded transactions
    std::vector<CrashPointResult> points;
    std::uint64_t violations = 0;       ///< oracle + invariant + serialize
    /** Persistency-order violations on the reference run (--check). */
    std::uint64_t checkViolations = 0;
    /** Crash points verdicted detectedUnrecoverable (media loss). */
    std::uint64_t detectedUnrecoverable = 0;
    std::vector<std::string> failureReports;    ///< human-readable
};

/** Campaign outcome. */
struct CrashTestSummary
{
    std::vector<CrashPairResult> pairs;
    std::uint64_t crashPoints = 0;
    std::uint64_t violations = 0;
    /** Persistency-order violations across reference runs (--check). */
    std::uint64_t checkViolations = 0;
    /** Crash points with acceptable detected-unrecoverable media loss. */
    std::uint64_t detectedUnrecoverable = 0;
    bool ok = true;
};

/**
 * Run per-thread recovery for @p system's scheme against @p image
 * (in place) and return the per-thread results. PMEMNoLog has no
 * recovery and returns empty results.
 */
std::vector<RecoveryResult> recoverAllThreads(FullSystem &system,
                                              MemoryImage &image);

/**
 * Run the campaign described by @p opts; failure reports go to @p os,
 * per-pair progress lines to stderr. Writes JSON to opts.jsonPath if
 * set. The returned summary (and the JSON) is bit-identical for any
 * opts.jobs value.
 */
CrashTestSummary runCrashTests(const CrashTestOptions &opts,
                               std::ostream &os);

/** The single command line that reproduces @p pair's campaign cell. */
std::string replayCommand(const CrashTestOptions &opts,
                          const CrashPairResult &pair);

} // namespace proteus

#endif // PROTEUS_CRASHTEST_CRASH_TESTER_HH
