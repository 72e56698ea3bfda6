/**
 * @file
 * Harness entry points for the persistency-order checker: run one
 * (scheme, workload) pair with the checker armed, batch sweeps over
 * the scheme matrix, the seeded mutation campaign that proves every
 * armed rule fires, and the crashtest-style text / deterministic JSON
 * reports consumed by tools/proteus-check, the --check bench flag, and
 * the CI smoke step.
 *
 * Reports never include host wall-clock, and batch rows land in
 * submission order, so --jobs N output is byte-identical to --jobs 1.
 */

#ifndef PROTEUS_HARNESS_CHECK_RUNNER_HH
#define PROTEUS_HARNESS_CHECK_RUNNER_HH

#include <memory>
#include <string>
#include <vector>

#include "analysis/persist_checker.hh"
#include "analysis/rules.hh"
#include "harness/parallel_runner.hh"

namespace proteus {

/** One checked run: the machine's counters plus the verdict. */
struct CheckRow
{
    LogScheme scheme = LogScheme::Proteus;
    WorkloadKind kind = WorkloadKind::Queue;
    RunResult run;
    analysis::CheckOutcome outcome;
};

/** One mutation-campaign entry: did the targeted rule catch its own
 *  injected violation? */
struct MutationRow
{
    analysis::Rule rule = analysis::Rule::LogBeforeData;
    bool fired = false;             ///< the targeted rule reported >= 1
    std::uint64_t violations = 0;   ///< violations charged to the rule
    std::uint64_t mutations = 0;    ///< edges the mutator perturbed
};

/** The one-command repro line carried into every violation report:
 *  `proteus-check run` of @p key's workload and scheme with @p opts'
 *  runFlags (@p key must come from runKey(opts, ...)), so it rebuilds
 *  the same key and config. */
std::string checkReproLine(const TraceBundleKey &key,
                           const BenchOptions &opts);

/** The flags of `proteus-check run`, bound to @p opts and to @p
 *  schemes (--scheme); checkReproLine writes a line this table reads. */
std::vector<std::vector<cli::Option>>
checkRunOptions(BenchOptions &opts, std::vector<LogScheme> &schemes);

/** Run one (scheme, workload) pair with the checker armed. Builds the
 *  trace bundle with the write history so the software schemes arm
 *  LogBeforeData too. */
CheckRow runCheck(LogScheme scheme, WorkloadKind kind,
                  const BenchOptions &opts,
                  const WorkloadExtras &extras = {});

/** Check a prebuilt bundle (the proteus-check replay path; .ptrace
 *  bundles carry their scheme in the key). @p repro is the repro line
 *  for reports ("" = derive nothing). */
CheckRow runCheckOnBundle(std::shared_ptr<const TraceBundle> bundle,
                          const BenchOptions &opts, std::string repro);

/** Run every (scheme x workload) pair on the pool; rows land in
 *  submission order (schemes outer, workloads inner). The generated
 *  workload runs opts.genSpec(). Checked runs write no observability
 *  files: a caller that set them would race one path across jobs. */
std::vector<CheckRow> runCheckBatch(
    const std::vector<LogScheme> &schemes,
    const std::vector<WorkloadKind> &kinds, const BenchOptions &opts,
    ProgressReporter *progress = nullptr);

/**
 * The `--check-mutate` campaign: for every rule armed for @p scheme,
 * re-run the workload with a StreamMutator injecting that rule's
 * violation (k-th qualifying edge, k seeded by @p mutate_seed) and
 * record whether the rule fired. A row with fired=false means the
 * checker silently missed an injected protocol violation — the CI gate
 * fails on it.
 */
std::vector<MutationRow> runMutationCampaign(
    LogScheme scheme, WorkloadKind kind, const BenchOptions &opts,
    std::uint64_t mutate_seed, ProgressReporter *progress = nullptr);

/// @name Reports
/// @{

/** Crashtest-style text report for one checked run: per-rule table
 *  plus a minimal block per retained violation. */
std::string formatCheckReport(const CheckRow &row);

/** Text table for one mutation campaign. */
std::string formatMutationReport(LogScheme scheme, WorkloadKind kind,
                                 const std::vector<MutationRow> &rows);

/** Deterministic JSON (no wall-clock) for checked runs / campaigns. */
std::string checkRowsJson(const std::vector<CheckRow> &rows);
std::string mutationRowsJson(LogScheme scheme, WorkloadKind kind,
                             std::uint64_t mutate_seed,
                             const std::vector<MutationRow> &rows);

/** Write @p json to @p path; FatalError when the file cannot be
 *  written. */
void writeJsonFile(const std::string &path, const std::string &json);

/// @}

/** True when every run passed (no violations anywhere). */
bool allPass(const std::vector<CheckRow> &rows);
/** True when every armed rule caught its injected violation. */
bool allFired(const std::vector<MutationRow> &rows);

} // namespace proteus

#endif // PROTEUS_HARNESS_CHECK_RUNNER_HH
