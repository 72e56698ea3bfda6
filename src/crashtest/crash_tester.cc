#include "crash_tester.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <ostream>
#include <sstream>

#include "harness/check_runner.hh"
#include "harness/trace_cache.hh"
#include "sim/json_util.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace proteus {

namespace {

constexpr Tick runCycleLimit = 2'000'000'000ull;

std::string
fmtHex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

const char *
toString(InDoubtOutcome o)
{
    switch (o) {
      case InDoubtOutcome::NoEvidence: return "none";
      case InDoubtOutcome::RolledBack: return "rolledback";
      case InDoubtOutcome::Committed:  return "committed";
      case InDoubtOutcome::Torn:       return "torn";
    }
    return "unknown";
}

/** Deterministic per-pair fuzz seed: campaign seed + pair identity. */
std::uint64_t
pairFuzzSeed(std::uint64_t seed, LogScheme scheme, WorkloadKind kind)
{
    return seed * 0x9E3779B97F4A7C15ull +
           (static_cast<std::uint64_t>(scheme) << 32) +
           (static_cast<std::uint64_t>(kind) << 8) + 1;
}

/** The ascending, deduplicated crash cycles for one pair. */
std::vector<Tick>
crashCycles(const CrashTestOptions &opts, LogScheme scheme,
            WorkloadKind kind, Tick total_cycles)
{
    std::vector<Tick> points;
    switch (opts.mode) {
      case CrashMode::Stride: {
        Tick stride = opts.stride;
        if (stride == 0) {
            stride = total_cycles / std::max(1u, opts.autoPoints);
            if (stride == 0)
                stride = 1;
        }
        for (Tick at = stride; at < total_cycles; at += stride)
            points.push_back(at);
        break;
      }
      case CrashMode::Points:
        points = opts.points;
        break;
      case CrashMode::Fuzz: {
        Random rng(pairFuzzSeed(opts.seed, scheme, kind));
        const Tick hi = total_cycles > 2 ? total_cycles - 1 : 1;
        for (unsigned i = 0; i < opts.fuzzCount; ++i)
            points.push_back(rng.nextRange(1, hi));
        break;
      }
    }
    std::sort(points.begin(), points.end());
    points.erase(std::unique(points.begin(), points.end()),
                 points.end());
    while (!points.empty() && points.front() == 0)
        points.erase(points.begin());
    return points;
}

std::string
describeSerializeMismatch(const std::string &recovered,
                          const std::string &replayed)
{
    std::size_t at = 0;
    const std::size_t n = std::min(recovered.size(), replayed.size());
    while (at < n && recovered[at] == replayed[at])
        ++at;
    std::ostringstream os;
    os << "recovered state diverges from the committed-prefix replay "
          "at serialization offset "
       << at << " (recovered " << recovered.size() << " bytes, replay "
       << replayed.size() << " bytes)";
    return os.str();
}

} // namespace

const char *
toString(CrashMode mode)
{
    switch (mode) {
      case CrashMode::Stride: return "stride";
      case CrashMode::Points: return "points";
      case CrashMode::Fuzz:   return "fuzz";
    }
    return "unknown";
}

std::vector<RecoveryResult>
recoverAllThreads(FullSystem &system, MemoryImage &image)
{
    std::vector<RecoveryResult> results;
    const LogScheme scheme = system.config().logging.scheme;
    for (unsigned t = 0; t < system.coreCount(); ++t) {
        // Log-area bounds live in the bundle, so recovery also works
        // for systems wired from a cached or file-loaded bundle.
        const TraceBundle::ThreadTrace &tt = system.bundle().threads[t];
        switch (scheme) {
          case LogScheme::PMEM:
          case LogScheme::PMEMPCommit:
            results.push_back(Recovery::recoverSoftware(
                image, tt.logStart, tt.logEnd, tt.logFlag));
            break;
          case LogScheme::Proteus:
          case LogScheme::ProteusNoLWR:
            results.push_back(Recovery::recoverProteus(
                image, tt.logStart, tt.logEnd));
            break;
          case LogScheme::ATOM: {
            const auto [start, end] = system.atomLogArea(t);
            results.push_back(Recovery::recoverAtom(image, start, end));
            break;
          }
          case LogScheme::PMEMNoLog:
            break;      // not failure-safe by design
        }
    }
    return results;
}

CrashTestOptions::CrashTestOptions()
{
    threads = 1;
    scale = 250;
    initScale = 100;
    seed = 11;
    jobs = 1;
}

CrashTestOptions::CrashTestOptions(const BenchOptions &run)
    : BenchOptions(run), gen(run.genSpec())
{
    threads = 1;
    jsonPath.clear();
}

std::string
replayCommand(const CrashTestOptions &opts, const CrashPairResult &pair)
{
    std::ostringstream mode;
    switch (opts.mode) {
      case CrashMode::Stride:
        mode << " --crash-stride " << opts.stride;
        if (opts.stride == 0)
            mode << " --sweep-points " << opts.autoPoints;
        break;
      case CrashMode::Points:
        mode << " --crash-at ";
        for (std::size_t i = 0; i < opts.points.size(); ++i)
            mode << (i ? "," : "") << opts.points[i];
        break;
      case CrashMode::Fuzz:
        mode << " --fuzz " << opts.fuzzCount;
        break;
    }
    if (opts.breakRecovery)
        mode << " --break-recovery";
    return std::string("proteus-crashtest --schemes ") +
           toString(pair.scheme) + " --workloads " +
           toString(pair.workload) +
           runFlags(opts, pair.workload, opts.gen, mode.str());
}

namespace {

/**
 * Check one crash point of @p sys (non-destructive). @p populated is
 * the pair's post-setup state when the serialize check applies, else
 * null.
 */
CrashPointResult
checkCrashPoint(const CrashTestOptions &opts, FullSystem &sys,
                const CommitOracle &oracle,
                const PopulatedState *populated)
{
    const LogScheme scheme = sys.config().logging.scheme;
    CrashPointResult row;
    row.crashCycle = sys.sim().now();

    std::vector<std::uint64_t> committed;
    for (unsigned t = 0; t < sys.coreCount(); ++t) {
        committed.push_back(sys.core(t).committedTxs().size());
        row.committed += committed.back();
    }

    MemoryImage image = sys.crashImage();
    if (!opts.breakRecovery) {
        for (const RecoveryResult &r : recoverAllThreads(sys, image)) {
            row.truncatedTail = row.truncatedTail || r.truncatedTail;
            row.tornSlots += r.tornSlots;
            row.poisonedSlots += r.poisonedSlots;
        }
    }
    row.poisonedLines = image.poisonedCount();

    if (opts.threads == 1) {
        row.oracle = oracle.check(image, committed, opts.maxViolations);
        row.replayed =
            CommitOracle::replayCount(row.oracle, committed[0]);
    } else {
        row.replayed = row.committed;
    }

    // Structural invariants: meaningless for pmem+nolog, whose
    // in-flight stores legitimately survive the crash un-rolled-back.
    if (scheme != LogScheme::PMEMNoLog) {
        row.invariantError = sys.workload().checkInvariants(image);
        row.invariantsOk = row.invariantError.empty();
    }

    // End-to-end: the recovered image must equal a functional replay
    // of exactly the surviving transaction prefix, run on a copy of
    // the post-setup state.
    if (populated) {
        const PopulatedState::Instance replay =
            populated->instantiate(scheme);
        replay.workload->replayOps(row.replayed);
        const std::string recovered = sys.workload().serialize(image);
        const std::string replayed =
            replay.workload->serialize(replay.heap->volatileImage());
        row.serializeOk = recovered == replayed;
        if (!row.serializeOk)
            row.serializeError =
                describeSerializeMismatch(recovered, replayed);
    }

    // Media-loss verdict: with fault injection active, a crash point
    // whose image carries poison (flagged lines, classified log slots,
    // or tracked bytes on poisoned lines) may legitimately fail the
    // byte-exact checks — the medium destroyed data and *said so*.
    // Such points become detectedUnrecoverable instead of failures.
    // A failing point with no poison anywhere is silent corruption and
    // stays a hard failure regardless of the fault configuration.
    const bool mediaLoss = row.poisonedLines > 0 ||
                           row.poisonedSlots > 0 ||
                           row.oracle.poisonedBytes > 0;
    const bool checksOk =
        row.oracle.ok && row.invariantsOk && row.serializeOk;
    row.detectedUnrecoverable =
        mediaLoss && (!checksOk || row.oracle.poisonedBytes > 0);
    row.ok = checksOk || mediaLoss;
    return row;
}

/** Human-readable report of one failed crash point. */
std::string
formatFailure(const CrashTestOptions &opts, FullSystem &sys,
              const CrashPairResult &pair, const CrashPointResult &row)
{
    std::ostringstream os;
    os << "VIOLATION " << toString(pair.scheme) << "/"
       << toString(pair.workload) << " crash at cycle " << row.crashCycle
       << " (committed=" << row.committed << ", in-doubt "
       << toString(row.oracle.inDoubt) << ", seed=" << opts.seed
       << ")\n";
    if (!row.oracle.ok) {
        os << "  oracle: " << row.oracle.summary() << "\n";
        for (const OracleViolation &v : row.oracle.violations) {
            os << "    " << fmtHex(v.addr) << ": expected "
               << fmtHex(v.expected) << ", actual " << fmtHex(v.actual);
            if (v.alternative != v.expected)
                os << " (in-doubt alternative " << fmtHex(v.alternative)
                   << ")";
            os << ", tx " << v.guiltyTx << " — " << v.note << "\n";
        }
        if (row.oracle.violationCount > row.oracle.violations.size())
            os << "    ... "
               << row.oracle.violationCount - row.oracle.violations.size()
               << " more violating bytes\n";
    }
    if (!row.invariantsOk)
        os << "  invariants: " << row.invariantError << "\n";
    if (!row.serializeOk)
        os << "  serialize: " << row.serializeError << "\n";

    // What recovery changed, for debugging the undo path: diff the
    // pre-recovery crash image against a freshly recovered copy.
    MemoryImage pre = sys.crashImage();
    MemoryImage post = pre;
    if (!opts.breakRecovery)
        recoverAllThreads(sys, post);
    const auto delta = pre.diff(post, 64);
    if (!delta.empty()) {
        os << "  recovery changed " << delta.size()
           << (delta.size() == 64 ? "+" : "") << " words:\n"
           << MemoryImage::formatDiff(delta, 8);
    }
    os << "  replay: " << replayCommand(opts, pair) << " --crash-at "
       << row.crashCycle << "\n";
    return os.str();
}

/** Run every crash point of @p key's (scheme, workload) pair on
 *  @p cfg. */
CrashPairResult
runPair(const CrashTestOptions &opts, const SystemConfig &cfg,
        const TraceBundleKey &key)
{
    const LogScheme scheme = key.scheme;
    const WorkloadKind kind = key.kind;
    CrashPairResult pair;
    pair.scheme = scheme;
    pair.workload = kind;

    // The end-to-end serialize check replays each crash point's
    // committed prefix on a copy of the post-setup state, populated
    // once per workload. It needs a single thread — a multi-threaded
    // prefix is not replayable without the schedule — and a
    // failure-safe scheme.
    std::shared_ptr<const PopulatedState> populated;
    if (opts.threads == 1 && scheme != LogScheme::PMEMNoLog &&
        opts.checkSerialization)
        populated = TraceCache::global().populated(key);

    // One functional execution serves both the reference run and the
    // crash-injected run; the oracle is rebuilt from the bundle's
    // recorded write history, which is equivalent to live attachment
    // during trace generation.
    const std::shared_ptr<const TraceBundle> bundle =
        TraceCache::global().get(key, /*want_history=*/true);
    CommitOracle oracle;
    bundle->history->replayTo(oracle);

    // Reference run: the pair's total cycle count anchors the stride
    // and the fuzz range (and validates the configuration end to end).
    // With --check the persistency-order checker rides on it; ordering
    // violations fail the pair just like oracle violations do.
    {
        SystemConfig ref_cfg = cfg;
        if (opts.check) {
            ref_cfg.analysis.check = true;
            ref_cfg.analysis.repro = checkReproLine(key, opts);
        }
        FullSystem reference(ref_cfg, bundle);
        const RunResult full = reference.run(runCycleLimit);
        if (!full.finished)
            fatal("crashtest: reference run hit the cycle limit");
        pair.totalCycles = full.cycles;
        if (opts.check && full.check && !full.check->pass()) {
            pair.checkViolations = full.check->totalViolations;
            pair.violations += full.check->totalViolations;
            CheckRow row;
            row.scheme = scheme;
            row.kind = kind;
            row.run = full;
            row.outcome = *full.check;
            pair.failureReports.push_back(formatCheckReport(row));
        }
    }

    const std::vector<Tick> cycles =
        crashCycles(opts, scheme, kind, pair.totalCycles);

    FullSystem sys(cfg, bundle);
    pair.totalTxs = oracle.txCount();

    for (const Tick at : cycles) {
        const Tick now = sys.sim().now();
        if (at > now)
            sys.runFor(at - now);
        CrashPointResult row =
            checkCrashPoint(opts, sys, oracle, populated.get());
        if (!row.ok) {
            ++pair.violations;
            if (pair.failureReports.size() < 5)
                pair.failureReports.push_back(
                    formatFailure(opts, sys, pair, row));
        } else if (row.detectedUnrecoverable) {
            ++pair.detectedUnrecoverable;
        }
        pair.points.push_back(std::move(row));
    }
    return pair;
}

void
writeJson(const std::string &path, const CrashTestOptions &opts,
          const CrashTestSummary &summary)
{
    std::ofstream os(path);
    if (!os)
        fatal("crashtest: cannot write " + path);

    os << "{\n";
    os << "  \"tool\": \"proteus-crashtest\",\n";
    os << "  \"mode\": " << json::quoted(toString(opts.mode)) << ",\n";
    os << "  \"seed\": " << opts.seed << ",\n";
    os << "  \"threads\": " << opts.threads << ",\n";
    os << "  \"scale\": " << opts.scale << ",\n";
    os << "  \"initScale\": " << opts.initScale << ",\n";
    const bool any_gen = std::any_of(
        opts.workloads.begin(), opts.workloads.end(),
        [](WorkloadKind k) { return k == WorkloadKind::Generated; });
    if (any_gen)
        os << "  \"wlSpec\": " << json::quoted(opts.gen.canonical())
           << ",\n";
    // Fault fields appear only with injection active so the default
    // campaign's JSON stays byte-identical to a faultless build.
    if (opts.faults.enabled()) {
        os << "  \"faults\": "
           << json::quoted(faults::canonicalFaultSpec(opts.faults))
           << ",\n";
        os << "  \"detectedUnrecoverable\": "
           << summary.detectedUnrecoverable << ",\n";
    }
    os << "  \"crashPoints\": " << summary.crashPoints << ",\n";
    // Only with --check armed, so default JSON stays byte-identical.
    if (opts.check)
        os << "  \"checkViolations\": " << summary.checkViolations
           << ",\n";
    os << "  \"violations\": " << summary.violations << ",\n";
    os << "  \"ok\": " << (summary.ok ? "true" : "false") << ",\n";
    os << "  \"rows\": [";
    bool first_row = true;
    for (const CrashPairResult &pair : summary.pairs) {
        for (const CrashPointResult &row : pair.points) {
            os << (first_row ? "\n" : ",\n");
            first_row = false;
            os << "    {\"scheme\": "
               << json::quoted(toString(pair.scheme))
               << ", \"workload\": "
               << json::quoted(toString(pair.workload))
               << ", \"seed\": " << opts.seed
               << ", \"crashCycle\": " << row.crashCycle
               << ", \"totalCycles\": " << pair.totalCycles
               << ", \"committed\": " << row.committed
               << ", \"replayed\": " << row.replayed
               << ", \"inDoubt\": "
               << json::quoted(toString(row.oracle.inDoubt))
               << ", \"bytesChecked\": " << row.oracle.bytesChecked
               << ", \"bytesSkipped\": " << row.oracle.bytesSkipped
               << ", \"violations\": " << row.oracle.violationCount
               << ", \"invariantsOk\": "
               << (row.invariantsOk ? "true" : "false")
               << ", \"serializeOk\": "
               << (row.serializeOk ? "true" : "false")
               << ", \"truncatedTail\": "
               << (row.truncatedTail ? "true" : "false")
               << ", \"tornSlots\": " << row.tornSlots;
            if (opts.faults.enabled()) {
                os << ", \"poisonedSlots\": " << row.poisonedSlots
                   << ", \"poisonedLines\": " << row.poisonedLines
                   << ", \"poisonedBytes\": "
                   << row.oracle.poisonedBytes
                   << ", \"detectedUnrecoverable\": "
                   << (row.detectedUnrecoverable ? "true" : "false");
            }
            os << ", \"ok\": " << (row.ok ? "true" : "false") << "}";
        }
    }
    os << "\n  ]\n}\n";
    if (!os)
        fatal("crashtest: write to " + path + " failed");
}

} // namespace

CrashTestSummary
runCrashTests(const CrashTestOptions &opts, std::ostream &os)
{
    if (opts.schemes.empty() || opts.workloads.empty())
        fatal("crashtest: need at least one scheme and one workload");
    if (opts.threads == 0)
        fatal("crashtest: need at least one thread");
    // Pairs run side by side, so they write no observability files.
    SystemConfig cfg = opts.makeConfig();
    cfg.obs = {};

    CrashTestSummary summary;
    summary.pairs.resize(opts.schemes.size() * opts.workloads.size());

    // Progress goes to stderr, as in every front end: its line order
    // depends on the workers, so it must not mix into the report.
    ProgressReporter progress(std::cerr);
    std::vector<ParallelRunner::Task> tasks;
    for (const LogScheme scheme : opts.schemes) {
        for (const WorkloadKind kind : opts.workloads) {
            // runKey rejects a bad config before the first pair starts.
            const TraceBundleKey key = runKey(
                opts, cfg, kind, scheme, {LinkedListOptions{}, opts.gen});
            const std::size_t i = tasks.size();
            std::string label = std::string(toString(scheme)) + " / " +
                                toString(kind);
            tasks.push_back(ParallelRunner::Task{
                std::move(label), [&opts, &cfg, &summary, key, i]() {
                    summary.pairs[i] = runPair(opts, cfg, key);
                }});
        }
    }
    ParallelRunner runner(opts.jobs);
    runner.runTasks(tasks, &progress);

    for (const CrashPairResult &pair : summary.pairs) {
        summary.crashPoints += pair.points.size();
        summary.violations += pair.violations;
        summary.checkViolations += pair.checkViolations;
        summary.detectedUnrecoverable += pair.detectedUnrecoverable;
        for (const std::string &report : pair.failureReports)
            os << report;
        if (pair.violations > pair.failureReports.size()) {
            os << "  ... " << pair.violations - pair.failureReports.size()
               << " more violating crash points in "
               << toString(pair.scheme) << "/" << toString(pair.workload)
               << "\n";
        }
        if (pair.detectedUnrecoverable > 0) {
            os << "  " << pair.detectedUnrecoverable
               << " crash points with detected-unrecoverable media "
                  "loss in "
               << toString(pair.scheme) << "/" << toString(pair.workload)
               << " (acceptable)\n";
        }
    }
    summary.ok = summary.violations == 0;

    if (!opts.jsonPath.empty())
        writeJson(opts.jsonPath, opts, summary);
    return summary;
}

} // namespace proteus
