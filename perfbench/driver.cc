/**
 * @file
 * Benchmark driver: runs one workload (populate, timing or crash) in
 * this process, on one host thread, and prints one JSON line of raw
 * measurements on stdout. perfbench/run.py builds this program, runs
 * it and turns the record into the reported metrics.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    [--spans FILE]
 *
 * Every repetition clears the process-wide TraceCache first, so it pays
 * the population and recording a fresh user process pays, then calls
 * the public entry points users hit: TraceCache::get for every bundle
 * (the timed set-up), then runExperiment per cell or runCrashTests for
 * the crash campaign. One untimed warm-up repetition precedes the timed
 * ones; repetitions continue until --seconds have been measured.
 *
 * --trace 1 adds an untimed counting pass (simulated statistics from
 * the stat registry), one pass of probes, and traced repetitions that
 * alternate with untraced ones. A traced repetition makes the same
 * calls through their lower-level public pieces (FullSystem wiring,
 * FullSystem::run, and a mirror of the crash tester's per-point loop)
 * and records a span around each; the spans go to --spans at exit.
 *
 * Every operation (a cell, or a crash point) is checked: the run
 * finished, the workload invariants hold, the persistency-order checker
 * passed, the crash point is consistent, and every simulated result is
 * identical across repetitions and between the traced and untraced
 * paths. Failures are counted, never fatal.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "crashtest/crash_tester.hh"
#include "harness/experiments.hh"
#include "harness/trace_cache.hh"
#include "sim/json_util.hh"
#include "sim/logging.hh"

using namespace proteus;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/// @name Spans
/// @{

/** One traced interval, in seconds since the tracer was created. */
struct Span
{
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;    ///< index of the enclosing span, -1 for a root
    int rep = -1;       ///< traced repetition, -1 for probes
    int cell = -1;      ///< cell or crash pair index, -1 for none
};

/** In-memory span recorder. When off, span() only calls through. */
class Tracer
{
  public:
    explicit Tracer(bool on) : _on(on), _epoch(Clock::now()) {}

    int rep = -1;
    int cell = -1;

    /** Run @p fn inside a span named @p name; returns what fn returns. */
    template <class F>
    decltype(auto)
    span(const char *name, F &&fn)
    {
        if (!_on)
            return fn();
        struct Close
        {
            Tracer &tracer;
            int idx;
            ~Close() { tracer.close(idx); }
        } close{*this, open(name)};
        return fn();
    }

    const std::vector<Span> &spans() const { return _spans; }

  private:
    int
    open(const char *name)
    {
        Span s;
        s.name = name;
        s.start = secondsBetween(_epoch, Clock::now());
        s.parent = _stack.empty() ? -1 : _stack.back();
        s.rep = rep;
        s.cell = cell;
        _spans.push_back(std::move(s));
        _stack.push_back(static_cast<int>(_spans.size()) - 1);
        return _stack.back();
    }

    void
    close(int idx)
    {
        _spans[idx].end = secondsBetween(_epoch, Clock::now());
        _stack.pop_back();
    }

    bool _on;
    Clock::time_point _epoch;
    std::vector<Span> _spans;
    std::vector<int> _stack;
};

/// @}

/// @name Host reference
/// @{

/**
 * A fixed computation timed next to every repetition, so run.py can
 * express host times relative to the host's current speed. The host's
 * speed swings by tens of percent for seconds to minutes; the simulator
 * and this pass slow down together, and the pass never changes with the
 * simulator. It is a dependent pointer chase through a 256 KiB ring
 * (L2-resident) plus a dependent integer hash chain, about 0.1 s on a
 * 4-core Xeon VM.
 */
class HostReference
{
  public:
    HostReference() : _next(kRing)
    {
        std::vector<std::uint32_t> order(kRing);
        for (std::uint32_t i = 0; i < kRing; ++i)
            order[i] = i;
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        for (std::uint32_t i = kRing - 1; i > 0; --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(order[i], order[x % (i + 1)]);
        }
        for (std::uint32_t i = 0; i < kRing; ++i)
            _next[order[i]] = order[(i + 1) % kRing];
    }

    /** Host seconds of one pass. */
    double
    time()
    {
        const auto t0 = Clock::now();
        std::uint32_t p = 0;
        for (std::uint32_t i = 0; i < kChaseSteps; ++i)
            p = _next[p];
        std::uint64_t h = p;
        for (std::uint32_t i = 0; i < kHashSteps; ++i)
            h = h * 6364136223846793005ull + (h >> 17);
        const double seconds = secondsBetween(t0, Clock::now());
        _sink = h;
        return seconds;
    }

  private:
    static constexpr std::uint32_t kRing = 1u << 16;
    static constexpr std::uint32_t kChaseSteps = 10'000'000;
    static constexpr std::uint32_t kHashSteps = 35'000'000;

    std::vector<std::uint32_t> _next;
    volatile std::uint64_t _sink = 0;
};

/// @}

/// @name Workloads
/// @{

/** One (workload, scheme) simulation at its own sizes. */
struct Cell
{
    WorkloadKind kind;
    LogScheme scheme;
    unsigned initScale;
    unsigned scale;
};

/** Figure 6's cost profile: population and recording dominate, and
 *  each scheme re-pays the same scheme-independent population. */
const std::vector<Cell> populateCells = {
    {WorkloadKind::HashMap, LogScheme::PMEM, 2, 1000},
    {WorkloadKind::HashMap, LogScheme::Proteus, 2, 1000},
    {WorkloadKind::BTree, LogScheme::PMEM, 4, 1000},
    {WorkloadKind::BTree, LogScheme::Proteus, 4, 1000},
};

/** Simulation-heavy cells loading different timing layers: software
 *  logging's MC write path, Proteus' LogQ/LLT/LPQ, and busy ATOM. */
const std::vector<Cell> timingCells = {
    {WorkloadKind::Queue, LogScheme::PMEM, 100, 100},
    {WorkloadKind::StringSwap, LogScheme::Proteus, 100, 100},
    {WorkloadKind::AvlTree, LogScheme::ATOM, 100, 100},
};

/** The crash campaign: every scheme over three workloads, oracle,
 *  serialize replay and the persistency-order checker all on. BT is
 *  left out: at this footprint its invariant check fails on some seeds
 *  (seed 5 under PMEM and PMEM+pcommit: "bad key count 0"). */
CrashTestOptions
crashOptions(std::uint64_t seed)
{
    CrashTestOptions o;
    o.schemes = {LogScheme::PMEM,   LogScheme::PMEMPCommit,
                 LogScheme::PMEMNoLog, LogScheme::ATOM,
                 LogScheme::Proteus, LogScheme::ProteusNoLWR};
    o.workloads = {WorkloadKind::Queue, WorkloadKind::HashMap,
                   WorkloadKind::AvlTree};
    o.threads = 1;
    o.scale = 250;
    o.initScale = 100;
    o.autoPoints = 20;
    o.check = true;
    o.jobs = 1;
    o.seed = seed;
    return o;
}

BenchOptions
cellOptions(const Cell &c, std::uint64_t seed)
{
    BenchOptions o;
    o.scale = c.scale;
    o.initScale = c.initScale;
    o.threads = 4;
    o.jobs = 1;
    o.seed = seed;
    return o;
}

/** The bundle key runExperiment looks up for @p c. */
TraceBundleKey
cellKey(const Cell &c, std::uint64_t seed)
{
    const BenchOptions o = cellOptions(c, seed);
    TraceBundleKey key;
    key.kind = c.kind;
    key.scheme = c.scheme;
    key.params.threads = o.threads;
    key.params.scale = o.scale;
    key.params.initScale = o.initScale;
    key.params.seed = o.seed;
    key.params.logAreaBytes = o.makeConfig().logging.logAreaBytes;
    return key;
}

/** The machine runExperiment wires for @p c. */
SystemConfig
cellConfig(const Cell &c, std::uint64_t seed)
{
    SystemConfig cfg = cellOptions(c, seed).makeConfig();
    cfg.logging.scheme = c.scheme;
    cfg.memCtrl.adr = c.scheme != LogScheme::PMEMPCommit;
    return cfg;
}

/** One crash pair, in runCrashTests' order. */
struct Pair
{
    LogScheme scheme;
    WorkloadKind kind;
};

std::vector<Pair>
crashPairs(const CrashTestOptions &o)
{
    std::vector<Pair> pairs;
    for (const LogScheme s : o.schemes)
        for (const WorkloadKind k : o.workloads)
            pairs.push_back({s, k});
    return pairs;
}

WorkloadParams
pairParams(const CrashTestOptions &o)
{
    WorkloadParams p;
    p.threads = o.threads;
    p.scale = o.scale;
    p.initScale = o.initScale;
    p.seed = o.seed;
    return p;
}

/** The bundle key the crash tester looks up for @p pair. */
TraceBundleKey
pairKey(const CrashTestOptions &o, const Pair &pair)
{
    TraceBundleKey key;
    key.kind = pair.kind;
    key.scheme = pair.scheme;
    key.params = pairParams(o);
    key.gen = o.gen;
    return key;
}

/** The machine the crash tester wires for @p pair. */
SystemConfig
pairConfig(const CrashTestOptions &o, const Pair &pair)
{
    SystemConfig cfg = baselineConfig();
    cfg.logging.scheme = pair.scheme;
    cfg.memCtrl.adr = pair.scheme != LogScheme::PMEMPCommit;
    cfg.seed = o.seed;
    cfg.cycleSkip = o.cycleSkip;
    cfg.faults = o.faults;
    if (o.threads > cfg.cores)
        cfg.cores = o.threads;
    return cfg;
}

/// @}

/// @name Results and checks
/// @{

/** Host times of one repetition. */
struct RepTimes
{
    double wall = 0;    ///< whole repetition
    double setup = 0;   ///< TraceCache::get for every bundle
    double main = 0;    ///< runExperiment calls or runCrashTests
    double ref = 0;     ///< HostReference pass, mean of the two around it
};

/** Exact simulated statistics summed over a workload's simulations. */
struct LayerCounts
{
    double cells = 0;
    double initOps = 0;
    double recordedUops = 0;
    double cycles = 0;
    double kernelSteps = 0;
    double skippedCycles = 0;
    double retiredUops = 0;
    double frontendStalls = 0;
    CpiStack cpi;
    double l1dMisses = 0;
    double l3Misses = 0;
    double nvmWrites = 0;
    double nvmReads = 0;
    double wpqOccupancySum = 0;     ///< per-cell means, summed
    double lpqOccupancySum = 0;
    double writesAccepted = 0;
    double writeAttempts = 0;
    double rowHits = 0;
    double rowAccesses = 0;
    double lltLookups = 0;
    double lltMisses = 0;
    double logWritesDropped = 0;
    double logqPeak = 0;

    /** Add one finished simulation. */
    void
    add(FullSystem &sys, const RunResult &r)
    {
        cells += 1;
        cycles += static_cast<double>(r.cycles);
        kernelSteps += static_cast<double>(sys.sim().kernelSteps());
        skippedCycles += static_cast<double>(sys.sim().skippedCycles());
        retiredUops += static_cast<double>(r.retiredOps);
        frontendStalls += static_cast<double>(r.frontendStallCycles);
        cpi += r.cpi;
        nvmWrites += static_cast<double>(r.nvmWrites);
        nvmReads += static_cast<double>(r.nvmReads);
        logWritesDropped += static_cast<double>(r.logWritesDropped);
        const stats::StatRegistry &reg = sys.sim().statsRegistry();
        for (const auto &[name, stat] : reg.all()) {
            const double v = stat->value();
            const auto ends = [&name](const std::string &suffix) {
                return name.size() >= suffix.size() &&
                       name.compare(name.size() - suffix.size(),
                                    suffix.size(), suffix) == 0;
            };
            if (name.rfind("cache.l1d", 0) == 0 && ends(".misses"))
                l1dMisses += v;
            else if (ends(".llt.lookups"))
                lltLookups += v;
            else if (ends(".llt.misses"))
                lltMisses += v;
            else if (ends(".logq.peakOccupancy"))
                logqPeak = std::max(logqPeak, v);
        }
        l3Misses += reg.lookup("cache.l3.misses");
        wpqOccupancySum += reg.lookup("mc.wpqOccupancy");
        lpqOccupancySum += reg.lookup("mc.lpqOccupancy");
        writesAccepted += reg.lookup("mc.writesAccepted");
        writeAttempts += reg.lookup("mc.writeAttempts");
        rowHits += reg.lookup("mc.dram.rowHits");
        rowAccesses += reg.lookup("mc.dram.rowHits") +
                       reg.lookup("mc.dram.rowMisses") +
                       reg.lookup("mc.dram.rowConflicts");
    }

    /** Add one bundle's functional work. */
    void
    addBundle(const TraceBundle &b)
    {
        recordedUops += static_cast<double>(b.totalOps());
        initOps += static_cast<double>(b.workload->initOps()) *
                   b.workload->threads();
    }

    static double
    ratio(double num, double den)
    {
        return den > 0 ? num / den : 0;
    }

    std::map<std::string, double>
    metrics() const
    {
        return {
            {"workloads.initops", initOps},
            {"trace.recorded_uops", recordedUops},
            {"sim.kernel_steps", kernelSteps},
            {"sim.skipped_cycles", skippedCycles},
            {"sim.skip_frac", ratio(skippedCycles, cycles)},
            {"cpu.retired_uops", retiredUops},
            {"cpu.frontend_stalls", frontendStalls},
            {"cpu.cpi.base", static_cast<double>(cpi.base)},
            {"cpu.cpi.robFull", static_cast<double>(cpi.robFull)},
            {"cpu.cpi.iqLsqFull", static_cast<double>(cpi.iqLsqFull)},
            {"cpu.cpi.branchRedirect",
             static_cast<double>(cpi.branchRedirect)},
            {"cpu.cpi.persistStall", static_cast<double>(cpi.persistStall)},
            {"cpu.cpi.wpqBackpressure",
             static_cast<double>(cpi.wpqBackpressure)},
            {"cpu.cpi.lockWait", static_cast<double>(cpi.lockWait)},
            {"cache.l1d.misses", l1dMisses},
            {"cache.l3.misses", l3Misses},
            {"memctrl.nvm_writes", nvmWrites},
            {"memctrl.nvm_reads", nvmReads},
            {"memctrl.wpq_occupancy", ratio(wpqOccupancySum, cells)},
            {"memctrl.lpq_occupancy", ratio(lpqOccupancySum, cells)},
            {"memctrl.write_pick_yield",
             ratio(writesAccepted, writeAttempts)},
            {"dram.row_hit_frac", ratio(rowHits, rowAccesses)},
            {"logging.llt_miss_rate", ratio(lltMisses, lltLookups)},
            {"logging.log_writes_dropped", logWritesDropped},
            {"logging.logq_peak", logqPeak},
        };
    }
};

/** Operation accounting shared by every pass. */
struct Checker
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    /** Count one operation; @p error empty means it passed. */
    void
    op(const std::string &what, const std::string &error)
    {
        ++attempted;
        if (error.empty())
            return;
        ++failed;
        if (errors.size() < 20)
            errors.push_back(what + ": " + error);
    }

    /** Compare @p got against the first value seen under @p slot. */
    std::string
    same(std::map<std::string, std::string> &seen, const std::string &slot,
         const std::string &got)
    {
        const auto [it, fresh] = seen.emplace(slot, got);
        if (fresh || it->second == got)
            return "";
        return "simulated result differs from an earlier repetition (" +
               got + " vs " + it->second + ")";
    }
};

std::string
fingerprint(const RunResult &r)
{
    std::ostringstream os;
    os << "cycles=" << r.cycles << " uops=" << r.retiredOps
       << " nvmW=" << r.nvmWrites << " nvmR=" << r.nvmReads
       << " fe=" << r.frontendStallCycles << " txs=" << r.committedTxs
       << " dropped=" << r.logWritesDropped << " llt="
       << std::setprecision(17) << r.lltMissRate << " cpi="
       << r.cpi.base << "/" << r.cpi.robFull << "/" << r.cpi.iqLsqFull
       << "/" << r.cpi.branchRedirect << "/" << r.cpi.persistStall << "/"
       << r.cpi.wpqBackpressure << "/" << r.cpi.lockWait;
    return os.str();
}

std::string
describe(const Cell &c)
{
    return std::string(toString(c.kind)) + "/" + toString(c.scheme);
}

std::string
describe(const Pair &p)
{
    return std::string(toString(p.kind)) + "/" + toString(p.scheme);
}

/** The verdict-relevant fields of one crash point. */
std::string
pointFingerprint(const CrashPointResult &p)
{
    std::ostringstream os;
    os << p.crashCycle << ":" << p.committed << ":" << p.replayed << ":"
       << p.oracle.bytesChecked << ":" << p.oracle.bytesSkipped << ":"
       << p.tornSlots << ":" << p.invariantsOk << p.serializeOk << p.ok;
    return os.str();
}

/// @}

/** State and passes of one benchmark process. */
class Bench
{
  public:
    Bench(std::string workload, std::uint64_t seed)
        : _workload(std::move(workload)), _seed(seed),
          _crashOpts(crashOptions(seed))
    {
        if (_workload == "populate")
            _cells = populateCells;
        else if (_workload == "timing")
            _cells = timingCells;
        else if (_workload == "crash")
            _pairs = crashPairs(_crashOpts);
        else
            fatal("unknown workload '", _workload,
                  "' (populate, timing or crash)");
    }

    bool isCrash() const { return !_pairs.empty(); }

    /** One untimed-or-timed repetition through the user entry points. */
    RepTimes
    untracedRep()
    {
        return isCrash() ? crashRep() : simRep();
    }

    /**
     * One repetition through the lower-level public calls, spanned
     * when @p tracer is on. With @p counts, also sums the simulated
     * statistics.
     */
    double
    directRep(Tracer &tracer, LayerCounts *counts)
    {
        TraceCache::global().clear();
        const auto t0 = Clock::now();
        if (isCrash())
            tracer.span("rep", [&] { crashMirror(tracer, counts); });
        else
            tracer.span("rep", [&] { simDirect(tracer, counts); });
        return secondsBetween(t0, Clock::now());
    }

    /** Standalone measurements the traced repetitions are split by. */
    void probes(Tracer &tracer);

    Checker check;
    std::uint64_t simCycles = 0;
    std::uint64_t simUops = 0;
    std::uint64_t bundleBuilds = 0;     ///< TraceCache misses per rep
    std::uint64_t cacheHits = 0;        ///< TraceCache hits per rep
    std::uint64_t crashPoints = 0;      ///< per rep
    std::uint64_t crashViolations = 0;  ///< per rep
    std::uint64_t tornSlots = 0;        ///< per rep

  private:
    RepTimes simRep();
    RepTimes crashRep();
    void simDirect(Tracer &tracer, LayerCounts *counts);
    void crashMirror(Tracer &tracer, LayerCounts *counts);
    CrashPointResult crashPoint(Tracer &tracer, FullSystem &sys,
                                const CommitOracle &oracle,
                                const Pair &pair);
    void cacheCounters(std::uint64_t misses, std::uint64_t hits);

    std::string _workload;
    std::uint64_t _seed;
    CrashTestOptions _crashOpts;
    std::vector<Cell> _cells;
    std::vector<Pair> _pairs;
    /** First-seen simulated results, by operation. */
    std::map<std::string, std::string> _seen;
};

void
Bench::cacheCounters(std::uint64_t misses, std::uint64_t hits)
{
    const std::string got = std::to_string(misses) + " builds, " +
                            std::to_string(hits) + " hits";
    const std::string error = check.same(_seen, "cache", got);
    if (!error.empty())
        check.op("trace cache", error);
    bundleBuilds = misses;
    cacheHits = hits;
}

RepTimes
Bench::simRep()
{
    TraceCache &cache = TraceCache::global();
    cache.clear();
    const std::uint64_t misses0 = cache.misses();
    const std::uint64_t hits0 = cache.hits();

    std::vector<std::shared_ptr<const TraceBundle>> bundles;
    std::vector<RunResult> results;
    const auto t0 = Clock::now();
    for (const Cell &c : _cells)
        bundles.push_back(cache.get(cellKey(c, _seed)));
    const auto t1 = Clock::now();
    for (const Cell &c : _cells) {
        results.push_back(runExperiment(cellOptions(c, _seed).makeConfig(),
                                        c.scheme, c.kind,
                                        cellOptions(c, _seed)));
    }
    const auto t2 = Clock::now();
    cacheCounters(cache.misses() - misses0, cache.hits() - hits0);

    simCycles = 0;
    simUops = 0;
    for (std::size_t i = 0; i < _cells.size(); ++i) {
        const RunResult &r = results[i];
        const TraceBundle &b = *bundles[i];
        std::string error;
        if (!r.finished)
            error = "run hit the cycle limit";
        else
            error = b.workload->checkInvariants(b.heap->volatileImage());
        if (error.empty())
            error = check.same(_seen, describe(_cells[i]), fingerprint(r));
        check.op(describe(_cells[i]), error);
        simCycles += r.cycles;
        simUops += r.retiredOps;
    }
    return {secondsBetween(t0, t2), secondsBetween(t0, t1),
            secondsBetween(t1, t2)};
}

void
Bench::simDirect(Tracer &tracer, LayerCounts *counts)
{
    TraceCache &cache = TraceCache::global();
    std::vector<std::shared_ptr<const TraceBundle>> bundles;
    for (std::size_t i = 0; i < _cells.size(); ++i) {
        tracer.cell = static_cast<int>(i);
        bundles.push_back(tracer.span("harness.get", [&] {
            return cache.get(cellKey(_cells[i], _seed));
        }));
    }
    for (std::size_t i = 0; i < _cells.size(); ++i) {
        const Cell &c = _cells[i];
        tracer.cell = static_cast<int>(i);
        auto sys = tracer.span("harness.wire", [&] {
            return std::make_unique<FullSystem>(cellConfig(c, _seed),
                                                bundles[i]);
        });
        const RunResult r =
            tracer.span("sim.simulate", [&] { return sys->run(); });
        if (counts) {
            counts->add(*sys, r);
            counts->addBundle(*bundles[i]);
        }
        // The direct path must reproduce runExperiment exactly.
        std::string error = r.finished ? "" : "run hit the cycle limit";
        if (error.empty())
            error = check.same(_seen, describe(c), fingerprint(r));
        check.op(describe(c) + " (direct)", error);
        tracer.span("harness.teardown", [&] { sys.reset(); });
    }
    tracer.cell = -1;
}

RepTimes
Bench::crashRep()
{
    TraceCache &cache = TraceCache::global();
    cache.clear();
    const std::uint64_t misses0 = cache.misses();
    const std::uint64_t hits0 = cache.hits();

    std::vector<std::shared_ptr<const TraceBundle>> bundles;
    const auto t0 = Clock::now();
    for (const Pair &p : _pairs)
        bundles.push_back(cache.get(pairKey(_crashOpts, p), true));
    const auto t1 = Clock::now();
    std::ostream quiet(nullptr);
    const CrashTestSummary summary = runCrashTests(_crashOpts, quiet);
    const auto t2 = Clock::now();
    cacheCounters(cache.misses() - misses0, cache.hits() - hits0);

    simCycles = 0;
    simUops = 0;
    crashPoints = summary.crashPoints;
    crashViolations = summary.violations;
    tornSlots = 0;
    for (std::size_t i = 0; i < summary.pairs.size(); ++i) {
        const CrashPairResult &pair = summary.pairs[i];
        const std::string what = describe(_pairs[i]);
        simCycles += pair.totalCycles;
        simUops += bundles[i]->totalOps();
        const std::string ref_error =
            pair.checkViolations != 0
                ? std::to_string(pair.checkViolations) +
                      " persistency-order violations"
                : check.same(_seen, what + " cycles",
                             std::to_string(pair.totalCycles));
        if (!ref_error.empty())
            check.op(what + " reference run", ref_error);
        for (std::size_t j = 0; j < pair.points.size(); ++j) {
            const CrashPointResult &p = pair.points[j];
            tornSlots += p.tornSlots;
            std::string error = p.ok ? "" : "inconsistent crash point";
            if (error.empty()) {
                error = check.same(_seen,
                                   what + "#" + std::to_string(j),
                                   pointFingerprint(p));
            }
            check.op(what + " crash at " + std::to_string(p.crashCycle),
                     error);
        }
    }
    if (!summary.ok && summary.violations == 0)
        check.op("crash campaign", "summary not ok");
    return {secondsBetween(t0, t2), secondsBetween(t0, t1),
            secondsBetween(t1, t2)};
}

/** The stride points runCrashTests' sweep mode chooses. */
std::vector<Tick>
strideCycles(Tick total, unsigned points)
{
    Tick stride = total / std::max(1u, points);
    if (stride == 0)
        stride = 1;
    std::vector<Tick> at;
    for (Tick t = stride; t < total; t += stride)
        at.push_back(t);
    return at;
}

CrashPointResult
Bench::crashPoint(Tracer &tracer, FullSystem &sys,
                  const CommitOracle &oracle, const Pair &pair)
{
    CrashPointResult row;
    row.crashCycle = sys.sim().now();
    std::vector<std::uint64_t> committed;
    for (unsigned t = 0; t < sys.coreCount(); ++t) {
        committed.push_back(sys.core(t).committedTxs().size());
        row.committed += committed.back();
    }
    MemoryImage image =
        tracer.span("crashtest.crash_image", [&] { return sys.crashImage(); });
    tracer.span("recovery.recover", [&] {
        for (const RecoveryResult &r : recoverAllThreads(sys, image)) {
            row.truncatedTail = row.truncatedTail || r.truncatedTail;
            row.tornSlots += r.tornSlots;
        }
    });
    row.oracle = tracer.span("crashtest.oracle", [&] {
        return oracle.check(image, committed, _crashOpts.maxViolations);
    });
    row.replayed = CommitOracle::replayCount(row.oracle, committed[0]);
    if (pair.scheme != LogScheme::PMEMNoLog) {
        row.invariantError = tracer.span("crashtest.invariants", [&] {
            return sys.workload().checkInvariants(image);
        });
        row.invariantsOk = row.invariantError.empty();
        row.serializeOk = tracer.span("crashtest.replay", [&] {
            PersistentHeap replay_heap;
            auto replay = makeWorkload(pair.kind, replay_heap, pair.scheme,
                                       pairParams(_crashOpts),
                                       WorkloadExtras{{}, _crashOpts.gen});
            replay->setup();
            replay->replayOps(row.replayed);
            return sys.workload().serialize(image) ==
                   replay->serialize(replay_heap.volatileImage());
        });
    }
    row.ok = row.oracle.ok && row.invariantsOk && row.serializeOk;
    return row;
}

void
Bench::crashMirror(Tracer &tracer, LayerCounts *counts)
{
    TraceCache &cache = TraceCache::global();
    std::vector<std::shared_ptr<const TraceBundle>> bundles;
    for (std::size_t i = 0; i < _pairs.size(); ++i) {
        tracer.cell = static_cast<int>(i);
        bundles.push_back(tracer.span("harness.get", [&] {
            return cache.get(pairKey(_crashOpts, _pairs[i]), true);
        }));
    }
    for (std::size_t i = 0; i < _pairs.size(); ++i) {
        const Pair &pair = _pairs[i];
        const std::string what = describe(pair);
        tracer.cell = static_cast<int>(i);
        const SystemConfig cfg = pairConfig(_crashOpts, pair);

        CommitOracle oracle;
        tracer.span("crashtest.oracle_build",
                    [&] { bundles[i]->history->replayTo(oracle); });

        SystemConfig ref_cfg = cfg;
        ref_cfg.analysis.check = true;
        auto ref = tracer.span("harness.wire", [&] {
            return std::make_unique<FullSystem>(ref_cfg, bundles[i]);
        });
        const RunResult full = tracer.span("sim.simulate_checked",
                                           [&] { return ref->run(); });
        if (counts) {
            counts->add(*ref, full);
            counts->addBundle(*bundles[i]);
        }
        std::string error = full.finished ? "" : "run hit the cycle limit";
        if (error.empty() && full.check && !full.check->pass())
            error = "persistency-order violations";
        if (error.empty()) {
            error = check.same(_seen, what + " cycles",
                               std::to_string(full.cycles));
        }
        if (!error.empty())
            check.op(what + " reference run (mirror)", error);
        tracer.span("harness.teardown", [&] { ref.reset(); });

        auto sys = tracer.span("harness.wire", [&] {
            return std::make_unique<FullSystem>(cfg, bundles[i]);
        });
        const std::vector<Tick> at =
            strideCycles(full.cycles, _crashOpts.autoPoints);
        for (std::size_t j = 0; j < at.size(); ++j) {
            const Tick now = sys->sim().now();
            if (at[j] > now) {
                tracer.span("crashtest.step",
                            [&] { sys->runFor(at[j] - now); });
            }
            const CrashPointResult p = crashPoint(tracer, *sys, oracle, pair);
            std::string perror = p.ok ? "" : "inconsistent crash point";
            if (perror.empty()) {
                // Same slot as crashRep: the mirror must agree with
                // runCrashTests point for point.
                perror = check.same(_seen, what + "#" + std::to_string(j),
                                    pointFingerprint(p));
            }
            check.op(what + " crash at " + std::to_string(p.crashCycle) +
                         " (mirror)",
                     perror);
        }
        tracer.span("harness.teardown", [&] { sys.reset(); });
    }
    tracer.cell = -1;
}

void
Bench::probes(Tracer &tracer)
{
    tracer.rep = -1;
    TraceCache &cache = TraceCache::global();
    cache.clear();
    const std::size_t n = isCrash() ? _pairs.size() : _cells.size();
    for (std::size_t i = 0; i < n; ++i) {
        tracer.cell = static_cast<int>(i);
        const TraceBundleKey key = isCrash()
                                       ? pairKey(_crashOpts, _pairs[i])
                                       : cellKey(_cells[i], _seed);
        // TraceBundle::build's two phases, timed apart: population
        // (InitOps) and recording (SimOps).
        {
            PersistentHeap heap;
            auto wl = makeWorkload(key.kind, heap, key.scheme, key.params,
                                   key.extras());
            tracer.span("probe.populate", [&] { wl->setup(); });
            heap.syncNvmToVolatile();
            tracer.span("probe.record", [&] { wl->generateTraces(); });
        }
        // The crash reference run with and without the checker, on the
        // same bundle, so the checker's cost can be split out.
        if (isCrash()) {
            auto bundle = cache.get(key, true);
            SystemConfig cfg = pairConfig(_crashOpts, _pairs[i]);
            for (const char *name :
                 {"probe.unchecked_reference", "probe.checked_reference"}) {
                FullSystem sys(cfg, bundle);
                tracer.span(name, [&] { return sys.run(); });
                cfg.analysis.check = true;
            }
        }
    }
    tracer.cell = -1;
}

/// @name Output
/// @{

void
writeNumber(std::ostream &os, double v)
{
    std::ostringstream s;
    s << std::setprecision(17) << v;
    os << s.str();
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot write spans to ", path);
    os << "[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? ",\n" : "\n") << "{\"name\": " << json::quoted(s.name)
           << ", \"start\": ";
        writeNumber(os, s.start);
        os << ", \"end\": ";
        writeNumber(os, s.end);
        os << ", \"parent\": " << s.parent << ", \"rep\": " << s.rep
           << ", \"cell\": " << s.cell << "}";
    }
    os << "\n]\n";
    if (!os)
        fatal("write to ", path, " failed");
}

void
writeReps(std::ostream &os, const char *name,
          const std::vector<RepTimes> &reps)
{
    os << ", " << json::quoted(name) << ": [";
    for (std::size_t i = 0; i < reps.size(); ++i) {
        os << (i ? ", " : "") << "{\"wall_s\": ";
        writeNumber(os, reps[i].wall);
        os << ", \"setup_s\": ";
        writeNumber(os, reps[i].setup);
        os << ", \"main_s\": ";
        writeNumber(os, reps[i].main);
        os << ", \"ref_s\": ";
        writeNumber(os, reps[i].ref);
        os << "}";
    }
    os << "]";
}

/// @}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string spans;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false;     // run.py owns the per-workload defaults
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            fatal("missing value after ", flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            a.workload = value;
        else if (flag == "--seed") {
            a.seed = std::stoull(value);
            have_seed = true;
        }
        else if (flag == "--seconds")
            a.seconds = std::stod(value);
        else if (flag == "--trace")
            a.trace = value != "0";
        else if (flag == "--spans")
            a.spans = value;
        else
            fatal("unknown option ", flag);
    }
    if (!have_seed)
        fatal("--seed N is required");
    if (a.trace && a.spans.empty())
        fatal("--trace 1 needs --spans FILE");
    return a;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB on Linux
}

int
run(const Args &args)
{
    Bench bench(args.workload, args.seed);
    bench.untracedRep();    // warm-up: page faults, allocator, caches
    // What one repetition in a fresh process holds at most; later
    // repetitions only add allocator fragmentation, which varies from
    // run to run.
    const double peak_rss_mb = peakRssMb();

    std::vector<RepTimes> untraced;
    std::vector<RepTimes> traced;
    LayerCounts counts;
    Tracer tracer(args.trace);
    if (args.trace) {
        Tracer off(false);
        bench.directRep(off, &counts);
        bench.probes(tracer);
    }

    // Alternate traced and untraced repetitions so host drift hits both
    // alike; stop once the next repetition would overrun --seconds. A
    // reference pass brackets every untraced repetition.
    HostReference reference;
    const auto start = Clock::now();
    const std::size_t min_reps = 3;
    double ref_before = reference.time();
    for (int rep = 0;; ++rep) {
        RepTimes times = bench.untracedRep();
        const double ref_after = reference.time();
        times.ref = (ref_before + ref_after) / 2;
        untraced.push_back(times);
        ref_before = ref_after;
        if (args.trace) {
            tracer.rep = rep;
            traced.push_back({bench.directRep(tracer, nullptr), 0, 0, 0});
            ref_before = reference.time();
        }
        const double elapsed = secondsBetween(start, Clock::now());
        const double per_rep = elapsed / (rep + 1);
        if (untraced.size() >= min_reps && elapsed + per_rep > args.seconds)
            break;
    }
    if (args.trace)
        writeSpans(args.spans, tracer.spans());

    std::ostringstream os;
    os << "{\"workload\": " << json::quoted(args.workload)
       << ", \"seed\": " << args.seed << ", \"attempted\": "
       << bench.check.attempted << ", \"failed\": " << bench.check.failed
       << ", \"errors\": [";
    for (std::size_t i = 0; i < bench.check.errors.size(); ++i)
        os << (i ? ", " : "") << json::quoted(bench.check.errors[i]);
    os << "]";
    writeReps(os, "untraced", untraced);
    writeReps(os, "traced", traced);
    os << ", \"sim_cycles\": " << bench.simCycles
       << ", \"sim_uops\": " << bench.simUops << ", \"peak_rss_mb\": ";
    writeNumber(os, peak_rss_mb);
    os << ", \"counts\": {";
    std::map<std::string, double> all;
    if (args.trace)
        all = counts.metrics();
    all["harness.bundle_builds"] = static_cast<double>(bench.bundleBuilds);
    all["harness.cache_hits"] = static_cast<double>(bench.cacheHits);
    all["crashtest.crash_points"] = static_cast<double>(bench.crashPoints);
    all["crashtest.violations"] = static_cast<double>(bench.crashViolations);
    all["recovery.torn_slots"] = static_cast<double>(bench.tornSlots);
    bool first = true;
    for (const auto &[name, v] : all) {
        os << (first ? "" : ", ") << json::quoted(name) << ": ";
        writeNumber(os, v);
        first = false;
    }
    os << "}}";
    std::cout << os.str() << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::cerr << "perfbench_driver: " << e.what() << "\n";
        return 1;
    }
}
