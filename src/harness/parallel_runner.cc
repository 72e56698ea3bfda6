#include "parallel_runner.hh"

#include <atomic>
#include <chrono>
#include <exception>
#include <iostream>
#include <sstream>
#include <thread>

namespace proteus {

std::string
perJobPath(const std::string &path, std::size_t index)
{
    if (path.empty())
        return path;
    const std::string tag = ".job" + std::to_string(index);
    const auto slash = path.find_last_of('/');
    const auto dot = path.find_last_of('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash)) {
        return path + tag;
    }
    return path.substr(0, dot) + tag + path.substr(dot);
}

std::string
jobLabel(LogScheme s, WorkloadKind w)
{
    return std::string(toString(s)) + " / " + toString(w);
}

ProgressReporter::ProgressReporter(std::ostream &os) : _os(os)
{
}

void
ProgressReporter::line(const std::string &text)
{
    const std::lock_guard<std::mutex> lock(_mutex);
    _os << text << "\n";
}

void
ProgressReporter::beginBatch(std::size_t total, unsigned workers)
{
    const std::lock_guard<std::mutex> lock(_mutex);
    _total = total;
    _done = 0;
    _inFlight = 0;
    _workers = workers ? workers : 1;
    _wallMsSum = 0;
}

void
ProgressReporter::jobStarted(const std::string &label)
{
    const std::lock_guard<std::mutex> lock(_mutex);
    ++_inFlight;
    _os << "  running " << label << "... [" << _inFlight
        << " in flight]\n";
}

void
ProgressReporter::jobFinished(const std::string &label, double wall_ms)
{
    const std::lock_guard<std::mutex> lock(_mutex);
    --_inFlight;
    ++_done;
    _wallMsSum += wall_ms;
    _os << "  done    " << label << " ("
        << static_cast<std::uint64_t>(wall_ms) << " ms) [" << _done
        << "/" << _total;
    if (_done < _total) {
        // ETA: mean job cost so far, spread over the worker pool.
        const double avg = _wallMsSum / static_cast<double>(_done);
        const double remaining =
            avg * static_cast<double>(_total - _done) / _workers;
        _os << ", eta ~" << static_cast<std::uint64_t>(remaining)
            << " ms";
    }
    _os << "]\n";
}

ParallelRunner::ParallelRunner(unsigned jobs) : _workers(jobs)
{
    if (_workers == 0) {
        _workers = std::thread::hardware_concurrency();
        if (_workers == 0)
            _workers = 1;
    }
}

std::vector<double>
ParallelRunner::runTasks(const std::vector<Task> &tasks,
                         ProgressReporter *progress)
{
    std::vector<double> wallMs(tasks.size());
    std::vector<std::exception_ptr> errors(tasks.size());

    const std::size_t pool =
        std::min<std::size_t>(_workers, tasks.size());
    if (progress)
        progress->beginBatch(tasks.size(),
                             static_cast<unsigned>(pool ? pool : 1));

    // Tasks are claimed from a shared counter; each closure writes to
    // its own submission-indexed storage, so ordering is submission
    // order no matter which worker finishes first.
    std::atomic<std::size_t> next{0};
    auto work = [&]() {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= tasks.size())
                return;
            if (progress)
                progress->jobStarted(tasks[i].label);
            const auto start = std::chrono::steady_clock::now();
            try {
                tasks[i].fn();
            } catch (...) {
                errors[i] = std::current_exception();
            }
            wallMs[i] = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
            if (progress)
                progress->jobFinished(tasks[i].label, wallMs[i]);
        }
    };
    if (pool <= 1) {
        // Sequential fast path: no thread overhead at --jobs 1 or for
        // single-task batches.
        work();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(pool);
        for (std::size_t t = 0; t < pool; ++t)
            threads.emplace_back(work);
        for (std::thread &t : threads)
            t.join();
    }

    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
    return wallMs;
}

std::vector<SimJobResult>
ParallelRunner::run(const std::vector<SimJob> &batch,
                    const BenchOptions &opts, ProgressReporter *progress)
{
    std::vector<SimJobResult> results(batch.size());
    std::vector<Task> tasks;
    tasks.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        tasks.push_back(Task{batch[i].label, [&, i]() {
            SimJob job = batch[i];
            if (batch.size() > 1) {
                // Observability outputs must not collide across jobs:
                // derive a per-job file name from the submission index
                // (deterministic, so --jobs N matches --jobs 1).
                job.cfg.obs.statsOut =
                    perJobPath(job.cfg.obs.statsOut, i);
                job.cfg.obs.traceEvents =
                    perJobPath(job.cfg.obs.traceEvents, i);
            }
            if (!job.cfg.obs.txStats.empty()) {
                // Keep the recorder on but suppress the per-run file:
                // runBatch combines every job's summary into ONE file
                // in submission order, so the bytes are identical at
                // any --jobs level.
                job.cfg.obs.txTrack = true;
                job.cfg.obs.txStats.clear();
            }
            results[i].result = runExperiment(job.cfg, job.scheme,
                                              job.kind, opts,
                                              job.extras);
        }});
    }
    const std::vector<double> wallMs = runTasks(tasks, progress);
    for (std::size_t i = 0; i < batch.size(); ++i)
        results[i].wallMs = wallMs[i];
    return results;
}

std::vector<SimJobResult>
runBatch(const BenchOptions &opts, const std::vector<SimJob> &jobs)
{
    ParallelRunner runner(opts.jobs);
    ProgressReporter progress(std::cerr);
    const auto results = runner.run(jobs, opts, &progress);

    if (!opts.jsonPath.empty()) {
        std::vector<JsonResultRow> rows;
        rows.reserve(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i)
            rows.push_back(JsonResultRow{toString(jobs[i].scheme),
                                         toString(jobs[i].kind),
                                         results[i].result,
                                         results[i].wallMs});
        writeJsonResults(opts.jsonPath, rows);
    }
    if (!opts.obs.txStats.empty()) {
        // The runner suppressed the per-job files (see run()).
        std::vector<obs::TxStatsRow> rows;
        rows.reserve(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const SimJob &job = jobs[i];
            rows.push_back(makeTxStatsRow(
                runKey(opts, job.cfg, job.kind, job.scheme, job.extras),
                results[i].result));
        }
        obs::writeTxStatsFile(opts.obs.txStats, rows);
    }
    return results;
}

} // namespace proteus
