/**
 * @file
 * ParallelRunner determinism: a batch run on 4 worker threads must
 * produce bit-identical RunResult counters, in the same submission
 * order, as the same batch run on 1 thread. Each job is an independent
 * FullSystem, so any divergence means shared mutable state leaked
 * between concurrent instances.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/parallel_runner.hh"

using namespace proteus;

namespace {

BenchOptions
tinyOptions()
{
    BenchOptions opts;
    opts.threads = 2;
    opts.scale = 500;       // divide Table 2 SimOps: tiny run
    opts.initScale = 100;
    opts.seed = 3;
    return opts;
}

std::vector<SimJob>
smallMatrix(const BenchOptions &opts)
{
    const std::vector<LogScheme> schemes{
        LogScheme::PMEM, LogScheme::ATOM, LogScheme::Proteus};
    const std::vector<WorkloadKind> workloads{WorkloadKind::Queue,
                                              WorkloadKind::BTree};
    std::vector<SimJob> jobs;
    for (LogScheme s : schemes) {
        for (WorkloadKind w : workloads)
            jobs.push_back(SimJob{opts.makeConfig(), s, w});
    }
    return jobs;
}

/** A job's progress label, "<scheme> / <workload>". */
std::string
labelOf(const SimJob &job)
{
    return std::string(toString(job.scheme)) + " / " + job.workload();
}

void
expectSameCounters(const RunResult &a, const RunResult &b,
                   const std::string &label)
{
    EXPECT_EQ(a.finished, b.finished) << label;
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.retiredOps, b.retiredOps) << label;
    EXPECT_EQ(a.committedTxs, b.committedTxs) << label;
    EXPECT_EQ(a.nvmWrites, b.nvmWrites) << label;
    EXPECT_EQ(a.nvmReads, b.nvmReads) << label;
    EXPECT_EQ(a.logWritesDropped, b.logWritesDropped) << label;
}

} // namespace

TEST(ParallelRunner, ZeroWorkersMeansHardwareConcurrency)
{
    ParallelRunner runner(0);
    EXPECT_GE(runner.workers(), 1u);
    EXPECT_EQ(ParallelRunner(3).workers(), 3u);
}

TEST(ParallelRunner, EmptyBatchReturnsNoResults)
{
    ParallelRunner runner(4);
    EXPECT_TRUE(runner.run({}, tinyOptions()).empty());
}

TEST(ParallelRunner, FourWorkersMatchOneWorker)
{
    const BenchOptions opts = tinyOptions();
    const std::vector<SimJob> jobs = smallMatrix(opts);

    const auto serial = ParallelRunner(1).run(jobs, opts);
    const auto parallel = ParallelRunner(4).run(jobs, opts);

    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(parallel.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        expectSameCounters(serial[i].result, parallel[i].result,
                           labelOf(jobs[i]));
        EXPECT_TRUE(parallel[i].result.finished) << labelOf(jobs[i]);
    }
}

TEST(ParallelRunner, RepeatedParallelRunsAreIdentical)
{
    const BenchOptions opts = tinyOptions();
    const std::vector<SimJob> jobs = smallMatrix(opts);

    ParallelRunner runner(4);
    const auto first = runner.run(jobs, opts);
    const auto second = runner.run(jobs, opts);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectSameCounters(first[i].result, second[i].result,
                           labelOf(jobs[i]));
}

TEST(ParallelRunner, ProgressLinesAreWholeLines)
{
    const BenchOptions opts = tinyOptions();
    const std::vector<SimJob> jobs = smallMatrix(opts);

    std::ostringstream os;
    ProgressReporter progress(os);
    ParallelRunner(4).run(jobs, opts, &progress);

    // Two lines per job (start + done), each naming a known job as
    // "<scheme> / <workload>".
    std::istringstream in(os.str());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        bool matched = false;
        for (const SimJob &job : jobs)
            matched = matched ||
                      line.find(labelOf(job)) != std::string::npos;
        EXPECT_TRUE(matched) << "torn progress line: " << line;
    }
    EXPECT_EQ(lines, 2 * jobs.size());
}

TEST(ParallelRunner, BatchFailsOnAJobThatDidNotFinish)
{
    // runBatch is the one place a batch checks `finished`: a job that
    // hits the cycle limit must not print its counters as a result.
    // Here every NVM write activation outlasts the limit.
    BenchOptions opts = tinyOptions();
    opts.jobs = 2;
    opts.jsonPath = testing::TempDir() + "/proteus_unfinished.json";
    SystemConfig slow = opts.makeConfig();
    slow.applyOverride("mem.nvmWriteTRCD=1000000000");
    const std::vector<SimJob> jobs{
        SimJob{opts.makeConfig(), LogScheme::PMEM, WorkloadKind::Queue},
        SimJob{slow, LogScheme::PMEM, WorkloadKind::Queue, {}, "QE slow"}};
    testing::internal::CaptureStderr();
    try {
        runBatch(opts, jobs);
        ADD_FAILURE() << "an unfinished job passed";
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "fatal: PMEM / QE slow: did not finish (cycle limit)");
    }
    testing::internal::GetCapturedStderr();
    // The rows are written first, so the unfinished one can be read.
    std::ifstream is(opts.jsonPath);
    std::ostringstream rows;
    rows << is.rdbuf();
    EXPECT_NE(rows.str().find("\"workload\": \"QE slow\", \"finished\": "
                              "false"),
              std::string::npos)
        << rows.str();
}
