/**
 * @file
 * TraceEventSink: category parsing, ring-buffer bounding, Chrome Trace
 * Event JSON validity, per-track cycle ordering, and bit-identical
 * trace files no matter how many host threads run the batch.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/parallel_runner.hh"
#include "harness/system.hh"
#include "obs/json_reader.hh"
#include "sim/logging.hh"
#include "sim/trace_events.hh"

using namespace proteus;

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Extract an integer field like `"ts": 123` from one event line. */
bool
field(const std::string &line, const std::string &key, std::int64_t &out)
{
    const std::string needle = "\"" + key + "\": ";
    const auto pos = line.find(needle);
    if (pos == std::string::npos)
        return false;
    out = std::stoll(line.substr(pos + needle.size()));
    return true;
}

/** Per-track timestamps, in file order (metadata events skipped). */
std::map<std::int64_t, std::vector<std::int64_t>>
perTrackTimestamps(const std::string &json)
{
    std::map<std::int64_t, std::vector<std::int64_t>> tracks;
    std::istringstream in(json);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"ph\": \"M\"") != std::string::npos)
            continue;
        std::int64_t tid = 0, ts = 0;
        if (field(line, "tid", tid) && field(line, "ts", ts))
            tracks[tid].push_back(ts);
    }
    return tracks;
}

BenchOptions
tinyOptions()
{
    BenchOptions opts;
    opts.threads = 2;
    opts.scale = 500;
    opts.initScale = 100;
    opts.seed = 3;
    return opts;
}

} // namespace

TEST(TraceCategories, ParseAndName)
{
    EXPECT_EQ(TraceEventSink::parseCategories("cpu"), TraceCatCpu);
    EXPECT_EQ(TraceEventSink::parseCategories("cpu,log"),
              TraceCatCpu | TraceCatLog);
    EXPECT_EQ(TraceEventSink::parseCategories("all"), TraceCatAll);
    EXPECT_EQ(TraceEventSink::parseCategories("memctrl,lock"),
              TraceCatMemCtrl | TraceCatLock);
    EXPECT_THROW(TraceEventSink::parseCategories("bogus"), FatalError);
    EXPECT_THROW(TraceEventSink::parseCategories(""), FatalError);
    EXPECT_STREQ(TraceEventSink::categoryName(TraceCatCpu), "cpu");
    EXPECT_STREQ(TraceEventSink::categoryName(TraceCatLock), "lock");
}

TEST(TraceEventSink, CategoryMaskGatesRecording)
{
    TraceEventSink sink("", TraceCatCpu, 16);
    const std::uint32_t track = sink.defineTrack("t");
    sink.instant(TraceCatCpu, track, "kept", 1);
    sink.instant(TraceCatLog, track, "filtered", 2);
    EXPECT_EQ(sink.size(), 1u);
    EXPECT_TRUE(sink.wants(TraceCatCpu));
    EXPECT_FALSE(sink.wants(TraceCatLog));
}

TEST(TraceEventSink, RingBoundsEventCountAndCountsDrops)
{
    TraceEventSink sink("", TraceCatAll, 4);
    const std::uint32_t track = sink.defineTrack("t");
    for (Tick t = 0; t < 10; ++t)
        sink.instant(TraceCatCpu, track, "e", t);
    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.dropped(), 6u);

    // The survivors are the newest events, still in cycle order, and
    // the wrap is advertised: a top-level droppedEvents field plus a
    // counter event pinned at the earliest retained timestamp.
    std::ostringstream os;
    sink.write(os);
    EXPECT_NO_THROW(obs::parseJson(os.str())) << os.str();
    EXPECT_NE(os.str().find("\"droppedEvents\": 6"),
              std::string::npos);
    const auto tracks = perTrackTimestamps(os.str());
    ASSERT_EQ(tracks.size(), 2u);
    EXPECT_EQ(tracks.at(0), (std::vector<std::int64_t>{6}));
    EXPECT_EQ(tracks.at(1),
              (std::vector<std::int64_t>{6, 7, 8, 9}));
}

TEST(TraceEventSink, WritesValidJsonWithAllPhases)
{
    TraceEventSink sink("", TraceCatAll, 64);
    const std::uint32_t t1 = sink.defineTrack("pipeline");
    const std::uint32_t t2 = sink.defineTrack("wpq \"weird\\name\"");
    sink.complete(TraceCatCpu, t1, "base", 0, 10);
    sink.instant(TraceCatLock, t1, "wait", 4);
    sink.counter(TraceCatMemCtrl, t2, "occupancy", 5, 3);
    std::ostringstream os;
    sink.write(os);
    const std::string json = os.str();
    EXPECT_NO_THROW(obs::parseJson(json)) << json;
    EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\": 10"), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
    // Track name with quotes/backslash must be escaped, not raw.
    EXPECT_NE(json.find("wpq \\\"weird\\\\name\\\""),
              std::string::npos);
}

TEST(TraceEvents, FullSystemFileIsValidAndCycleOrderedPerTrack)
{
    const std::string path =
        testing::TempDir() + "/proteus_trace_test.json";
    SystemConfig cfg = baselineConfig();
    cfg.obs.traceEvents = path;

    WorkloadParams params;
    params.threads = 2;
    params.scale = 500;
    params.initScale = 100;
    params.seed = 3;

    {
        FullSystem system(cfg, WorkloadKind::Queue, params);
        ASSERT_TRUE(system.run().finished);
        ASSERT_NE(system.traceSink(), nullptr);
        EXPECT_GT(system.traceSink()->size(), 0u);
    }

    const std::string json = slurp(path);
    ASSERT_NO_THROW(obs::parseJson(json)) << path;

    const auto tracks = perTrackTimestamps(json);
    EXPECT_GE(tracks.size(), 3u);   // pipeline, tx, mc.wpq at least
    for (const auto &[tid, stamps] : tracks) {
        for (std::size_t i = 1; i < stamps.size(); ++i) {
            ASSERT_LE(stamps[i - 1], stamps[i])
                << "track " << tid << " out of order at event " << i;
        }
    }
}

TEST(TraceEvents, ParallelBatchProducesIdenticalFiles)
{
    const BenchOptions opts = tinyOptions();
    const std::string base =
        testing::TempDir() + "/proteus_trace_jobs.json";

    std::vector<SimJob> jobs;
    for (LogScheme s : {LogScheme::PMEM, LogScheme::Proteus,
                        LogScheme::ATOM}) {
        SystemConfig cfg = opts.makeConfig();
        cfg.obs.traceEvents = base;
        jobs.push_back(SimJob{cfg, s, WorkloadKind::Queue});
    }

    auto run_and_read = [&](unsigned workers) {
        ParallelRunner(workers).run(jobs, opts);
        std::vector<std::string> files;
        for (std::size_t i = 0; i < jobs.size(); ++i)
            files.push_back(slurp(perJobPath(base, i)));
        return files;
    };

    const auto serial = run_and_read(1);
    const auto parallel = run_and_read(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_NO_THROW(obs::parseJson(serial[i]));
        EXPECT_EQ(serial[i], parallel[i]) << toString(jobs[i].scheme);
    }
}

TEST(PerJobPath, InsertsIndexBeforeExtension)
{
    EXPECT_EQ(perJobPath("out/iv.json", 2), "out/iv.job2.json");
    EXPECT_EQ(perJobPath("trace", 0), "trace.job0");
    EXPECT_EQ(perJobPath("a.b/c", 1), "a.b/c.job1");
    EXPECT_EQ(perJobPath("", 3), "");
}
