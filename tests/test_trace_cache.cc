/**
 * @file
 * TraceCache behavior (build-once sharing, populate-once across
 * schemes, history upgrade, concurrent lookups), the population /
 * recording split (a bundle recorded from a shared PopulatedState
 * equals one built from scratch, for every workload and scheme), and
 * the guarantees of the harness's one trace path: a cached run equals
 * a private-bundle run, a crashtest campaign's JSON is byte-identical
 * from a cold and a warm cache, and an oracle replayed from a bundle's
 * write history judges crash images exactly as a live one does.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bundle_compare.hh"
#include "crashtest/crash_tester.hh"
#include "harness/experiments.hh"
#include "harness/system.hh"
#include "harness/trace_cache.hh"
#include "workloads/registry.hh"

using namespace proteus;
using testbundle::expectBundlesEqual;
using testbundle::expectHeapsEqual;

namespace {

TraceBundleKey
smallKey(LogScheme scheme, std::uint64_t seed = 1)
{
    TraceBundleKey key;
    key.kind = WorkloadKind::Queue;
    key.scheme = scheme;
    key.params.threads = 2;
    key.params.scale = 2000;
    key.params.initScale = 200;
    key.params.seed = seed;
    return key;
}

/** A small key for @p kind; LinkedList and Generated get small knobs. */
TraceBundleKey
kindKey(WorkloadKind kind, LogScheme scheme)
{
    TraceBundleKey key = smallKey(scheme);
    key.kind = kind;
    key.llOpts.elementsPerNode = 64;
    if (kind == WorkloadKind::Generated) {
        key.params.scale = 1;
        key.params.initScale = 4;
        key.gen = wlgen::GenSpec::parse(
            "dist=zipf,theta=0.9,keyspace=2000,ops=400,keys=2");
    }
    return key;
}

/**
 * The bundle the pipeline built before population and recording were
 * split: one workload constructed, populated and recorded under the
 * key's own scheme, on one heap, with a write history.
 */
std::shared_ptr<TraceBundle>
unsplitBundle(const TraceBundleKey &key)
{
    auto b = std::make_shared<TraceBundle>();
    b->key = key;
    b->heap = std::make_shared<PersistentHeap>();
    b->workload = makeWorkload(key.kind, *b->heap, key.scheme, key.params,
                               key.extras());
    b->workload->setup();
    b->heap->syncNvmToVolatile();
    auto history = std::make_shared<WriteHistory>();
    for (unsigned t = 0; t < key.params.threads; ++t)
        b->workload->builder(t).setWriteObserver(history.get());
    b->workload->generateTraces();
    for (unsigned t = 0; t < key.params.threads; ++t) {
        TraceBuilder &tb = b->workload->builder(t);
        tb.setWriteObserver(nullptr);
        b->threads.push_back({tb.takeTrace(), tb.logAreaStart(),
                              tb.logAreaEnd(), tb.logFlagAddr(),
                              tb.txCount()});
    }
    b->history = std::move(history);
    b->computeLockMap();
    return b;
}

/** A copy of @p image that shares no page with it. */
MemoryImage
deepCopy(const MemoryImage &image)
{
    MemoryImage copy;
    for (const Addr index : image.pageIndices()) {
        copy.write(index << MemoryImage::pageBits, image.pageData(index),
                   MemoryImage::pageBytes);
    }
    return copy;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

TEST(TraceCache, BuildsOnceAndShares)
{
    TraceCache cache;
    const TraceBundleKey key = smallKey(LogScheme::Proteus);

    const auto a = cache.get(key);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.size(), 1u);

    const auto b = cache.get(key);
    EXPECT_EQ(a.get(), b.get());    // the same immutable bundle
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);

    // A different scheme is a different key.
    cache.get(smallKey(LogScheme::ATOM));
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.size(), 2u);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
}

TEST(TraceCache, HistoryUpgradeReplacesEntry)
{
    TraceCache cache;
    const TraceBundleKey key = smallKey(LogScheme::PMEM);

    const auto plain = cache.get(key, false);
    EXPECT_EQ(plain->history, nullptr);

    const auto with = cache.get(key, true);
    ASSERT_NE(with->history, nullptr);
    EXPECT_FALSE(with->history->empty());

    // The upgraded bundle replaces the entry; later plain lookups get
    // the history-carrying one for free.
    const auto again = cache.get(key, false);
    EXPECT_EQ(again.get(), with.get());
}

TEST(TraceCache, ConcurrentLookupsBuildOnce)
{
    TraceCache cache;
    const TraceBundleKey key = smallKey(LogScheme::Proteus, 99);

    std::vector<std::shared_ptr<const TraceBundle>> results(8);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < results.size(); ++i) {
        threads.emplace_back(
            [&cache, &key, &results, i]() { results[i] = cache.get(key); });
    }
    for (std::thread &t : threads)
        t.join();

    for (const auto &r : results) {
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r.get(), results[0].get());
    }
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), results.size() - 1);
}

TEST(TraceCache, ExperimentMatchesAPrivateBundleRun)
{
    BenchOptions opts;
    opts.scale = 2000;
    opts.initScale = 200;
    opts.threads = 2;

    for (const LogScheme scheme :
         {LogScheme::PMEM, LogScheme::ATOM, LogScheme::Proteus}) {
        SCOPED_TRACE(toString(scheme));
        const RunResult cached = runExperiment(
            baselineConfig(), scheme, WorkloadKind::Queue, opts);

        // The same run through FullSystem's convenience constructor,
        // which records a private bundle and uses its heap in place.
        SystemConfig cfg = baselineConfig();
        cfg.logging.scheme = scheme;
        WorkloadParams params;
        params.threads = opts.threads;
        params.scale = opts.scale;
        params.initScale = opts.initScale;
        params.seed = opts.seed;
        params.logAreaBytes = cfg.logging.logAreaBytes;
        const RunResult own =
            FullSystem(cfg, WorkloadKind::Queue, params).run();

        EXPECT_TRUE(cached.finished);
        EXPECT_EQ(cached.finished, own.finished);
        EXPECT_EQ(cached.cycles, own.cycles);
        EXPECT_EQ(cached.retiredOps, own.retiredOps);
        EXPECT_EQ(cached.nvmWrites, own.nvmWrites);
        EXPECT_EQ(cached.nvmReads, own.nvmReads);
        EXPECT_EQ(cached.committedTxs, own.committedTxs);
        EXPECT_EQ(cached.logWritesDropped, own.logWritesDropped);
        EXPECT_EQ(cached.frontendStallCycles, own.frontendStallCycles);
        EXPECT_EQ(cached.lltMissRate, own.lltMissRate);
        EXPECT_EQ(cached.cpi.base, own.cpi.base);
        EXPECT_EQ(cached.cpi.persistStall, own.cpi.persistStall);
        EXPECT_EQ(cached.cpi.wpqBackpressure, own.cpi.wpqBackpressure);
    }
}

TEST(TraceCache, CrashtestJsonBitIdenticalColdAndWarm)
{
    CrashTestOptions opts;
    opts.schemes = {LogScheme::Proteus, LogScheme::PMEM,
                    LogScheme::ATOM};
    opts.workloads = {WorkloadKind::Queue};
    opts.scale = 2000;
    opts.initScale = 200;
    opts.autoPoints = 6;

    const std::string cold_path = testing::TempDir() + "ct_cold.json";
    const std::string warm_path = testing::TempDir() + "ct_warm.json";

    TraceCache &cache = TraceCache::global();
    cache.clear();
    std::ostringstream sink;
    opts.jsonPath = cold_path;
    const CrashTestSummary cold = runCrashTests(opts, sink);
    const std::uint64_t hits = cache.hits();
    const std::uint64_t misses = cache.misses();
    const std::uint64_t populations = cache.populations();
    opts.jsonPath = warm_path;
    const CrashTestSummary warm = runCrashTests(opts, sink);

    // The warm campaign records and populates nothing.
    EXPECT_GT(cache.hits(), hits);
    EXPECT_EQ(cache.misses(), misses);
    EXPECT_EQ(cache.populations(), populations);

    EXPECT_TRUE(cold.ok);
    EXPECT_TRUE(warm.ok);
    EXPECT_EQ(cold.crashPoints, warm.crashPoints);
    const std::string a = slurp(cold_path);
    const std::string b = slurp(warm_path);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);    // byte-for-byte identical rows

    std::remove(cold_path.c_str());
    std::remove(warm_path.c_str());
}

TEST(WriteHistory, ReplayedOracleMatchesLiveAttachment)
{
    // The crash tester fills its oracle by replaying a cached bundle's
    // history. Attaching the oracle live to a fresh recording must
    // give the same transactions and the same verdicts on every image.
    bool some_check_failed = false;
    for (const WorkloadKind kind :
         {WorkloadKind::Queue, WorkloadKind::HashMap}) {
        for (const LogScheme scheme :
             {LogScheme::PMEM, LogScheme::ATOM, LogScheme::Proteus}) {
            SCOPED_TRACE(std::string(toString(kind)) + "/" +
                         toString(scheme));
            TraceBundleKey key = smallKey(scheme);
            key.kind = kind;
            key.params.threads = 1;

            const auto bundle = TraceCache::global().get(key, true);
            CommitOracle replayed;
            bundle->history->replayTo(replayed);

            PopulatedState::Instance copy =
                PopulatedState::build(key)->instantiate(scheme);
            CommitOracle live;
            copy.workload->builder(0).setWriteObserver(&live);
            copy.workload->generateTraces();

            ASSERT_GT(live.txCount(), 0u);
            EXPECT_EQ(replayed.txCount(), live.txCount());
            EXPECT_EQ(replayed.trackedBytes(), live.trackedBytes());
            EXPECT_EQ(replayed.txOrder(0), live.txOrder(0));

            const SystemConfig cfg = baselineConfig();
            const Tick total = FullSystem(cfg, bundle).run().cycles;
            FullSystem sys(cfg, bundle);
            for (unsigned i = 1; i <= 5; ++i) {
                sys.runFor(total * i / 6 - sys.sim().now());
                const std::vector<std::uint64_t> committed{
                    sys.core(0).committedTxs().size()};
                MemoryImage recovered = sys.crashImage();
                const MemoryImage raw = recovered;
                recoverAllThreads(sys, recovered);
                // The recovered image at the true commit count, the raw
                // one, and the recovered one judged as if nothing had
                // committed: the last makes every surviving committed
                // write a violation, so failing verdicts are compared
                // too.
                const std::pair<const MemoryImage *,
                                std::vector<std::uint64_t>>
                    cases[] = {{&recovered, committed},
                               {&raw, committed},
                               {&recovered, {0}}};
                for (const auto &[image, claimed] : cases) {
                    const OracleReport a = replayed.check(*image, claimed);
                    const OracleReport b = live.check(*image, claimed);
                    EXPECT_EQ(a.ok, b.ok);
                    EXPECT_EQ(a.violationCount, b.violationCount);
                    EXPECT_EQ(a.bytesChecked, b.bytesChecked);
                    EXPECT_EQ(a.bytesSkipped, b.bytesSkipped);
                    EXPECT_EQ(a.inDoubt, b.inDoubt);
                    EXPECT_EQ(a.inDoubtTx, b.inDoubtTx);
                    EXPECT_EQ(a.summary(), b.summary());
                    some_check_failed = some_check_failed || !a.ok;
                }
                EXPECT_TRUE(replayed.check(recovered, committed).ok);
            }
        }
    }
    EXPECT_TRUE(some_check_failed);
}

TEST(PopulatedState, ClonedRecordingMatchesFreshBuildForEveryKindAndScheme)
{
    for (const WorkloadRegistration &reg : workloadRegistry()) {
        SCOPED_TRACE(reg.abbrev);
        const TraceBundleKey base = kindKey(reg.kind, LogScheme::Proteus);
        const auto state = PopulatedState::build(base);
        const MemoryImage volatile_before =
            deepCopy(state->heap().volatileImage());
        const MemoryImage nvm_before = deepCopy(state->heap().nvmImage());
        const PersistentHeap::AllocState alloc_before =
            state->heap().allocState();
        const std::string serialized_before =
            state->workload().serialize(state->heap().volatileImage());

        for (const LogScheme scheme : allSchemes()) {
            SCOPED_TRACE(toString(scheme));
            TraceBundleKey key = base;
            key.scheme = scheme;
            const auto shared = TraceBundle::record(*state, scheme, true);
            const auto fresh = TraceBundle::build(key, true);
            const auto unsplit = unsplitBundle(key);
            expectBundlesEqual(*shared, *fresh);
            expectBundlesEqual(*shared, *unsplit);
            EXPECT_EQ(shared->workload->serialize(
                          shared->heap->volatileImage()),
                      unsplit->workload->serialize(
                          unsplit->heap->volatileImage()));
        }

        // Six recordings later the shared state is exactly as built.
        EXPECT_TRUE(
            state->heap().volatileImage().identical(volatile_before));
        EXPECT_TRUE(state->heap().nvmImage().identical(nvm_before));
        EXPECT_EQ(state->heap().allocState().persistentAlloc.next,
                  alloc_before.persistentAlloc.next);
        EXPECT_EQ(state->heap().allocState().volatileAlloc.next,
                  alloc_before.volatileAlloc.next);
        EXPECT_EQ(state->heap().allocState().chaseArena,
                  alloc_before.chaseArena);
        EXPECT_EQ(state->workload().serialize(
                      state->heap().volatileImage()),
                  serialized_before);
    }
}

TEST(PopulatedState, PopulationIgnoresTheScheme)
{
    for (const WorkloadRegistration &reg : workloadRegistry()) {
        SCOPED_TRACE(reg.abbrev);
        const auto state =
            PopulatedState::build(kindKey(reg.kind, LogScheme::PMEM));
        for (const LogScheme scheme : allSchemes()) {
            SCOPED_TRACE(toString(scheme));
            const TraceBundleKey key = kindKey(reg.kind, scheme);
            EXPECT_TRUE(key.populationKey() == state->key);
            PersistentHeap heap;
            auto wl = makeWorkload(key.kind, heap, scheme, key.params,
                                   key.extras());
            wl->setup();
            heap.syncNvmToVolatile();
            expectHeapsEqual(heap, state->heap());
            EXPECT_EQ(wl->serialize(heap.volatileImage()),
                      state->workload().serialize(
                          state->heap().volatileImage()));
        }
    }
}

TEST(PopulatedState, InstancesReplayIndependently)
{
    const auto state =
        PopulatedState::build(smallKey(LogScheme::Proteus));
    const std::string populated =
        state->workload().serialize(state->heap().volatileImage());

    PopulatedState::Instance a = state->instantiate(LogScheme::PMEM);
    PopulatedState::Instance b = state->instantiate(LogScheme::ATOM);
    a.workload->replayOps(5);
    EXPECT_NE(a.workload->serialize(a.heap->volatileImage()), populated);
    EXPECT_EQ(b.workload->serialize(b.heap->volatileImage()), populated);
    b.workload->replayOps(5);
    EXPECT_EQ(a.workload->serialize(a.heap->volatileImage()),
              b.workload->serialize(b.heap->volatileImage()));
    EXPECT_EQ(state->workload().serialize(state->heap().volatileImage()),
              populated);
}

TEST(TraceCache, PopulatesOncePerWorkloadAcrossSchemes)
{
    TraceCache cache;
    for (const LogScheme scheme : allSchemes())
        cache.get(smallKey(scheme));
    EXPECT_EQ(cache.populations(), 1u);
    EXPECT_EQ(cache.misses(), allSchemes().size());
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.populated(smallKey(LogScheme::ATOM)).get(),
              cache.populated(smallKey(LogScheme::PMEM)).get());

    // A history upgrade re-records from the cached population.
    const auto upgraded = cache.get(smallKey(LogScheme::PMEM), true);
    ASSERT_NE(upgraded->history, nullptr);
    EXPECT_EQ(cache.populations(), 1u);
    EXPECT_EQ(cache.misses(), allSchemes().size() + 1);

    // Another workload, or other params, is another population.
    cache.get(smallKey(LogScheme::PMEM, 7));
    EXPECT_EQ(cache.populations(), 2u);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    cache.get(smallKey(LogScheme::Proteus));
    EXPECT_EQ(cache.populations(), 3u);
}

TEST(TraceCache, ConcurrentSchemesPopulateOnce)
{
    TraceCache cache;
    std::vector<std::shared_ptr<const TraceBundle>> results(
        allSchemes().size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < results.size(); ++i) {
        threads.emplace_back([&cache, &results, i]() {
            results[i] = cache.get(smallKey(allSchemes()[i], 5));
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(cache.populations(), 1u);
    EXPECT_EQ(cache.misses(), allSchemes().size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE(toString(allSchemes()[i]));
        ASSERT_NE(results[i], nullptr);
        expectBundlesEqual(*results[i],
                           *TraceBundle::build(smallKey(allSchemes()[i], 5)));
    }
}
