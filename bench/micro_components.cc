/**
 * @file
 * google-benchmark microbenchmarks of the simulator substrates: how
 * fast is the simulator itself (host-side), per component.
 */

#include <benchmark/benchmark.h>

#include "dram/nvm_timing.hh"
#include "cache/cache_array.hh"
#include "harness/options.hh"
#include "harness/system.hh"
#include "heap/memory_image.hh"
#include "logging/llt.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

using namespace proteus;

namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    EventQueue q;
    Tick now = 0;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        for (int i = 0; i < 16; ++i)
            q.schedule(now + 1 + (i % 7), [&fired]() { ++fired; });
        q.runUntil(now + 8);
        now += 8;
    }
    benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_MemoryImageWrite64(benchmark::State &state)
{
    MemoryImage img;
    Random rng(1);
    for (auto _ : state)
        img.write64(rng.nextBelow(1 << 26) * 8, 42);
}
BENCHMARK(BM_MemoryImageWrite64);

void
BM_MemoryImageRead64(benchmark::State &state)
{
    MemoryImage img;
    for (Addr a = 0; a < (1 << 22); a += 8)
        img.write64(a, a);
    Random rng(2);
    std::uint64_t sum = 0;
    for (auto _ : state)
        sum += img.read64(rng.nextBelow(1 << 19) * 8);
    benchmark::DoNotOptimize(sum);
}
BENCHMARK(BM_MemoryImageRead64);

/** An ~8 MB populated image at the persistent heap's base. */
MemoryImage
populatedImage()
{
    MemoryImage img;
    for (Addr off = 0; off < (8u << 20); off += blockSize)
        img.write64(PersistentHeap::persistentBase + off, off);
    return img;
}

void
BM_MemoryImageCopy(benchmark::State &state)
{
    // Copy a populated image, then its first write (which unshares).
    const MemoryImage source = populatedImage();
    for (auto _ : state) {
        MemoryImage copy = source;
        copy.write64(PersistentHeap::persistentBase + 8, 1);
        benchmark::DoNotOptimize(copy);
    }
}
BENCHMARK(BM_MemoryImageCopy);

void
BM_MemoryImageIdentical(benchmark::State &state)
{
    // Two copies of one image; one rewrote a word with its own value,
    // so one page is compared by content and the rest by sharing.
    const MemoryImage source = populatedImage();
    const MemoryImage a = source;
    MemoryImage b = source;
    b.write64(PersistentHeap::persistentBase, 0);
    for (auto _ : state)
        benchmark::DoNotOptimize(a.identical(b));
}
BENCHMARK(BM_MemoryImageIdentical);

void
BM_CacheArrayProbeInsert(benchmark::State &state)
{
    stats::StatRegistry reg;
    CacheConfig cfg{32 * 1024, 8, 4, 16, 16};
    CacheArray array(cfg, reg, "bm.cache");
    Random rng(3);
    for (auto _ : state) {
        const Addr block = rng.nextBelow(4096) * 64;
        if (!array.probe(block))
            array.insert(block, false);
        else
            array.touch(block);
    }
}
BENCHMARK(BM_CacheArrayProbeInsert);

void
BM_LltLookup(benchmark::State &state)
{
    stats::StatRegistry reg;
    LogLookupTable llt(64, 8, reg, "bm.llt");
    Random rng(4);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            llt.lookupInsert(rng.nextBelow(256) * 32));
}
BENCHMARK(BM_LltLookup);

void
BM_NvmTimingIssue(benchmark::State &state)
{
    stats::StatRegistry reg;
    MemTimingConfig cfg;
    NvmTiming dram(cfg, reg, "bm.dram");
    Random rng(5);
    Tick now = 0;
    for (auto _ : state) {
        const Addr addr = rng.nextBelow(1 << 20) * 64;
        while (!dram.bankReady(addr, now))
            now += 4;
        benchmark::DoNotOptimize(
            dram.issue(addr, rng.nextBool(0.4), now));
        ++now;
    }
}
BENCHMARK(BM_NvmTimingIssue);

/**
 * Host cycles/sec of the whole timed simulation (functional setup
 * excluded): build a FullSystem once per iteration, then time only the
 * run() loop. Report simulated cycles as items so the tool prints
 * sim-cycles per host-second.
 */
void
BM_FullSystemTimedRun(benchmark::State &state)
{
    WorkloadParams params;
    params.threads = 2;
    params.scale = 500;
    params.initScale = 100;
    params.seed = 3;

    std::uint64_t cycles = 0;
    for (auto _ : state) {
        state.PauseTiming();
        SystemConfig cfg = baselineConfig();
        cfg.logging.scheme = LogScheme::Proteus;
        FullSystem system(cfg, WorkloadKind::BTree, params);
        state.ResumeTiming();

        const RunResult r = system.run(500'000'000ull);
        cycles += r.cycles;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
    benchmark::DoNotOptimize(cycles);
}
BENCHMARK(BM_FullSystemTimedRun)->Unit(benchmark::kMillisecond);

void
BM_Xoshiro(benchmark::State &state)
{
    Random rng(6);
    std::uint64_t sum = 0;
    for (auto _ : state)
        sum += rng.next();
    benchmark::DoNotOptimize(sum);
}
BENCHMARK(BM_Xoshiro);

} // namespace

int
main(int argc, char **argv)
{
    // Google Benchmark owns this binary's flags (and its --help, which
    // exits 0); anything it leaves in argv is an unknown option.
    return cli::run([&] {
        benchmark::Initialize(&argc, argv);
        if (argc > 1)
            fatal(argv[1], ": unknown option (see --help)");
        benchmark::RunSpecifiedBenchmarks();
        benchmark::Shutdown();
        return 0;
    });
}
