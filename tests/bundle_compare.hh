/**
 * @file
 * Field-by-field TraceBundle comparison shared by the trace snapshot
 * and trace cache tests: two bundles are equal when a FullSystem could
 * not tell them apart — traces and payloads, heap images, allocator
 * state, lock map, per-thread log bounds and tx counts, and the
 * oracle's write history.
 */

#ifndef PROTEUS_TESTS_BUNDLE_COMPARE_HH
#define PROTEUS_TESTS_BUNDLE_COMPARE_HH

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "harness/trace_bundle.hh"

namespace testbundle {

using namespace proteus;

inline void
expectTracesEqual(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.payloadCount(), b.payloadCount());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const MicroOp &x = a.op(i);
        const MicroOp &y = b.op(i);
        ASSERT_EQ(x.op, y.op) << "op " << i;
        ASSERT_EQ(x.src0, y.src0) << "op " << i;
        ASSERT_EQ(x.src1, y.src1) << "op " << i;
        ASSERT_EQ(x.dst, y.dst) << "op " << i;
        ASSERT_EQ(x.size, y.size) << "op " << i;
        ASSERT_EQ(x.taken, y.taken) << "op " << i;
        ASSERT_EQ(x.persistent, y.persistent) << "op " << i;
        ASSERT_EQ(x.staticPc, y.staticPc) << "op " << i;
        ASSERT_EQ(x.payload, y.payload) << "op " << i;
        ASSERT_EQ(x.addr, y.addr) << "op " << i;
        ASSERT_EQ(x.data, y.data) << "op " << i;
    }
    for (std::size_t i = 0; i < a.payloadCount(); ++i) {
        const LogPayload &x = a.logPayload(static_cast<std::uint32_t>(i));
        const LogPayload &y = b.logPayload(static_cast<std::uint32_t>(i));
        ASSERT_EQ(0, std::memcmp(x.bytes, y.bytes, logDataSize))
            << "payload " << i;
        ASSERT_EQ(x.fromAddr, y.fromAddr) << "payload " << i;
        ASSERT_EQ(x.txId, y.txId) << "payload " << i;
    }
}

inline void
expectAllocatorsEqual(const RegionAllocator::State &a,
                      const RegionAllocator::State &b)
{
    EXPECT_EQ(a.next, b.next);
    EXPECT_EQ(a.liveBytes, b.liveBytes);
    EXPECT_EQ(a.freeBins, b.freeBins);
}

/** Images and allocator state of two heaps. */
inline void
expectHeapsEqual(const PersistentHeap &a, const PersistentHeap &b)
{
    EXPECT_TRUE(a.volatileImage().identical(b.volatileImage()));
    EXPECT_TRUE(a.nvmImage().identical(b.nvmImage()));
    const PersistentHeap::AllocState x = a.allocState();
    const PersistentHeap::AllocState y = b.allocState();
    expectAllocatorsEqual(x.volatileAlloc, y.volatileAlloc);
    expectAllocatorsEqual(x.persistentAlloc, y.persistentAlloc);
    EXPECT_EQ(x.nextLogArea, y.nextLogArea);
    EXPECT_EQ(x.chaseArena, y.chaseArena);
}

inline void
expectBundlesEqual(const TraceBundle &a, const TraceBundle &b)
{
    EXPECT_TRUE(a.key == b.key);
    ASSERT_EQ(a.threads.size(), b.threads.size());
    for (std::size_t t = 0; t < a.threads.size(); ++t) {
        SCOPED_TRACE("thread " + std::to_string(t));
        const TraceBundle::ThreadTrace &x = a.threads[t];
        const TraceBundle::ThreadTrace &y = b.threads[t];
        EXPECT_EQ(x.logStart, y.logStart);
        EXPECT_EQ(x.logEnd, y.logEnd);
        EXPECT_EQ(x.logFlag, y.logFlag);
        EXPECT_EQ(x.txCount, y.txCount);
        expectTracesEqual(x.trace, y.trace);
    }
    expectHeapsEqual(*a.heap, *b.heap);
    EXPECT_EQ(a.lockMap, b.lockMap);
    ASSERT_EQ(a.history == nullptr, b.history == nullptr);
    if (a.history) {
        EXPECT_EQ(a.history->events(), b.history->events());
    }
}

} // namespace testbundle

#endif // PROTEUS_TESTS_BUNDLE_COMPARE_HH
