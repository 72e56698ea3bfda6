/**
 * @file
 * Functional tests for the Table 2 workloads: the data structures must
 * be real. Each workload runs setup + trace generation and its own
 * invariant checker validates the final state; determinism and
 * scheme-independence (the functional outcome cannot depend on the
 * logging scheme) are checked via canonical serialization.
 */

#include <gtest/gtest.h>

#include <memory>

#include "harness/trace_bundle.hh"
#include "sim/logging.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

using namespace proteus;

namespace {

WorkloadParams
smallParams(unsigned threads = 2)
{
    WorkloadParams p;
    p.threads = threads;
    p.scale = 200;
    p.initScale = 50;
    p.seed = 7;
    return p;
}

struct WlRun
{
    explicit WlRun(WorkloadKind kind, LogScheme scheme,
                 WorkloadParams params)
        : heap(std::make_unique<PersistentHeap>()),
          wl(makeWorkload(kind, *heap, scheme, params))
    {
        wl->setup();
        wl->generateTraces();
    }

    std::unique_ptr<PersistentHeap> heap;
    std::unique_ptr<Workload> wl;
};

class WorkloadFunctional
    : public ::testing::TestWithParam<WorkloadKind>
{
};

} // namespace

TEST_P(WorkloadFunctional, InvariantsHoldAfterOps)
{
    WlRun run(GetParam(), LogScheme::Proteus, smallParams());
    const std::string err =
        run.wl->checkInvariants(run.heap->volatileImage());
    EXPECT_TRUE(err.empty()) << err;
}

TEST_P(WorkloadFunctional, DeterministicForASeed)
{
    WlRun a(GetParam(), LogScheme::Proteus, smallParams());
    WlRun b(GetParam(), LogScheme::Proteus, smallParams());
    EXPECT_EQ(a.wl->serialize(a.heap->volatileImage()),
              b.wl->serialize(b.heap->volatileImage()));
    EXPECT_EQ(a.wl->trace(0).size(), b.wl->trace(0).size());
}

TEST_P(WorkloadFunctional, SchemeDoesNotChangeFunctionalState)
{
    WlRun sw(GetParam(), LogScheme::PMEM, smallParams());
    WlRun atom(GetParam(), LogScheme::ATOM, smallParams());
    WlRun proteus(GetParam(), LogScheme::Proteus, smallParams());
    const std::string ref = sw.wl->serialize(sw.heap->volatileImage());
    EXPECT_EQ(ref, atom.wl->serialize(atom.heap->volatileImage()));
    EXPECT_EQ(ref,
              proteus.wl->serialize(proteus.heap->volatileImage()));
}

TEST_P(WorkloadFunctional, SeedsProduceDifferentHistories)
{
    WorkloadParams p1 = smallParams();
    WorkloadParams p2 = smallParams();
    p2.seed = 8;
    WlRun a(GetParam(), LogScheme::Proteus, p1);
    WlRun b(GetParam(), LogScheme::Proteus, p2);
    EXPECT_NE(a.wl->serialize(a.heap->volatileImage()),
              b.wl->serialize(b.heap->volatileImage()));
}

TEST_P(WorkloadFunctional, TracesContainTransactions)
{
    WlRun run(GetParam(), LogScheme::Proteus, smallParams());
    for (unsigned t = 0; t < run.wl->threads(); ++t) {
        const Trace &trace = run.wl->trace(t);
        EXPECT_EQ(trace.countOps(Op::TxBegin),
                  trace.countOps(Op::TxEnd));
        EXPECT_GT(trace.countOps(Op::TxBegin), 0u);
        EXPECT_GT(trace.countOps(Op::Store), 0u);
    }
}

TEST_P(WorkloadFunctional, SingleThreadSupported)
{
    WlRun run(GetParam(), LogScheme::PMEM, smallParams(1));
    const std::string err =
        run.wl->checkInvariants(run.heap->volatileImage());
    EXPECT_TRUE(err.empty()) << err;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadFunctional,
    ::testing::Values(WorkloadKind::Queue, WorkloadKind::HashMap,
                      WorkloadKind::StringSwap, WorkloadKind::AvlTree,
                      WorkloadKind::BTree, WorkloadKind::RbTree),
    [](const ::testing::TestParamInfo<WorkloadKind> &info) {
        return std::string(toString(info.param));
    });

TEST(LinkedListWorkload, VersionsAdvanceConsistently)
{
    PersistentHeap heap;
    WorkloadParams p = smallParams(1);
    WorkloadExtras extras;
    extras.ll.elementsPerNode = 64;
    auto wl = makeWorkload(WorkloadKind::LinkedList, heap,
                           LogScheme::Proteus, p, extras);
    wl->setup();
    wl->generateTraces();
    EXPECT_TRUE(wl->checkInvariants(heap.volatileImage()).empty());
}

TEST(WorkloadFactory, ParsesNames)
{
    EXPECT_EQ(parseWorkload("QE"), WorkloadKind::Queue);
    EXPECT_EQ(parseWorkload("rbtree"), WorkloadKind::RbTree);
    EXPECT_THROW(parseWorkload("nope"), FatalError);
    EXPECT_EQ(allPaperWorkloads().size(), 6u);
}

// ---------------------------------------------------------------------
// Seeded functional invariants: every registered workload, populated and
// run functionally (no timing simulation) at one and four threads over
// a range of seeds, must leave a structure that passes its own checker.
// ---------------------------------------------------------------------

namespace {

/** The invariant verdict ("" = OK) of @p kind's trace bundle at the
 *  given size: populated and recorded the way every harness run is,
 *  but never simulated. */
std::string
functionalVerdict(WorkloadKind kind, unsigned threads, std::uint64_t seed,
                  unsigned scale, unsigned initScale)
{
    TraceBundleKey key;
    key.kind = kind;
    key.scheme = LogScheme::PMEMNoLog;
    key.params.threads = threads;
    key.params.scale = scale;
    key.params.initScale = initScale;
    key.params.seed = seed;
    const auto bundle = TraceBundle::build(key);
    return bundle->workload->checkInvariants(bundle->heap->volatileImage());
}

} // namespace

TEST(WorkloadInvariants, HoldForEveryKindThreadCountAndSeed)
{
    for (const WorkloadRegistration &reg : workloadRegistry()) {
        for (unsigned threads : {1u, 4u}) {
            for (std::uint64_t seed = 1; seed <= 6; ++seed) {
                EXPECT_EQ(functionalVerdict(reg.kind, threads, seed, 100,
                                            100),
                          "")
                    << reg.abbrev << " threads " << threads << " seed "
                    << seed;
            }
        }
    }
}

// `proteus-sim run BT --scheme pmem+nolog --init-scale 100 --scale 20`
// once failed these two: a found-key delete whose children both held
// one key borrowed into the right child and then descended into the
// left one, which no longer held the key, and emptied a node there.
TEST(WorkloadInvariants, BTreeDeleteSeed5OneThread)
{
    EXPECT_EQ(functionalVerdict(WorkloadKind::BTree, 1, 5, 20, 100), "");
}

TEST(WorkloadInvariants, BTreeDeleteSeed1FourThreads)
{
    EXPECT_EQ(functionalVerdict(WorkloadKind::BTree, 4, 1, 20, 100), "");
}
