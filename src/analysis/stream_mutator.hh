/**
 * @file
 * Seeded event-stream mutation for checker self-validation
 * (`--check-mutate N`).
 *
 * The mutator subscribes to the simulation event stream in place of
 * the PersistChecker and forwards every event to it unchanged, except
 * for one seeded, rule-targeted perturbation: it drops, duplicates or
 * delays the k-th qualifying persist edge (k derived from the seed) in
 * exactly the way the target rule forbids. A correct checker must flag
 * the mutated stream; the mutation campaign in check_runner asserts
 * that every armed rule catches its own injected violation, which is
 * the CI gate proving the rules are live (not vacuously passing).
 * Mutations reach the checker only: the other subscribers see the
 * machine's real stream.
 */

#ifndef PROTEUS_ANALYSIS_STREAM_MUTATOR_HH
#define PROTEUS_ANALYSIS_STREAM_MUTATOR_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "analysis/persist_checker.hh"
#include "analysis/rules.hh"
#include "sim/sim_event.hh"

namespace proteus {
namespace analysis {

class StreamMutator : public SimEventSubscriber
{
  public:
    /** Mutates the @p target rule's k-th qualifying edge, k seeded by
     *  @p seed; everything else forwards verbatim to @p checker. */
    StreamMutator(Rule target, std::uint64_t seed, PersistChecker &checker);

    /** Register one log area [start, end). Lets the mutator target
     *  software log-entry writes and skip protocol stores. */
    void addLogArea(Addr start, Addr end);

    /** True once the seeded perturbation has been applied. */
    bool mutated() const { return _mutations > 0; }
    std::uint64_t mutations() const { return _mutations; }

    void onEvent(const SimEvent &e) override;

  private:
    /** Core-id offset for the synthetic racing writer. */
    static constexpr CoreId phantomCore = 100;

    bool targeting(Rule r) const { return _target == r; }
    bool inLogArea(Addr addr) const;
    /** Counts qualifying edges; true exactly on the k-th. */
    bool takeKth();
    /** A transactional persistent data store retired. */
    void mutateStore(const SimEvent &e);
    void releaseHeldDurablePoints(CoreId core);

    Rule _target;
    std::uint64_t _k;           ///< 1-based index of the mutated edge
    std::uint64_t _seen = 0;    ///< qualifying edges so far
    std::uint64_t _mutations = 0;
    PersistChecker &_checker;
    std::vector<std::pair<Addr, Addr>> _logAreas;

    /** FlashClearAfterCommit: durable points held back per core. */
    std::vector<SimEvent> _heldDurable;
    /** DurableByCommit: acceptance drop window. */
    bool _dropping = false;
    Addr _dropBlock = invalidAddr;
    CoreId _dropCore = 0;
    TxId _dropTx = 0;
};

} // namespace analysis
} // namespace proteus

#endif // PROTEUS_ANALYSIS_STREAM_MUTATOR_HH
