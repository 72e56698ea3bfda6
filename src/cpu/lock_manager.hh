/**
 * @file
 * Timing-level ticket locks. The paper serializes concurrent
 * transactions with pthread locks; we model each lock word as a fair
 * ticket lock whose grant order is fixed at trace-generation time.
 * This makes the timing simulation's serialization identical to the
 * functional serialization that produced the store values — the
 * property that makes multi-threaded crash snapshots well-defined.
 * Waiters are notified on release (MESI-style: the spinning core sees
 * the invalidation) after a fixed handoff latency.
 */

#ifndef PROTEUS_CPU_LOCK_MANAGER_HH
#define PROTEUS_CPU_LOCK_MANAGER_HH

#include <cstdint>
#include <functional>
#include <map>

#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace proteus {

/** Address-keyed fair ticket locks shared by all timing cores. */
class LockManager
{
  public:
    LockManager(Simulator &sim);

    /**
     * Acquire the lock at @p addr with @p ticket (assigned in trace
     * order). @p granted runs when the lock is handed to this ticket —
     * immediately (well, next event slot) if it is free and it is this
     * ticket's turn, otherwise after the predecessor releases.
     */
    void acquire(Addr addr, CoreId core, std::uint64_t ticket,
                 std::function<void()> granted);

    /** Release the lock; panics if @p core does not hold it. */
    void release(Addr addr, CoreId core);

    bool held(Addr addr) const;

  private:
    struct LockState
    {
        bool held = false;
        CoreId holder = 0;
        std::uint64_t nextServe = 0;
        std::map<std::uint64_t, std::function<void()>> waiters;
    };

    void grant(LockState &state);

    Simulator &_sim;
    /** The simulation event stream (null: nothing subscribes). */
    SimEventStream *_events;
    std::map<Addr, LockState> _locks;
    stats::Scalar _acquires;
    stats::Scalar _contendedAcquires;
};

} // namespace proteus

#endif // PROTEUS_CPU_LOCK_MANAGER_HH
