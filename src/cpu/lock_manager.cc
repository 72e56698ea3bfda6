#include "lock_manager.hh"

#include "sim/logging.hh"

namespace proteus {

namespace {

/** Cross-core lock handoff latency (coherence transfer). */
constexpr Tick handoffLatency = 25;
/** Uncontended acquire latency (shared-line access). */
constexpr Tick acquireLatency = 12;

} // namespace

LockManager::LockManager(Simulator &sim)
    : _sim(sim), _events(sim.eventStream()),
      _acquires(sim.statsRegistry(), "locks.acquires",
                "successful lock acquisitions"),
      _contendedAcquires(sim.statsRegistry(), "locks.contended",
                         "acquisitions that had to wait")
{
}

void
LockManager::grant(LockState &state)
{
    auto it = state.waiters.find(state.nextServe);
    if (it == state.waiters.end())
        return;
    auto cb = std::move(it->second);
    state.waiters.erase(it);
    state.held = true;
    ++_acquires;
    _sim.schedule(handoffLatency, std::move(cb));
}

void
LockManager::acquire(Addr addr, CoreId core, std::uint64_t ticket,
                     std::function<void()> granted)
{
    LockState &state = _locks[addr];
    if (!state.held && ticket == state.nextServe) {
        state.held = true;
        state.holder = core;
        ++_acquires;
        _sim.schedule(acquireLatency, std::move(granted));
        return;
    }
    ++_contendedAcquires;
    if (_events) {
        _events->emit({.kind = SimEventKind::LockWait, .core = core,
                       .addr = addr, .tick = _sim.now()});
    }
    // The holder field is set when the grant fires; remember who asked.
    state.waiters.emplace(ticket, [this, addr, core,
                                   cb = std::move(granted)]() {
        _locks[addr].holder = core;
        if (cb)
            cb();
    });
}

void
LockManager::release(Addr addr, CoreId core)
{
    auto it = _locks.find(addr);
    if (it == _locks.end() || !it->second.held ||
        it->second.holder != core) {
        panic("LockManager: core ", core,
              " released a lock it does not hold");
    }
    it->second.held = false;
    ++it->second.nextServe;
    grant(it->second);
}

bool
LockManager::held(Addr addr) const
{
    auto it = _locks.find(addr);
    return it != _locks.end() && it->second.held;
}

} // namespace proteus
