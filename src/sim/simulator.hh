/**
 * @file
 * The cycle-driven simulation kernel.
 *
 * Components implement Ticked and register with the Simulator; every cycle
 * the kernel first fires due events from the EventQueue, then calls tick()
 * on each component in registration order. Registration order therefore
 * defines intra-cycle evaluation order and is chosen by the system builder
 * (memory first, then caches, then cores) so that responses produced this
 * cycle are visible to consumers next cycle.
 */

#ifndef PROTEUS_SIM_SIMULATOR_HH
#define PROTEUS_SIM_SIMULATOR_HH

#include <string>
#include <vector>

#include "event_queue.hh"
#include "sim_event.hh"
#include "stats.hh"
#include "types.hh"

namespace proteus {

/** Interface for components advanced once per simulated cycle. */
class Ticked
{
  public:
    virtual ~Ticked() = default;

    /** Advance one cycle; @p now is the current tick. */
    virtual void tick(Tick now) = 0;

    /** Human-readable component name for diagnostics. */
    virtual const std::string &componentName() const = 0;

    /**
     * Quiescence hint: the earliest future cycle at which this component
     * could make progress without an intervening event, or @p now when it
     * is busy (or cannot prove idleness). Called after the component has
     * ticked at cycle @p now - 1; a return value w > now promises that
     * ticking the component at each cycle in [now, w) would change no
     * state and would bump exactly the same per-cycle stats as the last
     * tick did (see accountSkipped). External state changes delivered by
     * events need not be anticipated — the kernel never skips past a
     * scheduled event. The default is maximally conservative: always busy.
     */
    virtual Tick nextWake(Tick now) { return now; }

    /**
     * The kernel decided cycles [from, to) will not be ticked (every
     * component was quiescent). Account cycle-denominated stats exactly
     * as if tick() had run for each skipped cycle, so skipping is
     * observationally invisible.
     */
    virtual void
    accountSkipped(Tick from, Tick to)
    {
        (void)from;
        (void)to;
    }
};

/** Owns simulated time, the event queue, and the stat registry. */
class Simulator
{
  public:
    Simulator() = default;
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Register a component; evaluation happens in registration order. */
    void addTicked(Ticked *component);

    /** Current simulated tick (CPU cycles). */
    Tick now() const { return _now; }

    EventQueue &events() { return _events; }
    stats::StatRegistry &statsRegistry() { return _stats; }

    /**
     * The simulation event stream, or nullptr when nothing subscribes
     * (the default). Set by the system builder before components are
     * constructed; components read it once and null-check on every
     * emission path.
     */
    SimEventStream *eventStream() const { return _eventStream; }
    void setEventStream(SimEventStream *stream) { _eventStream = stream; }

    /** Schedule a callback @p delay cycles in the future. */
    void schedule(Tick delay, EventQueue::Callback cb);

    /** Advance exactly @p cycles cycles. */
    void run(Tick cycles);

    /**
     * Run until @p done returns true or @p maxCycles elapse.
     * @return true if @p done was satisfied, false on timeout.
     */
    bool runUntil(const std::function<bool()> &done, Tick maxCycles);

    /** Request that run()/runUntil() stop at the end of this cycle. */
    void requestStop() { _stopRequested = true; }

    /**
     * Enable/disable quiescence-driven cycle skipping (on by default).
     * When on, the run loops fast-forward _now past stretches where every
     * component reports a future nextWake() and no event is due; skipped
     * cycles are accounted via Ticked::accountSkipped so results are
     * bit-identical either way.
     */
    void setCycleSkip(bool on) { _cycleSkip = on; }
    bool cycleSkip() const { return _cycleSkip; }

    /**
     * Kernel work counters. Deliberately plain members rather than
     * StatRegistry stats: registry scalars leak into interval-stats
     * output and stat dumps, which must stay bit-identical with skipping
     * on and off.
     */
    std::uint64_t skippedCycles() const { return _skippedCycles; }
    std::uint64_t kernelSteps() const { return _kernelSteps; }

  private:
    /**
     * Advance one cycle. Inline so the run loops see the whole body;
     * EventQueue::runUntil's inline fast path compares the cached
     * next-due-event tick (heap front) and skips the queue entirely on
     * idle cycles.
     */
    void
    stepOneCycle()
    {
        _events.runUntil(_now);
        for (Ticked *c : _components)
            c->tick(_now);
        ++_now;
        ++_kernelSteps;
    }

    /**
     * If every component is quiescent and no event is due, jump _now to
     * min(next event, earliest component wake, @p limit) after replaying
     * each component's per-cycle stat signature over the skipped span.
     */
    void skipIdleCycles(Tick limit);

    Tick _now = 0;
    bool _stopRequested = false;
    bool _cycleSkip = true;
    std::uint64_t _skippedCycles = 0;
    std::uint64_t _kernelSteps = 0;
    EventQueue _events;
    stats::StatRegistry _stats;
    SimEventStream *_eventStream = nullptr;
    std::vector<Ticked *> _components;
};

} // namespace proteus

#endif // PROTEUS_SIM_SIMULATOR_HH
