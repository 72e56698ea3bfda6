/**
 * @file
 * The Perfetto recorder: a SimEvent subscriber that turns the
 * simulation event stream into Chrome Trace Event tracks through a
 * TraceEventSink.
 *
 * It owns everything trace-shaped, so the timing components know
 * nothing of tracks: the track layout, the coalescing of per-cycle
 * commit slots into pipeline-phase spans, the per-transaction span and
 * flow arrow, the lock held spans, and the WPQ/LPQ/LogQ counters.
 * Tracks are defined at construction, in a fixed order (MC, locks,
 * then each core), and only for the categories the sink records.
 */

#ifndef PROTEUS_OBS_TRACE_EVENT_RECORDER_HH
#define PROTEUS_OBS_TRACE_EVENT_RECORDER_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/sim_event.hh"
#include "sim/trace_events.hh"

namespace proteus {
namespace obs {

class TraceEventRecorder : public SimEventSubscriber
{
  public:
    /**
     * @param sink   the writer; must outlive the recorder
     * @param cores  simulated cores (one pipeline/tx/logq track each)
     * @param faults fault injection is on (adds the mc.faults track)
     */
    TraceEventRecorder(TraceEventSink &sink, unsigned cores, bool faults);

    void onEvent(const SimEvent &e) override;

    /** Close every core's open pipeline phase at @p now (end of run);
     *  idempotent. */
    void finish(Tick now);

  private:
    struct CoreTracks
    {
        std::uint32_t pipeline = 0;     ///< 0: cpu category off
        std::uint32_t tx = 0;
        std::uint32_t logq = 0;         ///< 0: log category off
        CommitBucket phase = CommitBucket::Base;
        bool phaseOpen = false;
        Tick phaseStart = 0;
        Tick txStart = 0;
    };

    void commitSlot(CoreTracks &c, CommitBucket bucket, Tick now);
    void queueDepth(const SimEvent &e);

    TraceEventSink &_sink;
    std::uint32_t _wpq = 0;             ///< 0: memctrl category off
    std::uint32_t _lpq = 0;
    std::uint32_t _faults = 0;          ///< 0: no faults, or category off
    std::uint32_t _locks = 0;           ///< 0: lock category off
    std::vector<CoreTracks> _cores;
    /** Lock word -> tick its current holder was granted it. */
    std::unordered_map<Addr, Tick> _lockGrantedAt;
};

} // namespace obs
} // namespace proteus

#endif // PROTEUS_OBS_TRACE_EVENT_RECORDER_HH
