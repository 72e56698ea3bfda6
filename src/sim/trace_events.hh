/**
 * @file
 * Chrome Trace Event Format sink (loadable in Perfetto and
 * chrome://tracing).
 *
 * The Perfetto recorder (obs/trace_event_recorder.hh) emits duration
 * ("X"), instant ("i"), counter ("C"), and flow ("s"/"f") events onto
 * named tracks; the sink buffers them in
 * a bounded ring and serializes everything as {"traceEvents": [...]}
 * JSON at flush time. Event timestamps are simulated CPU cycles written
 * into the format's microsecond field, so one trace "us" equals one
 * cycle.
 *
 * Ring-wrap policy (bounded memory for long runs): once the ring is
 * full the *oldest* events are overwritten so the tail of the run is
 * always retained, and every overwrite increments a drop counter. The
 * count is never silent — it is embedded in the output itself as a
 * top-level "droppedEvents" field plus a "droppedEvents" counter event
 * at the earliest retained timestamp, and flush() warns on stderr.
 * Raise obs.traceRingEntries (--set obs.traceRingEntries=N) or narrow
 * --trace-categories to retain more.
 *
 * Emission is gated twice so disabled tracing stays off the hot path:
 * the sink and its recorder exist only when tracing is on, and each
 * event carries a category (cpu / memctrl / log / lock / faults)
 * checked against the --trace-categories mask before any formatting
 * work happens.
 */

#ifndef PROTEUS_SIM_TRACE_EVENTS_HH
#define PROTEUS_SIM_TRACE_EVENTS_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "types.hh"

namespace proteus {

/** Event categories selectable via --trace-categories. */
enum TraceCategory : unsigned
{
    TraceCatCpu     = 1u << 0,  ///< pipeline phases, transactions
    TraceCatMemCtrl = 1u << 1,  ///< WPQ/LPQ occupancy
    TraceCatLog     = 1u << 2,  ///< LogQ/LLT activity
    TraceCatLock    = 1u << 3,  ///< lock acquire/release
    TraceCatFaults  = 1u << 4,  ///< media faults, ECC events, retries
    TraceCatAll     = 0x1fu,
};

/** Bounded, per-run buffer of trace events with a JSON writer. */
class TraceEventSink
{
  public:
    /**
     * @param path      output file written by flush() ("" = in-memory
     *                  only; use write() to serialize)
     * @param categories mask of TraceCategory bits to record
     * @param capacity  ring-buffer size in events; once exceeded the
     *                  oldest events are dropped
     */
    TraceEventSink(std::string path, unsigned categories,
                   std::size_t capacity);

    /** @return true if events of @p cat are being recorded. */
    bool wants(unsigned cat) const { return (_categories & cat) != 0; }

    /** Register a named track (a Perfetto row); @return its id. */
    std::uint32_t defineTrack(const std::string &name);

    /** A duration event spanning [@p start, @p end]. */
    void complete(unsigned cat, std::uint32_t track, std::string name,
                  Tick start, Tick end);
    /** A point-in-time marker. */
    void instant(unsigned cat, std::uint32_t track, std::string name,
                 Tick ts);
    /** A sampled counter value (rendered as a step chart). */
    void counter(unsigned cat, std::uint32_t track, std::string name,
                 Tick ts, double value);

    /**
     * Flow arrows: a flow @p id links a start ("s") to a finish ("f");
     * viewers draw an arrow between the enclosing slices. Used to join
     * a transaction's begin to its commit.
     */
    void flowStart(unsigned cat, std::uint32_t track, std::string name,
                   Tick ts, std::uint64_t id);
    void flowFinish(unsigned cat, std::uint32_t track, std::string name,
                    Tick ts, std::uint64_t id);

    /** Buffered event count (at most the ring capacity). */
    std::size_t size() const;
    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const { return _dropped; }

    /** Serialize all buffered events as Chrome Trace Event JSON. */
    void write(std::ostream &os) const;

    /** Write the JSON file named at construction; idempotent. */
    void flush();

    /**
     * Parse a comma-separated category list ("cpu,memctrl,log,lock")
     * into a mask. Throws FatalError on an unknown name.
     */
    static unsigned parseCategories(const std::string &spec);

    /** @return the name of a single-category bit (for serialization). */
    static const char *categoryName(unsigned cat);

  private:
    struct Event
    {
        Tick ts = 0;
        Tick dur = 0;
        double value = 0;
        std::uint64_t id = 0;       ///< flow id for 's'/'f' phases
        std::string name;
        std::uint32_t track = 0;
        unsigned cat = 0;
        char phase = 'i';
    };

    void flow(unsigned cat, std::uint32_t track, std::string &&name,
              Tick ts, std::uint64_t id, char phase);

    void push(Event &&e);

    std::string _path;
    unsigned _categories;
    std::size_t _capacity;
    std::vector<Event> _ring;
    std::size_t _head = 0;          ///< next overwrite slot once full
    std::uint64_t _dropped = 0;
    std::vector<std::string> _tracks;
    bool _flushed = false;
};

} // namespace proteus

#endif // PROTEUS_SIM_TRACE_EVENTS_HH
