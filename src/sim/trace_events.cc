#include "trace_events.hh"

#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>

#include "json_util.hh"
#include "logging.hh"

namespace proteus {

TraceEventSink::TraceEventSink(std::string path, unsigned categories,
                               std::size_t capacity)
    : _path(std::move(path)), _categories(categories),
      _capacity(capacity ? capacity : 1)
{
    if ((_categories & TraceCatAll) == 0)
        fatal("TraceEventSink: empty category mask; nothing to trace");
}

std::uint32_t
TraceEventSink::defineTrack(const std::string &name)
{
    _tracks.push_back(name);
    return static_cast<std::uint32_t>(_tracks.size());  // tids from 1
}

void
TraceEventSink::push(Event &&e)
{
    if (_ring.size() < _capacity) {
        _ring.push_back(std::move(e));
        return;
    }
    _ring[_head] = std::move(e);
    _head = (_head + 1) % _capacity;
    ++_dropped;
}

void
TraceEventSink::complete(unsigned cat, std::uint32_t track,
                         std::string name, Tick start, Tick end)
{
    if (!wants(cat))
        return;
    Event e;
    e.phase = 'X';
    e.cat = cat;
    e.track = track;
    e.name = std::move(name);
    e.ts = start;
    e.dur = end >= start ? end - start : 0;
    push(std::move(e));
}

void
TraceEventSink::instant(unsigned cat, std::uint32_t track,
                        std::string name, Tick ts)
{
    if (!wants(cat))
        return;
    Event e;
    e.phase = 'i';
    e.cat = cat;
    e.track = track;
    e.name = std::move(name);
    e.ts = ts;
    push(std::move(e));
}

void
TraceEventSink::counter(unsigned cat, std::uint32_t track,
                        std::string name, Tick ts, double value)
{
    if (!wants(cat))
        return;
    Event e;
    e.phase = 'C';
    e.cat = cat;
    e.track = track;
    e.name = std::move(name);
    e.ts = ts;
    e.value = value;
    push(std::move(e));
}

void
TraceEventSink::flow(unsigned cat, std::uint32_t track, std::string &&name,
                     Tick ts, std::uint64_t id, char phase)
{
    if (!wants(cat))
        return;
    Event e;
    e.phase = phase;
    e.cat = cat;
    e.track = track;
    e.name = std::move(name);
    e.ts = ts;
    e.id = id;
    push(std::move(e));
}

void
TraceEventSink::flowStart(unsigned cat, std::uint32_t track,
                          std::string name, Tick ts, std::uint64_t id)
{
    flow(cat, track, std::move(name), ts, id, 's');
}

void
TraceEventSink::flowFinish(unsigned cat, std::uint32_t track,
                           std::string name, Tick ts, std::uint64_t id)
{
    flow(cat, track, std::move(name), ts, id, 'f');
}

std::size_t
TraceEventSink::size() const
{
    return _ring.size();
}

const char *
TraceEventSink::categoryName(unsigned cat)
{
    switch (cat) {
      case TraceCatCpu:     return "cpu";
      case TraceCatMemCtrl: return "memctrl";
      case TraceCatLog:     return "log";
      case TraceCatLock:    return "lock";
      case TraceCatFaults:  return "faults";
      default:              return "other";
    }
}

unsigned
TraceEventSink::parseCategories(const std::string &spec)
{
    unsigned mask = 0;
    std::istringstream in(spec);
    std::string token;
    while (std::getline(in, token, ',')) {
        if (token.empty())
            continue;
        if (token == "cpu")
            mask |= TraceCatCpu;
        else if (token == "memctrl")
            mask |= TraceCatMemCtrl;
        else if (token == "log")
            mask |= TraceCatLog;
        else if (token == "lock")
            mask |= TraceCatLock;
        else if (token == "faults")
            mask |= TraceCatFaults;
        else if (token == "all")
            mask |= TraceCatAll;
        else
            fatal("unknown trace category: ", token,
                  " (expected cpu, memctrl, log, lock, faults, or all)");
    }
    if (mask == 0)
        fatal("--trace-categories selected nothing");
    return mask;
}

void
TraceEventSink::write(std::ostream &os) const
{
    // Restore chronological order: [_head, end) is older than
    // [0, _head) once the ring has wrapped, then sort by timestamp so
    // every track reads in cycle order (complete events are recorded at
    // their *end* tick but carry their start as ts).
    std::vector<const Event *> events;
    events.reserve(_ring.size());
    for (std::size_t i = 0; i < _ring.size(); ++i)
        events.push_back(&_ring[(_head + i) % _ring.size()]);
    std::stable_sort(events.begin(), events.end(),
                     [](const Event *a, const Event *b) {
                         return a->ts < b->ts;
                     });

    os << "{\"displayTimeUnit\": \"ns\", \"droppedEvents\": " << _dropped
       << ", \"traceEvents\": [\n";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            os << ",\n";
        first = false;
    };

    sep();
    os << "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
       << "\"name\": \"process_name\", "
       << "\"args\": {\"name\": \"proteus-sim\"}}";
    if (_dropped > 0 && !events.empty()) {
        // Make the wrap visible in the viewer: a counter pinned at the
        // earliest retained timestamp records how many older events the
        // bounded ring overwrote.
        sep();
        os << "{\"ph\": \"C\", \"pid\": 1, \"tid\": 0, \"ts\": "
           << events.front()->ts
           << ", \"cat\": \"other\", \"name\": \"droppedEvents\", "
           << "\"args\": {\"value\": " << _dropped << "}}";
    }
    for (std::size_t i = 0; i < _tracks.size(); ++i) {
        sep();
        os << "{\"ph\": \"M\", \"pid\": 1, \"tid\": " << (i + 1)
           << ", \"name\": \"thread_name\", \"args\": {\"name\": "
           << json::quoted(_tracks[i]) << "}}";
    }

    for (const Event *e : events) {
        sep();
        os << "{\"ph\": \"" << e->phase << "\", \"pid\": 1, \"tid\": "
           << e->track << ", \"ts\": " << e->ts << ", \"cat\": \""
           << categoryName(e->cat) << "\", \"name\": "
           << json::quoted(e->name);
        if (e->phase == 'X')
            os << ", \"dur\": " << e->dur;
        else if (e->phase == 'i')
            os << ", \"s\": \"t\"";
        else if (e->phase == 's' || e->phase == 'f') {
            os << ", \"id\": " << e->id;
            if (e->phase == 'f')
                os << ", \"bp\": \"e\"";
        } else if (e->phase == 'C') {
            os << ", \"args\": {\"value\": ";
            json::writeNumber(os, e->value);
            os << "}";
        }
        os << "}";
    }
    os << "\n]}\n";
}

void
TraceEventSink::flush()
{
    if (_flushed || _path.empty())
        return;
    _flushed = true;
    std::ofstream os(_path);
    if (!os)
        fatal("cannot open --trace-events output file: ", _path);
    write(os);
    if (!os.flush())
        fatal("failed writing --trace-events output file: ", _path);
    if (_dropped > 0) {
        warn("trace ring buffer overflowed: dropped ", _dropped,
             " oldest events (raise the ring size or narrow "
             "--trace-categories)");
    }
}

} // namespace proteus
