#include "obs/trace_event_recorder.hh"

#include <sstream>
#include <string>

namespace proteus {
namespace obs {

namespace {

/** A run-unique flow id for (core, tx): joins the flow start at the
 *  transaction's begin to the flow finish at its commit. */
std::uint64_t
txFlowId(CoreId core, TxId tx)
{
    return (static_cast<std::uint64_t>(core) << 48) | tx;
}

const char *
faultName(FaultEvent what)
{
    switch (what) {
      case FaultEvent::TornWrite:         return "torn-write";
      case FaultEvent::WornCorrected:     return "worn-corrected";
      case FaultEvent::WornUncorrectable: return "worn-uncorrectable";
      case FaultEvent::SilentCorruption:  return "silent-corruption";
      case FaultEvent::ReadRetry:         return "read-retry";
      case FaultEvent::RetriesExhausted:  return "retries-exhausted";
    }
    return "unknown";
}

} // namespace

TraceEventRecorder::TraceEventRecorder(TraceEventSink &sink,
                                       unsigned cores, bool faults)
    : _sink(sink), _cores(cores)
{
    if (sink.wants(TraceCatMemCtrl)) {
        _wpq = sink.defineTrack("mc.wpq");
        _lpq = sink.defineTrack("mc.lpq");
    }
    if (faults && sink.wants(TraceCatFaults))
        _faults = sink.defineTrack("mc.faults");
    if (sink.wants(TraceCatLock))
        _locks = sink.defineTrack("locks");
    for (unsigned i = 0; i < cores; ++i) {
        const std::string name = "core" + std::to_string(i);
        if (sink.wants(TraceCatCpu)) {
            _cores[i].pipeline = sink.defineTrack(name + ".pipeline");
            _cores[i].tx = sink.defineTrack(name + ".tx");
        }
        if (sink.wants(TraceCatLog))
            _cores[i].logq = sink.defineTrack(name + ".logq");
    }
}

void
TraceEventRecorder::commitSlot(CoreTracks &c, CommitBucket bucket,
                               Tick now)
{
    // Coalesce consecutive same-bucket cycles into one span so the
    // Perfetto track reads as phases rather than per-cycle confetti. A
    // replayed skipped span repeats the open phase's bucket, so it
    // extends the phase.
    if (c.phaseOpen && bucket == c.phase)
        return;
    if (c.phaseOpen) {
        _sink.complete(TraceCatCpu, c.pipeline, toString(c.phase),
                       c.phaseStart, now);
    }
    c.phase = bucket;
    c.phaseStart = now;
    c.phaseOpen = true;
}

void
TraceEventRecorder::queueDepth(const SimEvent &e)
{
    const auto depth = static_cast<double>(e.aux);
    switch (static_cast<SimQueue>(e.flags)) {
      case SimQueue::LogQ:
        if (_cores[e.core].logq) {
            _sink.counter(TraceCatLog, _cores[e.core].logq, "logq",
                          e.tick, depth);
        }
        break;
      case SimQueue::Wpq:
        if (_wpq)
            _sink.counter(TraceCatMemCtrl, _wpq, "wpq", e.tick, depth);
        break;
      case SimQueue::Lpq:
        if (_lpq)
            _sink.counter(TraceCatMemCtrl, _lpq, "lpq", e.tick, depth);
        break;
    }
}

void
TraceEventRecorder::onEvent(const SimEvent &e)
{
    switch (e.kind) {
      case SimEventKind::CommitSlot:
        if (_cores[e.core].pipeline) {
            commitSlot(_cores[e.core], static_cast<CommitBucket>(e.flags),
                       e.tick);
        }
        break;
      case SimEventKind::TxBegin: {
        CoreTracks &c = _cores[e.core];
        if (c.tx) {
            c.txStart = e.tick;
            _sink.flowStart(TraceCatCpu, c.tx, "tx" + std::to_string(e.tx),
                            e.tick, txFlowId(e.core, e.tx));
        }
        break;
      }
      case SimEventKind::TxCommit: {
        const CoreTracks &c = _cores[e.core];
        if (c.tx) {
            const std::string name = "tx" + std::to_string(e.tx);
            _sink.complete(TraceCatCpu, c.tx, name, c.txStart, e.tick);
            _sink.instant(TraceCatCpu, c.tx, "commit", e.tick);
            _sink.flowFinish(TraceCatCpu, c.tx, name, e.tick,
                             txFlowId(e.core, e.tx));
        }
        break;
      }
      case SimEventKind::QueueDepth:
        queueDepth(e);
        break;
      case SimEventKind::LltClear:
        if (_cores[e.core].logq) {
            _sink.instant(TraceCatLog, _cores[e.core].logq, "llt.clear",
                          e.tick);
        }
        break;
      case SimEventKind::LockWait:
        if (_locks)
            _sink.instant(TraceCatLock, _locks, "wait", e.tick);
        break;
      case SimEventKind::LockGrant:
        if (_locks)
            _lockGrantedAt[e.addr] = e.tick;
        break;
      case SimEventKind::LockRelease:
        if (_locks) {
            std::ostringstream name;
            name << "lock:0x" << std::hex << e.addr << std::dec
                 << " core" << e.core;
            _sink.complete(TraceCatLock, _locks, name.str(),
                           _lockGrantedAt[e.addr], e.tick);
        }
        break;
      case SimEventKind::Fault:
        if (_faults) {
            _sink.instant(TraceCatFaults, _faults,
                          faultName(static_cast<FaultEvent>(e.flags)),
                          e.tick);
        }
        break;
      default:
        break;
    }
}

void
TraceEventRecorder::finish(Tick now)
{
    for (CoreTracks &c : _cores) {
        if (c.phaseOpen) {
            _sink.complete(TraceCatCpu, c.pipeline, toString(c.phase),
                           c.phaseStart, now);
            c.phaseOpen = false;
        }
    }
}

} // namespace obs
} // namespace proteus
