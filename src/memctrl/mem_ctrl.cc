#include "mem_ctrl.hh"

#include <algorithm>
#include <limits>
#include <map>

#include "sim/logging.hh"

namespace proteus {

namespace {

/** Arbiter scan depth: full-window FR-FCFS. */
constexpr std::size_t scanLimit = 64;
/** Latency of serving a read from a matching WPQ entry. */
constexpr Tick wpqForwardLatency = 8;
constexpr std::size_t npos = static_cast<std::size_t>(-1);
/** Age after which a queued write drains regardless of pressure. */
constexpr Tick agedWriteTicks = 4000;

} // namespace

MemCtrl::MemCtrl(Simulator &sim, const SystemConfig &cfg, MemoryImage &nvm)
    : _sim(sim), _cfg(cfg), _nvm(nvm),
      _dram(cfg.mem, sim.statsRegistry(), "mc.dram"),
      _readsAccepted(sim.statsRegistry(), "mc.readsAccepted",
                     "reads accepted"),
      _writesAccepted(sim.statsRegistry(), "mc.writesAccepted",
                      "regular writes accepted into the WPQ"),
      _logWritesAccepted(sim.statsRegistry(), "mc.logWritesAccepted",
                         "log writes accepted (LPQ or ATOM)"),
      _wpqForwards(sim.statsRegistry(), "mc.wpqForwards",
                   "reads served from the WPQ"),
      _writesCombined(sim.statsRegistry(), "mc.writesCombined",
                      "writes absorbed by a queued WPQ entry"),
      _logWritesDropped(sim.statsRegistry(), "mc.logWritesDropped",
                        "LPQ entries flash-cleared at tx-end"),
      _markerWrites(sim.statsRegistry(), "mc.markerWrites",
                    "tx-end marker updates written to NVM"),
      _markersDropped(sim.statsRegistry(), "mc.markersDropped",
                      "held markers discarded by a successor tx"),
      _spilledLogWrites(sim.statsRegistry(), "mc.spilledLogWrites",
                        "log entries written to NVM before tx-end"),
      _atomInvalidationWrites(sim.statsRegistry(),
                              "mc.atomInvalidationWrites",
                              "ATOM truncation invalidation writes"),
      _atomSearchReads(sim.statsRegistry(), "mc.atomSearchReads",
                       "ATOM log-area search reads beyond HW resources"),
      _atomLogRejects(sim.statsRegistry(), "mc.atomLogRejects",
                      "ATOM log entries rejected by a full WPQ"),
      _wpqOccupancy(sim.statsRegistry(), "mc.wpqOccupancy",
                    "WPQ entries sampled per cycle"),
      _lpqOccupancy(sim.statsRegistry(), "mc.lpqOccupancy",
                    "LPQ entries sampled per cycle"),
      _inflightSample(sim.statsRegistry(), "mc.inflightWrites",
                      "in-flight array writes sampled per cycle"),
      _writeAttempts(sim.statsRegistry(), "mc.writeAttempts",
                     "cycles the arbiter tried to issue a write"),
      _writeNoCandidate(sim.statsRegistry(), "mc.writeNoCandidate",
                        "write attempts with no bank-ready candidate")
{
    const LogScheme scheme = cfg.logging.scheme;
    _useLpq = scheme == LogScheme::Proteus ||
              scheme == LogScheme::ProteusNoLWR;
    _logWriteRemoval = scheme == LogScheme::Proteus;
    ensureCore(cfg.cores ? cfg.cores - 1 : 0);

    // The fault model (and its faults.* stats) exists only when fault
    // injection is configured: the default run registers no extra
    // stats and takes no extra branches on the write/read paths.
    if (cfg.faults.enabled()) {
        _faults = std::make_unique<faults::FaultModel>(
            cfg.faults, sim.statsRegistry());
    }
    _events = sim.eventStream();
}

void
MemCtrl::ensureCore(CoreId core)
{
    if (core >= _lastLog.size()) {
        _lastLog.resize(core + 1);
        _atomLogArea.resize(core + 1);
        _coreFlushWaiters.resize(core + 1);
    }
}

bool
MemCtrl::canAcceptRead() const
{
    // Reads waiting out a retry backoff keep their queue slot: they
    // re-enter _readQ when the backoff expires, so handing the slot to
    // a new request would overflow the structure.
    return _readQ.size() + _inflightReads + _pendingRetries <
           _cfg.memCtrl.readQueueEntries;
}

void
MemCtrl::read(Addr addr, std::function<void()> on_complete)
{
    if (!canAcceptRead())
        panic("MemCtrl::read on full read queue");
    _poked = true;
    ++_readsAccepted;
    const Addr block = blockAlign(addr);

    // Forward from the WPQ; the LPQ is deliberately *not* checked
    // (Section 4.3: logs are never read outside recovery).
    for (const QueuedWrite &w : _wpq) {
        if (w.req.addr == block) {
            ++_wpqForwards;
            _sim.schedule(wpqForwardLatency, std::move(on_complete));
            return;
        }
    }
    _readQ.push_back(PendingRead{block, std::move(on_complete)});
}

bool
MemCtrl::canAcceptWrite(WriteKind kind) const
{
    if (kind == WriteKind::Log && _useLpq)
        return _lpq.size() + _inflightLogs < _cfg.memCtrl.lpqEntries;
    return _wpq.size() + _inflightWrites < _cfg.memCtrl.wpqEntries;
}

void
MemCtrl::write(const WriteRequest &req)
{
    if (!canAcceptWrite(req.kind))
        panic("MemCtrl::write on full queue");
    if (req.addr != blockAlign(req.addr))
        panic("MemCtrl::write with unaligned address");
    _poked = true;

    QueuedWrite qw = newEntry(req);
    qw.acceptedAt = _sim.now();

    if (req.kind == WriteKind::Log || req.kind == WriteKind::AtomLog) {
        ++_logWritesAccepted;
        const LogRecord rec = LogRecord::fromBytes(req.data.data());
        recordLogDurable(req.core, req.txId, logAlign(rec.fromAddr));
        if (_events) {
            const bool lpq = req.kind == WriteKind::Log && _useLpq;
            _events->emit({.kind = SimEventKind::LogWriteAccept,
                           .flags = lpq ? evLpq : std::uint8_t{0},
                           .core = req.core, .tx = req.txId, .addr = req.addr,
                           .seq = rec.seq, .aux = logAlign(rec.fromAddr),
                           .tick = _sim.now()});
        }
        if (req.kind == WriteKind::Log) {
            noteLogArrival(req.core, req.txId);
            ensureCore(req.core);
            _lastLog[req.core] = LastLog{true, req.txId, req.addr,
                                         req.data};
        }
    } else {
        ++_writesAccepted;
    }

    if (req.kind == WriteKind::Log && _useLpq) {
        emitAccept(req, qw.seq, evLpq);
        _lpq.push_back(std::move(qw));
        _lpqPick.valid = false;
        return;
    }
    _wpqPick.valid = false;

    // Write combining: a WPQ entry to the same block absorbs the new
    // data (standard ADR write-pending-queue behavior). This also makes
    // ATOM truncation naturally ordered: invalidating an entry that is
    // still queued simply overwrites it in place.
    for (QueuedWrite &w : _wpq) {
        if (w.req.addr == req.addr) {
            ++_writesCombined;
            if (w.req.kind == WriteKind::AtomLog &&
                req.kind != WriteKind::AtomLog) {
                --_atomLogsQueued;
            } else if (w.req.kind != WriteKind::AtomLog &&
                       req.kind == WriteKind::AtomLog) {
                ++_atomLogsQueued;
            }
            w.req.data = req.data;
            w.req.kind = req.kind;
            w.req.core = req.core;
            w.req.txId = req.txId;
            // The combined data is newly durable even though no new
            // queue entry was created.
            emitAccept(req, w.seq, evCombined);
            return;
        }
    }
    if (req.kind == WriteKind::AtomLog)
        ++_atomLogsQueued;
    emitAccept(req, qw.seq, 0);
    _wpq.push_back(std::move(qw));
}

MemCtrl::QueuedWrite
MemCtrl::newEntry(const WriteRequest &req)
{
    QueuedWrite qw;
    qw.req = req;
    qw.bank = _dram.bankIndex(req.addr);
    qw.row = _dram.rowIndex(req.addr);
    qw.seq = _acceptSeq++;
    return qw;
}

void
MemCtrl::emitAccept(const WriteRequest &req, std::uint64_t seq,
                    std::uint8_t flags)
{
    if (!_events)
        return;
    if (req.kind == WriteKind::Data)
        flags |= evDataWrite;
    _events->emit({.kind = SimEventKind::WriteAccept, .flags = flags,
                   .core = req.core, .tx = req.txId, .addr = req.addr,
                   .seq = seq, .tick = _sim.now(), .data = req.data.data()});
}

void
MemCtrl::emitMarker(CoreId core, TxId tx, MarkerOp op)
{
    if (_events) {
        _events->emit({.kind = SimEventKind::TxEndMarker,
                       .flags = static_cast<std::uint8_t>(op), .core = core,
                       .tx = tx, .tick = _sim.now()});
    }
}

void
MemCtrl::emitFault(FaultEvent what, Addr addr)
{
    if (_events) {
        _events->emit({.kind = SimEventKind::Fault,
                       .flags = static_cast<std::uint8_t>(what), .addr = addr,
                       .tick = _sim.now()});
    }
}

void
MemCtrl::noteLogArrival(CoreId core, TxId tx)
{
    // A held tx-end marker is discarded once a log entry from the next
    // transaction of the same thread arrives (Section 4.3): the newest
    // transaction in the durable log is now the successor, so the
    // marker can never be consulted. With log write removal the marker
    // is the sole remnant of its transaction and the entry is elided
    // outright; without it the record doubles as a live data entry
    // whose NVM write must still be paid, so only the marker role is
    // dropped and the entry drains as an ordinary log write.
    for (auto it = _lpq.begin(); it != _lpq.end(); ++it) {
        if (it->marker && it->req.core == core && it->req.txId != tx) {
            ++_markersDropped;
            _lpqPick.valid = false;
            emitMarker(core, it->req.txId, MarkerOp::Dropped);
            if (_logWriteRemoval)
                _lpq.erase(it);
            else
                it->marker = false;
            break;
        }
    }
}

void
MemCtrl::recordLogDurable(CoreId core, TxId tx, Addr granule)
{
    _durableLogs[CoreTx{core, tx}].insert(granule);
}

bool
MemCtrl::logGranuleDurable(CoreId core, TxId tx, Addr granule) const
{
    auto it = _durableLogs.find(CoreTx{core, tx});
    return it != _durableLogs.end() &&
           it->second.count(logAlign(granule)) > 0;
}

void
MemCtrl::txEnd(CoreId core, TxId tx)
{
    _poked = true;
    _durableLogs.erase(CoreTx{core, tx});
    if (!_useLpq)
        return;
    _lpqPick.valid = false;

    // Find this transaction's LPQ-resident entries; all but the latest
    // are flash-cleared, the latest becomes the held tx-end marker.
    std::size_t latest = npos;
    std::uint64_t latest_seq = 0;
    for (std::size_t i = 0; i < _lpq.size(); ++i) {
        const QueuedWrite &w = _lpq[i];
        if (w.req.core != core || w.req.txId != tx || w.marker)
            continue;
        const LogRecord rec = LogRecord::fromBytes(w.req.data.data());
        if (latest == npos || rec.seq >= latest_seq) {
            latest = i;
            latest_seq = rec.seq;
        }
    }

    if (latest != npos) {
        LogRecord rec =
            LogRecord::fromBytes(_lpq[latest].req.data.data());
        rec.flags |= LogRecord::flagTxEnd;
        const auto bytes = rec.toBytes();
        std::copy(bytes.begin(), bytes.end(),
                  _lpq[latest].req.data.begin());
        _lpq[latest].marker = true;
        emitMarker(core, tx, MarkerOp::Held);

        if (_logWriteRemoval) {
            std::uint64_t dropped = 0;
            std::deque<QueuedWrite> kept;
            for (std::size_t i = 0; i < _lpq.size(); ++i) {
                const QueuedWrite &w = _lpq[i];
                if (i != latest && w.req.core == core &&
                    w.req.txId == tx && !w.marker) {
                    ++_logWritesDropped;
                    ++dropped;
                } else {
                    kept.push_back(_lpq[i]);
                }
            }
            _lpq.swap(kept);
            if (_events && dropped) {
                _events->emit({.kind = SimEventKind::FlashClear, .core = core,
                               .tx = tx, .aux = dropped, .tick = _sim.now()});
            }
        }
        return;
    }

    // Every entry already left the LPQ: rewrite the last entry with its
    // tx-end flag set so recovery can see the transaction committed.
    // The retained acceptance-time bytes are used — the entry's own
    // write may still be in flight to the array, so reading the NVM
    // slot back here could return stale pre-entry contents and the
    // rewrite would then destroy the entry.
    if (core < _lastLog.size() && _lastLog[core].valid &&
        _lastLog[core].tx == tx) {
        const LastLog &last = _lastLog[core];
        LogRecord rec = LogRecord::fromBytes(last.data.data());
        rec.flags |= LogRecord::flagTxEnd;

        if (canAcceptWrite(WriteKind::Log)) {
            WriteRequest req;
            req.addr = last.addr;
            req.kind = WriteKind::Log;
            req.core = core;
            req.txId = tx;
            req.data = rec.toBytes();
            QueuedWrite qw = newEntry(req);
            qw.marker = true;
            ++_markerWrites;
            _lpq.push_back(std::move(qw));
            emitMarker(core, tx, MarkerOp::Rewritten);
        } else {
            // Extremely rare; apply directly and charge a write. If the
            // entry's own array write is still in flight, its completion
            // would land *after* this point and overwrite the marker
            // with the stale (no tx-end) payload — patch the in-flight
            // bytes instead so the completion itself writes the marker.
            ++_markerWrites;
            const auto out = rec.toBytes();
            bool patched = false;
            for (auto &[seq, entry] : _inflightData) {
                if (entry.first == last.addr) {
                    std::copy(out.begin(), out.end(),
                              entry.second.begin());
                    patched = true;
                }
            }
            if (!patched) {
                if (_faults)
                    _faults->applyWrite(_nvm, last.addr, out.data());
                else
                    _nvm.write(last.addr, out.data(), out.size());
            }
            emitMarker(core, tx, MarkerOp::Rewritten);
        }
    }
}

void
MemCtrl::bindAtomLogArea(CoreId core, Addr start, Addr end)
{
    ensureCore(core);
    // Block 0 holds the commit record; entries start one block in.
    _atomLogArea[core] = AtomLogArea{start, end, start + logEntrySize};
}

bool
MemCtrl::atomTxCommit(CoreId core, TxId tx)
{
    if (!canAcceptWrite(WriteKind::Data))
        return false;
    if (core >= _atomLogArea.size() ||
        _atomLogArea[core].start == invalidAddr) {
        panic("MemCtrl::atomTxCommit without a bound log area");
    }
    WriteRequest req;
    req.addr = _atomLogArea[core].start;
    req.kind = WriteKind::Data;
    req.core = core;
    req.txId = tx;
    req.data.fill(0);
    std::memcpy(req.data.data(), &tx, sizeof(tx));
    write(req);
    return true;
}

bool
MemCtrl::atomLog(CoreId core, TxId tx, const LogRecord &record)
{
    if (!canAcceptWrite(WriteKind::AtomLog)) {
        ++_atomLogRejects;
        return false;
    }
    if (core >= _atomLogArea.size() ||
        _atomLogArea[core].start == invalidAddr) {
        panic("MemCtrl::atomLog without a bound log area");
    }

    // Block 0 holds the commit record. A transaction whose entries
    // wrapped round the area would overwrite its own undo data.
    AtomLogArea &area = _atomLogArea[core];
    std::vector<Addr> &entries = _atomTx[CoreTx{core, tx}].entries;
    const std::uint64_t capacity =
        (area.end - area.start) / logEntrySize - 1;
    if (entries.size() >= capacity)
        fatal("a transaction overflowed its ", capacity,
              "-entry log area (logging.logAreaBytes); the processor "
              "raises an exception");
    const Addr slot = area.next;
    area.next += logEntrySize;
    if (area.next >= area.end)
        area.next = area.start + logEntrySize;

    WriteRequest req;
    req.addr = slot;
    req.kind = WriteKind::AtomLog;
    req.core = core;
    req.txId = tx;
    req.data = record.toBytes();
    write(req);

    entries.push_back(slot);
    return true;
}

void
MemCtrl::atomTxEnd(CoreId core, TxId tx, std::function<void()> on_done)
{
    _poked = true;
    _durableLogs.erase(CoreTx{core, tx});
    auto it = _atomTx.find(CoreTx{core, tx});
    if (it == _atomTx.end() || it->second.entries.empty()) {
        _atomTx.erase(CoreTx{core, tx});
        if (on_done)
            _sim.schedule(1, std::move(on_done));
        return;
    }

    // Hardware-tracked entries are cleared in the MC's SRAM and covered
    // by the durable commit record -- no NVM writes needed. Only entries
    // beyond the tracking resources must be searched for and manually
    // invalidated one by one (Section 4.3).
    const auto &entries = it->second.entries;
    const std::size_t tracked = std::min<std::size_t>(
        entries.size(), _cfg.logging.atomTruncationEntries);
    if (tracked == entries.size()) {
        _atomTx.erase(CoreTx{core, tx});
        if (on_done)
            _sim.schedule(1, std::move(on_done));
        return;
    }
    AtomTruncation job;
    job.core = core;
    job.tx = tx;
    job.onDone = std::move(on_done);
    // Addresses the hardware must rediscover by scanning the log area.
    job.searchAddrs.assign(entries.begin() +
                               static_cast<std::ptrdiff_t>(tracked),
                           entries.end());
    _atomTx.erase(CoreTx{core, tx});
    _atomTruncations.push_back(std::move(job));
}

void
MemCtrl::pumpAtomTruncation()
{
    if (_atomTruncations.empty())
        return;
    AtomTruncation &job = _atomTruncations.front();

    // Convert searches (log-area scans) into reads; each completed read
    // yields one more invalidation target.
    while (!job.searchAddrs.empty() && canAcceptRead()) {
        const Addr addr = job.searchAddrs.back();
        job.searchAddrs.pop_back();
        ++job.pendingSearchReads;
        ++_atomSearchReads;
        AtomTruncation *jobp = &job;
        read(addr, [this, jobp, addr]() {
            --jobp->pendingSearchReads;
            jobp->invalidations.push_back(addr);
        });
    }

    // Issue invalidation writes, rate-limited so background truncation
    // never starves the cores' own writes: at most two per cycle, and
    // only while the WPQ has headroom. Entries still queued in the WPQ
    // are overwritten in place by write combining; an entry mid-write
    // to the array forces a short wait.
    unsigned issued = 0;
    while (!job.invalidations.empty() && issued < 2 &&
           canAcceptWrite(WriteKind::Data) &&
           _wpq.size() + _inflightWrites <
               (3 * _cfg.memCtrl.wpqEntries) / 4) {
        const Addr addr = job.invalidations.back();
        if (_inflightWriteAddrs.count(addr) > 0)
            break;
        ++issued;
        job.invalidations.pop_back();
        ++_atomInvalidationWrites;
        WriteRequest req;
        req.addr = addr;
        req.kind = WriteKind::Data;
        req.core = job.core;
        req.txId = job.tx;
        req.data.fill(0);   // an all-zero block is an invalid record
        write(req);
    }

    if (job.searchAddrs.empty() && job.pendingSearchReads == 0 &&
        job.invalidations.empty()) {
        if (job.onDone)
            job.onDone();
        _atomTruncations.pop_front();
    }
}

void
MemCtrl::drain(std::function<void()> on_drained)
{
    // pcommit semantics: only writes accepted before this point must
    // reach NVM; later arrivals are not waited for.
    _poked = true;
    _drainWaiters.emplace_back(_acceptSeq, std::move(on_drained));
}

std::uint64_t
MemCtrl::oldestPendingSeq() const
{
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (const QueuedWrite &w : _wpq)
        oldest = std::min(oldest, w.seq);
    for (const QueuedWrite &w : _lpq)
        oldest = std::min(oldest, w.seq);
    if (!_inflightSeqs.empty())
        oldest = std::min(oldest, *_inflightSeqs.begin());
    return oldest;
}

void
MemCtrl::flushCoreLogs(CoreId core, std::function<void()> on_done)
{
    _poked = true;
    _lpqPick.valid = false;
    for (QueuedWrite &w : _lpq) {
        if (w.req.core == core)
            w.forced = true;
    }
    ensureCore(core);
    if (on_done) {
        if (!_coreFlushWaiters[core])
            ++_coreFlushWaiterCount;
        _coreFlushWaiters[core] = std::move(on_done);
    }
}

bool
MemCtrl::empty() const
{
    return _readQ.empty() && _wpq.empty() && _lpq.empty() &&
           _inflightReads == 0 && _inflightWrites == 0 &&
           _inflightLogs == 0 && _pendingRetries == 0 &&
           _atomTruncations.empty();
}

void
MemCtrl::applyBatteryDrain(MemoryImage &image) const
{
    // Everything the battery preserves, in acceptance order: writes
    // mid-flight to the array plus both pending queues.
    std::map<std::uint64_t,
             std::pair<Addr, const std::array<std::uint8_t,
                                              blockSize> *>>
        all;
    for (const auto &[seq, entry] : _inflightData)
        all.emplace(seq, std::make_pair(entry.first, &entry.second));
    for (const QueuedWrite &w : _wpq)
        all.emplace(w.seq, std::make_pair(w.req.addr, &w.req.data));
    for (const QueuedWrite &w : _lpq)
        all.emplace(w.seq, std::make_pair(w.req.addr, &w.req.data));
    for (const auto &[seq, entry] : all)
        image.write(entry.first, entry.second->data(), blockSize);
}

bool
MemCtrl::allowConflicts(const std::deque<QueuedWrite> &queue,
                        Tick now) const
{
    // Row-conflict writes commit a bank to a long NVM activate that
    // pending reads then wait behind; defer them until the queue is
    // under real pressure (conflict-averse write drain).
    return !_drainWaiters.empty() ||
           (!queue.empty() &&
            now > queue.front().acceptedAt + agedWriteTicks) ||
           queue.size() + _inflightWrites + _inflightLogs >=
               (3 * _cfg.memCtrl.wpqEntries) / 4;
}

std::size_t
MemCtrl::pickWriteCandidate(const std::deque<QueuedWrite> &queue,
                            Tick now, bool skip_markers)
{
    PickMemo &memo = memoOf(queue);
    const bool allow_conflicts = allowConflicts(queue, now);
    if (now < memo.until && memo.holds(_dram.issueCount(), allow_conflicts))
        return npos;

    // Scan, remembering the earliest tick a busy bank the scan needed
    // comes ready: until then (and while the memo holds) the answer
    // stays "nothing".
    Tick until = maxTick;
    const auto ready = [&](const QueuedWrite &w) {
        const Tick at = _dram.bankReadyAt(w.bank);
        if (at <= now)
            return true;
        until = std::min(until, at);
        return false;
    };
    std::size_t fallback = npos;
    const std::size_t depth = std::min(queue.size(), scanLimit);
    // First preference: forced entries (context switch flushes).
    for (std::size_t i = 0; i < depth; ++i) {
        const QueuedWrite &w = queue[i];
        if (w.forced && ready(w))
            return i;
    }
    for (std::size_t i = 0; i < depth; ++i) {
        const QueuedWrite &w = queue[i];
        if (skip_markers && w.marker)
            continue;
        if (!ready(w))
            continue;
        if (_dram.rowHit(w.bank, w.row))
            return i;
        if (fallback == npos)
            fallback = i;
    }
    if (allow_conflicts && fallback != npos)
        return fallback;
    memo = PickMemo{true, allow_conflicts, _dram.issueCount(), until};
    return npos;
}

void
MemCtrl::issueWriteEntry(std::deque<QueuedWrite> &queue, std::size_t idx,
                         Tick now)
{
    // The completion closure captures only (addr, seq): the data bytes
    // already live in _inflightData for battery-drain purposes, so
    // capturing the whole QueuedWrite (with its 64B payload) would copy
    // the block twice and blow past std::function's inline storage on
    // this hot path.
    const QueuedWrite &w = queue[idx];
    const Addr addr = w.req.addr;
    const std::uint64_t seq = w.seq;
    const bool is_log_queue = (&queue == &_lpq);
    const CoreId req_core = w.req.core;
    const TxId req_tx = w.req.txId;
    const bool is_marker = w.marker;
    const std::uint8_t ev_flags =
        (is_log_queue ? evLpq : 0) | (is_marker ? evMarker : 0);
    if (_events) {
        _events->emit({.kind = SimEventKind::NvmIssue, .flags = ev_flags,
                       .core = req_core, .tx = req_tx, .addr = addr,
                       .seq = seq, .aux = w.acceptedAt, .tick = now});
    }
    if (!is_log_queue && w.req.kind == WriteKind::AtomLog)
        --_atomLogsQueued;
    if (is_log_queue) {
        ++_inflightLogs;
        if (_logWriteRemoval && !w.marker)
            ++_spilledLogWrites;
    } else {
        ++_inflightWrites;
    }
    _inflightWriteAddrs.insert(addr);
    _inflightSeqs.insert(seq);
    _inflightData.emplace(seq, std::make_pair(addr, w.req.data));
    // No memo to clear: the issue below changes NvmTiming::issueCount.
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(idx));

    const Tick done = _dram.issue(addr, true, now);
    _sim.events().schedule(done, [this, addr, seq, is_log_queue,
                                  req_core, req_tx, ev_flags]() {
        auto dit = _inflightData.find(seq);
        if (dit == _inflightData.end())
            panic("MemCtrl: completed write lost its in-flight data");
        if (_faults) {
            const auto out = _faults->applyWrite(
                _nvm, addr, dit->second.second.data());
            if (out != faults::WriteOutcome::Clean) {
                emitFault(out == faults::WriteOutcome::Torn
                              ? FaultEvent::TornWrite
                          : out == faults::WriteOutcome::Corrected
                              ? FaultEvent::WornCorrected
                          : out == faults::WriteOutcome::Uncorrectable
                              ? FaultEvent::WornUncorrectable
                              : FaultEvent::SilentCorruption,
                          addr);
            }
        } else {
            _nvm.write(addr, dit->second.second.data(), blockSize);
        }
        _inflightData.erase(dit);
        auto it = _inflightWriteAddrs.find(addr);
        if (it != _inflightWriteAddrs.end())
            _inflightWriteAddrs.erase(it);
        _inflightSeqs.erase(seq);
        if (is_log_queue)
            --_inflightLogs;
        else
            --_inflightWrites;
        if (_events) {
            _events->emit({.kind = SimEventKind::NvmPersist, .flags = ev_flags,
                           .core = req_core, .tx = req_tx, .addr = addr,
                           .seq = seq, .tick = _sim.now()});
        }
    });
}

bool
MemCtrl::tryIssueRead(Tick now)
{
    if (_readQ.empty())
        return false;
    std::size_t pick = npos;
    const std::size_t depth = std::min(_readQ.size(), scanLimit);
    for (std::size_t i = 0; i < depth; ++i) {
        if (!_dram.bankReady(_readQ[i].addr, now))
            continue;
        if (_dram.rowHit(_readQ[i].addr)) {
            pick = i;
            break;
        }
        if (pick == npos)
            pick = i;
    }
    if (pick == npos)
        return false;

    PendingRead r = std::move(_readQ[pick]);
    _readQ.erase(_readQ.begin() + static_cast<std::ptrdiff_t>(pick));
    ++_inflightReads;
    const Tick done = _dram.issue(r.addr, false, now);
    const Addr raddr = r.addr;
    const unsigned attempt = r.attempts;
    auto cb = std::move(r.onComplete);
    _sim.events().schedule(done, [this, raddr, attempt,
                                  cb = std::move(cb)]() mutable {
        --_inflightReads;
        if (_faults) {
            const auto out = _faults->classifyRead(_nvm, raddr);
            if (out == faults::ReadOutcome::Transient ||
                out == faults::ReadOutcome::Unrecoverable) {
                if (attempt < _faults->retryLimit()) {
                    // Bounded retry with exponential backoff: the
                    // request waits out the backoff, then re-enters the
                    // read queue and pays a full array read again. The
                    // backoff is a scheduled event, so cycle skipping
                    // can never jump past it.
                    const Tick back = _faults->backoff(attempt);
                    _faults->noteRetry(back);
                    emitFault(FaultEvent::ReadRetry, raddr);
                    ++_pendingRetries;
                    _sim.schedule(back, [this, raddr, attempt,
                                         cb = std::move(cb)]() mutable {
                        --_pendingRetries;
                        _poked = true;
                        _readQ.push_back(PendingRead{
                            raddr, std::move(cb), attempt + 1});
                    });
                    return;
                }
                // Graceful degradation: give up, poison the line, and
                // complete anyway — consumers observe the failure via
                // the poison mark (recovery classification) and the
                // faults.retriesExhausted counter.
                _faults->noteRetriesExhausted(_nvm, raddr);
                emitFault(FaultEvent::RetriesExhausted, raddr);
            }
        }
        if (cb)
            cb();
    });
    return true;
}

bool
MemCtrl::tryIssueWrite(Tick now)
{
    if (_wpq.empty())
        return false;
    // ATOM posted-log entries drain eagerly: the MC writes them to the
    // log area promptly so the locked lines can be released.
    // Age pressure: the WPQ is not long-term storage; entries older
    // than a few microseconds drain even without occupancy pressure.
    const bool aged =
        !_wpq.empty() && now > _wpq.front().acceptedAt + agedWriteTicks;
    const bool pressured =
        !_drainWaiters.empty() || _atomLogsQueued > 0 || aged ||
        _wpq.size() >=
            static_cast<std::size_t>(_cfg.memCtrl.wpqDrainThreshold *
                                     _cfg.memCtrl.wpqEntries);
    const bool opportunistic = _readQ.empty();
    if (!pressured && !opportunistic)
        return false;

    ++_writeAttempts;
    const std::size_t pick = pickWriteCandidate(_wpq, now, false);
    if (pick == npos) {
        ++_writeNoCandidate;
        return false;
    }
    issueWriteEntry(_wpq, pick, now);
    return true;
}

bool
MemCtrl::tryIssueLog(Tick now)
{
    if (_lpq.empty())
        return false;

    bool forced = false;
    for (const QueuedWrite &w : _lpq) {
        if (w.forced) {
            forced = true;
            break;
        }
    }

    const double threshold = _logWriteRemoval
        ? _cfg.memCtrl.lpqDrainThreshold
        : _cfg.memCtrl.wpqDrainThreshold;
    const bool pressured =
        !_drainWaiters.empty() || forced ||
        _lpq.size() >= static_cast<std::size_t>(
                           threshold * _cfg.memCtrl.lpqEntries);
    // Without log write removal there is no reason to hold entries:
    // drain opportunistically like a regular write queue.
    const bool opportunistic =
        !_logWriteRemoval && _readQ.empty() && _wpq.empty();
    if (!pressured && !opportunistic)
        return false;

    const bool nearly_full =
        _lpq.size() + 1 >= _cfg.memCtrl.lpqEntries;
    const std::size_t pick =
        pickWriteCandidate(_lpq, now, !nearly_full && !forced &&
                                          _logWriteRemoval);
    if (pick == npos)
        return false;
    issueWriteEntry(_lpq, pick, now);
    return true;
}

void
MemCtrl::checkDrainDone()
{
    if (!_drainWaiters.empty()) {
        const std::uint64_t oldest = oldestPendingSeq();
        for (auto it = _drainWaiters.begin();
             it != _drainWaiters.end();) {
            if (oldest >= it->first) {
                auto cb = std::move(it->second);
                it = _drainWaiters.erase(it);
                if (cb)
                    cb();
            } else {
                ++it;
            }
        }
    }

    if (_coreFlushWaiterCount == 0)
        return;
    for (CoreId core = 0; core < _coreFlushWaiters.size(); ++core) {
        if (!_coreFlushWaiters[core])
            continue;
        bool pending = _inflightLogs > 0;
        if (!pending) {
            for (const QueuedWrite &w : _lpq) {
                if (w.req.core == core) {
                    pending = true;
                    break;
                }
            }
        }
        if (!pending) {
            auto cb = std::move(_coreFlushWaiters[core]);
            _coreFlushWaiters[core] = nullptr;
            --_coreFlushWaiterCount;
            cb();
        }
    }
}

void
MemCtrl::tick(Tick now)
{
    _preWriteAttempts = _writeAttempts.value();
    _preWriteNoCandidate = _writeNoCandidate.value();
    _tickBusy = false;
    _poked = false;

    _wpqOccupancy.sample(_wpq.size());
    _inflightSample.sample(_inflightWrites);
    _lpqOccupancy.sample(_lpq.size() + _inflightLogs);
    if (_events) {
        const auto wpq = static_cast<std::int64_t>(_wpq.size());
        const auto lpq =
            static_cast<std::int64_t>(_lpq.size() + _inflightLogs);
        if (wpq != _lastWpqDepth) {
            _events->emit({.kind = SimEventKind::QueueDepth,
                           .flags = static_cast<std::uint8_t>(SimQueue::Wpq),
                           .aux = static_cast<std::uint64_t>(wpq),
                           .tick = now});
            _lastWpqDepth = wpq;
        }
        if (lpq != _lastLpqDepth) {
            _events->emit({.kind = SimEventKind::QueueDepth,
                           .flags = static_cast<std::uint8_t>(SimQueue::Lpq),
                           .aux = static_cast<std::uint64_t>(lpq),
                           .tick = now});
            _lastLpqDepth = lpq;
        }
    }

    // Progress detection for the quiescence hint: truncation pumping
    // accepts reads/writes (bumping _readsAccepted/_acceptSeq) or
    // retires a job; drain checks consume waiters.
    const std::uint64_t acceptBefore = _acceptSeq;
    const double readsBefore = _readsAccepted.value();
    const std::size_t truncBefore = _atomTruncations.size();
    const std::size_t drainBefore = _drainWaiters.size();
    const unsigned flushBefore = _coreFlushWaiterCount;

    pumpAtomTruncation();

    // One command per cycle: reads first, then regular writes, then the
    // de-prioritized log writes (Section 4.3 arbiter).
    bool issued = tryIssueRead(now);
    if (!issued)
        issued = tryIssueWrite(now);
    if (!issued)
        issued = tryIssueLog(now);

    if (!_drainWaiters.empty() || _coreFlushWaiterCount > 0)
        checkDrainDone();

    if (issued || _acceptSeq != acceptBefore ||
        _readsAccepted.value() != readsBefore ||
        _atomTruncations.size() != truncBefore ||
        _drainWaiters.size() != drainBefore ||
        _coreFlushWaiterCount != flushBefore) {
        _tickBusy = true;
    }
}

Tick
MemCtrl::nextWake(Tick now)
{
    if (_tickBusy || _poked)
        return now;

    // Everything left is blocked on either a scheduled completion event
    // (the kernel clamps skips to those) or pure passage of time: a bank
    // coming ready, or a queue front crossing the aged-write threshold
    // that flips the pressure/conflict-aversion decisions.
    // The last tick ran at now-1, so anything crossing a time threshold
    // exactly at `now` is newly actionable this cycle: the comparisons
    // below must be >= now, not > now. A bank ready strictly before now
    // was already ready during the last (idle) tick and the arbiter
    // still declined it, so only the aged threshold can unblock it.
    //
    // A write queue whose PickMemo holds for the inputs of a pick at
    // `now` cannot pick before the memo's `until`, and none of those
    // inputs changes inside a skipped span (the aged threshold is a
    // wake of its own), so the memo's tick replaces the scan.
    Tick wake = maxTick;
    auto bankWake = [&](unsigned bank) {
        const Tick at = _dram.bankReadyAt(bank);
        if (at >= now)
            wake = std::min(wake, at);
    };
    const std::size_t rdepth = std::min(_readQ.size(), scanLimit);
    for (std::size_t i = 0; i < rdepth; ++i)
        bankWake(_dram.bankIndex(_readQ[i].addr));
    auto queueWake = [&](const std::deque<QueuedWrite> &q) {
        if (q.empty())
            return;
        const Tick aged = q.front().acceptedAt + agedWriteTicks + 1;
        if (aged >= now)
            wake = std::min(wake, aged);
        const PickMemo &memo = memoOf(q);
        if (memo.until >= now &&
            memo.holds(_dram.issueCount(), allowConflicts(q, now))) {
            wake = std::min(wake, memo.until);
            return;
        }
        const std::size_t depth = std::min(q.size(), scanLimit);
        for (std::size_t i = 0; i < depth; ++i)
            bankWake(q[i].bank);
    };
    queueWake(_wpq);
    queueWake(_lpq);
    return wake;
}

void
MemCtrl::accountSkipped(Tick from, Tick to)
{
    const std::uint64_t n = to - from;
    _wpqOccupancy.sample(static_cast<double>(_wpq.size()), n);
    _inflightSample.sample(static_cast<double>(_inflightWrites), n);
    _lpqOccupancy.sample(
        static_cast<double>(_lpq.size() + _inflightLogs), n);
    const double attempts = _writeAttempts.value() - _preWriteAttempts;
    if (attempts != 0.0)
        _writeAttempts += attempts * static_cast<double>(n);
    const double nocand =
        _writeNoCandidate.value() - _preWriteNoCandidate;
    if (nocand != 0.0)
        _writeNoCandidate += nocand * static_cast<double>(n);
}

} // namespace proteus
