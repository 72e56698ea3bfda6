#include "analysis/persist_checker.hh"

#include <algorithm>
#include <sstream>

#include "logging/log_record.hh"
#include "trace/write_history.hh"

namespace proteus {
namespace analysis {

namespace {

/** History-kind bits for one (tx, granule); see bindWriteHistory. */
constexpr std::uint8_t histLoggedBit = 1;
constexpr std::uint8_t histUnloggedBit = 2;
constexpr std::uint8_t histRawBit = 4;

std::string
hex(Addr a)
{
    std::ostringstream os;
    os << "0x" << std::hex << a;
    return os.str();
}

/** Sorted-vector intersection test (locksets are tiny). */
bool
haveCommonLock(const std::vector<Addr> &a, const std::vector<Addr> &b)
{
    auto ia = a.begin();
    auto ib = b.begin();
    while (ia != a.end() && ib != b.end()) {
        if (*ia < *ib)
            ++ia;
        else if (*ib < *ia)
            ++ib;
        else
            return true;
    }
    return false;
}

} // namespace

PersistChecker::PersistChecker(LogScheme scheme, bool adr,
                               std::string repro)
    : _scheme(scheme), _adr(adr),
      _isHwScheme(!isSoftwareScheme(scheme)),
      _isSwLogScheme(scheme == LogScheme::PMEM ||
                     scheme == LogScheme::PMEMPCommit),
      _repro(std::move(repro))
{
    _armed = rulesForScheme(scheme, /*have_history=*/false);
}

void
PersistChecker::addLogArea(Addr start, Addr end, CoreId owner)
{
    if (start == invalidAddr || start >= end)
        return;
    _logAreas.emplace_back(start, end, owner);
    std::sort(_logAreas.begin(), _logAreas.end());
}

void
PersistChecker::bindWriteHistory(const WriteHistory &history)
{
    _haveHistory = true;
    _armed = rulesForScheme(_scheme, /*have_history=*/true);
    for (const WriteEvent &ev : history.events()) {
        if (ev.kind != WriteEvent::Kind::Store || ev.tx == 0)
            continue;
        std::uint8_t bit = 0;
        switch (ev.writeKind) {
          case ObservedWrite::Logged:   bit = histLoggedBit;   break;
          case ObservedWrite::Unlogged: bit = histUnloggedBit; break;
          case ObservedWrite::Raw:      bit = histRawBit;      break;
        }
        auto &granules = _hist[CoreTx{ev.thread, ev.tx}];
        const Addr last =
            logAlign(ev.addr + (ev.size ? ev.size : 1) - 1);
        for (Addr g = logAlign(ev.addr); g <= last; g += logDataSize)
            granules[g] |= bit;
    }
}

bool
PersistChecker::logAreaOwner(Addr addr, CoreId &owner) const
{
    for (const auto &[start, end, core] : _logAreas) {
        if (addr >= start && addr < end) {
            owner = core;
            return true;
        }
        if (addr < start)
            break;      // sorted by start
    }
    return false;
}

bool
PersistChecker::historyLogged(CoreId core, TxId id, Addr granule) const
{
    auto it = _hist.find(CoreTx{core, id});
    if (it == _hist.end())
        return false;
    auto git = it->second.find(granule);
    return git != it->second.end() && (git->second & histLoggedBit);
}

bool
PersistChecker::historyRawOnly(CoreId core, TxId id, Addr granule) const
{
    auto it = _hist.find(CoreTx{core, id});
    if (it == _hist.end())
        return false;
    auto git = it->second.find(granule);
    return git != it->second.end() && git->second == histRawBit;
}

bool
PersistChecker::commitOrdered(const ChunkWrite &prev, CoreId core,
                              TxId id, Tick now) const
{
    // A lockset intersection misses the other legal hand-off: the
    // previous writer's transaction committed (locks released, writes
    // published by the serialization order) before the current
    // transaction even began. Tree workloads hit this constantly —
    // a node freed and re-allocated is rewritten by a later tx under
    // a different lock. Overlapping transactions get no such excuse.
    auto pit = _txs.find(CoreTx{prev.core, prev.tx});
    if (pit == _txs.end() || !pit->second.committed)
        return false;
    Tick begin = now;    // non-tx store: ordered by its own retirement
    if (id != 0) {
        auto cit = _txs.find(CoreTx{core, id});
        if (cit != _txs.end() && cit->second.began)
            begin = cit->second.beginTick;
    }
    return pit->second.commitTick <= begin;
}

void
PersistChecker::recordViolation(Rule rule, CoreId core, TxId id,
                                Addr addr, std::uint64_t ordinal,
                                Tick now, std::string missing_edge,
                                std::string detail)
{
    ++stats(rule).violations;
    ++_totalViolations;
    if (_violations.size() >= reportCap)
        return;
    Violation v;
    v.rule = rule;
    v.core = core;
    v.tx = id;
    v.addr = addr;
    v.ordinal = ordinal;
    v.tick = now;
    v.missingEdge = std::move(missing_edge);
    v.detail = std::move(detail);
    _violations.push_back(std::move(v));
}

CheckOutcome
PersistChecker::outcome() const
{
    CheckOutcome out;
    out.rules = _ruleStats;
    out.armed = _armed;
    out.violations = _violations;
    out.totalViolations = _totalViolations;
    out.eventsSeen = _eventsSeen;
    out.repro = _repro;
    return out;
}

void
PersistChecker::onEvent(const SimEvent &e)
{
    switch (e.kind) {
      case SimEventKind::TxBegin:
        txBegin(e.core, e.tx, e.tick);
        break;
      case SimEventKind::TxCommit:
        txCommit(e.core, e.tx, e.tick);
        break;
      case SimEventKind::LockGrant:
        lockGranted(e.core, e.tx, e.addr, e.tick);
        break;
      case SimEventKind::LogCreate:
        logCreated(e.core, e.tx, e.tick);
        break;
      case SimEventKind::LogAck:
        logAcked(e.core, e.tx, e.aux, e.tick);
        break;
      case SimEventKind::StoreRetire:
        storeRetired(e.core, e.tx, e.addr,
                     static_cast<unsigned>(e.aux), e.has(evPersistent),
                     e.seq, e.tick);
        break;
      case SimEventKind::StoreRelease:
        storeReleased(e.core, e.tx, e.addr, static_cast<unsigned>(e.aux),
                      e.seq, e.tick);
        break;
      case SimEventKind::FenceRetire:
        fenceRetired(e.core, e.tick);
        break;
      case SimEventKind::DurablePoint:
        durablePoint(e.core, e.tx, e.tick);
        break;
      case SimEventKind::LockRelease:
        lockReleased(e.core, e.addr, e.tick);
        break;
      case SimEventKind::WriteAccept:
        if (e.has(evDataWrite)) {
            dataWriteAccepted(e.core, e.tx, e.addr, e.seq,
                              e.has(evCombined), e.data, e.tick);
        }
        break;
      case SimEventKind::LogWriteAccept:
        logWriteAccepted(e.core, e.tx, e.addr, e.aux, e.seq,
                         e.has(evLpq), e.tick);
        break;
      case SimEventKind::NvmIssue:
        nvmWriteIssued(e.has(evLpq), e.addr, e.seq, e.tick);
        break;
      case SimEventKind::NvmPersist:
        nvmWritePersisted(e.has(evLpq), e.addr, e.seq, e.tick);
        break;
      case SimEventKind::FlashClear:
        lpqFlashCleared(e.core, e.tx, e.aux, e.tick);
        break;
      case SimEventKind::TxEndMarker:
        txEndMarker(e.core, e.tx, static_cast<MarkerOp>(e.flags),
                    e.tick);
        break;
      default:
        break;
    }
}

// ---------------------------------------------------------------------
// Transaction and lock events
// ---------------------------------------------------------------------

void
PersistChecker::txBegin(CoreId core, TxId id, Tick now)
{
    ++_eventsSeen;
    TxState &t = tx(core, id);
    t.began = true;
    t.beginTick = now;
}

void
PersistChecker::txCommit(CoreId core, TxId id, Tick now)
{
    ++_eventsSeen;
    TxState &t = tx(core, id);
    t.committed = true;
    t.commitTick = now;
    // Retire the transaction's tracking state; keep a durable tombstone
    // so late MC-side events (marker drops) can still find it.
    for (const Addr g : t.released) {
        auto it = _granuleWriters.find(g);
        if (it == _granuleWriters.end())
            continue;
        auto &writers = it->second;
        writers.erase(std::remove(writers.begin(), writers.end(),
                                  CoreTx{core, id}),
                      writers.end());
        if (writers.empty())
            _granuleWriters.erase(it);
    }
    t.stores.clear();
    t.released.clear();
    t.logCover.clear();
}

void
PersistChecker::lockGranted(CoreId core, TxId id, Addr addr, Tick now)
{
    ++_eventsSeen;
    (void)id;
    (void)now;
    auto &locks = coreState(core).locks;
    auto it = std::lower_bound(locks.begin(), locks.end(), addr);
    if (it == locks.end() || *it != addr)
        locks.insert(it, addr);
}

void
PersistChecker::lockReleased(CoreId core, Addr addr, Tick now)
{
    ++_eventsSeen;
    (void)now;
    auto &locks = coreState(core).locks;
    auto it = std::lower_bound(locks.begin(), locks.end(), addr);
    if (it != locks.end() && *it == addr)
        locks.erase(it);
}

void
PersistChecker::logCreated(CoreId core, TxId id, Tick now)
{
    ++_eventsSeen;
    (void)now;
    ++tx(core, id).logsCreated;
}

void
PersistChecker::logAcked(CoreId core, TxId id, Tick created_at, Tick now)
{
    ++_eventsSeen;
    (void)created_at;
    (void)now;
    ++tx(core, id).logsAcked;
}

// ---------------------------------------------------------------------
// Persist edges
// ---------------------------------------------------------------------

void
PersistChecker::storeRetired(CoreId core, TxId id, Addr addr,
                             unsigned size, bool persistent,
                             std::uint64_t ordinal, Tick now)
{
    ++_eventsSeen;
    if (!persistent || size == 0)
        return;

    CoreId owner = 0;
    const bool in_log_area = logAreaOwner(addr, owner);

    // Record transactional stores per granule for the durability sweep
    // at the tx-end durability point (DurableByCommit). Software
    // log-area stores are protocol writes, checked via LogBeforeData.
    if (id != 0 && !in_log_area) {
        TxState &t = tx(core, id);
        const Addr last = logAlign(addr + size - 1);
        for (Addr g = logAlign(addr); g <= last; g += logDataSize) {
            StoreRec &rec = t.stores[g];
            rec.retired = now;
            rec.ordinal = ordinal;
            rec.addr = addr;
            rec.size = size;
        }
    }

    // Lockset race detection over 8-byte chunks.
    if (armed(Rule::LockDiscipline) && !in_log_area) {
        const auto &locks = coreState(core).locks;
        const Addr last_chunk = (addr + size - 1) & ~Addr{7};
        for (Addr c = addr & ~Addr{7}; c <= last_chunk; c += 8) {
            auto it = _chunks.find(c);
            if (it != _chunks.end() && it->second.core != core) {
                ++stats(Rule::LockDiscipline).checks;
                if (!haveCommonLock(it->second.locks, locks) &&
                    !commitOrdered(it->second, core, id, now)) {
                    std::ostringstream det;
                    det << "chunk " << hex(c) << " previously written by"
                        << " core " << it->second.core << " tx "
                        << it->second.tx << " (store #"
                        << it->second.ordinal << ", tick "
                        << it->second.tick << ") with no common lock";
                    recordViolation(
                        Rule::LockDiscipline, core, id, addr, ordinal,
                        now, "common lock (or ordering edge) between "
                             "cross-core writers",
                        det.str());
                }
            }
            ChunkWrite &cw = _chunks[c];
            cw.core = core;
            cw.tx = id;
            cw.ordinal = ordinal;
            cw.tick = now;
            cw.locks = locks;
        }
    }
}

void
PersistChecker::storeReleased(CoreId core, TxId id, Addr addr,
                              unsigned size, std::uint64_t ordinal,
                              Tick now)
{
    ++_eventsSeen;
    (void)ordinal;
    (void)now;
    if (id == 0 || size == 0 || !armed(Rule::LogBeforeData))
        return;
    CoreId owner = 0;
    if (logAreaOwner(addr, owner))
        return;     // software log-entry store: not undo-logged data
    // From here on the store's data can reach the cache hierarchy and
    // hence the MC, so the transaction becomes a visible writer of the
    // granule(s): any MC data-write acceptance covering them must find
    // a durable undo-log entry.
    TxState &t = tx(core, id);
    const Addr last = logAlign(addr + size - 1);
    for (Addr g = logAlign(addr); g <= last; g += logDataSize) {
        if (t.released.insert(g).second)
            _granuleWriters[g].push_back(CoreTx{core, id});
    }
}

void
PersistChecker::fenceRetired(CoreId core, Tick now)
{
    ++_eventsSeen;
    (void)core;
    (void)now;
}

void
PersistChecker::durablePoint(CoreId core, TxId id, Tick now)
{
    ++_eventsSeen;
    TxState &t = tx(core, id);
    t.durable = true;
    t.durableTick = now;

    if (armed(Rule::EntriesBeforeTxEnd)) {
        ++stats(Rule::EntriesBeforeTxEnd).checks;
        if (t.logsAcked < t.logsCreated) {
            std::ostringstream det;
            det << t.logsCreated << " log records created, only "
                << t.logsAcked << " durable at the tx-end gate";
            recordViolation(Rule::EntriesBeforeTxEnd, core, id,
                            invalidAddr, 0, now,
                            "last log-record ack -> tx-end retirement",
                            det.str());
        }
    }

    if (armed(Rule::DurableByCommit)) {
        const auto &witness = _adr ? _lastAccept : _lastPersist;
        for (const auto &[granule, rec] : t.stores) {
            if (_haveHistory && historyRawOnly(core, id, granule))
                continue;   // storeRaw: exempt from persist ordering
            ++stats(Rule::DurableByCommit).checks;
            auto it = witness.find(blockAlign(granule));
            if (it != witness.end() && it->second >= rec.retired)
                continue;
            std::ostringstream det;
            det << "store #" << rec.ordinal << " to " << hex(rec.addr)
                << " (retired tick " << rec.retired << ") has no "
                << (_adr ? "MC write acceptance"
                         : "NVM array writeback")
                << " of block " << hex(blockAlign(granule))
                << " at or after retirement";
            recordViolation(Rule::DurableByCommit, core, id, rec.addr,
                            rec.ordinal, now,
                            _adr ? "store flush acceptance -> tx-end "
                                   "retirement"
                                 : "store array writeback -> tx-end "
                                   "retirement",
                            det.str());
        }
    }
}

void
PersistChecker::checkLogCoverage(Addr granule, Tick now)
{
    auto wit = _granuleWriters.find(granule);
    if (wit == _granuleWriters.end())
        return;
    for (const CoreTx &ct : wit->second) {
        auto tit = _txs.find(ct);
        if (tit == _txs.end())
            continue;
        TxState &t = tit->second;
        if (!t.began || t.durable)
            continue;
        if (!_isHwScheme && !historyLogged(ct.first, ct.second, granule))
            continue;   // sw: only declared-logged granules need cover
        ++stats(Rule::LogBeforeData).checks;
        if (t.logCover.count(granule))
            continue;
        const auto sit = t.stores.find(granule);
        const std::uint64_t ordinal =
            sit != t.stores.end() ? sit->second.ordinal : 0;
        const Addr saddr =
            sit != t.stores.end() ? sit->second.addr : granule;
        std::ostringstream det;
        det << "data write covering granule " << hex(granule)
            << " accepted at the MC while tx " << ct.second
            << " (core " << ct.first << ") is in flight and no undo-log"
            << " entry for the granule is durable";
        recordViolation(Rule::LogBeforeData, ct.first, ct.second, saddr,
                        ordinal, now,
                        "undo-log entry durable -> data-write "
                        "acceptance",
                        det.str());
    }
}

void
PersistChecker::dataWriteAccepted(CoreId core, TxId id, Addr addr,
                                  std::uint64_t seq, bool combined,
                                  const std::uint8_t *data, Tick now)
{
    ++_eventsSeen;
    (void)core;
    (void)id;
    (void)seq;
    (void)combined;
    const Addr block = blockAlign(addr);
    _lastAccept[block] = now;

    // Software schemes write their undo log through the ordinary data
    // path: recover granule coverage by parsing the 64B record.
    CoreId owner = 0;
    if (logAreaOwner(addr, owner)) {
        if (_isSwLogScheme && data != nullptr) {
            const LogRecord rec = LogRecord::fromBytes(data);
            if (rec.valid())
                tx(owner, rec.txId).logCover.insert(logAlign(rec.fromAddr));
        }
        return;
    }

    if (armed(Rule::LogBeforeData)) {
        checkLogCoverage(block, now);
        checkLogCoverage(block + logDataSize, now);
    }
}

void
PersistChecker::logWriteAccepted(CoreId core, TxId id, Addr slot,
                                 Addr granule, std::uint64_t rec_seq,
                                 bool lpq, Tick now)
{
    ++_eventsSeen;
    (void)slot;
    (void)rec_seq;
    (void)lpq;
    (void)now;
    tx(core, id).logCover.insert(granule);
}

void
PersistChecker::nvmWriteIssued(bool lpq, Addr addr, std::uint64_t seq,
                               Tick now)
{
    ++_eventsSeen;
    if (!armed(Rule::FifoPerAddress))
        return;
    const Addr block = blockAlign(addr);
    auto &last = _lastIssuedSeq[lpq ? 1 : 0];
    auto it = last.find(block);
    if (it != last.end()) {
        ++stats(Rule::FifoPerAddress).checks;
        if (seq <= it->second) {
            std::ostringstream det;
            det << (lpq ? "LPQ" : "WPQ") << " issued seq " << seq
                << " to block " << hex(block) << " after already "
                << "issuing seq " << it->second;
            recordViolation(Rule::FifoPerAddress, 0, 0, block, seq, now,
                            "older same-block issue -> newer same-block"
                            " issue",
                            det.str());
            return;     // keep the high-water mark
        }
    }
    last[block] = seq;
}

void
PersistChecker::nvmWritePersisted(bool lpq, Addr addr,
                                  std::uint64_t seq, Tick now)
{
    ++_eventsSeen;
    const Addr block = blockAlign(addr);
    _lastPersist[block] = now;
    if (!armed(Rule::FifoPerAddress))
        return;
    auto &last = _lastPersistSeq[lpq ? 1 : 0];
    auto it = last.find(block);
    if (it != last.end()) {
        ++stats(Rule::FifoPerAddress).checks;
        if (seq <= it->second) {
            std::ostringstream det;
            det << (lpq ? "LPQ" : "WPQ") << " persisted seq " << seq
                << " to block " << hex(block) << " after already "
                << "persisting seq " << it->second;
            recordViolation(Rule::FifoPerAddress, 0, 0, block, seq, now,
                            "older same-block persist -> newer "
                            "same-block persist",
                            det.str());
            return;
        }
    }
    last[block] = seq;
}

void
PersistChecker::lpqFlashCleared(CoreId core, TxId id, std::uint64_t n,
                                Tick now)
{
    ++_eventsSeen;
    if (!armed(Rule::FlashClearAfterCommit))
        return;
    ++stats(Rule::FlashClearAfterCommit).checks;
    const TxState &t = tx(core, id);
    if (!t.durable) {
        std::ostringstream det;
        det << n << " LPQ log entries flash-cleared before tx " << id
            << " announced its durable commit";
        recordViolation(Rule::FlashClearAfterCommit, core, id,
                        invalidAddr, 0, now,
                        "durable commit -> LPQ flash-clear",
                        det.str());
    }
}

void
PersistChecker::txEndMarker(CoreId core, TxId id, MarkerOp op, Tick now)
{
    ++_eventsSeen;
    if (!armed(Rule::FlashClearAfterCommit))
        return;
    ++stats(Rule::FlashClearAfterCommit).checks;
    const TxState &t = tx(core, id);
    if (!t.durable) {
        const char *what =
            op == MarkerOp::Held ? "held"
                                 : op == MarkerOp::Rewritten
                                       ? "rewritten"
                                       : "dropped";
        std::ostringstream det;
        det << "tx-end marker " << what << " before tx " << id
            << " announced its durable commit";
        recordViolation(Rule::FlashClearAfterCommit, core, id,
                        invalidAddr, 0, now,
                        "durable commit -> tx-end marker operation",
                        det.str());
    }
}

} // namespace analysis
} // namespace proteus
