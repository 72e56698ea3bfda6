#include "tx_tracker.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace proteus {
namespace obs {

const char *
slotKey(CommitBucket slot)
{
    switch (slot) {
      case CommitBucket::Base:            return "base";
      case CommitBucket::RobFull:         return "robFull";
      case CommitBucket::IqLsqFull:       return "iqLsqFull";
      case CommitBucket::BranchRedirect:  return "branchRedirect";
      case CommitBucket::PersistStall:    return "persistStall";
      case CommitBucket::WpqBackpressure: return "wpqBackpressure";
      case CommitBucket::LockWait:        return "lockWait";
    }
    return "unknown";
}

const char *
toString(TxStage stage)
{
    switch (stage) {
      case TxStage::CommitLatency:       return "commitLatency";
      case TxStage::SlotBase:            return "slot.base";
      case TxStage::SlotRobFull:         return "slot.robFull";
      case TxStage::SlotIqLsqFull:       return "slot.iqLsqFull";
      case TxStage::SlotBranchRedirect:  return "slot.branchRedirect";
      case TxStage::SlotPersistStall:    return "slot.persistStall";
      case TxStage::SlotWpqBackpressure: return "slot.wpqBackpressure";
      case TxStage::SlotLockWait:        return "slot.lockWait";
      case TxStage::LockWait:            return "lockWait";
      case TxStage::LogAck:              return "logAck";
      case TxStage::McQueueWait:         return "mcQueueWait";
      case TxStage::LogsPerTx:           return "logsPerTx";
    }
    return "unknown";
}

const char *
toString(TxEvent::Kind kind)
{
    switch (kind) {
      case TxEvent::Kind::Begin:       return "begin";
      case TxEvent::Kind::LockRequest: return "lockRequest";
      case TxEvent::Kind::LockGrant:   return "lockGrant";
      case TxEvent::Kind::LogCreate:   return "logCreate";
      case TxEvent::Kind::LogFilter:   return "logFilter";
      case TxEvent::Kind::LogAck:      return "logAck";
      case TxEvent::Kind::McQueued:    return "mcQueued";
      case TxEvent::Kind::McIssued:    return "mcIssued";
      case TxEvent::Kind::McDropped:   return "mcDropped";
      case TxEvent::Kind::NvmPersist:  return "nvmPersist";
      case TxEvent::Kind::Commit:      return "commit";
      case TxEvent::Kind::Rollback:    return "rollback";
    }
    return "unknown";
}

namespace {

/** Linear histogram shape per stage; the percentile map is what makes
 *  the tails exact, the buckets are for at-a-glance dumps. Every stage
 *  of a given kind shares one shape so merge() is always legal. */
struct StageShape
{
    double hi;
    unsigned buckets;
};

StageShape
shapeOf(TxStage stage)
{
    if (stage == TxStage::LogsPerTx)
        return {256.0, 64};
    return {16384.0, 64};
}

} // namespace

TxTracker::TxTracker(stats::StatRegistry &registry, unsigned numCores,
                     unsigned slowestK)
    : _numCores(numCores ? numCores : 1), _slowestK(slowestK)
{
    _dists.resize(_numCores);
    for (unsigned c = 0; c < _numCores; ++c) {
        _dists[c].reserve(numTxStages);
        // Appended, not "c" + ...: g++ 12 at -O3 flags the inlined
        // prepend with a false -Wrestrict.
        std::string prefix = "c";
        prefix += std::to_string(c);
        prefix += '.';
        for (unsigned s = 0; s < numTxStages; ++s) {
            const auto stage = static_cast<TxStage>(s);
            const StageShape shape = shapeOf(stage);
            _dists[c].push_back(std::make_unique<stats::Distribution>(
                _coreReg, prefix + toString(stage),
                "per-core tx stage", 0.0, shape.hi, shape.buckets));
        }
    }
    _merged.reserve(numTxStages);
    for (unsigned s = 0; s < numTxStages; ++s) {
        const auto stage = static_cast<TxStage>(s);
        const StageShape shape = shapeOf(stage);
        _merged.push_back(std::make_unique<stats::Distribution>(
            registry, std::string("tx.") + toString(stage),
            "flight recorder: " + std::string(toString(stage)), 0.0,
            shape.hi, shape.buckets));
    }
    _s.cores.resize(_numCores);
}

TxTracker::~TxTracker() = default;

void
TxTracker::onEvent(const SimEvent &e)
{
    switch (e.kind) {
      case SimEventKind::TxBegin:
        txBegin(e.core, e.tx, e.tick);
        break;
      case SimEventKind::TxCommit:
        txCommit(e.core, e.tx, e.tick);
        break;
      case SimEventKind::CommitSlot:
        commitSlot(e.core, e.tx, static_cast<CommitBucket>(e.flags), e.aux);
        break;
      case SimEventKind::LockRequest:
        lockRequested(e.core, e.tx, e.addr, e.tick);
        break;
      case SimEventKind::LockGrant:
        lockGranted(e.core, e.tx, e.addr, e.tick);
        break;
      case SimEventKind::LogCreate:
        logCreated(e.core, e.tx, e.tick);
        break;
      case SimEventKind::LogFilter:
        logFiltered(e.core, e.tx, e.tick);
        break;
      case SimEventKind::LogAck:
        logAcked(e.core, e.tx, e.aux, e.tick);
        break;
      case SimEventKind::WriteAccept:
        if (!e.has(evCombined))
            mcQueued(e.core, e.tx, e.has(evLpq), e.tick);
        break;
      case SimEventKind::NvmIssue:
        if (!e.has(evMarker))
            mcIssued(e.core, e.tx, e.aux, e.tick);
        break;
      case SimEventKind::NvmPersist:
        if (!e.has(evMarker))
            nvmPersisted(e.core, e.tx, e.has(evLpq), e.tick);
        break;
      case SimEventKind::FlashClear:
        mcDropped(e.core, e.tx, e.aux, e.tick);
        break;
      default:
        break;
    }
}

stats::Distribution &
TxTracker::dist(CoreId core, TxStage stage)
{
    const unsigned c = core < _numCores ? core : _numCores - 1;
    return *_dists[c][static_cast<unsigned>(stage)];
}

TxTracker::OpenTx &
TxTracker::open(CoreId core, TxId tx)
{
    return _open[{core, tx}];
}

TxTracker::OpenTx *
TxTracker::find(CoreId core, TxId tx)
{
    auto it = _open.find({core, tx});
    return it == _open.end() ? nullptr : &it->second;
}

void
TxTracker::record(OpenTx *otx, Tick at, TxEvent::Kind kind,
                  std::uint64_t arg)
{
    if (otx && _slowestK > 0)
        otx->events.push_back(TxEvent{at, kind, arg});
}

void
TxTracker::txBegin(CoreId core, TxId tx, Tick at)
{
    OpenTx &otx = open(core, tx);
    otx.begun = true;
    otx.beginTick = at;
    record(&otx, at, TxEvent::Kind::Begin, 0);
}

void
TxTracker::retain(TxTimeline &&tl)
{
    if (_slowestK == 0)
        return;
    if (_slowest.size() >= _slowestK &&
        tl.latency <= _slowest.back().latency) {
        return;
    }
    auto pos = std::upper_bound(
        _slowest.begin(), _slowest.end(), tl,
        [](const TxTimeline &a, const TxTimeline &b) {
            return a.latency > b.latency;
        });
    _slowest.insert(pos, std::move(tl));
    if (_slowest.size() > _slowestK)
        _slowest.pop_back();
}

void
TxTracker::close(CoreId core, TxId tx, Tick at, bool committed)
{
    auto it = _open.find({core, tx});
    if (it == _open.end()) {
        warn("TxTracker: ", committed ? "commit" : "rollback",
             " for unknown tx ", tx, " (core ", core, ")");
        return;
    }
    OpenTx &otx = it->second;
    record(&otx, at, committed ? TxEvent::Kind::Commit
                               : TxEvent::Kind::Rollback, 0);

    if (committed) {
        ++_s.committedTxs;
        const Tick begin = otx.begun ? otx.beginTick : at;
        const std::uint64_t latency = at - begin;
        dist(core, TxStage::CommitLatency)
            .sample(static_cast<double>(latency));
        dist(core, TxStage::LogsPerTx)
            .sample(static_cast<double>(otx.logsCreated +
                                        otx.logsFiltered));

        unsigned crit = 0;
        for (unsigned s = 0; s < numTxSlots; ++s) {
            dist(core, static_cast<TxStage>(
                           static_cast<unsigned>(TxStage::SlotBase) + s))
                .sample(static_cast<double>(otx.slots[s]));
            if (otx.slots[s] > otx.slots[crit])
                crit = s;
        }
        ++_s.critPath[crit];

        if (_slowestK > 0) {
            TxTimeline tl;
            tl.core = core;
            tl.tx = tx;
            tl.begin = begin;
            tl.commit = at;
            tl.latency = latency;
            tl.critPath = static_cast<CommitBucket>(crit);
            tl.slots = otx.slots;
            tl.events = std::move(otx.events);
            retain(std::move(tl));
        }
    } else {
        ++_s.rollbacks;
    }
    _open.erase(it);
}

void
TxTracker::txCommit(CoreId core, TxId tx, Tick at)
{
    close(core, tx, at, true);
}

void
TxTracker::txRollback(CoreId core, TxId tx, Tick at)
{
    close(core, tx, at, false);
}

void
TxTracker::lockRequested(CoreId core, TxId tx, Addr addr, Tick at)
{
    ++_s.lockAcquires;
    _pendingLocks.push_back(PendingLock{core, addr, tx, at});
    record(find(core, tx), at, TxEvent::Kind::LockRequest, addr);
}

void
TxTracker::lockGranted(CoreId core, TxId tx, Addr addr, Tick at)
{
    for (auto it = _pendingLocks.begin(); it != _pendingLocks.end();
         ++it) {
        if (it->core == core && it->addr == addr) {
            dist(core, TxStage::LockWait)
                .sample(static_cast<double>(at - it->at));
            _pendingLocks.erase(it);
            break;
        }
    }
    record(find(core, tx), at, TxEvent::Kind::LockGrant, addr);
}

void
TxTracker::logCreated(CoreId core, TxId tx, Tick at)
{
    ++_s.logsCreated;
    OpenTx *otx = tx ? &open(core, tx) : nullptr;
    if (otx)
        ++otx->logsCreated;
    record(otx, at, TxEvent::Kind::LogCreate, 0);
}

void
TxTracker::logFiltered(CoreId core, TxId tx, Tick at)
{
    ++_s.logsFiltered;
    OpenTx *otx = tx ? &open(core, tx) : nullptr;
    if (otx)
        ++otx->logsFiltered;
    record(otx, at, TxEvent::Kind::LogFilter, 0);
}

void
TxTracker::logAcked(CoreId core, TxId tx, Tick createdAt, Tick at)
{
    ++_s.logsAcked;
    dist(core, TxStage::LogAck)
        .sample(static_cast<double>(at - createdAt));
    record(find(core, tx), at, TxEvent::Kind::LogAck, at - createdAt);
}

void
TxTracker::commitSlot(CoreId core, TxId tx, CommitBucket slot,
                      std::uint64_t n)
{
    const auto s = static_cast<unsigned>(slot);
    _s.slotTotal[s] += n;
    if (tx == 0)
        return;
    _s.slotInTx[s] += n;
    // The begin hook always precedes the first in-tx commit slot (both
    // happen in the tx-begin retire tick, retire before accounting), so
    // this lookup hits except for synthetic feeds.
    open(core, tx).slots[s] += n;
}

void
TxTracker::mcQueued(CoreId core, TxId tx, bool lpq, Tick at)
{
    if (lpq)
        ++_s.mcLogQueued;
    else
        ++_s.mcDataQueued;
    record(find(core, tx), at, TxEvent::Kind::McQueued, lpq);
}

void
TxTracker::mcIssued(CoreId core, TxId tx, Tick acceptedAt, Tick at)
{
    ++_s.mcIssued;
    dist(core, TxStage::McQueueWait)
        .sample(static_cast<double>(at - acceptedAt));
    record(find(core, tx), at, TxEvent::Kind::McIssued, at - acceptedAt);
}

void
TxTracker::mcDropped(CoreId core, TxId tx, std::uint64_t n, Tick at)
{
    _s.mcDropped += n;
    record(find(core, tx), at, TxEvent::Kind::McDropped, n);
}

void
TxTracker::nvmPersisted(CoreId core, TxId tx, bool lpq, Tick at)
{
    ++_s.nvmPersists;
    OpenTx *otx = tx ? find(core, tx) : nullptr;
    if (tx != 0 && !otx)
        ++_s.postCommitPersists;
    record(otx, at, TxEvent::Kind::NvmPersist, lpq);
}

void
TxTracker::finish()
{
    if (_finished)
        return;
    _finished = true;
    for (unsigned s = 0; s < numTxStages; ++s)
        for (unsigned c = 0; c < _numCores; ++c)
            _merged[s]->merge(*_dists[c][s]);
}

namespace {

TxStageSnap
snap(const stats::Distribution &d)
{
    TxStageSnap s;
    s.count = d.count();
    s.sum = d.sum();
    s.min = d.min();
    s.max = d.max();
    s.p50 = d.percentile(50);
    s.p95 = d.percentile(95);
    s.p99 = d.percentile(99);
    s.qhist.assign(d.quantized().begin(), d.quantized().end());
    return s;
}

} // namespace

TxStatsSummary
TxTracker::summary()
{
    finish();
    TxStatsSummary out = _s;
    out.openTxs = _open.size();
    for (unsigned s = 0; s < numTxStages; ++s) {
        out.stages[s] = snap(*_merged[s]);
        for (unsigned c = 0; c < _numCores; ++c)
            out.cores[c][s] = snap(*_dists[c][s]);
    }
    out.slowest = _slowest;
    return out;
}

} // namespace obs
} // namespace proteus
