#include "core.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "heap/persistent_heap.hh"
#include "sim/logging.hh"

namespace proteus {

namespace {

/** One-way latency from the core to the memory controller used by the
 *  ATOM posted/source log path. */
constexpr Tick atomLogOneWay = 30;
/** Retry interval when the MC rejects an ATOM log entry. */
constexpr Tick atomLogRetry = 4;
/** Store-to-load forwarding latency. */
constexpr Tick forwardLatency = 3;

} // namespace

Core::Core(Simulator &sim, const SystemConfig &cfg, CoreId id,
           const Trace &trace, CacheHierarchy &caches, MemCtrl &mc,
           LockManager &locks)
    : _sim(sim), _cfg(cfg), _id(id),
      _name("core" + std::to_string(id)),
      _trace(trace), _caches(caches), _mc(mc), _locks(locks),
      _scheme(cfg.logging.scheme),
      _isHwScheme(!isSoftwareScheme(cfg.logging.scheme)),
      _isProteus(cfg.logging.scheme == LogScheme::Proteus ||
                 cfg.logging.scheme == LogScheme::ProteusNoLWR),
      _predictor(cfg.cpu.branchPredictorBits, sim.statsRegistry(),
                 _name + ".bp"),
      _logQ(cfg.logging.logQEntries, sim.statsRegistry(),
            _name + ".logq"),
      _llt(cfg.logging.lltEntries, cfg.logging.lltWays,
           sim.statsRegistry(), _name + ".llt"),
      _events(sim.eventStream()),
      _retired(sim.statsRegistry(), _name + ".retired",
               "micro-ops retired"),
      _cycles(sim.statsRegistry(), _name + ".cycles", "cycles ticked"),
      _frontendStalls(sim.statsRegistry(), _name + ".frontendStalls",
                      "cycles dispatch was blocked on resources"),
      _frontendStallRob(sim.statsRegistry(), _name + ".feStallRob",
                        "dispatch stalls: ROB full"),
      _frontendStallRegs(sim.statsRegistry(), _name + ".feStallRegs",
                         "dispatch stalls: no physical registers"),
      _frontendStallLsq(sim.statsRegistry(), _name + ".feStallLsq",
                        "dispatch stalls: LQ/SQ full"),
      _frontendStallLogHw(sim.statsRegistry(), _name + ".feStallLogHw",
                          "dispatch stalls: LogQ/LR unavailable"),
      _retireStallFence(sim.statsRegistry(), _name + ".retStallFence",
                        "retire stalls: fence waiting for persists"),
      _retireStallAtom(sim.statsRegistry(), _name + ".retStallAtom",
                       "retire stalls: ATOM store waiting for log ack"),
      _retireStallTxEnd(sim.statsRegistry(), _name + ".retStallTxEnd",
                        "retire stalls: tx-end waiting for durability"),
      _sbOrderingStalls(sim.statsRegistry(), _name + ".sbOrderStalls",
                        "store buffer stalls on pending log flushes"),
      _committedTxStat(sim.statsRegistry(), _name + ".committedTxs",
                       "durable transactions committed"),
      _cpiBase(sim.statsRegistry(), _name + ".cpi.base",
               "commit slots: retiring, fill, or execution latency"),
      _cpiRobFull(sim.statsRegistry(), _name + ".cpi.robFull",
                  "commit slots: window full behind the ROB head"),
      _cpiIqLsqFull(sim.statsRegistry(), _name + ".cpi.iqLsqFull",
                    "commit slots: IQ/LSQ/registers starved dispatch"),
      _cpiBranchRedirect(sim.statsRegistry(),
                         _name + ".cpi.branchRedirect",
                         "commit slots: ROB empty on a mispredict"),
      _cpiPersistStall(sim.statsRegistry(), _name + ".cpi.persistStall",
                       "commit slots: fences, log acks, tx durability"),
      _cpiWpqBackpressure(sim.statsRegistry(),
                          _name + ".cpi.wpqBackpressure",
                          "commit slots: store buffer/WPQ backpressure"),
      _cpiLockWait(sim.statsRegistry(), _name + ".cpi.lockWait",
                   "commit slots: ROB head waiting on a lock")
{
    _perCycleStats = {&_cycles,
                      &_frontendStalls,
                      &_frontendStallRob,
                      &_frontendStallRegs,
                      &_frontendStallLsq,
                      &_frontendStallLogHw,
                      &_retireStallFence,
                      &_retireStallAtom,
                      &_retireStallTxEnd,
                      &_sbOrderingStalls,
                      &_cpiBase,
                      &_cpiRobFull,
                      &_cpiIqLsqFull,
                      &_cpiBranchRedirect,
                      &_cpiPersistStall,
                      &_cpiWpqBackpressure,
                      &_cpiLockWait};

    const unsigned phys = cfg.cpu.physIntRegs;
    _renameMap.resize(numArchRegs);
    _physReady.assign(phys, false);
    for (unsigned i = 0; i < numArchRegs; ++i) {
        _renameMap[i] = static_cast<std::int16_t>(i);
        _physReady[i] = true;
    }
    for (unsigned i = phys; i-- > numArchRegs;)
        _freePhysRegs.push_back(static_cast<std::int16_t>(i));
    _iq.reserve(cfg.cpu.issueQueueEntries);
}

void
Core::bindLogArea(Addr start, Addr end)
{
    _txCtx.bindLogArea(start, end);
}

bool
Core::done() const
{
    return _fetchIndex >= _trace.size() && _fetchQueue.empty() &&
           _rob.empty() && _storeBuffer.empty() &&
           _outstandingStores == 0 && _pendingFlushAcks == 0 &&
           _autoFlushQueue.empty() && _autoFlushAcks == 0 &&
           _logQ.empty() && _atomPendingLogs == 0;
}

void
Core::tick(Tick now)
{
    for (unsigned i = 0; i < numPerCycleStats; ++i)
        _preTickValues[i] = _perCycleStats[i]->value();
    _tickBusy = false;
    _poked = false;

    ++_cycles;
    _headBlock = RetireBlock::None;
    _sbBlockedOnLog = false;
    const double before = _retired.value();
    retireStage(now);
    releaseStoreBuffer(now);
    releaseAutoFlushes();
    issueStage(now);
    _dispatchBlock = DispatchBlock::None;
    dispatchStage();
    fetchStage();
    accountCommitSlot(_retired.value() > before, now);
    if (_retired.value() > before)
        _tickBusy = true;
}

Tick
Core::nextWake(Tick now)
{
    if (_tickBusy || _poked)
        return now;
    // The branch-redirect resume is the one purely time-based state
    // change: it gates fetch and flips the ROB-empty CPI bucket, with
    // no event announcing it.
    if (_fetchResumeAt >= now)
        return _fetchResumeAt;
    return maxTick;
}

void
Core::accountSkipped(Tick from, Tick to)
{
    // A pure-blocked tick repeats the exact same stat bumps every cycle
    // until an external change (always event-signaled or covered by
    // nextWake) arrives, so replaying the last tick's deltas keeps all
    // cycle-denominated stats bit-identical with skipping off.
    const double n = static_cast<double>(to - from);
    for (unsigned i = 0; i < numPerCycleStats; ++i) {
        const double delta =
            _perCycleStats[i]->value() - _preTickValues[i];
        if (delta != 0.0)
            *_perCycleStats[i] += delta * n;
    }
    // The per-tx commit-slot feed mirrors the scalar replay: a blocked
    // tick's bucket (and the transaction live at retirement) repeats
    // for every skipped cycle.
    if (_events && to > from) {
        _events->emit({.kind = SimEventKind::CommitSlot,
                       .flags = static_cast<std::uint8_t>(_lastSlotBucket),
                       .core = _id, .tx = _retireTxId, .aux = to - from,
                       .tick = from});
    }
}

CpiStack
Core::cpiStack() const
{
    CpiStack s;
    s.base = static_cast<std::uint64_t>(_cpiBase.value());
    s.robFull = static_cast<std::uint64_t>(_cpiRobFull.value());
    s.iqLsqFull = static_cast<std::uint64_t>(_cpiIqLsqFull.value());
    s.branchRedirect =
        static_cast<std::uint64_t>(_cpiBranchRedirect.value());
    s.persistStall =
        static_cast<std::uint64_t>(_cpiPersistStall.value());
    s.wpqBackpressure =
        static_cast<std::uint64_t>(_cpiWpqBackpressure.value());
    s.lockWait = static_cast<std::uint64_t>(_cpiLockWait.value());
    return s;
}

void
Core::emitLogQDepth()
{
    if (_events) {
        _events->emit({.kind = SimEventKind::QueueDepth,
                       .flags = static_cast<std::uint8_t>(SimQueue::LogQ),
                       .core = _id, .aux = _logQ.occupancy(),
                       .tick = _sim.now()});
    }
}

void
Core::accountCommitSlot(bool retired, Tick now)
{
    CommitBucket bucket = CommitBucket::Base;
    if (retired) {
        bucket = CommitBucket::Base;
    } else if (_rob.empty()) {
        // Front-end-bound (or drained). A pending branch redirect is
        // the one cause we can name; plain fill latency stays in base.
        if (_fetchBlocked || now < _fetchResumeAt)
            bucket = CommitBucket::BranchRedirect;
    } else {
        switch (_headBlock) {
          case RetireBlock::Exec:
            // Latency-bound window: blame the back-end resource that
            // starved dispatch this cycle, if any.
            if (_dispatchBlock == DispatchBlock::Rob)
                bucket = CommitBucket::RobFull;
            else if (_dispatchBlock == DispatchBlock::IqLsqRegs)
                bucket = CommitBucket::IqLsqFull;
            else if (_dispatchBlock == DispatchBlock::LogHw)
                bucket = CommitBucket::PersistStall;
            break;
          case RetireBlock::StoreBuffer:
            bucket = _sbBlockedOnLog ? CommitBucket::PersistStall
                                     : CommitBucket::WpqBackpressure;
            break;
          case RetireBlock::Persist:
            bucket = CommitBucket::PersistStall;
            break;
          case RetireBlock::Lock:
            bucket = CommitBucket::LockWait;
            break;
          case RetireBlock::None:
            break;      // retire width exhausted mid-burst: base
        }
    }

    switch (bucket) {
      case CommitBucket::Base:            ++_cpiBase; break;
      case CommitBucket::RobFull:         ++_cpiRobFull; break;
      case CommitBucket::IqLsqFull:       ++_cpiIqLsqFull; break;
      case CommitBucket::BranchRedirect:  ++_cpiBranchRedirect; break;
      case CommitBucket::PersistStall:    ++_cpiPersistStall; break;
      case CommitBucket::WpqBackpressure: ++_cpiWpqBackpressure; break;
      case CommitBucket::LockWait:        ++_cpiLockWait; break;
    }

    // Accounting runs after retireStage: a tx-begin tick counts toward
    // the new transaction and a commit tick does not, making the per-tx
    // slots sum exactly to commitTick - beginTick.
    _lastSlotBucket = bucket;
    if (_events) {
        _events->emit({.kind = SimEventKind::CommitSlot,
                       .flags = static_cast<std::uint8_t>(bucket), .core = _id,
                       .tx = _retireTxId, .aux = 1, .tick = now});
    }
}

// ---------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------

void
Core::fetchStage()
{
    if (_fetchBlocked || _sim.now() < _fetchResumeAt)
        return;

    for (unsigned n = 0; n < _cfg.cpu.fetchWidth; ++n) {
        if (_fetchIndex >= _trace.size() ||
            _fetchQueue.size() >= _cfg.cpu.fetchQueueEntries) {
            return;
        }
        const MicroOp *mop = &_trace.op(_fetchIndex);
        ++_fetchIndex;
        _tickBusy = true;
        _fetchQueue.push_back(mop);
        if (mop->op == Op::Branch) {
            const bool predicted = _predictor.predict(mop->staticPc);
            _predictedTaken.push_back(predicted);
            if (predicted != mop->taken) {
                // Trace-driven mispredict: stop fetching until the
                // branch resolves at execute.
                _fetchBlocked = true;
                return;
            }
        } else {
            _predictedTaken.push_back(false);
        }
    }
}

// ---------------------------------------------------------------------
// Dispatch / rename
// ---------------------------------------------------------------------

bool
Core::dispatchOne(const MicroOp &mop)
{
    // Resource checks; any failure stalls dispatch in order.
    if (_rob.size() >= _cfg.cpu.robEntries) {
        ++_frontendStallRob;
        _dispatchBlock = DispatchBlock::Rob;
        return false;
    }

    const bool needs_iq =
        mop.op == Op::IntAlu || mop.op == Op::IntMul ||
        mop.op == Op::Load || mop.op == Op::Store ||
        mop.op == Op::Branch || mop.op == Op::LockAcquire ||
        mop.op == Op::LogLoad || mop.op == Op::LogFlush;
    if (needs_iq && _iq.size() >= _cfg.cpu.issueQueueEntries) {
        ++_frontendStallLsq;
        _dispatchBlock = DispatchBlock::IqLsqRegs;
        return false;
    }
    if ((mop.op == Op::Load || mop.op == Op::LogLoad) &&
        _loadsInFlight >= _cfg.cpu.loadQueueEntries) {
        ++_frontendStallLsq;
        _dispatchBlock = DispatchBlock::IqLsqRegs;
        return false;
    }
    if (mop.op == Op::Store &&
        _storesInFlight >= _cfg.cpu.storeQueueEntries) {
        ++_frontendStallLsq;
        _dispatchBlock = DispatchBlock::IqLsqRegs;
        return false;
    }
    if (mop.dst != noReg && _freePhysRegs.empty()) {
        ++_frontendStallRegs;
        _dispatchBlock = DispatchBlock::IqLsqRegs;
        return false;
    }
    if (mop.op == Op::LogLoad && !_isProteus)
        panic("log-load executed under a non-Proteus scheme");
    if (mop.op == Op::LogLoad && _lrInUse >= _cfg.logging.logRegisters) {
        ++_frontendStallLogHw;
        _dispatchBlock = DispatchBlock::LogHw;
        return false;
    }
    if (mop.op == Op::LogFlush && !_lastLogLoadWasHit && _logQ.full()) {
        // Stall dispatch so no store can bypass the log-flush
        // (Section 4.2).
        ++_frontendStallLogHw;
        _dispatchBlock = DispatchBlock::LogHw;
        return false;
    }

    _rob.emplace_back();
    DynInst &inst = _rob.back();
    inst.mop = &mop;
    inst.seq = _nextSeq++;
    inst.txId = _txCtx.txId();      // before TxBegin below updates it

    // Rename.
    if (mop.src0 != noReg)
        inst.physSrc0 = _renameMap[mop.src0];
    if (mop.src1 != noReg)
        inst.physSrc1 = _renameMap[mop.src1];
    if (mop.dst != noReg) {
        inst.oldPhysDst = _renameMap[mop.dst];
        inst.physDst = _freePhysRegs.back();
        _freePhysRegs.pop_back();
        _physReady[inst.physDst] = false;
        _renameMap[mop.dst] = inst.physDst;
    }

    switch (mop.op) {
      case Op::TxBegin:
        _txCtx.beginTx(mop.data);
        inst.completed = true;
        break;
      case Op::TxEnd:
        _txCtx.endTx();
        if (_isProteus) {
            _llt.clear();
            if (_events) {
                _events->emit({.kind = SimEventKind::LltClear, .core = _id,
                               .tick = _sim.now()});
            }
        }
        inst.completed = true;
        break;
      case Op::LogLoad: {
        const Addr granule = logAlign(mop.addr);
        const bool hit =
            _txCtx.inTx() && _llt.lookupInsert(granule);
        if (hit) {
            // Hit: both the log-load and the upcoming log-flush
            // complete immediately (Section 4.2).
            inst.completed = true;
            inst.lltHit = true;
            setDstReady(inst);
            _lastLogLoadWasHit = true;
        } else {
            _lastLogLoadWasHit = false;
            ++_lrInUse;
            ++_loadsInFlight;
            inst.inIq = true;
            _iq.push_back(&inst);
        }
        break;
      }
      case Op::LogFlush: {
        if (inst.mop->payload == noPayload)
            panic("log-flush without a payload");
        if (_lastLogLoadWasHit) {
            inst.completed = true;
            inst.lltHit = true;
            _lastLogLoadWasHit = false;
            if (_events) {
                _events->emit({.kind = SimEventKind::LogFilter, .core = _id,
                               .tx = _trace.logPayload(mop.payload).txId,
                               .tick = _sim.now()});
            }
            break;
        }
        const LogPayload &payload = _trace.logPayload(mop.payload);
        LogRecord rec;
        std::copy(std::begin(payload.bytes), std::end(payload.bytes),
                  rec.data.begin());
        rec.fromAddr = payload.fromAddr;
        rec.txId = payload.txId;
        rec.seq = _txCtx.nextSeq();
        rec.flags = LogRecord::flagValid;
        rec.magic = LogRecord::magicValue;
        const Addr log_to = _txCtx.nextLogTo();
        inst.logQEntry =
            _logQ.allocate(inst.seq, payload.fromAddr, log_to, rec);
        inst.logCreatedAt = _sim.now();
        if (_events) {
            _events->emit({.kind = SimEventKind::LogCreate, .core = _id,
                           .tx = payload.txId, .tick = _sim.now()});
        }
        emitLogQDepth();
        inst.inIq = true;
        _iq.push_back(&inst);
        break;
      }
      case Op::Load:
        ++_loadsInFlight;
        inst.inIq = true;
        _iq.push_back(&inst);
        break;
      case Op::Store:
        ++_storesInFlight;
        _storeAddrCount[mop.addr & ~Addr{7}]++;
        inst.inIq = true;
        _iq.push_back(&inst);
        break;
      case Op::IntAlu:
      case Op::IntMul:
      case Op::LockAcquire:
        inst.inIq = true;
        _iq.push_back(&inst);
        break;
      case Op::Branch:
        inst.predictedTaken = _predictedTaken.front();
        inst.inIq = true;
        _iq.push_back(&inst);
        break;
      case Op::PCommit:
      case Op::LogSave:
        inst.completed = false;     // completed by the drain callback
        break;
      default:
        // Fences, clwb, lock release, nop: no execution; semantics at
        // retirement.
        inst.completed = true;
        break;
    }
    return true;
}

void
Core::dispatchStage()
{
    bool stalled = false;
    for (unsigned n = 0; n < _cfg.cpu.dispatchWidth; ++n) {
        if (_fetchQueue.empty())
            return;
        const MicroOp &mop = *_fetchQueue.front();
        if (!dispatchOne(mop)) {
            stalled = true;
            break;
        }
        _tickBusy = true;
        _fetchQueue.pop_front();
        _predictedTaken.pop_front();
    }
    if (stalled) {
        // The Figure 7 metric: a cycle in which dispatch was blocked by
        // a lack of free back-end resources.
        ++_frontendStalls;
    }
}

// ---------------------------------------------------------------------
// Issue / execute
// ---------------------------------------------------------------------

bool
Core::srcsReady(const DynInst &inst) const
{
    if (inst.physSrc0 >= 0 && !_physReady[inst.physSrc0])
        return false;
    if (inst.physSrc1 >= 0 && !_physReady[inst.physSrc1])
        return false;
    return true;
}

void
Core::setDstReady(DynInst &inst)
{
    if (inst.physDst >= 0)
        _physReady[inst.physDst] = true;
}

void
Core::completeInst(DynInst &inst)
{
    _poked = true;
    inst.completed = true;
    setDstReady(inst);
}

bool
Core::forwardFromStores(Addr addr, unsigned size, std::uint64_t seq) const
{
    (void)seq;
    const Addr first = addr & ~Addr{7};
    const Addr last = (addr + (size ? size : 1) - 1) & ~Addr{7};
    for (Addr chunk = first; chunk <= last; chunk += 8) {
        auto it = _storeAddrCount.find(chunk);
        if (it != _storeAddrCount.end() && it->second > 0)
            return true;
    }
    return false;
}

void
Core::executeInst(DynInst &inst, Tick now)
{
    DynInst *ip = &inst;
    switch (inst.mop->op) {
      case Op::IntAlu:
        _sim.schedule(_cfg.cpu.intAluLatency,
                      [this, ip]() { completeInst(*ip); });
        break;
      case Op::IntMul:
        _sim.schedule(_cfg.cpu.intMulLatency,
                      [this, ip]() { completeInst(*ip); });
        break;
      case Op::Branch: {
        const bool mispredicted =
            inst.predictedTaken != inst.mop->taken;
        _sim.schedule(_cfg.cpu.intAluLatency, [this, ip, mispredicted,
                                               now]() {
            _predictor.update(ip->mop->staticPc, ip->mop->taken,
                              ip->predictedTaken);
            if (mispredicted) {
                _fetchBlocked = false;
                _fetchResumeAt =
                    now + _cfg.cpu.intAluLatency +
                    _cfg.cpu.branchMispredictPenalty;
            }
            completeInst(*ip);
        });
        break;
      }
      case Op::Store:
        // Address and data are both available; the access happens when
        // the store buffer releases it after retirement.
        _sim.schedule(1, [this, ip]() { completeInst(*ip); });
        break;
      case Op::Load:
        if (forwardFromStores(inst.mop->addr, inst.mop->size,
                              inst.seq)) {
            _sim.schedule(forwardLatency,
                          [this, ip]() { completeInst(*ip); });
        } else if (!_caches.load(_id, inst.mop->addr, inst.mop->size,
                                 [this, ip]() { completeInst(*ip); })) {
            // MSHRs full: put it back and retry.
            inst.issued = false;
            return;
        }
        break;
      case Op::LogLoad:
        if (!_caches.load(_id, logAlign(inst.mop->addr), logDataSize,
                          [this, ip]() { completeInst(*ip); })) {
            inst.issued = false;
            return;
        }
        break;
      case Op::LogFlush: {
        // Send the entry to the MC over the uncacheable path. The
        // instruction is complete (and may retire) once sent; the LogQ
        // entry lives on until the MC acknowledgment arrives.
        const LogQueue::EntryId entry = inst.logQEntry;
        WriteRequest req;
        req.addr = _logQ.logTo(entry);
        req.kind = WriteKind::Log;
        req.core = _id;
        req.txId = _logQ.record(entry).txId;
        req.data = _logQ.record(entry).toBytes();
        const TxId log_tx = req.txId;
        const Tick created_at = inst.logCreatedAt;
        _caches.sendLogWrite(req, [this, entry, log_tx, created_at]() {
            _poked = true;
            _logQ.deallocate(entry);
            emitLogQDepth();
            if (_events) {
                _events->emit({.kind = SimEventKind::LogAck, .core = _id,
                               .tx = log_tx, .aux = created_at,
                               .tick = _sim.now()});
            }
        });
        _sim.schedule(1, [this, ip]() { completeInst(*ip); });
        break;
      }
      case Op::LockAcquire:
        if (_events) {
            _events->emit({.kind = SimEventKind::LockRequest, .core = _id,
                           .tx = inst.txId, .addr = inst.mop->addr,
                           .tick = _sim.now()});
        }
        _locks.acquire(inst.mop->addr, _id, inst.mop->data, [this, ip]() {
            if (_events) {
                _events->emit({.kind = SimEventKind::LockGrant, .core = _id,
                               .tx = ip->txId, .addr = ip->mop->addr,
                               .tick = _sim.now()});
            }
            completeInst(*ip);
        });
        break;
      default:
        panic("executeInst: op ", toString(inst.mop->op),
              " should not reach the issue queue");
    }
}

void
Core::issueStage(Tick now)
{
    unsigned issued = 0;
    unsigned alu_used = 0;
    unsigned mul_used = 0;
    unsigned mem_used = 0;

    for (DynInst *inst : _iq) {
        if (issued >= _cfg.cpu.issueWidth)
            break;
        if (inst->issued || !srcsReady(*inst))
            continue;

        const Op op = inst->mop->op;
        const bool is_mem = op == Op::Load || op == Op::Store ||
                            op == Op::LogLoad || op == Op::LogFlush ||
                            op == Op::LockAcquire;
        if (is_mem) {
            if (mem_used >= _cfg.cpu.memPortCount)
                continue;
        } else if (op == Op::IntMul) {
            if (mul_used >= _cfg.cpu.intMulCount)
                continue;
        } else {
            if (alu_used >= _cfg.cpu.intAluCount)
                continue;
        }

        // Issuing — even an attempt the caches reject — touches cache
        // state and stats, so the cycle counts as busy.
        _tickBusy = true;
        inst->issued = true;
        executeInst(*inst, now);
        if (!inst->issued)
            continue;   // rejected (MSHR full); port not consumed

        ++issued;
        if (is_mem)
            ++mem_used;
        else if (op == Op::IntMul)
            ++mul_used;
        else
            ++alu_used;
    }

    // Compact: drop issued entries, preserving age order.
    std::erase_if(_iq, [](DynInst *i) { return i->issued; });
}

// ---------------------------------------------------------------------
// Retire
// ---------------------------------------------------------------------

void
Core::startAtomLog(DynInst &inst)
{
    _tickBusy = true;
    inst.atomLogState = 1;
    ++_atomPendingLogs;
    const Addr block = blockAlign(inst.mop->addr);
    const TxId tx = _retireTxId;

    // One ATOM block pair counts as one log record for the flight
    // recorder: created when the MC trip starts, acked when the ack
    // returns (the paired granule writes are MC-internal detail).
    const Tick created_at = _sim.now();
    if (_events) {
        _events->emit({.kind = SimEventKind::LogCreate, .core = _id, .tx = tx,
                       .tick = created_at});
    }

    auto snapshot = _caches.tracker().snapshot(block);
    auto submit = std::make_shared<std::function<void(unsigned)>>();
    DynInst *ip = &inst;
    // Self-capture must be weak or the closure keeps itself alive
    // forever; the scheduled continuations hold the strong refs.
    std::weak_ptr<std::function<void(unsigned)>> weak = submit;
    *submit = [this, ip, block, tx, snapshot, weak,
               created_at](unsigned next) {
        if (next >= blockSize / logDataSize) {
            // Both granules accepted; the ack travels back.
            _sim.schedule(atomLogOneWay, [this, ip, tx, created_at]() {
                _poked = true;
                ip->atomLogState = 2;
                --_atomPendingLogs;
                if (_events) {
                    _events->emit({.kind = SimEventKind::LogAck, .core = _id,
                                   .tx = tx, .aux = created_at,
                                   .tick = _sim.now()});
                }
            });
            return;
        }
        LogRecord rec;
        std::copy(snapshot.begin() +
                      static_cast<std::ptrdiff_t>(next * logDataSize),
                  snapshot.begin() +
                      static_cast<std::ptrdiff_t>((next + 1) *
                                                  logDataSize),
                  rec.data.begin());
        rec.fromAddr = block + next * logDataSize;
        rec.txId = tx;
        rec.seq = _atomSeq++;
        rec.flags = LogRecord::flagValid;
        rec.magic = LogRecord::magicValue;
        if (_mc.atomLog(_id, tx, rec))
            (*weak.lock())(next + 1);
        else
            _sim.schedule(atomLogRetry, [s = weak.lock(), next]() {
                (*s)(next);
            });
    };
    // One-way trip to the MC, then submit both 32B granule records.
    _sim.schedule(atomLogOneWay, [submit]() { (*submit)(0); });
}

bool
Core::persistsDrained() const
{
    return _storeBuffer.empty() && _outstandingStores == 0 &&
           _pendingFlushAcks == 0 && _autoFlushQueue.empty() &&
           _autoFlushAcks == 0 &&
           _caches.pendingEvictionWrites() == 0;
}

bool
Core::canRetire(DynInst &inst, Tick now)
{
    (void)now;
    const MicroOp &mop = *inst.mop;

    switch (mop.op) {
      case Op::Store:
        if (!inst.completed) {
            _headBlock = RetireBlock::Exec;
            return false;
        }
        if (_storeBuffer.size() >= _cfg.cpu.storeBufferEntries) {
            _headBlock = RetireBlock::StoreBuffer;
            return false;
        }
        if (_scheme == LogScheme::ATOM && _retireTxId != 0 &&
            mop.persistent) {
            const Addr block = blockAlign(mop.addr);
            if (_atomBlocks.get(block) != TxBlockSet::State::Logged) {
                if (inst.atomLogState == 0 && _atomBlocks.start(block))
                    startAtomLog(inst);
                if (inst.atomLogState != 2) {
                    ++_retireStallAtom;
                    _headBlock = RetireBlock::Persist;
                    return false;
                }
                _atomBlocks.markLogged(block);
            }
        }
        return true;
      case Op::SFence:
      case Op::MFence:
        if (!persistsDrained()) {
            ++_retireStallFence;
            _headBlock = RetireBlock::Persist;
            return false;
        }
        return true;
      case Op::PCommit:
        if (!inst.pcommitIssued) {
            _tickBusy = true;
            inst.pcommitIssued = true;
            DynInst *ip = &inst;
            _mc.drain([this, ip]() {
                _poked = true;
                ip->completed = true;
            });
        }
        if (!inst.completed) {
            ++_retireStallFence;
            _headBlock = RetireBlock::Persist;
        }
        return inst.completed;
      case Op::LogSave:
        if (!inst.logSaveIssued) {
            _tickBusy = true;
            inst.logSaveIssued = true;
            _savedCtx = _txCtx.save();
            DynInst *ip = &inst;
            _mc.flushCoreLogs(_id, [this, ip]() {
                _poked = true;
                ip->completed = true;
            });
        }
        if (!inst.completed)
            _headBlock = RetireBlock::Persist;
        return inst.completed;
      case Op::TxEnd: {
        if (_scheme == LogScheme::ATOM) {
            if (!persistsDrained() || _atomPendingLogs != 0) {
                ++_retireStallTxEnd;
                _headBlock = RetireBlock::Persist;
                return false;
            }
            // The commit record must be durable before the durability
            // point is announced.
            if (!inst.atomCommitDone) {
                if (!_mc.atomTxCommit(_id, mop.data)) {
                    ++_retireStallTxEnd;
                    _headBlock = RetireBlock::Persist;
                    return false;
                }
                inst.atomCommitDone = true;
            }
            return true;
        }
        if (_isProteus) {
            if (!persistsDrained() ||
                !_logQ.emptyForTx(mop.data)) {
                ++_retireStallTxEnd;
                _headBlock = RetireBlock::Persist;
                return false;
            }
            return true;
        }
        return true;    // software schemes fence explicitly
      }
      default:
        if (!inst.completed) {
            _headBlock = mop.op == Op::LockAcquire ? RetireBlock::Lock
                                                   : RetireBlock::Exec;
        }
        return inst.completed;
    }
}

void
Core::doRetire(DynInst &inst, Tick now)
{
    const MicroOp &mop = *inst.mop;

    switch (mop.op) {
      case Op::Load:
        --_loadsInFlight;
        break;
      case Op::LogLoad:
        if (!inst.lltHit)
            --_loadsInFlight;
        break;
      case Op::LogFlush:
        if (!inst.lltHit)
            --_lrInUse;     // the dependent log-flush has committed
        break;
      case Op::Store: {
        --_storesInFlight;
        SbEntry entry;
        entry.addr = mop.addr;
        entry.size = mop.size;
        entry.value = mop.data;
        entry.seq = inst.seq;
        entry.tx = _retireTxId;
        entry.persistent = mop.persistent;
        _storeBuffer.push_back(entry);
        if (_events) {
            _events->emit({.kind = SimEventKind::StoreRetire,
                           .flags = mop.persistent ? evPersistent
                                                   : std::uint8_t{0},
                           .core = _id, .tx = _retireTxId, .addr = mop.addr,
                           .seq = inst.seq, .aux = mop.size, .tick = now});
        }
        break;
      }
      case Op::ClWb: {
        SbEntry entry;
        entry.isFlush = true;
        entry.addr = blockAlign(mop.addr);
        entry.tx = _retireTxId;
        _storeBuffer.push_back(entry);
        break;
      }
      case Op::TxBegin:
        _retireTxId = mop.data;
        _atomBlocks.clear();
        _atomSeq = 0;
        if (_events) {
            _events->emit({.kind = SimEventKind::TxBegin, .core = _id,
                           .tx = mop.data, .tick = now});
        }
        break;
      case Op::TxEnd: {
        const TxId tx = mop.data;
        _retireTxId = 0;
        // The durability point precedes MemCtrl::txEnd so flash-clear
        // events always follow the durable-commit announcement.
        if (_events) {
            _events->emit({.kind = SimEventKind::DurablePoint, .core = _id,
                           .tx = tx, .tick = now});
        }
        if (_scheme == LogScheme::Proteus ||
            _scheme == LogScheme::ProteusNoLWR) {
            _mc.txEnd(_id, tx);
        } else if (_scheme == LogScheme::ATOM) {
            _mc.atomTxEnd(_id, tx, nullptr);
        }
        _committedTxs.push_back(tx);
        _commitCycles.push_back(now);
        ++_committedTxStat;
        // After _mc.txEnd so any flash-clear drops are recorded into
        // the still-open transaction before it closes.
        if (_events) {
            _events->emit({.kind = SimEventKind::TxCommit, .core = _id,
                           .tx = tx, .tick = now});
        }
        break;
      }
      case Op::LockRelease:
        _locks.release(mop.addr, _id);
        if (_events) {
            _events->emit({.kind = SimEventKind::LockRelease, .core = _id,
                           .addr = mop.addr, .tick = now});
        }
        break;
      case Op::SFence:
      case Op::MFence:
      case Op::PCommit:
        if (_events) {
            _events->emit({.kind = SimEventKind::FenceRetire, .core = _id,
                           .tick = now});
        }
        break;
      default:
        break;
    }

    if (inst.oldPhysDst >= 0)
        _freePhysRegs.push_back(inst.oldPhysDst);
    ++_retired;
}

void
Core::scanAtomWindow()
{
    // ATOM creates a log entry "right before a store gets retired";
    // entries for the few oldest stores are initiated in parallel so
    // that only the acknowledgment latency of the head store is
    // exposed. The scan stops at a transaction boundary: younger
    // transactions must not log against the current txId.
    if (_retireTxId == 0)
        return;
    unsigned budget = 16;
    for (DynInst &inst : _rob) {
        if (budget-- == 0)
            break;
        const Op op = inst.mop->op;
        if (op == Op::TxBegin || op == Op::TxEnd)
            break;
        if (op != Op::Store || !inst.mop->persistent)
            continue;
        const Addr block = blockAlign(inst.mop->addr);
        if (inst.atomLogState == 0 && _atomBlocks.start(block))
            startAtomLog(inst);
    }
}

void
Core::retireStage(Tick now)
{
    if (_scheme == LogScheme::ATOM)
        scanAtomWindow();
    for (unsigned n = 0; n < _cfg.cpu.retireWidth; ++n) {
        if (_rob.empty())
            return;
        DynInst &head = _rob.front();
        if (!canRetire(head, now))
            return;
        doRetire(head, now);
        _rob.pop_front();
    }
}

// ---------------------------------------------------------------------
// Store buffer / persistence
// ---------------------------------------------------------------------

void
Core::markAutoFlush(Addr block)
{
    if (_autoFlushPending.insert(block).second)
        _autoFlushQueue.push_back(block);
}

void
Core::checkStoreOrdering(const SbEntry &entry) const
{
    if (PersistentHeap::isLogArea(entry.addr))
        return;
    const Addr first = logAlign(entry.addr);
    const Addr last = logAlign(entry.addr + entry.size - 1);
    for (Addr g = first; g <= last; g += logDataSize) {
        if (!_mc.logGranuleDurable(_id, entry.tx, g))
            panic("persist-ordering violation: store to ", std::hex,
                  entry.addr, std::dec, " released before its log "
                  "entry became durable (tx ", entry.tx, ")");
    }
}

void
Core::releaseStoreBuffer(Tick now)
{
    (void)now;
    for (unsigned n = 0; n < _cfg.cpu.memPortCount; ++n) {
        if (_storeBuffer.empty())
            return;
        SbEntry &entry = _storeBuffer.front();

        if (entry.isFlush) {
            // clwb: conservatively ordered behind all outstanding
            // stores so it writes back post-store data.
            if (_outstandingStores > 0)
                return;
            _tickBusy = true;
            ++_pendingFlushAcks;
            _caches.flush(_id, entry.addr, entry.tx, [this]() {
                _poked = true;
                --_pendingFlushAcks;
            });
            _storeBuffer.pop_front();
            continue;
        }

        if (_isProteus && entry.persistent && entry.tx != 0 &&
            _logQ.pendingOlderFor(entry.addr, entry.seq)) {
            // The undo log covering this store has not yet been
            // acknowledged (Section 4.2).
            ++_sbOrderingStalls;
            _sbBlockedOnLog = true;
            return;
        }
        if (_checkOrdering && _isHwScheme && entry.persistent &&
            entry.tx != 0) {
            checkStoreOrdering(entry);
        }

        const Addr block = blockAlign(entry.addr);
        const SbEntry released = entry;
        // The store attempt mutates cache stats and the consistency
        // tracker even when the MSHRs reject it, so the cycle is busy
        // either way.
        _tickBusy = true;
        const bool ok = _caches.store(
            _id, released.addr, released.size, released.value,
            released.tx, [this, released, block]() {
                _poked = true;
                --_outstandingStores;
                auto it = _outstandingPerBlock.find(block);
                if (it != _outstandingPerBlock.end() &&
                    --it->second == 0) {
                    _outstandingPerBlock.erase(it);
                }
                const Addr chunk = released.addr & ~Addr{7};
                auto sc = _storeAddrCount.find(chunk);
                if (sc != _storeAddrCount.end() && --sc->second == 0)
                    _storeAddrCount.erase(sc);
            });
        if (!ok)
            return;     // MSHRs full; retry next cycle

        ++_outstandingStores;
        ++_outstandingPerBlock[block];
        if (_isHwScheme && entry.tx != 0 && entry.persistent)
            markAutoFlush(block);
        if (_events) {
            _events->emit({.kind = SimEventKind::StoreRelease, .core = _id,
                           .tx = entry.tx, .addr = entry.addr,
                           .seq = entry.seq, .aux = entry.size, .tick = now});
        }
        _storeBuffer.pop_front();
    }
}

void
Core::releaseAutoFlushes()
{
    if (_autoFlushQueue.empty())
        return;
    const Addr block = _autoFlushQueue.front();
    if (_outstandingPerBlock.count(block) > 0)
        return;     // wait for the block's stores to reach the cache
    _autoFlushQueue.pop_front();
    _autoFlushPending.erase(block);
    _tickBusy = true;
    ++_autoFlushAcks;
    _caches.flush(_id, block, _retireTxId, [this]() {
        _poked = true;
        --_autoFlushAcks;
    });
}

} // namespace proteus
