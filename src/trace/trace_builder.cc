#include "trace_builder.hh"

#include "logging/log_record.hh"
#include "sim/logging.hh"

namespace proteus {

TraceBuilder::TraceBuilder(PersistentHeap &heap, LogScheme scheme,
                           CoreId thread)
    : _heap(&heap), _scheme(scheme), _thread(thread)
{
    // The Figure 2 logFlag word lives in the persistent region so that
    // recovery can read it after a crash.
    _logFlagAddr = heap.alloc(blockSize, blockSize);
    heap.write<std::uint64_t>(_logFlagAddr, 0);
}

void
TraceBuilder::rebind(PersistentHeap &heap, LogScheme scheme)
{
    if (_recording || _inTx || _collecting || _writeObserver)
        panic("TraceBuilder::rebind while an operation is in flight");
    _heap = &heap;
    _scheme = scheme;
}

TxId
TraceBuilder::baseTxId() const
{
    return (static_cast<TxId>(_thread) + 1) << 40;
}

void
TraceBuilder::setLogArea(Addr start, Addr end)
{
    if (end <= start || start % logEntrySize != 0)
        fatal("TraceBuilder: bad log area");
    _logStart = start;
    _logEnd = end;
    _logCursor = start;
}

std::int16_t
TraceBuilder::nextValueReg()
{
    const std::int16_t reg = firstValueReg + _valueRegCursor;
    _valueRegCursor =
        static_cast<std::int16_t>((_valueRegCursor + 1) % numValueRegs);
    return reg;
}

std::int16_t
TraceBuilder::nextLogReg()
{
    const std::int16_t reg = firstLogReg + _logRegCursor;
    _logRegCursor = static_cast<std::int16_t>((_logRegCursor + 1) % 8);
    return reg;
}

void
TraceBuilder::emit(MicroOp mop)
{
    _trace.push(mop);
}

void
TraceBuilder::emitLoad(Addr addr, unsigned size, std::int16_t dst,
                       std::int16_t addr_reg)
{
    MicroOp mop;
    mop.op = Op::Load;
    mop.addr = addr;
    mop.size = static_cast<std::uint8_t>(size);
    mop.dst = dst;
    mop.src0 = addr_reg;
    emit(mop);
}

void
TraceBuilder::emitStoreOp(Addr addr, unsigned size, std::uint64_t value,
                          std::int16_t dep_reg)
{
    if (size == 0 || size > 8)
        panic("TraceBuilder: store size must be 1..8 bytes");
    if (blockAlign(addr) != blockAlign(addr + size - 1))
        panic("TraceBuilder: store crosses a cache block");
    MicroOp mop;
    mop.op = Op::Store;
    mop.addr = addr;
    mop.size = static_cast<std::uint8_t>(size);
    mop.data = value;
    mop.src0 = dep_reg;
    mop.persistent = PersistentHeap::isPersistent(addr);
    emit(mop);
}

void
TraceBuilder::emitClwb(Addr block)
{
    MicroOp mop;
    mop.op = Op::ClWb;
    mop.addr = blockAlign(block);
    emit(mop);
}

void
TraceBuilder::emitSFence()
{
    MicroOp mop;
    mop.op = Op::SFence;
    emit(mop);
}

void
TraceBuilder::emitPersistBarrier()
{
    emitSFence();
    if (_scheme == LogScheme::PMEMPCommit) {
        MicroOp mop;
        mop.op = Op::PCommit;
        emit(mop);
        emitSFence();
    }
}

Value
TraceBuilder::load(Addr addr, unsigned size, Value addr_dep)
{
    if (size == 0 || size > 8)
        panic("TraceBuilder: load size must be 1..8 bytes");
    std::uint64_t v = 0;
    _heap->readBytes(addr, &v, size);
    if (_collecting) {
        _touchSet->readGranules.insert(logAlign(addr));
        return Value{v, noReg};
    }
    if (!_recording)
        return Value{v, noReg};
    const std::int16_t dst = nextValueReg();
    emitLoad(addr, size, dst, addr_dep.reg);
    return Value{v, dst};
}

void
TraceBuilder::loadWords(Addr addr, std::uint64_t *out, std::size_t n,
                        Value addr_dep)
{
    if (!_recording && !_collecting) {
        _heap->readBytes(addr, out, n * 8);
        return;
    }
    for (std::size_t i = 0; i < n; ++i)
        out[i] = load(addr + i * 8, 8, addr_dep).v;
}

void
TraceBuilder::storeWords(Addr addr, const std::uint64_t *in,
                         std::size_t n)
{
    if (_inTx && !_recording && !_collecting) {
        _heap->writeBytes(addr, in, n * 8);
        return;
    }
    for (std::size_t i = 0; i < n; ++i)
        store(addr + i * 8, 8, in[i]);   // panics outside a transaction
}

Value
TraceBuilder::alu(Value a, Value b)
{
    if (!_recording)
        return Value{a.v + b.v, noReg};
    MicroOp mop;
    mop.op = Op::IntAlu;
    mop.src0 = a.reg;
    mop.src1 = b.reg;
    mop.dst = nextValueReg();
    emit(mop);
    return Value{a.v + b.v, mop.dst};
}

Value
TraceBuilder::mul(Value a, Value b)
{
    if (!_recording)
        return Value{a.v * b.v, noReg};
    MicroOp mop;
    mop.op = Op::IntMul;
    mop.src0 = a.reg;
    mop.src1 = b.reg;
    mop.dst = nextValueReg();
    emit(mop);
    return Value{a.v * b.v, mop.dst};
}

void
TraceBuilder::work(unsigned n)
{
    if (!_recording)
        return;
    Value chains[4] = {};
    for (unsigned i = 0; i < n; ++i)
        chains[i % 4] = alu(chains[i % 4]);
}

void
TraceBuilder::workChase(unsigned n)
{
    if (!_recording)
        return;
    if (_scratch == invalidAddr) {
        _scratch = _heap->allocVolatile(scratchBytes, blockSize);
    }
    Value prev{};
    for (unsigned i = 0; i < n; ++i) {
        const Addr addr =
            _scratch + (_scratchCursor % (scratchBytes / 8)) * 8;
        ++_scratchCursor;
        prev = load(addr, 8, prev);
    }
}

void
TraceBuilder::workChaseCold(unsigned n)
{
    if (!_recording)
        return;
    const Addr arena = _heap->chaseArena();
    const std::uint64_t blocks =
        PersistentHeap::chaseArenaBytes / blockSize;
    Value prev{};
    for (unsigned i = 0; i < n; ++i) {
        // A large coprime stride scatters accesses across the arena so
        // they stay cold in every cache level.
        _coldCursor = (_coldCursor + 1299827 + _thread * 131) % blocks;
        prev = load(arena + _coldCursor * blockSize, 8, prev);
    }
}

void
TraceBuilder::branch(std::uint32_t site, bool taken, Value dep)
{
    if (!_recording)
        return;
    MicroOp mop;
    mop.op = Op::Branch;
    mop.staticPc = site;
    mop.taken = taken;
    mop.src0 = dep.reg;
    emit(mop);
}

void
TraceBuilder::lockAcquire(Addr lock_addr, std::uint64_t ticket)
{
    if (!_recording)
        return;
    MicroOp mop;
    mop.op = Op::LockAcquire;
    mop.addr = lock_addr;
    mop.data = ticket;
    emit(mop);
}

void
TraceBuilder::lockRelease(Addr lock_addr)
{
    if (!_recording)
        return;
    MicroOp mop;
    mop.op = Op::LockRelease;
    mop.addr = lock_addr;
    emit(mop);
}

TxId
TraceBuilder::beginTx()
{
    if (_inTx)
        panic("TraceBuilder: nested transaction");
    _inTx = true;
    _currentTx = baseTxId() + (++_txCounter);
    _swSeqInTx = 0;
    _swFlagSet = false;
    _swLoggedGranules.clear();
    _dirtyBlocks.clear();
    if (_logStart != invalidAddr)
        _logCursor = _logStart;     // software log overwritten per tx

    if (_recording) {
        if (_writeObserver)
            _writeObserver->onTxBegin(_thread, _currentTx);
        MicroOp mop;
        mop.op = Op::TxBegin;
        mop.data = _currentTx;
        emit(mop);
    }
    return _currentTx;
}

void
TraceBuilder::notifyWrite(Addr addr, unsigned size, std::uint64_t value,
                          ObservedWrite kind)
{
    if (!_writeObserver)
        return;
    std::uint64_t before = 0;
    _heap->readBytes(addr, &before, size);
    _writeObserver->onStore(_thread, _inTx ? _currentTx : 0, addr, size,
                            before, value, kind);
}

Addr
TraceBuilder::swNextLogSlot()
{
    if (_logCursor == invalidAddr)
        fatal("TraceBuilder: software logging requires a log area");
    const std::uint64_t capacity = (_logEnd - _logStart) / logEntrySize;
    if (_swSeqInTx >= capacity)
        fatal("a transaction overflowed its ", capacity,
              "-entry software log area (logging.logAreaBytes)");
    const Addr slot = _logCursor;
    _logCursor += logEntrySize;
    if (_logCursor >= _logEnd)
        _logCursor = _logStart;
    return slot;
}

void
TraceBuilder::swEmitLogEntry(Addr granule)
{
    const Addr slot = swNextLogSlot();

    // Copy loop: load the original 32B granule...
    std::int16_t regs[4];
    for (unsigned i = 0; i < 4; ++i) {
        regs[i] = nextValueReg();
        emitLoad(granule + i * 8, 8, regs[i], noReg);
    }
    // ...store it into the log entry together with its metadata...
    for (unsigned i = 0; i < 4; ++i) {
        std::uint64_t chunk = _heap->read<std::uint64_t>(granule + i * 8);
        MicroOp mop;
        mop.op = Op::Store;
        mop.addr = slot + i * 8;
        mop.size = 8;
        mop.data = chunk;
        mop.src0 = regs[i];
        mop.persistent = true;
        emit(mop);
    }
    emitStoreOp(slot + 32, 8, granule, noReg);          // fromAddr
    emitStoreOp(slot + 40, 8, _currentTx, noReg);       // txId
    emitStoreOp(slot + 48, 8, _swSeqInTx++, noReg);     // seq
    const std::uint64_t tail =
        static_cast<std::uint64_t>(LogRecord::flagValid) |
        (static_cast<std::uint64_t>(LogRecord::magicValue) << 32);
    emitStoreOp(slot + 56, 8, tail, noReg);             // flags+magic

    // Mirror the entry into the functional heap (the program wrote it).
    std::uint8_t entry_bytes[logDataSize];
    _heap->readBytes(granule, entry_bytes, logDataSize);
    _heap->writeBytes(slot, entry_bytes, logDataSize);
    _heap->write<std::uint64_t>(slot + 32, granule);
    _heap->write<std::uint64_t>(slot + 40, _currentTx);
    _heap->write<std::uint64_t>(slot + 48, _swSeqInTx - 1);
    _heap->write<std::uint64_t>(slot + 56, tail);

    // ...and schedule the entry's block for the step-1 persist.
    emitClwb(slot);
}

void
TraceBuilder::declareLogged(Addr addr, unsigned size)
{
    if (!_inTx)
        panic("TraceBuilder::declareLogged outside a transaction");
    if (_scheme != LogScheme::PMEM && _scheme != LogScheme::PMEMPCommit)
        return;     // hardware schemes log dynamically
    if (!_recording) {
        return;
    }
    if (_swFlagSet)
        panic("TraceBuilder: undo log declared after the first store "
              "(violates Figure 2 step order)");

    const Addr first = logAlign(addr);
    const Addr last = logAlign(addr + (size ? size : 1) - 1);
    for (Addr g = first; g <= last; g += logDataSize) {
        if (_swLoggedGranules.insert(g).second)
            swEmitLogEntry(g);
    }
}

void
TraceBuilder::swOpenTxIfNeeded()
{
    if (_swFlagSet)
        return;
    _swFlagSet = true;
    // Close step 1: persist all log entries written so far.
    emitPersistBarrier();
    // Step 2: set the logFlag and persist it.
    emitStoreOp(_logFlagAddr, 8, _currentTx, noReg);
    emitClwb(_logFlagAddr);
    emitPersistBarrier();
}

void
TraceBuilder::recordUndo(Addr addr, unsigned size)
{
    std::array<std::uint8_t, 8> old{};
    _heap->readBytes(addr, old.data(), size);
    _undoLog.emplace_back(addr, old);
    _touchSet->writtenGranules.insert(logAlign(addr));
    if (size > 0 &&
        logAlign(addr + size - 1) != logAlign(addr)) {
        _touchSet->writtenGranules.insert(logAlign(addr + size - 1));
    }
}

TraceBuilder::TouchSet
TraceBuilder::collectTouched(const std::function<void()> &fn)
{
    if (_collecting)
        panic("TraceBuilder: nested collectTouched");
    TouchSet result;
    const bool was_recording = _recording;
    _recording = false;
    _collecting = true;
    _touchSet = &result;
    _undoLog.clear();

    fn();

    // Roll the heap back to its pre-mutation state.
    for (auto it = _undoLog.rbegin(); it != _undoLog.rend(); ++it)
        _heap->writeBytes(it->first, it->second.data(), 8);
    _undoLog.clear();
    _touchSet = nullptr;
    _collecting = false;
    _recording = was_recording;
    return result;
}

void
TraceBuilder::store(Addr addr, unsigned size, std::uint64_t value,
                    Value dep)
{
    if (!_inTx)
        panic("TraceBuilder::store outside a transaction; "
              "use storeRaw for non-transactional stores");
    if (_collecting) {
        recordUndo(addr, 8);
        _heap->writeBytes(addr, &value, size);
        return;
    }

    if (_recording) {
        switch (_scheme) {
          case LogScheme::PMEM:
          case LogScheme::PMEMPCommit:
            if (_swLoggedGranules.count(logAlign(addr)) == 0)
                panic("TraceBuilder: store to an undeclared undo-log "
                      "region (software logging would be unsafe)");
            swOpenTxIfNeeded();
            emitStoreOp(addr, size, value, dep.reg);
            _dirtyBlocks.insert(blockAlign(addr));
            break;
          case LogScheme::PMEMNoLog:
            emitStoreOp(addr, size, value, dep.reg);
            _dirtyBlocks.insert(blockAlign(addr));
            break;
          case LogScheme::ATOM:
            emitStoreOp(addr, size, value, dep.reg);
            break;
          case LogScheme::Proteus:
          case LogScheme::ProteusNoLWR: {
            // Figure 4: log-load LRn, X; log-flush LRn, (LTA)+; st X.
            const Addr granule = logAlign(addr);
            LogPayload payload;
            _heap->readBytes(granule, payload.bytes, logDataSize);
            payload.fromAddr = granule;
            payload.txId = _currentTx;
            const std::uint32_t pid = _trace.addPayload(payload);

            const std::int16_t lr = nextLogReg();
            MicroOp ll;
            ll.op = Op::LogLoad;
            ll.addr = granule;
            ll.size = logDataSize;
            ll.dst = lr;
            emit(ll);

            MicroOp lf;
            lf.op = Op::LogFlush;
            lf.addr = granule;
            lf.src0 = lr;
            lf.payload = pid;
            emit(lf);

            emitStoreOp(addr, size, value, dep.reg);
            break;
          }
        }
        notifyWrite(addr, size, value,
                    _scheme != LogScheme::PMEMNoLog
                        ? ObservedWrite::Logged
                        : ObservedWrite::Unlogged);
    }

    _heap->writeBytes(addr, &value, size);
}

void
TraceBuilder::storeInit(Addr addr, unsigned size, std::uint64_t value,
                        Value dep)
{
    if (!_inTx)
        panic("TraceBuilder::storeInit outside a transaction");
    if (_recording &&
        (_scheme == LogScheme::PMEM ||
         _scheme == LogScheme::PMEMPCommit)) {
        // Fresh allocation: no undo entry needed, but the data must
        // still persist by commit (Figure 2 step 3).
        swOpenTxIfNeeded();
        emitStoreOp(addr, size, value, dep.reg);
        _dirtyBlocks.insert(blockAlign(addr));
        notifyWrite(addr, size, value, ObservedWrite::Unlogged);
        _heap->writeBytes(addr, &value, size);
        return;
    }
    store(addr, size, value, dep);
}

void
TraceBuilder::storeRaw(Addr addr, unsigned size, std::uint64_t value,
                       Value dep)
{
    if (_collecting) {
        recordUndo(addr, size);
        _heap->writeBytes(addr, &value, size);
        return;
    }
    if (_recording) {
        emitStoreOp(addr, size, value, dep.reg);
        notifyWrite(addr, size, value, ObservedWrite::Raw);
    }
    _heap->writeBytes(addr, &value, size);
}

void
TraceBuilder::endTx()
{
    if (!_inTx)
        panic("TraceBuilder::endTx outside a transaction");

    if (_recording) {
        switch (_scheme) {
          case LogScheme::PMEM:
          case LogScheme::PMEMPCommit:
            if (_swFlagSet) {
                // Step 3: persist the data updates.
                for (Addr block : _dirtyBlocks)
                    emitClwb(block);
                emitPersistBarrier();
                // Step 4: clear the logFlag and persist it.
                emitStoreOp(_logFlagAddr, 8, 0, noReg);
                emitClwb(_logFlagAddr);
                emitPersistBarrier();
            }
            break;
          case LogScheme::PMEMNoLog:
            for (Addr block : _dirtyBlocks)
                emitClwb(block);
            emitPersistBarrier();
            break;
          case LogScheme::ATOM:
          case LogScheme::Proteus:
          case LogScheme::ProteusNoLWR:
            break;      // tx-end hardware handles durability
        }

        MicroOp mop;
        mop.op = Op::TxEnd;
        mop.data = _currentTx;
        emit(mop);
        if (_writeObserver)
            _writeObserver->onTxEnd(_thread, _currentTx);
    }
    _inTx = false;
    _currentTx = 0;
}

} // namespace proteus
