#include "tx_context.hh"

#include "sim/logging.hh"

namespace proteus {

void
TxContext::bindLogArea(Addr start, Addr end)
{
    _logStart = start;
    _logEnd = end;
    _curlog = start;
}

void
TxContext::beginTx(TxId tx)
{
    if (tx == 0)
        panic("TxContext: transaction id 0 is reserved");
    if (_txId != 0)
        panic("TxContext: nested durable transactions are not supported");
    _txId = tx;
    _seqInTx = 0;
    _entriesThisTx = 0;
}

void
TxContext::endTx()
{
    if (_txId == 0)
        panic("TxContext: tx-end outside a transaction");
    _txId = 0;
}

Addr
TxContext::nextLogTo()
{
    if (_curlog == invalidAddr)
        panic("TxContext: log area not bound");
    const std::uint64_t capacity = (_logEnd - _logStart) / logEntrySize;
    if (_entriesThisTx >= capacity)
        fatal("a transaction overflowed its ", capacity,
              "-entry log area (logging.logAreaBytes); the processor "
              "raises an exception");
    const Addr slot = _curlog;
    _curlog += logEntrySize;
    if (_curlog >= _logEnd)
        _curlog = _logStart;
    ++_entriesThisTx;
    return slot;
}

TxContext::Saved
TxContext::save() const
{
    return Saved{_logStart, _logEnd, _curlog, _txId, _seqInTx,
                 _entriesThisTx};
}

void
TxContext::restore(const Saved &s)
{
    _logStart = s.logStart;
    _logEnd = s.logEnd;
    _curlog = s.curlog;
    _txId = s.txId;
    _seqInTx = s.seqInTx;
    _entriesThisTx = s.entriesThisTx;
}

} // namespace proteus
