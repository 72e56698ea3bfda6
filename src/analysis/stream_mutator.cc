#include "analysis/stream_mutator.hh"

namespace proteus {
namespace analysis {

StreamMutator::StreamMutator(Rule target, std::uint64_t seed,
                             PersistChecker &checker)
    : _target(target), _k(1 + seed % 7), _checker(checker)
{
}

void
StreamMutator::addLogArea(Addr start, Addr end)
{
    if (start != invalidAddr && start < end)
        _logAreas.emplace_back(start, end);
}

bool
StreamMutator::inLogArea(Addr addr) const
{
    for (const auto &[start, end] : _logAreas) {
        if (addr >= start && addr < end)
            return true;
    }
    return false;
}

bool
StreamMutator::takeKth()
{
    return ++_seen == _k;
}

void
StreamMutator::releaseHeldDurablePoints(CoreId core)
{
    for (auto it = _heldDurable.begin(); it != _heldDurable.end();) {
        if (it->core == core) {
            _checker.onEvent(*it);
            it = _heldDurable.erase(it);
        } else {
            ++it;
        }
    }
}

void
StreamMutator::mutateStore(const SimEvent &e)
{
    if (targeting(Rule::LockDiscipline) && takeKth()) {
        // A phantom core overwrites the same bytes holding no locks.
        ++_mutations;
        SimEvent phantom = e;
        phantom.core += phantomCore;
        _checker.onEvent(phantom);
        return;
    }
    if (targeting(Rule::DurableByCommit) && takeKth()) {
        // Swallow every durability witness for this store's block
        // until its transaction reaches the durability point.
        ++_mutations;
        _dropping = true;
        _dropBlock = blockAlign(e.addr);
        _dropCore = e.core;
        _dropTx = e.tx;
    }
}

void
StreamMutator::onEvent(const SimEvent &e)
{
    switch (e.kind) {
      case SimEventKind::LogAck:
        if (targeting(Rule::EntriesBeforeTxEnd) && takeKth()) {
            ++_mutations;   // the record's durability ack never happened
            return;
        }
        break;
      case SimEventKind::StoreRetire:
        _checker.onEvent(e);
        if (e.has(evPersistent) && e.tx != 0 && !inLogArea(e.addr))
            mutateStore(e);
        return;
      case SimEventKind::DurablePoint:
        if (targeting(Rule::FlashClearAfterCommit) && takeKth()) {
            // Hold the durable-commit announcement back past the MC's
            // tx-end marker / flash-clear events for this core.
            ++_mutations;
            _heldDurable.push_back(e);
            return;
        }
        if (_dropping && e.core == _dropCore && e.tx == _dropTx) {
            _dropping = false;  // the rule fires on this event
            _dropBlock = invalidAddr;
        }
        break;
      case SimEventKind::WriteAccept:
        if (!e.has(evDataWrite))
            break;
        if (_dropping && blockAlign(e.addr) == _dropBlock)
            return;
        if (targeting(Rule::LogBeforeData) && inLogArea(e.addr) &&
            takeKth()) {
            ++_mutations;   // the software undo-log entry never persists
            return;
        }
        break;
      case SimEventKind::LogWriteAccept:
        if (targeting(Rule::LogBeforeData) && takeKth()) {
            ++_mutations;   // the hardware log entry never persists
            return;
        }
        break;
      case SimEventKind::NvmIssue:
        _checker.onEvent(e);
        if (targeting(Rule::FifoPerAddress) && takeKth()) {
            ++_mutations;   // the same acceptance issues twice (reorder)
            _checker.onEvent(e);
        }
        return;
      case SimEventKind::NvmPersist:
        if (_dropping && blockAlign(e.addr) == _dropBlock)
            return;
        break;
      case SimEventKind::FlashClear:
      case SimEventKind::TxEndMarker:
        _checker.onEvent(e);
        releaseHeldDurablePoints(e.core);
        return;
      default:
        break;
    }
    _checker.onEvent(e);
}

} // namespace analysis
} // namespace proteus
