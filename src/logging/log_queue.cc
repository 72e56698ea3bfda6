#include "log_queue.hh"

#include "sim/logging.hh"

namespace proteus {

LogQueue::LogQueue(unsigned entries, stats::StatRegistry &stats,
                   const std::string &name)
    : _capacity(entries), _entries(entries),
      _allocations(stats, name + ".allocations", "LogQ entries allocated"),
      _peak(stats, name + ".peakOccupancy", "max simultaneous entries")
{
    _freeList.reserve(entries);
    for (unsigned i = entries; i-- > 0;)
        _freeList.push_back(i);
}

LogQueue::EntryId
LogQueue::allocate(std::uint64_t seq, Addr from_granule, Addr log_to,
                   const LogRecord &record)
{
    if (_freeList.empty())
        panic("LogQueue::allocate on a full queue");
    const EntryId id = _freeList.back();
    _freeList.pop_back();

    Entry &e = _entries[id];
    e.live = true;
    e.seq = seq;
    e.fromGranule = logAlign(from_granule);
    e.logTo = log_to;
    e.record = record;

    ++_allocations;
    if (occupancy() > _peak.value())
        _peak.set(occupancy());
    return id;
}

void
LogQueue::deallocate(EntryId id)
{
    if (id >= _capacity || !_entries[id].live)
        panic("LogQueue::deallocate of a free entry");
    _entries[id].live = false;
    _freeList.push_back(id);
}

bool
LogQueue::pendingOlderFor(Addr addr, std::uint64_t seq) const
{
    const Addr granule = logAlign(addr);
    for (const Entry &e : _entries) {
        if (e.live && e.seq <= seq && e.fromGranule == granule)
            return true;
    }
    return false;
}

bool
LogQueue::emptyForTx(TxId tx) const
{
    for (const Entry &e : _entries) {
        if (e.live && e.record.txId == tx)
            return false;
    }
    return true;
}

const LogQueue::Entry &
LogQueue::liveEntry(EntryId id) const
{
    if (id >= _capacity || !_entries[id].live)
        panic("LogQueue: access to a free entry");
    return _entries[id];
}

const LogRecord &
LogQueue::record(EntryId id) const
{
    return liveEntry(id).record;
}

Addr
LogQueue::logTo(EntryId id) const
{
    return liveEntry(id).logTo;
}

} // namespace proteus
