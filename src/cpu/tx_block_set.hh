/**
 * @file
 * The per-transaction ATOM log state of each cache block: an
 * open-addressed hash table keyed by block address, emptied at every
 * tx begin in O(1).
 */

#ifndef PROTEUS_CPU_TX_BLOCK_SET_HH
#define PROTEUS_CPU_TX_BLOCK_SET_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace proteus {

/**
 * Which blocks of the live transaction have an ATOM log entry in
 * flight (Started) or acknowledged (Logged). Probed on every retiring
 * transactional store, so lookups hash into a flat, linearly probed
 * table. clear() only advances an epoch: a slot whose epoch is not the
 * current one is empty.
 */
class TxBlockSet
{
  public:
    enum class State : std::uint8_t { Absent, Started, Logged };

    TxBlockSet() : _slots(minSlots) {}

    State
    get(Addr block) const
    {
        for (std::size_t i = home(block);; i = next(i)) {
            const Slot &s = _slots[i];
            if (s.epoch != _epoch)
                return State::Absent;
            if (s.block == block)
                return s.state;
        }
    }

    /** Mark @p block Started if absent. @return true if it was. */
    bool
    start(Addr block)
    {
        Slot &s = find(block);
        if (s.epoch == _epoch)
            return false;
        claim(s, block, State::Started);
        return true;
    }

    /** Mark @p block Logged, whatever its state. */
    void
    markLogged(Addr block)
    {
        Slot &s = find(block);
        if (s.epoch == _epoch)
            s.state = State::Logged;
        else
            claim(s, block, State::Logged);
    }

    /** Forget every block (a new transaction begins). */
    void
    clear()
    {
        _size = 0;
        if (++_epoch == 0) {
            // The epoch wrapped: stale slots could alias the new one.
            for (Slot &s : _slots)
                s.epoch = 0;
            _epoch = 1;
        }
    }

    std::size_t size() const { return _size; }

  private:
    struct Slot
    {
        Addr block = 0;
        std::uint32_t epoch = 0;    ///< 0: never used
        State state = State::Absent;
    };

    static constexpr std::size_t minSlots = 64;

    std::size_t
    home(Addr block) const
    {
        return static_cast<std::size_t>(
                   (block / blockSize) * 0x9e3779b97f4a7c15ull >> 32) &
               (_slots.size() - 1);
    }

    std::size_t next(std::size_t i) const
    {
        return (i + 1) & (_slots.size() - 1);
    }

    /** The slot holding @p block, or the empty slot it would take. */
    Slot &
    find(Addr block)
    {
        std::size_t i = home(block);
        while (_slots[i].epoch == _epoch && _slots[i].block != block)
            i = next(i);
        return _slots[i];
    }

    void
    claim(Slot &s, Addr block, State state)
    {
        s = Slot{block, _epoch, state};
        // Keep the table at most half full so probes stay short.
        if (++_size * 2 > _slots.size())
            grow();
    }

    void
    grow()
    {
        std::vector<Slot> old(_slots.size() * 2);
        old.swap(_slots);
        for (const Slot &s : old) {
            if (s.epoch == _epoch)
                find(s.block) = s;
        }
    }

    std::vector<Slot> _slots;
    std::uint32_t _epoch = 1;
    std::size_t _size = 0;
};

} // namespace proteus

#endif // PROTEUS_CPU_TX_BLOCK_SET_HH
