/**
 * @file
 * The simulation event stream: one typed record per protocol fact,
 * fanned out to every subscriber.
 *
 * Core, MemCtrl and LockManager read one nullable SimEventStream
 * pointer from the Simulator and emit each fact once, where it
 * happens: `if (_events) _events->emit({...})`. With no subscriber the
 * pointer is null, so every site costs one branch. The flight recorder,
 * the persistency-order checker and the Perfetto recorder are
 * subscribers (DESIGN.md §5 lists who emits and who reads each kind).
 *
 * Events carry the tick of the action and fire only on executed ticks;
 * the per-cycle CommitSlot is replayed for skipped quiescent spans. The
 * stream is therefore identical with cycle skipping on or off.
 */

#ifndef PROTEUS_SIM_SIM_EVENT_HH
#define PROTEUS_SIM_SIM_EVENT_HH

#include <cstdint>
#include <vector>

#include "types.hh"

namespace proteus {

/** Event kinds; the fields each one sets follow its name. */
enum class SimEventKind : std::uint8_t
{
    TxBegin,        ///< core, tx
    TxCommit,       ///< core, tx; after the MC's tx-end work
    DurablePoint,   ///< core, tx; tx-end passed its gate, before txEnd
    /** aux cycles (> 1: a replayed skipped span) landed in bucket
     *  flags while tx was live at retirement (0: outside any tx). */
    CommitSlot,     ///< core, tx, flags = CommitBucket, aux = cycles
    StoreRetire,    ///< core, tx, addr, seq = ordinal, aux = size,
                    ///< flags evPersistent
    StoreRelease,   ///< core, tx, addr, seq = ordinal, aux = size
    FenceRetire,    ///< core (sfence / mfence / pcommit)
    LockRequest,    ///< core, tx, addr
    LockGrant,      ///< core, tx, addr
    LockRelease,    ///< core, addr
    LockWait,       ///< core, addr; a contended acquire (LockManager)
    LogCreate,      ///< core, tx; LogQ allocate or ATOM log start
    LogFilter,      ///< core, tx; an LLT hit elided the record
    LogAck,         ///< core, tx, aux = creation tick
    LltClear,       ///< core
    /** LogQ at allocate/ack; WPQ/LPQ at MC tick start, on change. */
    QueueDepth,     ///< core, flags = SimQueue, aux = entries
    /** MC acceptance, the ADR durability boundary; data points at the
     *  64B payload and is valid only during onEvent. */
    WriteAccept,    ///< core, tx, addr, seq, data;
                    ///< flags evLpq, evCombined, evDataWrite
    LogWriteAccept, ///< core, tx, addr = slot, seq = record seq,
                    ///< aux = covered granule, flags evLpq
    NvmIssue,       ///< core, tx, addr, seq, aux = acceptance tick;
                    ///< flags evLpq, evMarker
    NvmPersist,     ///< core, tx, addr, seq; flags evLpq, evMarker
    FlashClear,     ///< core, tx, aux = LPQ entries removed at tx-end
    TxEndMarker,    ///< core, tx, flags = MarkerOp
    Fault,          ///< addr, flags = FaultEvent
};

/// @name SimEvent::flags bits
/// @{
constexpr std::uint8_t evLpq = 1u << 0;         ///< the Proteus LPQ
constexpr std::uint8_t evCombined = 1u << 1;    ///< write-combined
constexpr std::uint8_t evDataWrite = 1u << 2;   ///< WriteKind::Data
constexpr std::uint8_t evMarker = 1u << 3;      ///< a tx-end marker
constexpr std::uint8_t evPersistent = 1u << 4;  ///< a persistent store
/// @}

/** The CPI-stack bucket a commit-slot cycle is attributed to. */
enum class CommitBucket : unsigned char
{
    Base,
    RobFull,
    IqLsqFull,
    BranchRedirect,
    PersistStall,
    WpqBackpressure,
    LockWait,
};

/** @return a short printable bucket name, e.g. "persist-stall". */
inline const char *
toString(CommitBucket bucket)
{
    switch (bucket) {
      case CommitBucket::Base:            return "base";
      case CommitBucket::RobFull:         return "rob-full";
      case CommitBucket::IqLsqFull:       return "iq-lsq-full";
      case CommitBucket::BranchRedirect:  return "branch-redirect";
      case CommitBucket::PersistStall:    return "persist-stall";
      case CommitBucket::WpqBackpressure: return "wpq-backpressure";
      case CommitBucket::LockWait:        return "lock-wait";
    }
    return "unknown";
}

/** What happened to a tx-end marker at the memory controller. */
enum class MarkerOp : std::uint8_t
{
    Held,       ///< latest LPQ entry flagged tx-end and retained
    Rewritten,  ///< all entries had left; last entry re-queued with flag
    Dropped,    ///< a successor tx's first entry retired the marker
};

enum class SimQueue : std::uint8_t { LogQ, Wpq, Lpq };

/** Media-fault outcomes worth a trace marker. */
enum class FaultEvent : std::uint8_t
{
    TornWrite,
    WornCorrected,
    WornUncorrectable,
    SilentCorruption,
    ReadRetry,
    RetriesExhausted,
};

/** One fact of the simulated machine. */
struct SimEvent
{
    SimEventKind kind = SimEventKind::TxBegin;
    std::uint8_t flags = 0;     ///< ev* bits, or the kind's small enum
    CoreId core = 0;
    TxId tx = 0;
    Addr addr = 0;
    std::uint64_t seq = 0;
    std::uint64_t aux = 0;
    Tick tick = 0;
    const std::uint8_t *data = nullptr;

    bool has(std::uint8_t bit) const { return (flags & bit) != 0; }
};

/** A consumer of the event stream. */
class SimEventSubscriber
{
  public:
    virtual ~SimEventSubscriber() = default;
    virtual void onEvent(const SimEvent &e) = 0;
};

/** The fan-out: each event reaches every subscriber, in subscription
 *  order. */
class SimEventStream
{
  public:
    void subscribe(SimEventSubscriber *s) { _subscribers.push_back(s); }

    void
    emit(const SimEvent &e) const
    {
        for (SimEventSubscriber *s : _subscribers)
            s->onEvent(e);
    }

  private:
    std::vector<SimEventSubscriber *> _subscribers;
};

} // namespace proteus

#endif // PROTEUS_SIM_SIM_EVENT_HH
