/**
 * @file
 * A replayable recording of the program-level write stream a
 * TraceBuilder reports through TraceWriteObserver.
 *
 * The history captures, in the global round-robin recording order, the
 * same tx-begin / tx-end / store events a live observer (the crash
 * oracle) would see, with pre- and post-values resolved at record time.
 * Replaying the history into a fresh observer is therefore equivalent
 * to having attached that observer during trace generation — which is
 * what lets a cached or deserialized TraceBundle feed a CommitOracle
 * without re-executing the workload.
 */

#ifndef PROTEUS_TRACE_WRITE_HISTORY_HH
#define PROTEUS_TRACE_WRITE_HISTORY_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"
#include "trace/trace_builder.hh"

namespace proteus {

/** One recorded observer callback. */
struct WriteEvent
{
    enum class Kind : std::uint8_t
    {
        TxBegin,
        TxEnd,
        Store,
    };

    Kind kind = Kind::Store;
    ObservedWrite writeKind = ObservedWrite::Logged;    ///< Store only
    CoreId thread = 0;
    std::uint8_t size = 0;          ///< Store only
    TxId tx = 0;
    Addr addr = invalidAddr;        ///< Store only
    std::uint64_t before = 0;       ///< Store only
    std::uint64_t after = 0;        ///< Store only

    bool operator==(const WriteEvent &) const = default;
};

/** Records the observer stream; replayable any number of times. */
class WriteHistory : public TraceWriteObserver
{
  public:
    void onTxBegin(CoreId thread, TxId tx) override;
    void onTxEnd(CoreId thread, TxId tx) override;
    void onStore(CoreId thread, TxId tx, Addr addr, unsigned size,
                 std::uint64_t before, std::uint64_t after,
                 ObservedWrite kind) override;

    /** Deliver every recorded event, in order, to @p obs. */
    void replayTo(TraceWriteObserver &obs) const;

    const std::vector<WriteEvent> &events() const { return _events; }
    std::vector<WriteEvent> &events() { return _events; }
    bool empty() const { return _events.empty(); }

  private:
    std::vector<WriteEvent> _events;
};

} // namespace proteus

#endif // PROTEUS_TRACE_WRITE_HISTORY_HH
