/**
 * @file
 * Process-wide cache of TraceBundles keyed by TraceBundleKey, and of
 * the scheme-independent PopulatedStates they are recorded from.
 *
 * A crashtest sweep (hundreds of crash points per scheme) or a
 * proteus-bench figure constructs many FullSystems whose traces are
 * identical; the cache builds each distinct bundle exactly once, and
 * populates each workload once for all schemes — including under
 * concurrent lookups from the parallel runner's worker threads, where
 * the first requester builds while the others block on a shared
 * future — and hands out shared immutable references.
 *
 * The cache is the harness's only source of trace state. A cache hit
 * and a fresh TraceBundle::build give the same bundle contents: both
 * populate and record through PopulatedState::build and
 * TraceBundle::record, and FullSystems are wired the same way from
 * either; the only difference is how many times the functional
 * workload executes.
 */

#ifndef PROTEUS_HARNESS_TRACE_CACHE_HH
#define PROTEUS_HARNESS_TRACE_CACHE_HH

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "trace_bundle.hh"

namespace proteus {

/** Build-once, share-everywhere store of immutable trace bundles. */
class TraceCache
{
  public:
    /**
     * The bundle for @p key, building it on first request.
     * @p want_history: the caller needs the replayable WriteHistory
     * (crash testing); a cached bundle without one is rebuilt once
     * with history and replaces the old entry. Thread-safe.
     */
    std::shared_ptr<const TraceBundle> get(const TraceBundleKey &key,
                                           bool want_history = false);

    /**
     * The populated state for @p key (its scheme is ignored),
     * populating it on first request. get() records from it; crash
     * replays clone it. Thread-safe.
     */
    std::shared_ptr<const PopulatedState>
    populated(const TraceBundleKey &key);

    /** Drop every cached bundle and populated state (tests, memory
     *  pressure, benchmark repetitions). */
    void clear();

    /// @name Statistics
    /// @{
    std::uint64_t hits() const;         ///< get() served from cache
    std::uint64_t misses() const;       ///< bundles recorded
    std::uint64_t populations() const;  ///< workloads populated
    std::size_t size() const;           ///< cached bundles
    /// @}

    /** The process-wide instance used by the harness entry points. */
    static TraceCache &global();

  private:
    struct KeyHash
    {
        std::size_t operator()(const TraceBundleKey &k) const
        {
            return k.hash();
        }
    };

    template <class T>
    using Entries =
        std::unordered_map<TraceBundleKey,
                           std::shared_future<std::shared_ptr<const T>>,
                           KeyHash>;

    /**
     * The entry for @p key, calling @p make (outside the lock) and
     * counting it in @p builds if this caller is the first to ask.
     * @return the value and whether this call built it.
     */
    template <class T, class Make>
    std::pair<std::shared_ptr<const T>, bool>
    once(Entries<T> &entries, const TraceBundleKey &key,
         std::uint64_t &builds, const Make &make);

    mutable std::mutex _mutex;
    Entries<TraceBundle> _bundles;
    Entries<PopulatedState> _populated;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _populations = 0;
};

} // namespace proteus

#endif // PROTEUS_HARNESS_TRACE_CACHE_HH
