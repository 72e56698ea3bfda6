#include "trace_cache.hh"

namespace proteus {

template <class T, class Make>
std::pair<std::shared_ptr<const T>, bool>
TraceCache::once(Entries<T> &entries, const TraceBundleKey &key,
                 std::uint64_t &builds, const Make &make)
{
    std::shared_future<std::shared_ptr<const T>> future;
    std::promise<std::shared_ptr<const T>> promise;
    bool builder = false;
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        auto it = entries.find(key);
        if (it != entries.end()) {
            future = it->second;
        } else {
            builder = true;
            ++builds;
            future = promise.get_future().share();
            entries.emplace(key, future);
        }
    }
    if (!builder)
        return {future.get(), false};

    // Build outside the lock so concurrent lookups of other keys
    // proceed; same-key lookups block on the future.
    try {
        promise.set_value(make());
    } catch (...) {
        promise.set_exception(std::current_exception());
        const std::lock_guard<std::mutex> lock(_mutex);
        entries.erase(key);
        throw;
    }
    return {future.get(), true};
}

std::shared_ptr<const TraceBundle>
TraceCache::get(const TraceBundleKey &key, bool want_history)
{
    const auto record = [&](bool history) {
        return TraceBundle::record(*populated(key), key.scheme, history);
    };
    auto [bundle, built] =
        once(_bundles, key, _misses, [&] { return record(want_history); });
    if (built)
        return bundle;

    if (want_history && !bundle->history) {
        // Rare upgrade: a plain bundle exists but the caller needs the
        // write history. Re-record (the population is still cached)
        // and replace the entry.
        std::shared_ptr<const TraceBundle> upgraded = record(true);
        std::promise<std::shared_ptr<const TraceBundle>> done;
        done.set_value(upgraded);
        const std::lock_guard<std::mutex> lock(_mutex);
        _bundles[key] = done.get_future().share();
        ++_misses;
        return upgraded;
    }
    const std::lock_guard<std::mutex> lock(_mutex);
    ++_hits;
    return bundle;
}

std::shared_ptr<const PopulatedState>
TraceCache::populated(const TraceBundleKey &key)
{
    const TraceBundleKey pkey = key.populationKey();
    return once(_populated, pkey, _populations,
                [&] { return PopulatedState::build(pkey); })
        .first;
}

void
TraceCache::clear()
{
    const std::lock_guard<std::mutex> lock(_mutex);
    _bundles.clear();
    _populated.clear();
}

std::uint64_t
TraceCache::hits() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return _hits;
}

std::uint64_t
TraceCache::misses() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return _misses;
}

std::uint64_t
TraceCache::populations() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return _populations;
}

std::size_t
TraceCache::size() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return _bundles.size();
}

TraceCache &
TraceCache::global()
{
    static TraceCache cache;
    return cache;
}

} // namespace proteus
