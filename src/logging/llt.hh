/**
 * @file
 * The Log Lookup Table (Section 4.2).
 *
 * A small set-associative table of recent log-from addresses within the
 * current transaction. A hit means the 32-byte granule was already
 * logged this transaction, so the log-load / log-flush pair completes
 * immediately and no log entry is created. Cleared on tx-end and on
 * context switch so stale entries can never suppress a needed log.
 */

#ifndef PROTEUS_LOGGING_LLT_HH
#define PROTEUS_LOGGING_LLT_HH

#include <cstdint>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace proteus {

/** Set-associative LRU table of logged 32B granule addresses. */
class LogLookupTable
{
  public:
    /** Only the Proteus schemes use the table, so only they need
     *  @p entries to be a positive multiple of @p ways
     *  (SystemConfig::validate); the others may build it empty. */
    LogLookupTable(unsigned entries, unsigned ways,
                   stats::StatRegistry &stats, const std::string &name);

    /**
     * Look up @p granule (32B-aligned log-from address) and insert it on
     * a miss, evicting the LRU way if needed.
     * @return true on hit (already logged this transaction).
     */
    bool lookupInsert(Addr granule);

    /** Clear all entries (tx-end / context switch, Section 4.2). */
    void clear();

    double missRate() const;
    std::uint64_t lookups() const
    {
        return static_cast<std::uint64_t>(_lookups.value());
    }
    std::uint64_t misses() const
    {
        return static_cast<std::uint64_t>(_misses.value());
    }

  private:
    struct Way
    {
        bool valid = false;
        Addr granule = invalidAddr;
        std::uint64_t lastUse = 0;
    };

    unsigned _sets;
    unsigned _ways;
    std::uint64_t _useCounter = 0;
    std::vector<Way> _table;    ///< _sets x _ways, row-major

    stats::Scalar _lookups;
    stats::Scalar _misses;
    stats::Scalar _clears;
};

} // namespace proteus

#endif // PROTEUS_LOGGING_LLT_HH
