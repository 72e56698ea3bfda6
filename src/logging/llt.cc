#include "llt.hh"

namespace proteus {

LogLookupTable::LogLookupTable(unsigned entries, unsigned ways,
                               stats::StatRegistry &stats,
                               const std::string &name)
    : _sets(ways ? entries / ways : 0), _ways(ways),
      _lookups(stats, name + ".lookups", "LLT lookups"),
      _misses(stats, name + ".misses", "LLT misses"),
      _clears(stats, name + ".clears", "LLT clears (tx-end/ctx switch)")
{
    _table.resize(static_cast<std::size_t>(_sets) * _ways);
}

bool
LogLookupTable::lookupInsert(Addr granule)
{
    ++_lookups;
    const std::size_t set =
        static_cast<std::size_t>((granule / logDataSize) % _sets);
    Way *row = &_table[set * _ways];

    Way *lru = &row[0];
    for (unsigned w = 0; w < _ways; ++w) {
        if (row[w].valid && row[w].granule == granule) {
            row[w].lastUse = ++_useCounter;
            return true;
        }
        if (!row[w].valid) {
            lru = &row[w];
        } else if (lru->valid && row[w].lastUse < lru->lastUse) {
            lru = &row[w];
        }
    }

    ++_misses;
    lru->valid = true;
    lru->granule = granule;
    lru->lastUse = ++_useCounter;
    return false;
}

void
LogLookupTable::clear()
{
    ++_clears;
    for (Way &w : _table)
        w.valid = false;
}

double
LogLookupTable::missRate() const
{
    const double lookups = _lookups.value();
    return lookups > 0 ? _misses.value() / lookups : 0.0;
}

} // namespace proteus
