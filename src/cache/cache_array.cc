#include "cache_array.hh"

#include "sim/logging.hh"

namespace proteus {

CacheArray::CacheArray(const CacheConfig &cfg,
                       stats::StatRegistry &stats, const std::string &name)
    : _ways(cfg.ways), _latency(cfg.latency),
      _sets(cfg.sizeBytes / (static_cast<std::uint64_t>(blockSize) *
                             cfg.ways)),
      _hits(stats, name + ".hits", "cache hits"),
      _misses(stats, name + ".misses", "cache misses"),
      _writebacks(stats, name + ".writebacks", "dirty evictions")
{
    _lines.resize(_sets * _ways);
}

std::size_t
CacheArray::setIndex(Addr block) const
{
    return static_cast<std::size_t>((block / blockSize) & (_sets - 1));
}

CacheArray::Line *
CacheArray::findLine(Addr block)
{
    Line *row = &_lines[setIndex(block) * _ways];
    for (unsigned w = 0; w < _ways; ++w) {
        if (row[w].valid && row[w].block == block)
            return &row[w];
    }
    return nullptr;
}

const CacheArray::Line *
CacheArray::findLine(Addr block) const
{
    return const_cast<CacheArray *>(this)->findLine(block);
}

bool
CacheArray::probe(Addr block) const
{
    return findLine(block) != nullptr;
}

void
CacheArray::touch(Addr block)
{
    Line *line = findLine(block);
    if (!line)
        panic("CacheArray::touch on absent block");
    line->lastUse = ++_useCounter;
}

bool
CacheArray::isDirty(Addr block) const
{
    const Line *line = findLine(block);
    return line && line->dirty;
}

void
CacheArray::setDirty(Addr block)
{
    Line *line = findLine(block);
    if (!line)
        panic("CacheArray::setDirty on absent block");
    line->dirty = true;
}

std::optional<CacheArray::Victim>
CacheArray::insert(Addr block, bool dirty)
{
    if (Line *existing = findLine(block)) {
        existing->dirty |= dirty;
        existing->lastUse = ++_useCounter;
        return std::nullopt;
    }

    Line *row = &_lines[setIndex(block) * _ways];
    Line *slot = &row[0];
    for (unsigned w = 0; w < _ways; ++w) {
        if (!row[w].valid) {
            slot = &row[w];
            break;
        }
        if (row[w].lastUse < slot->lastUse)
            slot = &row[w];
    }

    std::optional<Victim> victim;
    if (slot->valid) {
        victim = Victim{slot->block, slot->dirty};
        if (slot->dirty)
            ++_writebacks;
    }
    slot->valid = true;
    slot->dirty = dirty;
    slot->block = block;
    slot->lastUse = ++_useCounter;
    return victim;
}

bool
CacheArray::invalidate(Addr block)
{
    Line *line = findLine(block);
    if (!line)
        return false;
    const bool was_dirty = line->dirty;
    line->valid = false;
    line->dirty = false;
    return was_dirty;
}

bool
CacheArray::clean(Addr block)
{
    Line *line = findLine(block);
    if (!line || !line->dirty)
        return false;
    line->dirty = false;
    return true;
}

} // namespace proteus
