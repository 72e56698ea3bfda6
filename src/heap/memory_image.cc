#include "memory_image.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>

namespace proteus {

namespace {

/**
 * Make @p p point at a node of its own for writing: materialize it if
 * null, copy it if another image still shares it. @return true if it
 * was materialized.
 */
template <typename T>
bool
own(std::shared_ptr<T> &p)
{
    if (!p) {
        p = std::make_shared<T>();      // value-initialized: zeros/nulls
        return true;
    }
    if (p.use_count() > 1) {
        p = std::make_shared<T>(*p);
    } else {
        // Sole owner, possibly only since another thread's image let
        // go of the node: order that image's reads before our write.
        std::atomic_thread_fence(std::memory_order_acquire);
    }
    return false;
}

} // namespace

MemoryImage::Page &
MemoryImage::touch(Addr page_index)
{
    const Addr slot = page_index >> leafBits;
    std::shared_ptr<Leaf> *leaf;
    if (slot < nearSlots) {
        own(_dir);
        if (slot >= _dir->size())
            _dir->resize(slot + 1);
        leaf = &(*_dir)[slot];
    } else {
        leaf = &_far[slot];
    }
    own(*leaf);
    std::shared_ptr<Page> &page = (**leaf)[page_index & (leafPages - 1)];
    if (own(page))
        ++_pageCount;
    return *page;
}

const MemoryImage::Leaf *
MemoryImage::farLeaf(Addr slot) const
{
    if (slot < nearSlots || _far.empty())
        return nullptr;
    auto it = _far.find(slot);
    return it == _far.end() ? nullptr : it->second.get();
}

void
MemoryImage::readSpan(Addr addr, void *out, std::size_t n) const
{
    auto *dst = static_cast<std::uint8_t *>(out);
    while (n > 0) {
        const Addr page_index = pageBase(addr);
        const std::size_t off = pageOffset(addr);
        const std::size_t chunk = std::min(n, pageBytes - off);
        if (const Page *page = peek(page_index))
            std::memcpy(dst, page->data() + off, chunk);
        else
            std::memset(dst, 0, chunk);
        dst += chunk;
        addr += chunk;
        n -= chunk;
    }
}

void
MemoryImage::writeSpan(Addr addr, const void *src, std::size_t n)
{
    // A write covering a whole poisoned line re-establishes valid ECC.
    if (!_poison.empty()) {
        for (Addr line = blockAlign(addr); line + blockSize <= addr + n;
             line += blockSize) {
            if (line >= addr)
                _poison.erase(line);
        }
    }
    const auto *from = static_cast<const std::uint8_t *>(src);
    while (n > 0) {
        const Addr page_index = pageBase(addr);
        const std::size_t off = pageOffset(addr);
        const std::size_t chunk = std::min(n, pageBytes - off);
        std::memcpy(touch(page_index).data() + off, from, chunk);
        from += chunk;
        addr += chunk;
        n -= chunk;
    }
}

std::vector<Addr>
MemoryImage::poisonedLines() const
{
    std::vector<Addr> lines(_poison.begin(), _poison.end());
    std::sort(lines.begin(), lines.end());
    return lines;
}

std::vector<Addr>
MemoryImage::pageIndices() const
{
    std::vector<Addr> indices;
    indices.reserve(_pageCount);
    const auto walk = [&indices](Addr slot, const Leaf *leaf) {
        if (leaf == nullptr)
            return;
        for (std::size_t i = 0; i < leafPages; ++i) {
            if ((*leaf)[i])
                indices.push_back((slot << leafBits) + i);
        }
    };
    for (std::size_t slot = 0; slot < dirSize(); ++slot)
        walk(slot, (*_dir)[slot].get());
    for (const auto &[slot, leaf] : _far)
        walk(slot, leaf.get());
    return indices;
}

std::vector<MemoryImage::DiffEntry>
MemoryImage::diff(const MemoryImage &other,
                  std::size_t max_entries) const
{
    std::vector<DiffEntry> entries;
    static const Page zeroPage{};
    // Compare one directory slot's leaves; false once the cap is hit.
    const auto diff_leaf = [&](Addr slot, const Leaf *lhs_leaf,
                               const Leaf *rhs_leaf) {
        if (lhs_leaf == rhs_leaf)
            return true;        // shared (or both missing)
        for (std::size_t i = 0; i < leafPages; ++i) {
            const Page *lhs = lhs_leaf ? (*lhs_leaf)[i].get() : nullptr;
            const Page *rhs = rhs_leaf ? (*rhs_leaf)[i].get() : nullptr;
            if (lhs == rhs)
                continue;
            if (lhs == nullptr)
                lhs = &zeroPage;
            if (rhs == nullptr)
                rhs = &zeroPage;
            if (std::memcmp(lhs->data(), rhs->data(), pageBytes) == 0)
                continue;
            const Addr base = ((slot << leafBits) + i) << pageBits;
            for (std::size_t off = 0; off < pageBytes; off += 8) {
                std::uint64_t l, r;
                std::memcpy(&l, lhs->data() + off, 8);
                std::memcpy(&r, rhs->data() + off, 8);
                if (l == r)
                    continue;
                if (entries.size() >= max_entries)
                    return false;
                entries.push_back(DiffEntry{base + off, l, r});
            }
        }
        return true;
    };

    // Walk slots in address order: the dense directory (unless both
    // images share it), then the union of both side maps.
    const std::size_t near =
        _dir == other._dir ? 0 : std::max(dirSize(), other.dirSize());
    for (std::size_t slot = 0; slot < near; ++slot) {
        const Leaf *lhs = slot < dirSize() ? (*_dir)[slot].get() : nullptr;
        const Leaf *rhs = slot < other.dirSize()
            ? (*other._dir)[slot].get()
            : nullptr;
        if (!diff_leaf(slot, lhs, rhs))
            return entries;
    }
    std::map<Addr, std::pair<const Leaf *, const Leaf *>> far;
    for (const auto &[slot, leaf] : _far)
        far[slot].first = leaf.get();
    for (const auto &[slot, leaf] : other._far)
        far[slot].second = leaf.get();
    for (const auto &[slot, leaves] : far) {
        if (!diff_leaf(slot, leaves.first, leaves.second))
            break;
    }
    return entries;
}

std::string
MemoryImage::formatDiff(const std::vector<DiffEntry> &entries,
                        std::size_t max_lines)
{
    std::string out;
    const std::size_t shown = std::min(entries.size(), max_lines);
    for (std::size_t i = 0; i < shown; ++i) {
        char line[96];
        std::snprintf(line, sizeof(line),
                      "  0x%012llx: 0x%016llx != 0x%016llx\n",
                      static_cast<unsigned long long>(entries[i].addr),
                      static_cast<unsigned long long>(entries[i].lhs),
                      static_cast<unsigned long long>(entries[i].rhs));
        out += line;
    }
    if (entries.size() > shown) {
        out += "  ... " + std::to_string(entries.size() - shown) +
               " more differing words\n";
    }
    return out;
}

} // namespace proteus
