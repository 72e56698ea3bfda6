/**
 * @file
 * A sparse byte-addressable memory image backing the simulated address
 * space. Two images exist per system: the volatile image (what the
 * program sees through the cache hierarchy) and the NVM image (what has
 * actually persisted). Pages materialize on first touch and read as
 * zero before that.
 *
 * Pages live in a two-level radix table: a directory indexed by
 * page_index >> leafBits whose slots hold leaves of leafPages page
 * pointers, so a lookup is two array indexes. Directory slots at or
 * above nearSlots (addresses >= 2^37) sit in a small ordered side
 * map, so every 64-bit address works without a huge directory.
 *
 * Copies are cheap: the directory, leaves and pages are all shared
 * copy-on-write. A copy duplicates one pointer per level it shares;
 * the first write copies the directory (its leaf pointers), then the
 * shared leaf on its path (its page pointers), then the shared page.
 * The images of a cached populated state, of
 * every bundle recorded from it, and of every FullSystem wired from
 * those bundles thus hold one copy of each page nobody has written
 * since.
 */

#ifndef PROTEUS_HEAP_MEMORY_IMAGE_HH
#define PROTEUS_HEAP_MEMORY_IMAGE_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/types.hh"

namespace proteus {

/** Sparse paged storage for a 64-bit simulated address space. */
class MemoryImage
{
  public:
    static constexpr unsigned pageBits = 12;
    static constexpr std::size_t pageBytes = std::size_t{1} << pageBits;
    /** Pages per leaf of the page table (2 MiB of address space). */
    static constexpr unsigned leafBits = 9;
    static constexpr std::size_t leafPages = std::size_t{1} << leafBits;
    /** Directory slots held in the dense array; higher ones (page
     *  indices >= nearSlots << leafBits) go to the side map. */
    static constexpr Addr nearSlots = Addr{1} << 16;

    /**
     * Copy @p n bytes at @p addr into @p out (zero for untouched). An
     * access inside one page is one lookup and one memcpy, inline;
     * a span crossing pages takes readSpan's per-page loop.
     */
    void
    read(Addr addr, void *out, std::size_t n) const
    {
        const std::size_t off = pageOffset(addr);
        if (n == 0 || n > pageBytes - off)
            return readSpan(addr, out, n);
        if (const Page *page = peek(pageBase(addr)))
            std::memcpy(out, page->data() + off, n);
        else
            std::memset(out, 0, n);
    }

    /** Write @p n bytes from @p src at @p addr. Inline inside one page
     *  unless a line is poisoned (writeSpan heals fully rewritten
     *  lines). */
    void
    write(Addr addr, const void *src, std::size_t n)
    {
        const std::size_t off = pageOffset(addr);
        if (n == 0 || n > pageBytes - off || !_poison.empty())
            return writeSpan(addr, src, n);
        std::memcpy(touch(pageBase(addr)).data() + off, src, n);
    }

    /** Little-endian fixed-width helpers. */
    std::uint64_t
    read64(Addr addr) const
    {
        std::uint64_t v;
        read(addr, &v, sizeof(v));
        return v;
    }

    void
    write64(Addr addr, std::uint64_t value)
    {
        write(addr, &value, sizeof(value));
    }

    /** One differing 8-byte word between two images. */
    struct DiffEntry
    {
        Addr addr = invalidAddr;    ///< 8-byte aligned
        std::uint64_t lhs = 0;      ///< this image's word
        std::uint64_t rhs = 0;      ///< the other image's word
    };

    /**
     * Compare against @p other at 8-byte word granularity over the
     * union of both images' materialized pages (untouched pages read
     * as zero). Entries come back sorted by address; at most
     * @p max_entries are collected, so a hit of exactly that many may
     * mean the comparison was cut short.
     */
    std::vector<DiffEntry> diff(const MemoryImage &other,
                                std::size_t max_entries = SIZE_MAX)
        const;

    /** Render up to @p max_lines entries as "addr: lhs != rhs" lines,
     *  with a trailing elision note when entries were held back. */
    static std::string formatDiff(const std::vector<DiffEntry> &entries,
                                  std::size_t max_lines = 16);

    /** @return number of materialized pages (tests, footprint stats). */
    std::size_t pageCount() const { return _pageCount; }

    /**
     * Materialized page indices (addr >> pageBits), sorted ascending
     * (the table's walk order) so serialization is deterministic.
     */
    std::vector<Addr> pageIndices() const;

    /** Raw bytes of a materialized page; null if never touched. */
    const std::uint8_t *
    pageData(Addr page_index) const
    {
        const Page *page = peek(page_index);
        return page ? page->data() : nullptr;
    }

    /** @return true if this image and @p other share one dense
     *  directory (a copy nobody has written since). */
    bool
    sharesDirectoryWith(const MemoryImage &other) const
    {
        return _dir != nullptr && _dir == other._dir;
    }

    /** @return true if both images hold identical contents (untouched
     *  pages read as zero, so an all-zero page equals a missing one). */
    bool identical(const MemoryImage &other) const
    {
        return diff(other, 1).empty();
    }

    /** Drop all contents. */
    void
    clear()
    {
        _dir.reset();
        _far.clear();
        _pageCount = 0;
        _poison.clear();
    }

    /// @name Media-fault poison tracking (64B line granularity)
    /// @{
    /**
     * Mark the cache line containing @p addr as detected-uncorrectable
     * (failed media ECC). Poison is metadata carried alongside the
     * bytes: it travels through copies (crash images) and is cleared
     * when write() fully overwrites the line, modeling a clean rewrite
     * re-establishing valid ECC.
     */
    void markPoisoned(Addr addr) { _poison.insert(blockAlign(addr)); }

    /** @return true if @p addr's line is marked poisoned. */
    bool
    isPoisoned(Addr addr) const
    {
        return !_poison.empty() && _poison.count(blockAlign(addr)) > 0;
    }

    /** @return number of currently poisoned lines. */
    std::uint64_t poisonedCount() const { return _poison.size(); }

    /** Poisoned line addresses, sorted for deterministic reporting. */
    std::vector<Addr> poisonedLines() const;
    /// @}

  private:
    using Page = std::array<std::uint8_t, pageBytes>;
    using Leaf = std::array<std::shared_ptr<Page>, leafPages>;
    using Directory = std::vector<std::shared_ptr<Leaf>>;

    static Addr pageBase(Addr a) { return a >> pageBits; }
    static std::size_t pageOffset(Addr a)
    {
        return static_cast<std::size_t>(a & (pageBytes - 1));
    }

    /** read() and write() for any span, page by page. */
    void readSpan(Addr addr, void *out, std::size_t n) const;
    void writeSpan(Addr addr, const void *src, std::size_t n);

    /** The page for writing: materialized, and unshared (as is the
     *  leaf holding it). */
    Page &touch(Addr page_index);

    /** The page at @p page_index; null if never written. */
    const Page *
    peek(Addr page_index) const
    {
        const Addr slot = page_index >> leafBits;
        const Leaf *leaf =
            slot < dirSize() ? (*_dir)[slot].get() : farLeaf(slot);
        return leaf ? (*leaf)[page_index & (leafPages - 1)].get()
                    : nullptr;
    }

    /** The side map's leaf for directory slot @p slot, or null. */
    const Leaf *farLeaf(Addr slot) const;

    std::size_t dirSize() const { return _dir ? _dir->size() : 0; }

    /** The dense directory (null: empty). Shared with copies of this
     *  image until one of them writes. */
    std::shared_ptr<Directory> _dir;
    /** Leaves of directory slots >= nearSlots, ordered by slot. */
    std::map<Addr, std::shared_ptr<Leaf>> _far;
    std::size_t _pageCount = 0;
    /** Lines flagged detected-uncorrectable by the media fault model;
     *  empty (and cost-free) unless fault injection is active. */
    std::unordered_set<Addr> _poison;
};

} // namespace proteus

#endif // PROTEUS_HEAP_MEMORY_IMAGE_HH
