/** @file Unit tests for the sparse, copy-on-write memory image. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "heap/memory_image.hh"

using namespace proteus;

TEST(MemoryImage, ZeroBeforeTouch)
{
    MemoryImage img;
    EXPECT_EQ(img.read64(0x1234), 0u);
    EXPECT_EQ(img.pageCount(), 0u);
}

TEST(MemoryImage, ReadBackWritten)
{
    MemoryImage img;
    img.write64(0x1000, 0xdeadbeefcafef00dull);
    EXPECT_EQ(img.read64(0x1000), 0xdeadbeefcafef00dull);
    EXPECT_EQ(img.pageCount(), 1u);
}

TEST(MemoryImage, CrossPageAccess)
{
    MemoryImage img;
    const Addr addr = MemoryImage::pageBytes - 3;
    const std::uint64_t v = 0x0102030405060708ull;
    img.write(addr, &v, 8);
    std::uint64_t out = 0;
    img.read(addr, &out, 8);
    EXPECT_EQ(out, v);
    EXPECT_EQ(img.pageCount(), 2u);
}

TEST(MemoryImage, PartialWritesMerge)
{
    MemoryImage img;
    img.write64(0x40, 0);
    const std::uint8_t b = 0xAB;
    img.write(0x42, &b, 1);
    const std::uint64_t v = img.read64(0x40);
    EXPECT_EQ((v >> 16) & 0xFF, 0xABu);
    EXPECT_EQ(v & 0xFFFF, 0u);
}

TEST(MemoryImage, DeepCopyIsIndependent)
{
    MemoryImage a;
    a.write64(0x100, 1);
    MemoryImage b = a;
    b.write64(0x100, 2);
    EXPECT_EQ(a.read64(0x100), 1u);
    EXPECT_EQ(b.read64(0x100), 2u);

    MemoryImage c;
    c = a;
    a.write64(0x100, 3);
    EXPECT_EQ(c.read64(0x100), 1u);
}

TEST(MemoryImage, ClearDropsPages)
{
    MemoryImage img;
    img.write64(0x10, 9);
    img.clear();
    EXPECT_EQ(img.pageCount(), 0u);
    EXPECT_EQ(img.read64(0x10), 0u);
}

TEST(MemoryImage, LargeSpanRoundTrip)
{
    MemoryImage img;
    std::vector<std::uint8_t> data(3 * MemoryImage::pageBytes + 17);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 31 + 7);
    img.write(12345, data.data(), data.size());
    std::vector<std::uint8_t> out(data.size());
    img.read(12345, out.data(), out.size());
    EXPECT_EQ(data, out);
}

TEST(MemoryImage, DiffFindsDifferingWords)
{
    MemoryImage a;
    MemoryImage b;
    a.write64(0x100, 1);
    b.write64(0x100, 2);
    a.write64(0x2000, 7);       // only in a
    b.write64(0x5008, 9);       // only in b (different page)
    a.write64(0x400, 5);        // identical in both
    b.write64(0x400, 5);

    const auto entries = a.diff(b);
    ASSERT_EQ(entries.size(), 3u);
    // Sorted by address, regardless of page-map iteration order.
    EXPECT_EQ(entries[0].addr, 0x100u);
    EXPECT_EQ(entries[0].lhs, 1u);
    EXPECT_EQ(entries[0].rhs, 2u);
    EXPECT_EQ(entries[1].addr, 0x2000u);
    EXPECT_EQ(entries[1].lhs, 7u);
    EXPECT_EQ(entries[1].rhs, 0u);
    EXPECT_EQ(entries[2].addr, 0x5008u);
    EXPECT_EQ(entries[2].lhs, 0u);
    EXPECT_EQ(entries[2].rhs, 9u);
}

TEST(MemoryImage, DiffOfIdenticalImagesIsEmpty)
{
    MemoryImage a;
    a.write64(0x100, 42);
    MemoryImage b = a;
    EXPECT_TRUE(a.diff(b).empty());
    EXPECT_TRUE(a.diff(a).empty());
}

TEST(MemoryImage, DiffHonorsMaxEntries)
{
    MemoryImage a;
    MemoryImage b;
    for (unsigned i = 0; i < 32; ++i)
        a.write64(0x1000 + i * 8, i + 1);
    const auto entries = a.diff(b, 5);
    EXPECT_EQ(entries.size(), 5u);
}

TEST(MemoryImage, FormatDiffIsBoundedAndMentionsElision)
{
    MemoryImage a;
    MemoryImage b;
    for (unsigned i = 0; i < 12; ++i)
        a.write64(0x1000 + i * 8, i + 1);
    const auto entries = a.diff(b);
    const std::string text = MemoryImage::formatDiff(entries, 4);
    EXPECT_NE(text.find("0x000000001000"), std::string::npos);
    EXPECT_NE(text.find("more differing words"), std::string::npos);
    // Exactly 4 value lines plus the elision line.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 5);
}

TEST(MemoryImageCow, CopySharesPagesUntilWritten)
{
    MemoryImage a;
    a.write64(0x1000, 1);
    a.write64(0x5000, 2);
    MemoryImage b = a;
    EXPECT_TRUE(b.sharesDirectoryWith(a));          // the copy is O(1)
    EXPECT_EQ(a.pageData(0x1), b.pageData(0x1));
    EXPECT_EQ(a.pageData(0x5), b.pageData(0x5));
    MemoryImage c = b;      // a copy of a copy shares it too
    EXPECT_TRUE(c.sharesDirectoryWith(a));

    b.write64(0x1008, 3);
    EXPECT_FALSE(b.sharesDirectoryWith(a));         // copied on write
    EXPECT_TRUE(c.sharesDirectoryWith(a));
    EXPECT_NE(a.pageData(0x1), b.pageData(0x1));   // copied on write
    EXPECT_EQ(a.pageData(0x5), b.pageData(0x5));   // still shared
    EXPECT_EQ(a.read64(0x1008), 0u);
    EXPECT_EQ(b.read64(0x1008), 3u);
    EXPECT_EQ(b.read64(0x1000), 1u);                // rest of the page came along

    // A sole owner writes in place; so does the source once the copy
    // has its own page.
    const std::uint8_t *own = b.pageData(0x1);
    b.write64(0x1010, 4);
    EXPECT_EQ(b.pageData(0x1), own);
    a.write64(0x1000, 9);
    EXPECT_EQ(b.read64(0x1000), 1u);

    // Writing the source leaves the copy alone too.
    a.write64(0x5000, 7);
    EXPECT_EQ(b.read64(0x5000), 2u);
    EXPECT_NE(a.pageData(0x5), b.pageData(0x5));
    EXPECT_FALSE(c.sharesDirectoryWith(a));
    EXPECT_EQ(c.read64(0x5000), 2u);

    // An empty image has no directory to share; a far write (side
    // map) leaves a shared directory shared.
    EXPECT_FALSE(MemoryImage{}.sharesDirectoryWith(MemoryImage{}));
    MemoryImage d = c;
    d.write64(0xffff'ffff'ffff'f000ull, 1);
    EXPECT_TRUE(d.sharesDirectoryWith(c));
}

TEST(MemoryImageCow, PoisonTravelsWithCopiesAndClearsOnRewrite)
{
    MemoryImage a;
    a.write64(0x2000, 5);
    a.markPoisoned(0x2010);
    MemoryImage b = a;
    EXPECT_TRUE(b.isPoisoned(0x2000));
    EXPECT_EQ(b.poisonedCount(), 1u);

    // A partial rewrite keeps the poison; a full-line rewrite clears
    // it — in the written copy only.
    b.write64(0x2008, 6);
    EXPECT_TRUE(b.isPoisoned(0x2000));
    std::vector<std::uint8_t> line(blockSize, 0xAB);
    b.write(0x2000, line.data(), line.size());
    EXPECT_FALSE(b.isPoisoned(0x2000));
    EXPECT_TRUE(a.isPoisoned(0x2000));
    EXPECT_EQ(a.read64(0x2000), 5u);

    MemoryImage c;
    c = a;
    EXPECT_EQ(c.poisonedLines(), a.poisonedLines());

    // The same through a far page (the page table's side map).
    const Addr far = 0xffff'ffff'ffff'f000ull;
    a.write64(far, 2);
    a.markPoisoned(far + 0x40);
    MemoryImage d = a;
    EXPECT_TRUE(d.isPoisoned(far + 0x48));
    d.write(far + 0x40, line.data(), line.size());
    EXPECT_FALSE(d.isPoisoned(far + 0x40));
    EXPECT_TRUE(a.isPoisoned(far + 0x40));
    EXPECT_EQ(d.poisonedCount(), 1u);
}

TEST(MemoryImageCow, DiffAndIdenticalOverSharedPages)
{
    MemoryImage a;
    for (unsigned p = 0; p < 4; ++p)
        a.write64(p * MemoryImage::pageBytes + 8, p + 1);
    MemoryImage b = a;
    ASSERT_TRUE(b.sharesDirectoryWith(a));
    EXPECT_TRUE(a.identical(b));
    EXPECT_TRUE(a.diff(b).empty());

    b.write64(2 * MemoryImage::pageBytes + 16, 42);
    EXPECT_FALSE(a.identical(b));
    const auto entries = a.diff(b);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].addr, 2 * MemoryImage::pageBytes + 16);
    EXPECT_EQ(entries[0].lhs, 0u);
    EXPECT_EQ(entries[0].rhs, 42u);

    // Rewriting the old value makes the images equal again even though
    // the page is no longer shared.
    b.write64(2 * MemoryImage::pageBytes + 16, 0);
    EXPECT_TRUE(a.identical(b));
}

TEST(MemoryImageCow, ConcurrentCopiesAndWritesStayIndependent)
{
    // One shared source; every thread copies it (and copies its copy)
    // and writes each page, as FullSystems wired from one bundle do.
    constexpr unsigned pages = 64;
    constexpr unsigned workers = 4;
    MemoryImage source;
    for (unsigned p = 0; p < pages; ++p)
        source.write64(p * MemoryImage::pageBytes, p);

    std::vector<int> ok(workers, 0);
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < workers; ++w) {
        threads.emplace_back([&source, &ok, w]() {
            for (unsigned round = 0; round < 8; ++round) {
                MemoryImage mine = source;
                bool good = mine.sharesDirectoryWith(source);
                for (unsigned p = 0; p < pages; ++p)
                    mine.write64(p * MemoryImage::pageBytes + 8, w + 1);
                MemoryImage copy = mine;
                good = good && !mine.sharesDirectoryWith(source) &&
                       copy.sharesDirectoryWith(mine);
                copy.write64(8, 100 + w);
                good = good && !copy.sharesDirectoryWith(mine) &&
                       mine.read64(8) == w + 1 &&
                       copy.read64(8) == 100 + w;
                for (unsigned p = 0; p < pages; ++p) {
                    const Addr base = p * MemoryImage::pageBytes;
                    good = good && mine.read64(base) == p &&
                           mine.read64(base + 8) == w + 1 &&
                           source.read64(base + 8) == 0;
                }
                ok[w] += good ? 1 : 0;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (unsigned w = 0; w < workers; ++w)
        EXPECT_EQ(ok[w], 8) << "worker " << w;
    for (unsigned p = 0; p < pages; ++p)
        EXPECT_EQ(source.read64(p * MemoryImage::pageBytes + 8), 0u);
}

namespace {

constexpr Addr leafSpan = MemoryImage::leafPages * MemoryImage::pageBytes;
/** First address whose directory slot lives in the side map. */
constexpr Addr farBase = MemoryImage::nearSlots * leafSpan;
constexpr Addr topPage = 0xffff'ffff'ffff'f000ull;

} // namespace

TEST(MemoryImageTable, SpansPageAndLeafBoundaries)
{
    MemoryImage img;
    std::vector<std::uint8_t> data(MemoryImage::pageBytes + 10);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 13 + 1);

    // Across a page boundary inside one leaf, and across a leaf
    // boundary (three pages, two leaves).
    const Addr in_leaf = 5 * MemoryImage::pageBytes - 3;
    const Addr across_leaf = 3 * leafSpan - 5;
    img.write(in_leaf, data.data(), 16);
    img.write(across_leaf, data.data(), data.size());

    std::vector<std::uint8_t> out(data.size());
    img.read(in_leaf, out.data(), 16);
    EXPECT_TRUE(std::equal(out.begin(), out.begin() + 16, data.begin()));
    img.read(across_leaf, out.data(), out.size());
    EXPECT_EQ(out, data);
    EXPECT_EQ(img.pageCount(), 5u);

    const Addr leaf_page = 3 * MemoryImage::leafPages;
    EXPECT_EQ(img.pageIndices(),
              (std::vector<Addr>{4, 5, leaf_page - 1, leaf_page,
                                 leaf_page + 1}));
    EXPECT_EQ(img.read64(across_leaf - 8), 0u);
    EXPECT_EQ(img.read64(across_leaf + data.size()), 0u);
}

TEST(MemoryImageTable, FarAddressesRoundTrip)
{
    MemoryImage img;
    const Addr addrs[] = {Addr{1} << 41, (Addr{1} << 41) + leafSpan + 8,
                          Addr{1} << 52, topPage, topPage + 0xff8};
    for (std::size_t i = 0; i < std::size(addrs); ++i)
        img.write64(addrs[i], 0xf00d0000 + i);
    for (std::size_t i = 0; i < std::size(addrs); ++i)
        EXPECT_EQ(img.read64(addrs[i]), 0xf00d0000 + i);
    EXPECT_EQ(img.pageCount(), 4u);     // the top two share a page
    EXPECT_EQ(img.read64(topPage + 8), 0u);
    EXPECT_EQ(img.read64((Addr{1} << 41) + 8), 0u);
    EXPECT_EQ(img.pageData(topPage >> MemoryImage::pageBits),
              img.pageData((topPage + 0xff8) >> MemoryImage::pageBits));

    // A write straddling the last near slot and the first far one.
    const std::uint8_t bytes[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    img.write(farBase - 4, bytes, sizeof(bytes));
    std::uint8_t back[8] = {};
    img.read(farBase - 4, back, sizeof(back));
    EXPECT_EQ(0, std::memcmp(bytes, back, sizeof(bytes)));
    EXPECT_EQ(img.pageCount(), 6u);
}

TEST(MemoryImageTable, PageIndicesSortedAcrossNearAndFar)
{
    MemoryImage img;
    const Addr addrs[] = {topPage, 7 * leafSpan, Addr{1} << 41, 0x10,
                          farBase, 3 * MemoryImage::pageBytes,
                          (Addr{1} << 41) - MemoryImage::pageBytes};
    std::vector<Addr> expect;
    for (Addr a : addrs) {
        img.write64(a, 1);
        expect.push_back(a >> MemoryImage::pageBits);
    }
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(img.pageIndices(), expect);
    EXPECT_EQ(img.pageCount(), expect.size());
}

TEST(MemoryImageTable, CopyOnWriteAtBothLevels)
{
    // Pages in four near leaves and one far leaf.
    MemoryImage a;
    std::vector<Addr> bases;
    for (Addr leaf : {Addr{0}, Addr{1}, Addr{2}, Addr{9}}) {
        for (Addr p = 0; p < 8; ++p)
            bases.push_back(leaf * leafSpan + p * MemoryImage::pageBytes);
    }
    bases.push_back(Addr{1} << 41);
    bases.push_back((Addr{1} << 41) + MemoryImage::pageBytes);
    for (std::size_t i = 0; i < bases.size(); ++i)
        a.write64(bases[i], i + 1);

    const auto shared_except = [&](const MemoryImage &x,
                                   const MemoryImage &y,
                                   const std::vector<Addr> &written) {
        for (Addr base : bases) {
            const Addr pi = base >> MemoryImage::pageBits;
            const bool own = std::find(written.begin(), written.end(),
                                       base) != written.end();
            EXPECT_EQ(x.pageData(pi) == y.pageData(pi), !own)
                << "page 0x" << std::hex << pi;
        }
    };

    MemoryImage b = a;
    shared_except(a, b, {});
    // One write to the copy copies one leaf and one page; every other
    // page, in that leaf too, still shares storage.
    b.write64(bases[9] + 8, 99);
    shared_except(a, b, {bases[9]});
    b.write64(bases.back() + 8, 98);     // far leaf
    shared_except(a, b, {bases[9], bases.back()});

    // The source is unchanged, and the copy kept the rest of the page.
    for (std::size_t i = 0; i < bases.size(); ++i) {
        EXPECT_EQ(a.read64(bases[i]), i + 1);
        EXPECT_EQ(b.read64(bases[i]), i + 1);
        EXPECT_EQ(a.read64(bases[i] + 8), 0u);
    }
    EXPECT_EQ(b.read64(bases[9] + 8), 99u);

    // Writing the source after the copy owns its leaf: the source's
    // leaf is now its own, but the page is still shared, so it is
    // copied and the copy keeps its bytes.
    a.write64(bases[10], 1000);
    shared_except(a, b, {bases[9], bases[10], bases.back()});
    EXPECT_EQ(b.read64(bases[10]), 11u);

    // A sole owner writes in place.
    const std::uint8_t *own = b.pageData(bases[9] >> MemoryImage::pageBits);
    b.write64(bases[9] + 16, 97);
    EXPECT_EQ(b.pageData(bases[9] >> MemoryImage::pageBits), own);
}

TEST(MemoryImageTable, DiffAndIdenticalOverLeaves)
{
    MemoryImage a;
    for (Addr leaf = 0; leaf < 4; ++leaf)
        a.write64(leaf * leafSpan + 0x40, leaf + 1);
    a.write64(Addr{1} << 41, 5);

    // A materialized all-zero page equals a missing one, near or far.
    MemoryImage zeros = a;
    zeros.write64(6 * leafSpan, 0);
    zeros.write64(topPage, 0);
    EXPECT_TRUE(a.identical(zeros));
    EXPECT_TRUE(zeros.identical(a));
    EXPECT_TRUE(a.diff(zeros).empty());

    // Shared leaves are skipped; differences come back address-ordered
    // across near and far leaves.
    MemoryImage b = a;
    EXPECT_TRUE(a.identical(b));
    b.write64(topPage + 8, 7);          // missing in a
    b.write64(2 * leafSpan + 0x48, 3);  // same leaf as a's word
    b.write64(Addr{1} << 41, 6);        // far, differing
    b.write64(5 * leafSpan, 4);         // leaf missing in a
    EXPECT_FALSE(a.identical(b));
    const auto entries = a.diff(b);
    ASSERT_EQ(entries.size(), 4u);
    EXPECT_EQ(entries[0].addr, 2 * leafSpan + 0x48);
    EXPECT_EQ(entries[1].addr, 5 * leafSpan);
    EXPECT_EQ(entries[1].lhs, 0u);
    EXPECT_EQ(entries[1].rhs, 4u);
    EXPECT_EQ(entries[2].addr, Addr{1} << 41);
    EXPECT_EQ(entries[2].lhs, 5u);
    EXPECT_EQ(entries[2].rhs, 6u);
    EXPECT_EQ(entries[3].addr, topPage + 8);
    EXPECT_EQ(a.diff(b, 2).size(), 2u);

    // The reverse direction swaps the sides.
    const auto back = b.diff(a);
    ASSERT_EQ(back.size(), 4u);
    EXPECT_EQ(back[3].lhs, 7u);
    EXPECT_EQ(back[3].rhs, 0u);
}

TEST(MemoryImageTable, PageCountAcrossCopyAndClear)
{
    MemoryImage a;
    a.write64(0, 1);
    a.write64(8, 2);                    // same page
    a.write64(3 * leafSpan, 3);
    a.write64(Addr{1} << 41, 4);
    EXPECT_EQ(a.pageCount(), 3u);

    MemoryImage b = a;
    EXPECT_EQ(b.pageCount(), 3u);
    b.write64(16, 5);                   // copies a page: still three
    EXPECT_EQ(b.pageCount(), 3u);
    b.write64(MemoryImage::pageBytes, 6);
    EXPECT_EQ(b.pageCount(), 4u);
    EXPECT_EQ(a.pageCount(), 3u);

    b.clear();
    EXPECT_EQ(b.pageCount(), 0u);
    EXPECT_TRUE(b.pageIndices().empty());
    EXPECT_EQ(b.read64(Addr{1} << 41), 0u);
    EXPECT_EQ(a.pageCount(), 3u);
    EXPECT_EQ(a.read64(Addr{1} << 41), 4u);
    b.write64(Addr{1} << 41, 7);
    EXPECT_EQ(b.pageCount(), 1u);
}

TEST(MemoryImageCow, ConcurrentCopiesOfOnePopulatedImage)
{
    // A populated image over several leaves; each thread copies it and
    // writes pages in every leaf, racing the leaf and page copies.
    constexpr unsigned leaves = 6;
    constexpr unsigned pagesPerLeaf = 24;
    constexpr unsigned workers = 4;
    MemoryImage source;
    std::vector<Addr> bases;
    for (unsigned l = 0; l < leaves; ++l) {
        for (unsigned p = 0; p < pagesPerLeaf; ++p)
            bases.push_back(l * leafSpan + p * MemoryImage::pageBytes);
    }
    bases.push_back(Addr{1} << 41);
    for (std::size_t i = 0; i < bases.size(); ++i)
        source.write64(bases[i], i);

    std::vector<int> ok(workers, 0);
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < workers; ++w) {
        threads.emplace_back([&source, &bases, &ok, w]() {
            for (unsigned round = 0; round < 4; ++round) {
                MemoryImage mine = source;
                bool good = mine.sharesDirectoryWith(source);
                // Every thread writes every other page, offset by its id,
                // so pairs of threads race on the directory, leaves and
                // pages.
                for (std::size_t i = w % 2; i < bases.size(); i += 2)
                    mine.write64(bases[i] + 8 * (w + 1), 100 * (w + 1) + i);
                good = good && !mine.sharesDirectoryWith(source);
                for (std::size_t i = 0; i < bases.size(); ++i) {
                    const bool mine_page = i % 2 == w % 2;
                    good = good && mine.read64(bases[i]) == i;
                    for (unsigned o = 0; o < workers; ++o) {
                        const std::uint64_t want =
                            mine_page && o == w ? 100 * (w + 1) + i : 0;
                        good = good &&
                               mine.read64(bases[i] + 8 * (o + 1)) == want;
                    }
                }
                ok[w] += good ? 1 : 0;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (unsigned w = 0; w < workers; ++w)
        EXPECT_EQ(ok[w], 4) << "worker " << w;
    for (std::size_t i = 0; i < bases.size(); ++i) {
        EXPECT_EQ(source.read64(bases[i]), i);
        for (unsigned o = 0; o < workers; ++o)
            EXPECT_EQ(source.read64(bases[i] + 8 * (o + 1)), 0u);
    }
    EXPECT_EQ(source.pageCount(), bases.size());
}

namespace {

/** Byte-at-a-time reference for an image: untouched bytes read zero. */
struct ByteModel
{
    std::map<Addr, std::uint8_t> bytes;

    void
    write(Addr addr, const std::uint8_t *src, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            bytes[addr + i] = src[i];
    }

    std::uint8_t
    at(Addr addr) const
    {
        const auto it = bytes.find(addr);
        return it == bytes.end() ? 0 : it->second;
    }
};

/** Check every access width over [@p lo, @p hi) against @p model. */
void
expectMatchesModel(const MemoryImage &img, const ByteModel &model,
                   Addr lo, Addr hi)
{
    std::vector<std::uint8_t> span(hi - lo);
    img.read(lo, span.data(), span.size());
    for (Addr a = lo; a < hi; ++a) {
        std::uint8_t byte = 0xEE;
        img.read(a, &byte, 1);
        ASSERT_EQ(byte, model.at(a)) << std::hex << "byte at 0x" << a;
        ASSERT_EQ(span[a - lo], model.at(a)) << std::hex << "span 0x" << a;
    }
    for (Addr a = lo; a + 8 <= hi; ++a) {
        std::uint64_t want = 0;
        for (unsigned i = 0; i < 8; ++i)
            want |= std::uint64_t{model.at(a + i)} << (8 * i);
        ASSERT_EQ(img.read64(a), want) << std::hex << "word at 0x" << a;
    }
}

} // namespace

TEST(MemoryImageFastPath, AccessesMatchAByteAtATimeModel)
{
    // In-page accesses take the inline path, page-crossing ones the
    // span loop; both must agree with a byte-by-byte model at near and
    // far (side-map) addresses and at the last word of a page.
    constexpr Addr page = MemoryImage::pageBytes;
    const std::vector<Addr> bases = {
        0x40,               // first page
        0x1000 + 0x123,     // unaligned, mid-page
        page - 8,           // last word of a page
        5 * page - 3,       // straddles a page boundary
        leafSpan - 8,       // last word of a leaf
        farBase + 0x2018,   // far, mid-page
        farBase + 2 * page - 8,
        farBase + 3 * page - 5,
    };
    const std::vector<std::size_t> sizes = {1, 2, 3, 4, 8, 16, 64, 100};

    MemoryImage img;
    ByteModel model;
    for (const Addr base : bases)
        expectMatchesModel(img, model, base - 16, base + 128);
    EXPECT_EQ(img.pageCount(), 0u);     // reads materialize nothing

    std::uint8_t next = 1;
    for (const Addr base : bases) {
        for (const std::size_t n : sizes) {
            std::vector<std::uint8_t> src(n);
            for (std::uint8_t &b : src)
                b = next++ | 1;     // never zero
            img.write(base, src.data(), n);
            model.write(base, src.data(), n);
            expectMatchesModel(img, model, base - 16, base + 128);
        }
        std::uint64_t word = 0x0102030405060708ull * next;
        img.write64(base + 3, word);
        model.write(base + 3, reinterpret_cast<std::uint8_t *>(&word), 8);
        expectMatchesModel(img, model, base - 16, base + 128);
    }
    for (const Addr base : bases)
        expectMatchesModel(img, model, base - 16, base + 128);
}

TEST(MemoryImageFastPath, InPageWriteToACopyUnsharesOnlyItsPage)
{
    constexpr Addr page = MemoryImage::pageBytes;
    MemoryImage a;
    for (Addr p = 0; p < 4; ++p)
        a.write64(p * page, p + 1);
    a.write64(farBase, 9);
    a.write64(farBase + page, 10);
    MemoryImage b = a;

    const std::uint8_t v = 0x5A;
    b.write(2 * page + 17, &v, 1);
    for (Addr p = 0; p < 4; ++p)
        EXPECT_EQ(a.pageData(p) == b.pageData(p), p != 2) << "page " << p;
    std::uint8_t got = 0;
    a.read(2 * page + 17, &got, 1);
    EXPECT_EQ(got, 0u);
    b.read(2 * page + 17, &got, 1);
    EXPECT_EQ(got, v);

    // Reads never unshare; a second write to the owned page is in place.
    const std::uint8_t *owned = b.pageData(2);
    EXPECT_EQ(b.read64(page), 2u);
    b.write64(2 * page + 24, 7);
    EXPECT_EQ(b.pageData(2), owned);
    EXPECT_EQ(a.pageData(1), b.pageData(1));

    const Addr far_page = farBase >> MemoryImage::pageBits;
    b.write64(farBase + page + 8, 11);
    EXPECT_EQ(a.pageData(far_page), b.pageData(far_page));
    EXPECT_NE(a.pageData(far_page + 1), b.pageData(far_page + 1));
    EXPECT_EQ(a.read64(farBase + page + 8), 0u);
    EXPECT_EQ(b.read64(farBase + page), 10u);
    EXPECT_EQ(b.pageCount(), a.pageCount());
}

TEST(MemoryImageFastPath, WordWritesOntoAPoisonedLineStillHeal)
{
    MemoryImage img;
    const Addr line = 0x3040;
    img.write64(line, 1);
    img.markPoisoned(line);

    // Word writes onto the line land but keep the poison, even once
    // together they cover it: only one write of the whole line
    // re-establishes valid ECC.
    for (Addr off = 0; off < blockSize; off += 8) {
        img.write64(line + off, off + 100);
        EXPECT_TRUE(img.isPoisoned(line)) << "after word " << off;
    }
    for (Addr off = 0; off < blockSize; off += 8)
        EXPECT_EQ(img.read64(line + off), off + 100);

    // The full-line write fits in one page, yet still heals the line.
    std::vector<std::uint8_t> full(blockSize, 0xCD);
    img.write(line, full.data(), full.size());
    EXPECT_EQ(img.poisonedCount(), 0u);
    EXPECT_EQ(img.read64(line + 8), 0xCDCDCDCDCDCDCDCDull);
}
