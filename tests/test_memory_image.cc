/** @file Unit tests for the sparse, copy-on-write memory image. */

#include <gtest/gtest.h>

#include <algorithm>
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
    EXPECT_EQ(a.pageData(0x1), b.pageData(0x1));
    EXPECT_EQ(a.pageData(0x5), b.pageData(0x5));

    b.write64(0x1008, 3);
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
}

TEST(MemoryImageCow, DiffAndIdenticalOverSharedPages)
{
    MemoryImage a;
    for (unsigned p = 0; p < 4; ++p)
        a.write64(p * MemoryImage::pageBytes + 8, p + 1);
    MemoryImage b = a;
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
                for (unsigned p = 0; p < pages; ++p)
                    mine.write64(p * MemoryImage::pageBytes + 8, w + 1);
                MemoryImage copy = mine;
                copy.write64(8, 100 + w);
                bool good = mine.read64(8) == w + 1 &&
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
