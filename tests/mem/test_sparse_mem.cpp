/** SparseMemory edge cases: page-straddling accesses, zero-fill
 *  read-before-write, huge-address sparsity, and deep-copy isolation
 *  (the fault campaign's checkpoint/compare paths lean on all four),
 *  plus the page-pointer cache: aliasing slots, invalidation on clear,
 *  copy and move, and concurrent const readers. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "common/sparse_mem.hpp"

using namespace diag;

TEST(SparseMemory, ReadBeforeWriteIsZeroAndAllocationFree)
{
    SparseMemory mem;
    EXPECT_EQ(mem.read8(0x0), 0u);
    EXPECT_EQ(mem.read32(0x1234), 0u);
    EXPECT_EQ(mem.read32(0xdead'0000), 0u);
    // Reads are non-faulting and must not materialize pages.
    EXPECT_EQ(mem.numPages(), 0u);
}

TEST(SparseMemory, MisalignedWriteStraddlesPageBoundary)
{
    SparseMemory mem;
    const Addr last = SparseMemory::kPageSize - 2;  // 0xffe
    mem.write32(last, 0xaabbccdd);
    EXPECT_EQ(mem.read32(last), 0xaabbccddu);
    // Little-endian: low half on page 0, high half on page 1.
    EXPECT_EQ(mem.read8(last + 0), 0xddu);
    EXPECT_EQ(mem.read8(last + 1), 0xccu);
    EXPECT_EQ(mem.read8(last + 2), 0xbbu);
    EXPECT_EQ(mem.read8(last + 3), 0xaau);
    EXPECT_EQ(mem.numPages(), 2u);
}

TEST(SparseMemory, BlockCopyAcrossPages)
{
    SparseMemory mem;
    u8 src[16], dst[16] = {};
    for (unsigned i = 0; i < 16; ++i)
        src[i] = static_cast<u8>(0x40 + i);
    const Addr base = 3 * SparseMemory::kPageSize - 7;
    mem.writeBlock(base, src, sizeof(src));
    mem.readBlock(base, dst, sizeof(dst));
    EXPECT_EQ(std::memcmp(src, dst, sizeof(src)), 0);
}

TEST(SparseMemory, HugeAddressesStaySparse)
{
    SparseMemory mem;
    mem.write32(0x0000'0040, 1);
    mem.write32(0x7fff'fffc, 2);
    mem.write32(0xffff'f000, 3);
    EXPECT_EQ(mem.read32(0x0000'0040), 1u);
    EXPECT_EQ(mem.read32(0x7fff'fffc), 2u);
    EXPECT_EQ(mem.read32(0xffff'f000), 3u);
    // Three touched words = three pages, regardless of address span.
    EXPECT_EQ(mem.numPages(), 3u);
}

TEST(SparseMemory, SubWordWidthsAndZeroExtension)
{
    SparseMemory mem;
    mem.write(0x100, 0xdead'beef, 1);
    EXPECT_EQ(mem.read(0x100, 1), 0xefu);
    EXPECT_EQ(mem.read(0x100, 2), 0x00efu);
    mem.write(0x200, 0xdead'beef, 2);
    EXPECT_EQ(mem.read(0x200, 2), 0xbeefu);
    EXPECT_EQ(mem.read32(0x200), 0x0000'beefu);
}

TEST(SparseMemory, DeepCopyIsIndependent)
{
    SparseMemory a;
    a.write32(0x1000, 0x11111111);
    SparseMemory b(a);
    b.write32(0x1000, 0x22222222);
    b.write32(0x9000, 0x33333333);
    EXPECT_EQ(a.read32(0x1000), 0x11111111u);
    EXPECT_EQ(a.numPages(), 1u);
    EXPECT_EQ(b.read32(0x1000), 0x22222222u);
    EXPECT_EQ(b.numPages(), 2u);

    // Assignment replaces contents wholesale.
    a = b;
    EXPECT_EQ(a.read32(0x9000), 0x33333333u);
    EXPECT_EQ(a.numPages(), 2u);
}

TEST(SparseMemory, ForEachPageVisitsEveryResidentBase)
{
    SparseMemory mem;
    mem.write8(0x0000, 1);
    mem.write8(0x5000, 1);
    mem.write8(0xa0000, 1);
    std::vector<Addr> bases;
    mem.forEachPage([&](Addr b) { bases.push_back(b); });
    std::sort(bases.begin(), bases.end());
    ASSERT_EQ(bases.size(), 3u);
    EXPECT_EQ(bases[0], 0x0000u);
    EXPECT_EQ(bases[1], 0x5000u);
    EXPECT_EQ(bases[2], 0xa0000u);
}

namespace
{

/** Byte-at-a-time little-endian reference for read16/read32. */
u32
referenceRead(const SparseMemory &mem, Addr addr, unsigned bytes)
{
    u32 v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= static_cast<u32>(mem.read8(addr + i)) << (8 * i);
    return v;
}

/** Byte-at-a-time little-endian reference for write16/write32. */
void
referenceWrite(SparseMemory &mem, Addr addr, u32 value, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        mem.write8(addr + i, static_cast<u8>(value >> (8 * i)));
}

/** Page 1 filled with a byte pattern; page 2 resident or not. */
SparseMemory
patternedPages(bool neighbour_resident)
{
    SparseMemory mem;
    const Addr page = SparseMemory::kPageSize;
    for (Addr a = page; a < 2 * page; ++a)
        mem.write8(a, static_cast<u8>(a * 7 + 3));
    if (neighbour_resident)
        for (Addr a = 2 * page; a < 2 * page + 8; ++a)
            mem.write8(a, static_cast<u8>(0xa0 + a));
    return mem;
}

} // namespace

// The single-lookup fast path of read16/read32/write16/write32 must
// agree with a read8/write8 reference at every offset near the page
// end, where it hands over to the straddling path.
TEST(SparseMemory, WideAccessesMatchByteReferenceAtPageEnd)
{
    const Addr page = SparseMemory::kPageSize;
    for (const bool resident : {false, true}) {
        for (Addr off = page - 8; off < page; ++off) {
            SCOPED_TRACE(testing::Message()
                         << "offset " << off << " neighbour "
                         << (resident ? "resident" : "absent"));
            const Addr a = page + off;
            SparseMemory mem = patternedPages(resident);
            const size_t pages = mem.numPages();
            EXPECT_EQ(mem.read16(a), referenceRead(mem, a, 2));
            EXPECT_EQ(mem.read32(a), referenceRead(mem, a, 4));
            EXPECT_EQ(mem.numPages(), pages);

            for (const unsigned bytes : {2u, 4u}) {
                SparseMemory fast = patternedPages(resident);
                SparseMemory ref = patternedPages(resident);
                const u32 value = 0xc3d2e1f0u ^ static_cast<u32>(off);
                if (bytes == 2)
                    fast.write16(a, static_cast<u16>(value));
                else
                    fast.write32(a, value);
                referenceWrite(ref, a, value, bytes);
                EXPECT_EQ(fast.numPages(), ref.numPages());
                for (Addr b = a - 4; b < a + 8; ++b)
                    EXPECT_EQ(fast.read8(b), ref.read8(b))
                        << "byte 0x" << std::hex << b;
            }
        }
    }
}

TEST(SparseMemory, ReadingAnAbsentPageAllocatesNothing)
{
    SparseMemory mem;
    mem.write8(0x1000, 1);
    const Addr page = SparseMemory::kPageSize;
    for (Addr off = page - 8; off < page; ++off) {
        EXPECT_EQ(mem.read16(0x5000 + off), 0u);
        EXPECT_EQ(mem.read32(0x5000 + off), 0u);
        u8 buf[16];
        mem.readBlock(0x5000 + off, buf, sizeof(buf));
        EXPECT_EQ(std::count(buf, buf + sizeof(buf), 0), 16);
    }
    EXPECT_EQ(mem.numPages(), 1u);
}

namespace
{

/** Base addresses of @p n distinct pages that share one cache slot. */
std::vector<Addr>
aliasingPages(size_t n)
{
    std::vector<Addr> pages;
    const size_t slot = SparseMemory::cacheSlot(0x100000);
    for (Addr a = 0x100000; pages.size() < n; a += SparseMemory::kPageSize)
        if (SparseMemory::cacheSlot(a) == slot)
            pages.push_back(a);
    return pages;
}

} // namespace

TEST(SparseMemory, PagesAliasingOneCacheSlotKeepTheirOwnBytes)
{
    const std::vector<Addr> pages = aliasingPages(4);
    SparseMemory mem;
    std::vector<u32> want(pages.size());
    for (size_t i = 0; i < pages.size(); ++i) {
        want[i] = 0x1000u + static_cast<u32>(i);
        mem.write32(pages[i] + 8, want[i]);
    }
    // Alternate between the aliases so every access evicts the slot's
    // previous page, reading and writing.
    for (int round = 0; round < 3; ++round) {
        for (size_t i = 0; i < pages.size(); ++i) {
            EXPECT_EQ(mem.read32(pages[i] + 8), want[i]) << i;
            want[i] += 0x100;
            mem.write32(pages[i] + 8, want[i]);
            const size_t j = (i + 1) % pages.size();
            EXPECT_EQ(mem.read32(pages[j] + 8), want[j]) << j;
        }
    }
    EXPECT_EQ(mem.numPages(), pages.size());
    // An absent alias reads zero and is not materialized.
    const Addr absent = aliasingPages(5).back();
    EXPECT_EQ(mem.read32(absent), 0u);
    EXPECT_EQ(mem.numPages(), pages.size());
}

TEST(SparseMemory, ClearDropsCachedPages)
{
    SparseMemory mem;
    mem.write32(0x2000, 7);
    EXPECT_EQ(mem.read32(0x2000), 7u);  // page now cached
    mem.clear();
    EXPECT_EQ(mem.read32(0x2000), 0u);
    EXPECT_EQ(mem.numPages(), 0u);
    mem.write32(0x2000, 9);
    EXPECT_EQ(mem.read32(0x2000), 9u);
    EXPECT_EQ(mem.numPages(), 1u);
}

TEST(SparseMemory, CopiesAndMovesDoNotShareCachedPages)
{
    SparseMemory a;
    a.write32(0x3000, 1);
    a.write32(0x4000, 2);
    ASSERT_EQ(a.read32(0x3000), 1u);  // both pages cached in a
    ASSERT_EQ(a.read32(0x4000), 2u);

    SparseMemory b;
    b.write32(0x3000, 99);  // b caches its own page 3 ...
    b = a;                  // ... which the copy replaces
    EXPECT_EQ(b.read32(0x3000), 1u);
    b.write32(0x3000, 10);  // a write through one copy ...
    a.write32(0x4000, 20);
    EXPECT_EQ(a.read32(0x3000), 1u);  // ... the other does not see
    EXPECT_EQ(b.read32(0x4000), 2u);

    SparseMemory c(a);
    c.write32(0x3000, 30);
    EXPECT_EQ(a.read32(0x3000), 1u);

    SparseMemory d(std::move(a));
    EXPECT_EQ(d.read32(0x3000), 1u);
    EXPECT_EQ(d.read32(0x4000), 20u);
    // The moved-from image is empty, and writing it leaves d alone.
    EXPECT_EQ(a.numPages(), 0u);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(a.read32(0x3000), 0u);
    a.write32(0x3000, 5);
    EXPECT_EQ(d.read32(0x3000), 1u);

    SparseMemory e;
    e.write32(0x3000, 77);
    ASSERT_EQ(e.read32(0x3000), 77u);
    e = std::move(d);
    EXPECT_EQ(e.read32(0x3000), 1u);
    EXPECT_EQ(d.read32(0x4000), 0u);  // NOLINT(bugprone-use-after-move)
    d.write32(0x4000, 6);
    EXPECT_EQ(e.read32(0x4000), 20u);
}

TEST(SparseMemory, ConcurrentConstReadersAgree)
{
    // Two threads read one shared const image through the page cache,
    // in opposite orders over more pages than it has slots, so they
    // keep refilling the same slots under each other. Run under TSan
    // in CI: the slot refills must not race.
    SparseMemory image;
    const unsigned pages = 4 * SparseMemory::kCacheSlots;
    for (unsigned p = 0; p < pages; ++p)
        image.write32(0x100000 + p * SparseMemory::kPageSize + 4 * (p % 8),
                      0xabc00000u + p);
    const SparseMemory &shared = image;
    auto reader = [&shared, pages](bool forward, unsigned &wrong) {
        for (int round = 0; round < 20; ++round)
            for (unsigned k = 0; k < pages; ++k) {
                const unsigned p = forward ? k : pages - 1 - k;
                const Addr a =
                    0x100000 + p * SparseMemory::kPageSize + 4 * (p % 8);
                wrong += shared.read32(a) != 0xabc00000u + p;
                wrong += shared.read32(a + 4) != 0;
            }
    };
    unsigned wrong_fwd = 0;
    unsigned wrong_back = 0;
    std::thread t1(reader, true, std::ref(wrong_fwd));
    std::thread t2(reader, false, std::ref(wrong_back));
    t1.join();
    t2.join();
    EXPECT_EQ(wrong_fwd, 0u);
    EXPECT_EQ(wrong_back, 0u);
    EXPECT_EQ(image.numPages(), pages);
}
