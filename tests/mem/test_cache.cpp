/** Cache model tests: hit/miss behaviour, LRU, banking, write-back. */
#include <gtest/gtest.h>

#include "mem/cache.hpp"

using namespace diag;
using namespace diag::mem;

namespace
{

CacheParams
smallCache()
{
    CacheParams p;
    p.size_bytes = 1024;   // 4 sets x 4 ways x 64B
    p.assoc = 4;
    p.line_bytes = 64;
    p.banks = 1;
    p.hit_latency = 4;
    p.bank_occupancy = 1;
    return p;
}

} // namespace

TEST(Cache, ColdMissThenHit)
{
    StatGroup stats;
    Cache c("c", smallCache(), stats, "c");
    const CacheLookup miss = c.access(0x1000, false, 10);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.grant, 10u);
    c.fill(0x1000, false, 50);
    const CacheLookup hit = c.access(0x1000, false, 60);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.done, 60u + 4u);
}

TEST(Cache, SameLineDifferentOffsetHits)
{
    StatGroup stats;
    Cache c("c", smallCache(), stats, "c");
    c.fill(0x1000, false, 0);
    EXPECT_TRUE(c.access(0x103f, false, 10).hit);
    EXPECT_FALSE(c.access(0x1040, false, 20).hit);
}

TEST(Cache, LruEviction)
{
    StatGroup stats;
    Cache c("c", smallCache(), stats, "c");  // 4 sets; set stride is 256 bytes
    // Four lines mapping to set 0 fill all ways.
    for (u32 i = 0; i < 4; ++i)
        c.fill(0x1000 + i * 0x100, false, i);
    // Touch lines 1..3 so line 0 is LRU.
    for (u32 i = 1; i < 4; ++i)
        EXPECT_TRUE(c.access(0x1000 + i * 0x100, false, 10 + i).hit);
    // A fifth line evicts line 0.
    c.fill(0x1000 + 4 * 0x100, false, 20);
    EXPECT_FALSE(c.access(0x1000, false, 30).hit);
    EXPECT_TRUE(c.access(0x1400, false, 40).hit);
}

TEST(Cache, DirtyEvictionSignalsWriteback)
{
    StatGroup stats;
    Cache c("c", smallCache(), stats, "c");
    c.fill(0x1000, true, 0);  // dirty fill
    for (u32 i = 1; i < 4; ++i)
        c.fill(0x1000 + i * 0x100, false, i);
    // Evicting the dirty line returns true.
    EXPECT_TRUE(c.fill(0x1000 + 4 * 0x100, false, 10));
    EXPECT_EQ(stats.get("c.writebacks"), 1.0);
}

TEST(Cache, WriteHitSetsDirty)
{
    StatGroup stats;
    Cache c("c", smallCache(), stats, "c");
    c.fill(0x1000, false, 0);
    EXPECT_TRUE(c.access(0x1000, true, 5).hit);
    for (u32 i = 1; i < 4; ++i)
        c.fill(0x1000 + i * 0x100, false, i + 10);
    EXPECT_TRUE(c.fill(0x1500, false, 20));  // dirty writeback
}

TEST(Cache, BankConflictSerializes)
{
    // Banks are word-interleaved at 8-byte grain: accesses to the same
    // 8-byte word conflict; accesses 8 bytes apart use separate banks.
    CacheParams p = smallCache();
    p.banks = 2;
    p.bank_occupancy = 3;
    StatGroup stats;
    Cache c("c", p, stats, "c");
    c.fill(0x1000, false, 0);
    const CacheLookup a = c.access(0x1000, false, 100);
    const CacheLookup b = c.access(0x1004, false, 100);  // same word8
    const CacheLookup d = c.access(0x1008, false, 100);  // next bank
    EXPECT_EQ(a.grant, 100u);
    EXPECT_EQ(b.grant, 103u);  // waits for occupancy
    EXPECT_EQ(d.grant, 100u);  // independent bank
    // 16 bytes apart wraps back to the first bank.
    const CacheLookup e = c.access(0x1010, false, 100);
    EXPECT_EQ(e.grant, 106u);
}

TEST(Cache, DirectMapped)
{
    CacheParams p = smallCache();
    p.assoc = 1;  // 16 sets
    StatGroup stats;
    Cache c("dm", p, stats, "dm");
    c.fill(0x0000, false, 0);
    EXPECT_TRUE(c.access(0x0000, false, 1).hit);
    // Same set (stride = 1024), conflicting line evicts immediately.
    c.fill(0x0400, false, 2);
    EXPECT_FALSE(c.access(0x0000, false, 3).hit);
}

TEST(Cache, StatsCount)
{
    StatGroup stats;
    Cache c("c", smallCache(), stats, "c");
    c.access(0x0, false, 0);
    c.fill(0x0, false, 0);
    c.access(0x0, false, 1);
    c.access(0x0, true, 2);
    EXPECT_EQ(stats.get("c.reads"), 2.0);
    EXPECT_EQ(stats.get("c.writes"), 1.0);
    EXPECT_EQ(stats.get("c.hits"), 2.0);
    EXPECT_EQ(stats.get("c.misses"), 1.0);
    // The counters belong to the owner's group: reset() invalidates
    // the tags but leaves them for the owner to clear.
    c.reset();
    EXPECT_EQ(stats.get("c.hits"), 2.0);
    EXPECT_FALSE(c.access(0x0, false, 0).hit);  // invalidated
    stats.clear();
    c.access(0x0, false, 1);
    EXPECT_EQ(stats.get("c.misses"), 1.0);
    EXPECT_FALSE(stats.has("c.hits"));
}

TEST(Cache, SetsStartInvalidAfterConstructionAndReset)
{
    // Ways are zeroed per set on first touch; every path that reads a
    // way (access, fill, warmFill, corruptWay) must see a fresh set as
    // all-invalid, before and after reset().
    StatGroup stats;
    Cache c("c", smallCache(), stats, "c");
    // Way 5 is set 1, way 1: untouched, so invalid with tag 0.
    EXPECT_EQ(c.corruptWay(5, 0),
              "c way 5 tag bit 0 flipped (way was invalid)");
    // The flipped tag (1) of an invalid way never hits.
    EXPECT_FALSE(c.access(0x440, false, 0).hit);  // set 1, tag 1
    c.warmFill(0x40);                             // set 1, tag 0
    EXPECT_TRUE(c.access(0x40, false, 1).hit);
    // warmFill took the first invalid way of set 1 (way 4).
    EXPECT_EQ(c.corruptWay(4, 3), "c way 4 tag bit 3 flipped");
    EXPECT_FALSE(c.access(0x40, false, 2).hit);   // its tag is now 8
    c.fill(0x80, true, 3);                        // set 2, dirty
    c.reset();
    for (Addr a : {Addr{0x40}, Addr{0x80}, Addr{0x440}})
        EXPECT_FALSE(c.access(a, false, 10).hit) << a;
    EXPECT_EQ(c.corruptWay(4, 0),
              "c way 4 tag bit 0 flipped (way was invalid)");
    // The dirty line filled before reset() is gone: five fills of set 2
    // evict the oldest clean one, never write it back.
    for (Addr a = 0x80; a <= 0x480; a += 0x100)
        EXPECT_FALSE(c.fill(a, false, 20)) << a;
    EXPECT_EQ(stats.get("c.writebacks"), 0.0);
}
