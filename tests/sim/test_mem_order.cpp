/** StoreTracker: the memory-lane / store-buffer window keeps the
 *  newest `entries` stores and forwards from the youngest one that
 *  overlaps a load, checked call for call against a deque reference. */
#include <gtest/gtest.h>

#include <deque>
#include <random>
#include <vector>

#include "sim/mem_order.hpp"

using namespace diag;
using namespace diag::sim;

namespace
{

/** Reference window: push_back, drop the oldest beyond capacity,
 *  probe newest first. */
struct DequeWindow
{
    unsigned cap;
    std::deque<PendingStore> q;

    bool
    record(Addr a, u8 size, Cycle ready)
    {
        q.push_back({a, size, ready});
        if (q.size() > cap) {
            q.pop_front();
            return true;
        }
        return false;
    }

    Cycle
    probe(Addr addr, u8 size) const
    {
        for (auto it = q.rbegin(); it != q.rend(); ++it) {
            if (!(addr < it->addr + it->size && it->addr < addr + size))
                continue;
            const bool covered =
                it->addr <= addr && addr + size <= it->addr + it->size;
            return covered ? it->data_ready : kNeverCycle;
        }
        return kNeverCycle;
    }
};

} // namespace

TEST(StoreTracker, MatchesDequeReference)
{
    // Addresses come from four pools: unaligned accesses in a small
    // array, accesses straddling a 4-byte granule and a 4 KiB page,
    // granules that share one slot of the occupancy summary, and the
    // top of the address space, where the window's u32 overlap test
    // wraps. Sizes include 0, and a sixteenth of the calls corrupt an
    // entry's address the way the memory-lane fault site does.
    std::vector<Addr> aliases;
    const size_t slot = GranuleSummary::slot(0x1000 >> 2);
    for (Addr g = (0x1000 >> 2) + 1; aliases.size() < 6; ++g)
        if (GranuleSummary::slot(g) == slot)
            aliases.push_back(g << 2);

    std::mt19937 rng(0x5707Eu);
    SparseMemory mem;
    for (const unsigned cap : {0u, 1u, 4u, 16u, 32u}) {
        SCOPED_TRACE(cap);
        StoreTracker t(mem, cap);
        DequeWindow ref{cap, {}};
        for (int n = 0; n < 20000; ++n) {
            Addr a;
            switch (rng() % 4) {
              case 0: a = 0x1000 + 4 * (rng() % 24) + rng() % 4; break;
              case 1: a = 0x2000 - 6 + rng() % 12; break;
              case 2: a = aliases[rng() % aliases.size()] + rng() % 4;
                      break;
              default: a = 0xffffffffu - rng() % 6; break;
            }
            const u8 size =
                rng() % 16 == 0 ? 0 : static_cast<u8>(1u << (rng() % 3));
            const unsigned op = rng() % 16;
            if (op == 0 && !ref.q.empty()) {
                const size_t k = rng() % ref.q.size();
                const unsigned bit = rng() % 32;
                ref.q[k].addr ^= 1u << bit;
                ASSERT_EQ(t.flipEntryAddr(k, bit), ref.q[k].addr);
            } else if (op < 6) {
                const Cycle ready = rng() % 1000;
                ASSERT_EQ(t.recordStore(a, size, ready, ready + 1),
                          ref.record(a, size, ready + 1))
                    << "call " << n;
            } else {
                ASSERT_EQ(t.forwardProbe(a, size), ref.probe(a, size))
                    << "call " << n << " addr " << a << " size "
                    << unsigned{size};
            }
            ASSERT_EQ(t.entries().size(), ref.q.size());
            for (size_t k = 0; k < ref.q.size(); ++k)
                ASSERT_EQ(t.entries()[k].addr, ref.q[k].addr);
        }
        t.reset();
        EXPECT_TRUE(t.entries().empty());
        EXPECT_EQ(t.storeAddrGate(), 0u);
        // After reset the summary is empty too: nothing forwards.
        EXPECT_EQ(t.forwardProbe(0x1000, 4), kNeverCycle);
    }
}

TEST(StoreTracker, SummaryFollowsCorruptedEntry)
{
    // A store is found at its corrupted address, and no longer at its
    // original one, so a later load's forward changes outcome.
    SparseMemory mem;
    StoreTracker t(mem, 4);
    t.recordStore(0x1000, 4, 1, 5);
    ASSERT_EQ(t.forwardProbe(0x1000, 4), 5u);
    ASSERT_EQ(t.forwardProbe(0x1100, 4), kNeverCycle);
    EXPECT_EQ(t.flipEntryAddr(0, 8), 0x1100u);
    EXPECT_EQ(t.forwardProbe(0x1000, 4), kNeverCycle);
    EXPECT_EQ(t.forwardProbe(0x1100, 4), 5u);
}
