/** StoreTracker: the memory-lane / store-buffer window keeps the
 *  newest `entries` stores and forwards from the youngest one that
 *  overlaps a load, checked call for call against a deque reference. */
#include <gtest/gtest.h>

#include <deque>
#include <random>

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
    std::mt19937 rng(0x5707Eu);
    SparseMemory mem;
    for (const unsigned cap : {0u, 1u, 4u, 16u, 32u}) {
        SCOPED_TRACE(cap);
        StoreTracker t(mem, cap);
        DequeWindow ref{cap, {}};
        for (int n = 0; n < 20000; ++n) {
            const Addr a = 0x1000 + 4 * (rng() % 24) + rng() % 4;
            const u8 size = static_cast<u8>(1u << (rng() % 3));
            if (rng() % 3 == 0) {
                const Cycle ready = rng() % 1000;
                ASSERT_EQ(t.recordStore(a, size, ready, ready + 1),
                          ref.record(a, size, ready + 1))
                    << "call " << n;
            } else {
                ASSERT_EQ(t.forwardProbe(a, size), ref.probe(a, size))
                    << "call " << n;
            }
            ASSERT_EQ(t.entries().size(), ref.q.size());
            if (!ref.q.empty()) {
                ASSERT_EQ(t.entries()[0].addr, ref.q.front().addr);
            }
        }
        t.reset();
        EXPECT_TRUE(t.entries().empty());
        EXPECT_EQ(t.storeAddrGate(), 0u);
    }
}
