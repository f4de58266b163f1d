/** BusyCalendar tests: order-tolerant reservations, gap filling,
 *  probe/reserve agreement, capacity bounding, and a differential
 *  check of the binary-search calendar against a linear-scan one. */
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "common/calendar.hpp"

using namespace diag;

namespace
{

/**
 * Reference calendar: the original linear-scan implementation, kept
 * verbatim so the differential test below pins BusyCalendar's grants
 * to it call for call.
 */
class LinearCalendar
{
  public:
    explicit LinearCalendar(size_t capacity) : cap_(capacity) {}

    Cycle
    probe(Cycle now, Cycle occupancy) const
    {
        Cycle t = now;
        size_t i = 0;
        while (i < iv_.size() && iv_[i].end <= t)
            ++i;
        while (i < iv_.size()) {
            if (t + occupancy <= iv_[i].start)
                break;
            t = std::max(t, iv_[i].end);
            ++i;
        }
        return t;
    }

    Cycle
    reserve(Cycle now, Cycle occupancy)
    {
        Cycle t = now;
        size_t i = 0;
        while (i < iv_.size() && iv_[i].end <= t)
            ++i;
        while (i < iv_.size()) {
            if (t + occupancy <= iv_[i].start)
                break;
            t = std::max(t, iv_[i].end);
            ++i;
        }
        iv_.insert(iv_.begin() + static_cast<long>(i),
                   {t, t + occupancy});
        if (iv_.size() > cap_)
            iv_.erase(iv_.begin());
        return t;
    }

    bool
    busyAt(Cycle t) const
    {
        for (const Interval &iv : iv_) {
            if (iv.start <= t && t < iv.end)
                return true;
            if (iv.start > t)
                break;
        }
        return false;
    }

    size_t size() const { return iv_.size(); }

  private:
    struct Interval
    {
        Cycle start;
        Cycle end;
    };

    size_t cap_;
    std::vector<Interval> iv_;
};

} // namespace

TEST(Calendar, MonotonicRequestsBehaveLikeBusyUntil)
{
    BusyCalendar cal;
    EXPECT_EQ(cal.reserve(10, 2), 10u);
    EXPECT_EQ(cal.reserve(10, 2), 12u);
    EXPECT_EQ(cal.reserve(11, 2), 14u);
    EXPECT_EQ(cal.reserve(100, 1), 100u);
}

TEST(Calendar, EarlyRequestSlotsIntoGap)
{
    BusyCalendar cal;
    // A far-future reservation must not block an earlier request.
    EXPECT_EQ(cal.reserve(1000, 5), 1000u);
    EXPECT_EQ(cal.reserve(10, 2), 10u);
    // The gap between 12 and 1000 is still usable.
    EXPECT_EQ(cal.reserve(12, 988), 12u);
    // Now 10..1005 is fully booked.
    EXPECT_EQ(cal.reserve(10, 1), 1005u);
}

TEST(Calendar, ExactFitGap)
{
    BusyCalendar cal;
    cal.reserve(10, 2);   // [10,12)
    cal.reserve(14, 2);   // [14,16)
    EXPECT_EQ(cal.reserve(10, 2), 12u);  // exactly fills [12,14)
    EXPECT_EQ(cal.reserve(10, 2), 16u);  // everything before is full
}

TEST(Calendar, TooSmallGapIsSkipped)
{
    BusyCalendar cal;
    cal.reserve(10, 2);   // [10,12)
    cal.reserve(13, 2);   // [13,15)
    // A 2-cycle request does not fit the 1-cycle gap [12,13).
    EXPECT_EQ(cal.reserve(11, 2), 15u);
}

TEST(Calendar, ProbeMatchesReserveWithoutMutation)
{
    BusyCalendar cal;
    cal.reserve(10, 4);
    const Cycle p1 = cal.probe(10, 2);
    const Cycle p2 = cal.probe(10, 2);
    EXPECT_EQ(p1, p2);  // probe does not reserve
    EXPECT_EQ(cal.reserve(10, 2), p1);
}

TEST(Calendar, BusyAt)
{
    BusyCalendar cal;
    cal.reserve(10, 3);
    EXPECT_FALSE(cal.busyAt(9));
    EXPECT_TRUE(cal.busyAt(10));
    EXPECT_TRUE(cal.busyAt(12));
    EXPECT_FALSE(cal.busyAt(13));
}

TEST(Calendar, CapacityDropsOldest)
{
    BusyCalendar cal(4);
    for (Cycle t = 0; t < 50; t += 10)
        cal.reserve(t, 1);  // five reservations, capacity four
    EXPECT_EQ(cal.size(), 4u);
    // The oldest interval [0,1) was forgotten: reserving there is free.
    EXPECT_EQ(cal.reserve(0, 1), 0u);
}

TEST(Calendar, ClearEmpties)
{
    BusyCalendar cal;
    cal.reserve(5, 5);
    cal.clear();
    EXPECT_EQ(cal.size(), 0u);
    EXPECT_EQ(cal.reserve(5, 5), 5u);
}

TEST(Calendar, MatchesLinearScanReference)
{
    // 3 capacities x 40k seeded calls: arrival times jump backwards as
    // well as forwards (out-of-order processing of threads), repeat
    // exactly, and a fifth of the requests occupy zero cycles.
    std::mt19937_64 rng(0xCA1E7DA5u);
    size_t calls = 0;
    for (size_t cap : {size_t{1}, size_t{4}, size_t{96}}) {
        SCOPED_TRACE(cap);
        BusyCalendar cal(cap);
        LinearCalendar ref(cap);
        Cycle base = 0;
        Cycle last = 0;
        for (int n = 0; n < 40000; ++n, ++calls) {
            base += rng() % 3;
            Cycle now;
            switch (rng() % 4) {
              case 0: now = last; break;  // repeated timestamp
              case 1: now = base + rng() % 64; break;
              case 2: now = base > 200 ? base - rng() % 200 : 0; break;
              default: now = base + rng() % 8; break;
            }
            last = now;
            const Cycle occ = rng() % 5 == 0 ? 0 : 1 + rng() % 12;
            switch (rng() % 3) {
              case 0:
                ASSERT_EQ(cal.reserve(now, occ), ref.reserve(now, occ))
                    << "call " << n;
                break;
              case 1:
                ASSERT_EQ(cal.probe(now, occ), ref.probe(now, occ))
                    << "call " << n;
                break;
              default:
                ASSERT_EQ(cal.busyAt(now), ref.busyAt(now))
                    << "call " << n;
                break;
            }
            ASSERT_EQ(cal.size(), ref.size()) << "call " << n;
        }
    }
    EXPECT_GE(calls, 100000u);
}
