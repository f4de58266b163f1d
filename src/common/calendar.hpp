/**
 * @file
 * Order-tolerant occupancy calendar for shared hardware resources
 * (cache banks, DRAM channels, buses).
 *
 * The engines in this project process software threads sequentially
 * while their timestamps interleave in simulated time, so requests can
 * arrive at a shared resource out of time order. A plain busy-until
 * scalar would push an early-time request from a later-processed thread
 * behind another thread's far-future reservation — serializing threads
 * that really run in parallel. The calendar instead keeps a bounded,
 * sorted window of reserved intervals and grants each request the first
 * gap at or after its arrival time, independent of processing order.
 */
#ifndef DIAG_COMMON_CALENDAR_HPP
#define DIAG_COMMON_CALENDAR_HPP

#include <algorithm>
#include <vector>

#include "common/types.hpp"

namespace diag
{

/** Single-server reservation calendar with a bounded history window. */
class BusyCalendar
{
  public:
    explicit BusyCalendar(size_t capacity = 96) : cap_(capacity) {}

    /**
     * First gap of @p occupancy cycles at or after @p now, without
     * reserving it.
     */
    Cycle
    probe(Cycle now, Cycle occupancy) const
    {
        Cycle t = now;
        firstGap(t, occupancy);
        return t;
    }

    /**
     * Reserve the resource for @p occupancy cycles at the first gap at
     * or after @p now. Returns the grant (service start) cycle.
     */
    Cycle
    reserve(Cycle now, Cycle occupancy)
    {
        Cycle t = now;
        const size_t i = firstGap(t, occupancy);
        iv_.insert(iv_.begin() + static_cast<long>(i),
                   {t, t + occupancy});
        if (iv_.size() > cap_)
            iv_.erase(iv_.begin());  // forget the oldest reservation
        return t;
    }

    /** True iff some reservation covers cycle @p t. */
    bool
    busyAt(Cycle t) const
    {
        const size_t i = firstEndingAfter(t);
        return i < iv_.size() && iv_[i].start <= t;
    }

    void clear() { iv_.clear(); }

    size_t size() const { return iv_.size(); }

  private:
    struct Interval
    {
        Cycle start;
        Cycle end;
    };

    /**
     * Index of the first interval ending after @p t. The intervals are
     * disjoint and sorted by start, so their ends are sorted as well
     * (zero-length ones included) and a binary search finds it.
     */
    size_t
    firstEndingAfter(Cycle t) const
    {
        return static_cast<size_t>(
            std::partition_point(
                iv_.begin(), iv_.end(),
                [t](const Interval &iv) { return iv.end <= t; }) -
            iv_.begin());
    }

    /**
     * Advance @p t to the first gap of @p occupancy cycles at or after
     * it and return the index of the interval the gap precedes.
     */
    size_t
    firstGap(Cycle &t, Cycle occupancy) const
    {
        size_t i = firstEndingAfter(t);
        while (i < iv_.size()) {
            if (t + occupancy <= iv_[i].start)
                break;  // the gap before interval i fits
            t = std::max(t, iv_[i].end);
            ++i;
        }
        return i;
    }

    size_t cap_;
    std::vector<Interval> iv_;  // sorted by start, and so by end
};

} // namespace diag

#endif // DIAG_COMMON_CALENDAR_HPP
