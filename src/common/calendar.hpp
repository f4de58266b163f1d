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
        if (i == size())  // the usual case: later than every reservation
            iv_.push_back({t, t + occupancy});
        else
            iv_.insert(iv_.begin() + static_cast<long>(head_ + i),
                       {t, t + occupancy});
        if (size() > cap_) {
            // Forget the oldest reservation. The dead prefix is
            // compacted once it reaches cap_ entries, so dropping costs
            // amortized O(1) instead of a memmove per reservation.
            if (++head_ >= cap_) {
                iv_.erase(iv_.begin(),
                          iv_.begin() + static_cast<long>(head_));
                head_ = 0;
            }
        }
        return t;
    }

    /** True iff some reservation covers cycle @p t. */
    bool
    busyAt(Cycle t) const
    {
        const size_t i = firstEndingAfter(t);
        return i < size() && live(i).start <= t;
    }

    void
    clear()
    {
        iv_.clear();
        head_ = 0;
    }

    size_t size() const { return iv_.size() - head_; }

  private:
    struct Interval
    {
        Cycle start;
        Cycle end;
    };

    /** The @p i-th live (not yet forgotten) reservation. */
    const Interval &live(size_t i) const { return iv_[head_ + i]; }

    /**
     * Index (among the live reservations) of the first interval ending
     * after @p t. The intervals are disjoint and sorted by start, so
     * their ends are sorted as well (zero-length ones included) and a
     * search finds it. Requests land near the newest reservation, in
     * order or a little out of it, so the search gallops back from the
     * end (1, 2, 4, ... entries) to bracket the answer and then binary
     * searches the bracket: O(1) for an in-order request, O(log d) for
     * one d entries back.
     */
    size_t
    firstEndingAfter(Cycle t) const
    {
        if (iv_.empty() || iv_.back().end <= t)
            return size();  // in order: after every reservation
        size_t lo = 0;           // every interval before lo ends by t
        size_t hi = size() - 1;  // interval hi ends after t
        for (size_t step = 1; hi > 0; step <<= 1) {
            const size_t probe = hi > step ? hi - step : 0;
            if (live(probe).end <= t) {
                lo = probe + 1;
                break;
            }
            hi = probe;
        }
        const auto first = iv_.begin() + static_cast<long>(head_);
        return static_cast<size_t>(
            std::partition_point(
                first + static_cast<long>(lo),
                first + static_cast<long>(hi),
                [t](const Interval &iv) { return iv.end <= t; }) -
            first);
    }

    /**
     * Advance @p t to the first gap of @p occupancy cycles at or after
     * it and return the index of the interval the gap precedes.
     */
    size_t
    firstGap(Cycle &t, Cycle occupancy) const
    {
        size_t i = firstEndingAfter(t);
        while (i < size()) {
            if (t + occupancy <= live(i).start)
                break;  // the gap before interval i fits
            t = std::max(t, live(i).end);
            ++i;
        }
        return i;
    }

    size_t cap_;
    size_t head_ = 0;           //!< forgotten prefix of iv_
    std::vector<Interval> iv_;  // sorted by start, and so by end
};

} // namespace diag

#endif // DIAG_COMMON_CALENDAR_HPP
