/**
 * @file
 * Occupancy model of a shared on-chip bus. DiAG uses one 512-bit bus per
 * processor for both I-cache line delivery and partial-register-file
 * transfers between non-adjacent clusters (paper §5.1.3); contention on
 * it is one source of the "other stalls" in §7.3.2.
 */
#ifndef DIAG_MEM_BUS_HPP
#define DIAG_MEM_BUS_HPP

#include "common/calendar.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace diag::mem
{

/** Single-requester-at-a-time bus with FCFS arbitration. */
class Bus
{
  public:
    /** Counts into @p stats as bus_transfers and bus_wait_cycles. */
    explicit Bus(StatGroup &stats)
        : st_transfers_(stats, "bus_transfers"),
          st_wait_cycles_(stats, "bus_wait_cycles")
    {}

    /**
     * Request the bus at @p now for @p occupancy cycles. Returns the
     * grant cycle; the transfer completes at grant + occupancy.
     */
    Cycle
    request(Cycle now, Cycle occupancy)
    {
        const Cycle grant = calendar_.reserve(now, occupancy);
        st_transfers_.inc();
        if (grant > now)
            st_wait_cycles_.inc(static_cast<double>(grant - now));
        return grant;
    }

    /** True iff a request granted at @p now would have to wait. */
    bool busyAt(Cycle now) const { return calendar_.busyAt(now); }

    void reset() { calendar_.clear(); }

  private:
    BusyCalendar calendar_;
    // Lazy-bound counter handles for the per-request hot path.
    StatCounter st_transfers_;
    StatCounter st_wait_cycles_;
};

} // namespace diag::mem

#endif // DIAG_MEM_BUS_HPP
