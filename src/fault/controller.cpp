#include "fault/controller.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace diag::fault
{

namespace
{

/** Per-event lifecycle. */
enum : u8
{
    kPending = 0, //!< trigger not reached yet
    kArmed = 1,   //!< waiting for a matching per-instruction hook
    kSpent = 2,   //!< applied (one-shot events never re-fire)
};

} // namespace

FaultController::FaultController(FaultPlan plan,
                                 const DetectConfig &detect)
    : plan_(std::move(plan)), detect_(detect),
      events_(plan_.events.size()), status_(plan_.events.size(),
                                            kPending)
{}

void
FaultController::onBoundary(core::LaneFile &regs,
                            sim::StoreTracker &mem_lanes,
                            SparseMemory &mem, mem::MemHierarchy &mh,
                            u64 retired)
{
    for (size_t i = 0; i < plan_.events.size(); ++i) {
        if (status_[i] != kPending)
            continue;
        if (retired < plan_.events[i].trigger)
            continue;
        applyBoundaryEvent(i, regs, mem_lanes, mem, mh);
    }
}

void
FaultController::applyBoundaryEvent(size_t idx, core::LaneFile &regs,
                                    sim::StoreTracker &mem_lanes,
                                    SparseMemory &mem,
                                    mem::MemHierarchy &mh)
{
    const FaultEvent &ev = plan_.events[idx];
    EventLog &log = events_[idx];
    switch (ev.site) {
      case FaultSite::RegLaneValue:
        // Flip the value latch but not the stored parity bit: the
        // mismatch is exactly what the parity sweep detects.
        regs[ev.lane].value ^= 1u << ev.bit;
        log.note = detail::vformat("lane x%u value bit %u flipped",
                                   ev.lane, ev.bit);
        break;
      case FaultSite::RegLaneTiming:
        regs.setReady(ev.lane,
                      regs.ready(ev.lane) ^ (Cycle{1} << (ev.bit % 24)));
        log.note = detail::vformat("lane x%u ready bit %u flipped",
                                   ev.lane, ev.bit % 24);
        break;
      case FaultSite::PeResult:
      case FaultSite::PeStuck:
        status_[idx] = kArmed;
        pe_armed_ = true;
        return; // fires later, through onPeResult()
      case FaultSite::MemLaneEntry: {
        const size_t n = mem_lanes.entries().size();
        if (n == 0)
            return; // CAM empty this boundary; retry at the next one
        const Addr now = mem_lanes.flipEntryAddr(ev.pick % n, ev.bit);
        log.note = detail::vformat(
            "mem-lane entry %llu addr bit %u flipped (now 0x%x)",
            static_cast<unsigned long long>(ev.pick % n), ev.bit, now);
        break;
      }
      case FaultSite::MemData: {
        // Deterministic target pick: sorted resident-page list (the
        // underlying map iterates in unspecified order).
        std::vector<Addr> pages;
        mem.forEachPage([&](Addr base) { pages.push_back(base); });
        if (pages.empty())
            return;
        std::sort(pages.begin(), pages.end());
        const Addr base = pages[ev.pick % pages.size()];
        const Addr addr =
            base + static_cast<Addr>((ev.pick / pages.size()) %
                                     SparseMemory::kPageSize);
        const u8 old = mem.read8(addr);
        mem.write8(addr, static_cast<u8>(old ^ (1u << (ev.bit % 8))));
        log.note = detail::vformat(
            "memory byte [0x%x] bit %u flipped (0x%02x -> 0x%02x)",
            addr, ev.bit % 8, old, old ^ (1u << (ev.bit % 8)));
        break;
      }
      case FaultSite::CacheTag: {
        mem::Cache &victim = (ev.pick & 1) ? mh.l2() : mh.l1d(0);
        log.note = victim.corruptWay(ev.pick >> 1, ev.bit);
        break;
      }
      case FaultSite::Count:
        panic("invalid fault site");
    }
    status_[idx] = kSpent;
    log.fired = true;
    ++tally_.injected;
}

void
FaultController::applyPeFault(unsigned cluster, unsigned pe, u32 &value)
{
    bool any_armed = false;
    for (size_t i = 0; i < plan_.events.size(); ++i) {
        if (status_[i] != kArmed)
            continue;
        const FaultEvent &ev = plan_.events[i];
        if (ev.site == FaultSite::PeResult) {
            // Transient upset on whichever PE produces the next result.
            value ^= 1u << ev.bit;
            status_[i] = kSpent;
            events_[i].fired = true;
            events_[i].note = detail::vformat(
                "PE cl%u/%u result bit %u flipped", cluster, pe,
                ev.bit);
            ++tally_.injected;
            continue;
        }
        // PeStuck: permanent — stays armed, overrides every result the
        // dead PE produces from its trigger onward.
        if (ev.cluster == cluster && ev.pe == pe) {
            value = ev.stuck_value;
            if (!events_[i].fired) {
                events_[i].fired = true;
                events_[i].note = detail::vformat(
                    "PE cl%u/%u stuck at 0x%x", cluster, pe,
                    ev.stuck_value);
                ++tally_.injected;
            }
        }
        any_armed = true;
    }
    pe_armed_ = any_armed;
}

int
FaultController::paritySweep(const core::LaneFile &regs) const
{
    for (unsigned r = 1; r < regs.size(); ++r) {
        if (core::laneParity(regs[r].value) != regs[r].parity)
            return static_cast<int>(r);
    }
    return -1;
}

bool
FaultController::strike(unsigned cluster)
{
    if (cluster >= strikes_.size())
        strikes_.resize(cluster + 1, 0);
    return ++strikes_[cluster] == detect_.strikes_to_disable;
}

bool
FaultController::allFired() const
{
    for (const EventLog &log : events_) {
        if (!log.fired)
            return false;
    }
    return true;
}

} // namespace diag::fault
