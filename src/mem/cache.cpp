#include "mem/cache.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/log.hpp"

namespace diag::mem
{

Cache::Cache(std::string name, const CacheParams &params, StatGroup &stats,
             const std::string &prefix)
    : name_(std::move(name)), params_(params),
      st_bank_conflict_cycles_(stats, prefix + ".bank_conflict_cycles"),
      st_reads_(stats, prefix + ".reads"),
      st_writes_(stats, prefix + ".writes"),
      st_hits_(stats, prefix + ".hits"),
      st_misses_(stats, prefix + ".misses"),
      st_writebacks_(stats, prefix + ".writebacks"),
      st_fills_(stats, prefix + ".fills")
{
    fatal_if(!isPow2(params_.line_bytes), "%s: line size not power of 2",
             name_.c_str());
    fatal_if(params_.assoc == 0, "%s: zero associativity", name_.c_str());
    num_sets_ = params_.size_bytes / (params_.line_bytes * params_.assoc);
    fatal_if(num_sets_ == 0 || !isPow2(num_sets_),
             "%s: set count %u must be a nonzero power of 2",
             name_.c_str(), num_sets_);
    fatal_if(!isPow2(params_.banks), "%s: bank count not power of 2",
             name_.c_str());
    num_ways_ = static_cast<size_t>(num_sets_) * params_.assoc;
    ways_ = std::make_unique_for_overwrite<Way[]>(num_ways_);
    set_epoch_.assign(num_sets_, 0);
    bank_busy_.assign(params_.banks, BusyCalendar{});
}

Cache::Way *
Cache::setBase(u32 set)
{
    Way *base = &ways_[static_cast<size_t>(set) * params_.assoc];
    if (set_epoch_[set] != epoch_) {
        std::fill(base, base + params_.assoc, Way{});
        set_epoch_[set] = epoch_;
    }
    return base;
}

u32
Cache::setIndex(Addr addr) const
{
    return (addr / params_.line_bytes) & (num_sets_ - 1);
}

u32
Cache::tagOf(Addr addr) const
{
    return addr / params_.line_bytes / num_sets_;
}

u32
Cache::bankOf(Addr addr) const
{
    // Word-interleaved banking (8-byte grain): accesses to different
    // words of the same line proceed in parallel, as in real L1s.
    return (addr / 8) & (params_.banks - 1);
}

CacheLookup
Cache::access(Addr addr, bool is_write, Cycle now)
{
    CacheLookup res;
    const u32 bank = bankOf(addr);
    res.grant = bank_busy_[bank].reserve(now, params_.bank_occupancy);
    if (res.grant > now) {
        st_bank_conflict_cycles_.inc(
            static_cast<double>(res.grant - now));
        if (tracer_)
            tracer_->bankConflict(static_cast<u16>(bank), addr, now,
                                  res.grant - now);
    }
    if (is_write)
        st_writes_.inc();
    else
        st_reads_.inc();

    const u32 set = setIndex(addr);
    const u32 tag = tagOf(addr);
    Way *base = setBase(set);
    for (u32 w = 0; w < params_.assoc; ++w) {
        Way &way = base[w];
        if (way.valid && way.tag == tag) {
            way.last_use = ++use_counter_;
            if (is_write)
                way.dirty = true;
            res.hit = true;
            res.done = res.grant + params_.hit_latency;
            st_hits_.inc();
            return res;
        }
    }
    st_misses_.inc();
    return res;
}

void
Cache::fillQuiet(Addr addr)
{
    const u32 set = setIndex(addr);
    const u32 tag = tagOf(addr);
    Way *base = setBase(set);
    Way *victim = base;
    for (u32 w = 0; w < params_.assoc; ++w) {
        Way &way = base[w];
        if (way.valid && way.tag == tag)
            return;  // already resident
        if (!way.valid) {
            victim = &way;
            break;
        }
        if (way.last_use < victim->last_use)
            victim = &way;
    }
    victim->valid = true;
    victim->tag = tag;
    victim->dirty = false;
    victim->last_use = ++use_counter_;
}

bool
Cache::fill(Addr addr, bool is_write, Cycle)
{
    const u32 set = setIndex(addr);
    const u32 tag = tagOf(addr);
    Way *base = setBase(set);
    Way *victim = base;
    for (u32 w = 0; w < params_.assoc; ++w) {
        Way &way = base[w];
        if (!way.valid) {
            victim = &way;
            break;
        }
        if (way.last_use < victim->last_use)
            victim = &way;
    }
    const bool writeback = victim->valid && victim->dirty;
    if (writeback)
        st_writebacks_.inc();
    victim->valid = true;
    victim->tag = tag;
    victim->dirty = is_write;
    victim->last_use = ++use_counter_;
    st_fills_.inc();
    return writeback;
}

std::string
Cache::corruptWay(u64 pick, unsigned bit)
{
    const size_t idx = static_cast<size_t>(pick % num_ways_);
    Way &way = setBase(static_cast<u32>(idx / params_.assoc))
        [idx % params_.assoc];
    way.tag ^= 1u << (bit % 32);
    return detail::vformat("%s way %zu tag bit %u flipped%s",
                           name_.c_str(), idx, bit % 32,
                           way.valid ? "" : " (way was invalid)");
}

void
Cache::reset()
{
    if (++epoch_ == 0) {  // wrapped: no stamp may match a past epoch
        std::fill(set_epoch_.begin(), set_epoch_.end(), 0);
        epoch_ = 1;
    }
    for (BusyCalendar &bank : bank_busy_)
        bank.clear();
    use_counter_ = 0;
}

} // namespace diag::mem
