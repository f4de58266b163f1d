/**
 * @file
 * Set-associative cache timing model with per-bank contention. The model
 * tracks tags (true hit/miss behaviour, LRU replacement, write-back
 * dirty state) but not data: data always comes from the functional
 * memory image, so timing and functionality cannot diverge.
 */
#ifndef DIAG_MEM_CACHE_HPP
#define DIAG_MEM_CACHE_HPP

#include <memory>
#include <string>
#include <vector>

#include "common/calendar.hpp"
#include "common/stats.hpp"
#include "mem/params.hpp"
#include "trace/tracer.hpp"

namespace diag::mem
{

/** Outcome of a cache lookup. */
struct CacheLookup
{
    bool hit = false;
    Cycle grant = 0;  //!< when the bank accepted the access
    Cycle done = 0;   //!< when data is available (valid iff hit)
};

/** One cache level. */
class Cache
{
  public:
    /** Counts into @p stats under "<prefix>.<event>"; caches that
     *  share a prefix add up in one counter. */
    Cache(std::string name, const CacheParams &params, StatGroup &stats,
          const std::string &prefix);

    /**
     * Probe the cache at @p now. On a hit, `done` is the data-ready
     * cycle. On a miss the caller must consult the next level starting
     * at `grant + hit_latency` (tag-check time) and then call fill().
     */
    CacheLookup access(Addr addr, bool is_write, Cycle now);

    /**
     * Install the line containing @p addr (miss handling complete at
     * @p now). Returns true if a dirty line was evicted (write-back
     * traffic for the next level).
     */
    bool fill(Addr addr, bool is_write, Cycle now);

    /** Invalidate everything (used between benchmark runs). The
     *  counters belong to the owner's group, which clears them. */
    void reset();

    /**
     * Install the line containing @p addr without touching timing
     * state or statistics (benchmark cache warming).
     */
    void warmFill(Addr addr) { fillQuiet(addr); }

    /**
     * Flip bit @p bit of one way's stored tag (fault injection). The
     * way is picked as @p pick modulo the tag array size. Data always
     * comes from the functional image, so a corrupted tag perturbs
     * timing (spurious hits/misses), never values. Returns a one-line
     * description of what was hit.
     */
    std::string corruptWay(u64 pick, unsigned bit);

    const CacheParams &params() const { return params_; }

    /** Attach (or detach with nullptr) a tracer: bank-conflict events
     *  are emitted from access(); one null check when detached. */
    void setTracer(trace::Tracer *t) { tracer_ = t; }

  private:
    /** No member initializers: the way array is left uninitialized
     *  and each set is zeroed on its first touch (setBase). */
    struct Way
    {
        u32 tag;
        bool valid;
        bool dirty;
        u64 last_use;
    };

    void fillQuiet(Addr addr);

    /**
     * First way of @p set. A set untouched since construction or the
     * last reset() is zeroed (all ways invalid) here first, so neither
     * construction nor reset walks the whole tag array: the 4 MB L2
     * holds 1 MiB of ways, and a run touches a fraction of them.
     */
    Way *setBase(u32 set);

    u32 setIndex(Addr addr) const;
    u32 tagOf(Addr addr) const;
    u32 bankOf(Addr addr) const;

    std::string name_;
    CacheParams params_;
    u32 num_sets_;
    size_t num_ways_;                  // num_sets * assoc
    std::unique_ptr<Way[]> ways_;      // valid per set, see setBase
    std::vector<u32> set_epoch_;       // epoch_ at each set's zeroing
    u32 epoch_ = 1;                    // bumped by reset()
    std::vector<BusyCalendar> bank_busy_;  // per bank
    u64 use_counter_ = 0;
    // Lazy-bound counter handles for the per-access hot path.
    StatCounter st_bank_conflict_cycles_;
    StatCounter st_reads_;
    StatCounter st_writes_;
    StatCounter st_hits_;
    StatCounter st_misses_;
    StatCounter st_writebacks_;
    StatCounter st_fills_;
    trace::Tracer *tracer_ = nullptr;  //!< null = tracing off
};

} // namespace diag::mem

#endif // DIAG_MEM_CACHE_HPP
