/**
 * @file
 * Lightweight named-statistics registry. Each processor owns one
 * StatGroup and every component it is built from (rings, cores,
 * caches, DRAM, bus) counts into it; the harness and benches walk the
 * group to render tables or feed the energy model. Per-event sites
 * increment through StatCounter handles bound once; string keys are
 * for rare events and keys built at run time.
 */
#ifndef DIAG_COMMON_STATS_HPP
#define DIAG_COMMON_STATS_HPP

#include <map>
#include <ostream>
#include <string>

#include "common/types.hpp"

namespace diag
{

/**
 * Byte-stable JSON number: counters are mostly exact integral counts,
 * which render without a fraction; anything else uses %.12g (enough
 * digits that equal doubles render equal bytes, and unequal ones
 * almost surely do not). Shared by StatGroup::dumpJson and the obs
 * metrics registry so every JSON artifact renders numbers identically.
 */
std::string jsonNumber(double v);

/**
 * Escape a string for embedding in a JSON document. Counter keys are
 * ASCII identifiers, but escape defensively so a hostile key cannot
 * break the document.
 */
std::string jsonEscape(const std::string &s);

/**
 * A flat collection of named double-valued statistics. Counters default
 * to zero; reading a missing counter returns zero so consumers do not
 * need to know the full set in advance.
 *
 * Concurrency contract (host execution layer, DESIGN.md §10): a
 * StatGroup is deliberately unsynchronized — inc() sits on the
 * simulators' per-event hot path where a mutex or atomic would
 * dominate the cost. Every group must therefore stay confined to the
 * host worker that owns its simulator instance; results cross workers
 * only as copies, after the owning task completes. There are no
 * process-global StatGroups.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = "stats") : name_(std::move(name))
    {}

    /** Group name used as a prefix when dumping. */
    const std::string &name() const { return name_; }

    /** Add @p delta (default 1) to the counter @p key. */
    void
    inc(const std::string &key, double delta = 1.0)
    {
        values_[key] += delta;
    }

    /** Overwrite the counter @p key. */
    void
    set(const std::string &key, double value)
    {
        values_[key] = value;
    }

    /** Read a counter; missing keys read as zero. */
    double
    get(const std::string &key) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? 0.0 : it->second;
    }

    /** True iff the counter was ever written. */
    bool
    has(const std::string &key) const
    {
        return values_.find(key) != values_.end();
    }

    /**
     * Reset the group between runs: the key set itself is dropped
     * (has() turns false), so a reused group reports exactly the keys
     * a fresh one would and leaks no per-PC counters such as
     * simt_region_* from one program into the next. Dropping the key
     * set destroys the map nodes, so the epoch advances and every
     * cached StatCounter handle re-binds on its next use.
     */
    void
    clear()
    {
        values_.clear();
        ++epoch_;
    }

    /** All (key, value) pairs, sorted by key. */
    const std::map<std::string, double> &all() const { return values_; }

    /**
     * Stable address of the counter @p key, creating it (at zero) if
     * absent. std::map nodes never move, so the pointer stays valid
     * for the group's lifetime or until clear() drops the key set —
     * which is what epoch() lets StatCounter detect.
     */
    double *slot(const std::string &key) { return &values_[key]; }

    /** Generation of the key set; advanced by clear(). */
    u64 epoch() const { return epoch_; }

    /**
     * Machine-readable dump: one JSON object with the group name and a
     * key-sorted "counters" object. Byte-stable — the same counters
     * always render the same bytes (std::map iteration order plus a
     * fixed number format: integers without a fraction, everything
     * else with %.12g), so golden-file diffs and artifact comparisons
     * across runs are exact.
     */
    void dumpJson(std::ostream &os) const;

  private:
    std::string name_;
    std::map<std::string, double> values_;
    u64 epoch_ = 1;
};

/**
 * Cached handle to one StatGroup counter for per-event hot paths. Every
 * counter incremented once per simulated instruction, activation or
 * memory access uses one, declared as a member next to the group
 * reference (the gem5 Stats::Scalar idiom).
 *
 * Handle contract:
 * - inc() is an always-inline epoch compare plus a double add once
 *   bound; the string key is touched only by the out-of-line cold
 *   rebind() (first use, and after the group dropped its key set), so
 *   no per-event call builds a std::string or walks the map.
 * - The binding is lazy: the key is created in the group on the first
 *   inc(), never before, so "a counter exists iff it was ever
 *   incremented" (and with it the byte-stable dumpJson key set) holds
 *   exactly as with StatGroup::inc. read() never creates the key.
 * - StatGroup::clear() advances the group's epoch; every handle
 *   re-binds on its next inc() and counts from zero.
 * - Several handles may name one key; their increments add up in the
 *   one map slot (the per-port L1s of one level share "l1d.*").
 */
class StatCounter
{
  public:
    StatCounter(StatGroup &group, std::string key)
        : group_(&group), key_(std::move(key))
    {}

    /** Add @p delta (default 1) to the bound counter. */
    [[gnu::always_inline]] void
    inc(double delta = 1.0)
    {
        if (epoch_ != group_->epoch()) [[unlikely]]
            rebind();
        *slot_ += delta;
    }

    /** Current value; does not create the key when never incremented. */
    double
    read() const
    {
        if (epoch_ == group_->epoch())
            return *slot_;
        return group_->get(key_);
    }

  private:
    /** Bind to the group's (possibly new) slot for the key. */
    [[gnu::noinline, gnu::cold]] void rebind();

    StatGroup *group_;
    double *slot_ = nullptr;
    u64 epoch_ = 0;  //!< 0 never matches a live group epoch (>= 1)
    std::string key_;  //!< read only by rebind() and unbound read()
};

} // namespace diag

#endif // DIAG_COMMON_STATS_HPP
