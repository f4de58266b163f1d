/**
 * @file
 * Register-lane state. A lane carries one architectural register's value
 * and valid timing through the PE row (paper §4.1). Lanes are buffered
 * every 8 PEs (§6.1.2), so a value produced in segment p reaches a
 * consumer in segment s >= p one cycle per lane buffer later: at
 * done - p + s. A lane therefore stores its timing seg-free, as
 * `ready` = done - p, the cycle the value would be valid at segment 0;
 * a consumer in segment s reads it at ready + s. Between activations
 * every lane sits at the cluster input latch, which behaves like
 * segment 0, so there the ready cycle is simply when the value is valid.
 *
 * Latch hand-overs delay every lane by the same amount: the cluster
 * output latch (last_seg cycles with seg-free timing) and the
 * inter-cluster latch. A LaneFile carries these as one shared bias, so
 * each hand-over is O(1) instead of a sweep over all 64 lanes.
 */
#ifndef DIAG_DIAG_LANES_HPP
#define DIAG_DIAG_LANES_HPP

#include <array>
#include <bit>

#include "common/types.hpp"
#include "isa/opcodes.hpp"

namespace diag::core
{

/** One register lane's value and validity timing (16 bytes). */
struct LaneState
{
    u32 value = 0;
    u8 parity = 0;   //!< even-parity bit over value (fault detection;
                     //!< maintained only when a FaultController has
                     //!< parity enabled)
    Cycle ready = 0; //!< cycle valid at segment 0 (see the file
                     //!< comment) minus the owning LaneFile's bias;
                     //!< read it through LaneFile::ready()
};
static_assert(sizeof(LaneState) == 16, "LaneFile copies stay ~1 KiB");

/**
 * All 64 lanes (x0..x31, f0..f31; x0 is never written) and the timing
 * bias they share. Lane r is valid at segment 0 at ready(r) =
 * (*this)[r].ready + bias; values and parity are read and written
 * through operator[] directly, timing through ready()/setReady().
 */
class LaneFile
{
  public:
    using Lanes = std::array<LaneState, isa::kNumRegs>;

    LaneState &operator[](size_t r) { return lanes_[r]; }
    const LaneState &operator[](size_t r) const { return lanes_[r]; }
    static constexpr size_t size() { return isa::kNumRegs; }

    /** Iterate the raw lanes (values, parity). */
    Lanes::iterator begin() { return lanes_.begin(); }
    Lanes::iterator end() { return lanes_.end(); }

    /** Cycle lane @p r is valid at segment 0. */
    Cycle ready(size_t r) const { return lanes_[r].ready + bias_; }

    /** Make lane @p r valid at segment 0 from cycle @p c. */
    void setReady(size_t r, Cycle c) { lanes_[r].ready = c - bias_; }

    /** The shared bias (added to every raw LaneState::ready). */
    Cycle bias() const { return bias_; }

    /** Delay every lane by @p d cycles (a latch hand-over): O(1). */
    void delay(Cycle d) { bias_ += d; }

    /** Every lane becomes valid at max(ready, @p floor) + @p d: the
     *  one hand-over that is not a uniform shift (a register-file
     *  transfer over the bus). Folds the bias into the lanes. */
    void
    clampThenDelay(Cycle floor, Cycle d)
    {
        for (LaneState &l : lanes_) {
            const Cycle r = l.ready + bias_;
            l.ready = (r > floor ? r : floor) + d;
        }
        bias_ = 0;
    }

  private:
    Lanes lanes_{};
    Cycle bias_ = 0;
};

/** Even-parity bit over a lane value. */
inline u8
laneParity(u32 value)
{
    return static_cast<u8>(std::popcount(value) & 1);
}

/** Recompute every lane's stored parity (thread start / recovery). */
inline void
refreshParity(LaneFile &regs)
{
    for (LaneState &lane : regs)
        lane.parity = laneParity(lane.value);
}

/**
 * Cycles for the PC lane to travel from segment @p from to segment
 * @p to (>= from): one cycle per lane buffer crossed.
 */
constexpr Cycle
laneDelay(int from, int to)
{
    return static_cast<Cycle>(to - from);
}

} // namespace diag::core

#endif // DIAG_DIAG_LANES_HPP
