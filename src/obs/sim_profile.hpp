/**
 * @file
 * Simulator self-profiling counters for the skip-idle scheduler
 * (DESIGN.md §15/§16): how many activations the serial control unit
 * stepped, how many retired through simt pipeline dispatch, and how
 * many simt regions resolved their trip count in closed form.
 *
 * Header-only on purpose: diag_core does not link diag_trace or
 * diag_obs, so the hook type it stores a pointer to must be complete
 * from a header alone. The profile is plain u64 tallies with no
 * side effects on simulation state; attaching one never alters
 * cycles, counters, or traces (asserted by tests/obs/test_metrics.cpp
 * the same way the tracer's zero-overhead contract is).
 */
#ifndef DIAG_OBS_SIM_PROFILE_HPP
#define DIAG_OBS_SIM_PROFILE_HPP

#include "common/types.hpp"

namespace diag::obs
{

/**
 * Skip-idle fast-path coverage for one simulator run. All counters are
 * additive, so per-ring/per-worker profiles merge with merge().
 */
struct SimProfile {
    /// Activations stepped through the execution engine on the
    /// serial path (each engine.run call on the scalar pipeline).
    u64 dense_activations = 0;
    /// Activations retired via simt pipeline dispatch.
    u64 simt_activations = 0;
    /// simt regions resolved with the closed-form trip count...
    u64 simt_closed_form = 0;
    /// ...vs. walked iteratively (data-dependent trip).
    u64 simt_iterative = 0;

    void
    merge(const SimProfile &o)
    {
        dense_activations += o.dense_activations;
        simt_activations += o.simt_activations;
        simt_closed_form += o.simt_closed_form;
        simt_iterative += o.simt_iterative;
    }

    /** Always 0.0: the simulator has no loop batcher. Kept only
     *  because suitebench (suitebench/src/diag_suite.cpp) reads it
     *  for its `obs.batched_fraction` metric; no other code does. */
    double batchedFraction() const { return 0.0; }
};

} // namespace diag::obs

#endif // DIAG_OBS_SIM_PROFILE_HPP
