/**
 * @file
 * The benchmark's three workloads. Each one times its set-up, runs
 * untraced passes for the measuring budget (half of it when tracing),
 * then, with Options::trace, traced passes for the other half, and
 * returns every metric it can measure plus per-operation correctness
 * counts. README.md in this directory says why each workload exists.
 */
#ifndef SUITEBENCH_WORKLOADS_HPP
#define SUITEBENCH_WORKLOADS_HPP

#include <vector>

#include "common.hpp"
#include "serve/request.hpp"

namespace suitebench
{

/** Fig. 9a + Fig. 10a single-thread matrix through harness::runMatrix
 *  and validateBoundMany on two host jobs. */
Outcome runFigureSweep(const Options &opt);

/** Every bundled workload on DiAG (serial, simt, MT, MT+SIMT), one
 *  request at a time on one host thread. */
Outcome runDiagSuite(const Options &opt);

/** Closed loop of two synchronous clients against an in-process
 *  serve::SimService with two workers and its result cache. */
Outcome runServeMix(const Options &opt);

/** The serve-mix request sequence for @p seed (one epoch). */
std::vector<diag::serve::SimRequest> serveMixRequests(u64 seed);

/** Host jobs of the figure sweep and workers/clients of serve-mix. */
inline constexpr unsigned kHostJobs = 2;

} // namespace suitebench

#endif // SUITEBENCH_WORKLOADS_HPP
