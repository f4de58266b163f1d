/**
 * @file
 * Shared vocabulary of the real-suite benchmark: run options, the
 * metric catalogue (names and units, mirrored in BENCHMARK.json), the
 * outcome every workload returns, wall-clock helpers, order
 * statistics, host facts and the golden reference every workload
 * checks against.
 *
 * All timing is wall-clock (std::chrono::steady_clock) taken by the
 * benchmark's own code around calls into the simulator's public API.
 */
#ifndef SUITEBENCH_COMMON_HPP
#define SUITEBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace suitebench
{

using diag::u64;
using Clock = std::chrono::steady_clock;

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Directory the traced run writes its span file into. */
    std::string span_dir = ".bench_build/spans";
};

/** What a workload run returns for reporting. */
struct Outcome
{
    u64 attempted = 0; //!< operations issued (cells, runs, requests)
    u64 failed = 0;    //!< operations that failed a correctness check
    /** False when any exactness check failed (traced vs untraced
     *  counts, pass-to-pass determinism), even with failed == 0. */
    bool exact = true;
    std::map<std::string, double> end_to_end;
    std::map<std::string, double> per_layer;
    /** Human-readable descriptions of the first failures. */
    std::vector<std::string> problems;
    /** Human-readable context lines (raw pass times and the like). */
    std::vector<std::string> notes;

    /** Count one operation; @p ok false marks it failed. */
    void op(bool ok, const std::string &what);
    /** Record an exactness mismatch. */
    void inexact(const std::string &what);
    void note(const std::string &line) { notes.push_back(line); }
};

/** Metric catalogue: name and unit, in report order. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};
const std::vector<MetricSpec> &endToEndMetrics();
const std::vector<MetricSpec> &perLayerMetrics();

// ---- timing and order statistics ----

/** Seconds between two steady-clock points. */
inline double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Median (mean of the two middle values for even counts). */
double median(std::vector<double> v);

/** Nearest-rank percentile, @p pct in (0, 100]. */
double percentile(std::vector<double> v, double pct);

/**
 * Each operation's times over a run's repetitions of it, summarised by
 * their median. The end-to-end metrics are computed from these
 * per-operation medians, after SpeedProbe calibration.
 */
class OpTimes
{
  public:
    explicit OpTimes(size_t ops) : times_(ops) {}

    void record(size_t op, double s) { times_[op].push_back(s); }

    /** Median time of each operation. */
    std::vector<double>
    medians() const
    {
        std::vector<double> m;
        for (const std::vector<double> &t : times_)
            m.push_back(median(t));
        return m;
    }

    /** A pass at every operation's median time. */
    double
    sum() const
    {
        double t = 0;
        for (double m : medians())
            t += m;
        return t;
    }

  private:
    std::vector<std::vector<double>> times_;
};

/**
 * Host speed probe: times a fixed reference kernel (a pointer chase, a
 * branchy scan and a sort over a few hundred KiB, about a millisecond)
 * that is part of this benchmark and shares no code with the
 * simulator.
 *
 * The host this benchmark was built on drifts in speed by up to a
 * third over minutes. So each pass (or serve-mix epoch) samples the
 * kernel between its operations, and the pass's times are scaled by
 * kReferenceKernelSeconds / (median kernel time in that pass): the
 * time the pass would have taken on the same host running the kernel
 * in 1 ms. The median keeps one unlucky sample from rescaling a pass.
 * README.md has the measurements.
 */
class SpeedProbe
{
  public:
    static constexpr double kReferenceKernelSeconds = 1e-3;

    /** Time the kernel @p runs times. */
    void sample(unsigned runs = 1);

    /** Scale factor for the operations timed since the last call,
     *  from the samples taken since then. */
    double scale();

  private:
    std::vector<double> samples_;
};

/** Set-up repetitions behind the reported setup_s median. */
inline constexpr unsigned kSetupReps = 9;

/**
 * Call @p pass until @p budget_s seconds of wall time have gone by
 * (at least once). Returns the number of passes.
 */
unsigned repeatFor(double budget_s, const std::function<void()> &pass);

// ---- host facts ----

/** Peak resident set of this process, MiB. */
double peakRssMb();

/** Host facts recorded beside every result (one JSON object). */
std::string hostFactsJson();

// ---- golden reference ----

/** The golden model's view of every bundled workload (serial run). */
struct GoldenRef
{
    std::map<std::string, u64> insts; //!< serial retired instructions
    double inst_per_s = 0;            //!< summed insts / summed run time
    std::vector<std::string> problems; //!< runs that failed to check
};

/** Run every bundled workload once on sim::GoldenSim. */
GoldenRef goldenReference();

/**
 * The benchmark's set-up, done kSetupReps times: the golden reference
 * run of every workload, then @p prepare (the workload's own set-up:
 * suites, cell or request lists, service). Stores the median time as
 * setup_s and the median golden rate as sim.golden_inst_per_s in
 * @p out, fills @p golden, and returns the last repetition's
 * prepare() result.
 */
template <class Prepare>
auto
setUp(Outcome &out, GoldenRef &golden, Prepare prepare)
{
    std::vector<double> times;
    std::vector<double> golden_rates;
    decltype(prepare()) prepared{};
    for (unsigned i = 0; i < kSetupReps; ++i) {
        const auto t0 = Clock::now();
        golden = goldenReference();
        prepared = prepare();
        times.push_back(seconds(t0, Clock::now()));
        golden_rates.push_back(golden.inst_per_s);
    }
    out.end_to_end["setup_s"] = median(times);
    out.per_layer["sim.golden_inst_per_s"] = median(golden_rates);
    for (const std::string &p : golden.problems)
        out.inexact(p);
    return prepared;
}

} // namespace suitebench

#endif // SUITEBENCH_COMMON_HPP
