/**
 * @file
 * One engine run replayed through the simulator's public calls, in
 * the order harness::runOnDiag / runOnOoo make them:
 *
 *   assembler::assemble -> analysis::lintProgram -> processor
 *   constructor -> loadProgram -> Workload::init -> warmCaches ->
 *   runThreads -> Workload::check -> energy report
 *
 * with a span around each call when a SpanLog is given. The sweeps'
 * traced runs and every diag-suite request go through here.
 */
#ifndef SUITEBENCH_REPLAY_HPP
#define SUITEBENCH_REPLAY_HPP

#include "diag/config.hpp"
#include "obs/sim_profile.hpp"
#include "ooo/config.hpp"
#include "spans.hpp"
#include "workloads/workload.hpp"

namespace suitebench
{

/** Variant labels of engine-run spans (the per-layer rate classes). */
inline constexpr const char *kSerialF4C2 = "serial/F4C2";
inline constexpr const char *kSerialF4C16 = "serial/F4C16";
inline constexpr const char *kSerialF4C32 = "serial/F4C32";
inline constexpr const char *kSimtF4C16 = "simt/F4C16";
inline constexpr const char *kMt = "mt";
inline constexpr const char *kMtSimt = "mt_simt";
inline constexpr const char *kOoo = "ooo";

/** What to run. */
struct EngineJob
{
    bool on_diag = true;
    diag::core::DiagConfig diag_cfg;
    diag::ooo::OooConfig ooo_cfg;
    unsigned threads = 1; //!< software threads before partitionability
    bool simt = false;
    /** Rate label recorded on the simulate span (one of the k*
     *  labels above). */
    const char *variant = kSerialF4C16;
};

/** What came back. */
struct EngineOutcome
{
    bool lint_ok = false;
    bool halted = false;
    bool checked = false;
    unsigned threads = 1; //!< effective software threads
    bool simt = false;
    u64 insts = 0;
    u64 cycles = 0;
    double l1_loads = 0;
    double l2_loads = 0;
    double dram_loads = 0;
    /** Store-to-load forwards: the OoO core's stl_forwards plus the
     *  DiAG memory lanes' memlane_fwd. */
    double stl_forwards = 0;

    /** True when the run is a plain serial one that must retire
     *  exactly the golden model's instruction count. */
    bool
    serial() const
    {
        return threads == 1 && !simt;
    }
};

/** Exact simulated totals over a set of engine runs. */
struct ExactCounts
{
    double diag_cycles = 0;
    double diag_insts = 0;
    double ooo_cycles = 0;
    double l1_loads = 0;
    double l2_loads = 0;
    double dram_loads = 0;
    double stl_forwards = 0;

    void add(const EngineOutcome &o, bool on_diag);
    /** Store as the diag.*, ooo.* and mem.* per-layer metrics. */
    void report(std::map<std::string, double> &per_layer) const;
};

/**
 * Store the per-layer times and rates that spans give: mean self time
 * per call of each layer, DiAG/OoO inst/s per variant, and DiAG host
 * ns per simulated cycle. Layers absent from @p log read 0.
 */
void reportSpanLayers(const SpanLog &log,
                      std::map<std::string, double> &per_layer);

/**
 * Run @p job on @p w. @p log (may be null) receives the spans, all
 * tagged with @p group. @p profile (may be null, DiAG only) is
 * attached for the run through DiagProcessor::attachObs.
 */
EngineOutcome replayRun(const diag::workloads::Workload &w,
                        const EngineJob &job, SpanLog *log, u64 group,
                        diag::obs::SimProfile *profile = nullptr);

} // namespace suitebench

#endif // SUITEBENCH_REPLAY_HPP
