/**
 * @file
 * figure-sweep: the Fig. 9a (Rodinia) and Fig. 10a (SPEC)
 * single-thread matrices, built and run the way
 * bench/fig_common.hpp's relPerfSingleThread builds and runs them:
 * every workload on OoO baseline8 and DiAG F4C2/F4C16/F4C32, plus
 * bound validation on F4C32, through harness::runMatrix and
 * harness::validateBoundMany on kHostJobs host jobs. One pass
 * regenerates both figures' data.
 *
 * The traced run replays each cell's runOnDiag/runOnOoo call
 * sequence through public calls (replay.hpp) on the same job count,
 * and times each bound validation as one harness.validate span.
 */
#include <cmath>
#include <memory>

#include "harness/runner.hpp"
#include "harness/table.hpp"
#include "harness/validate.hpp"
#include "host/parallel.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace suitebench
{

namespace
{

using diag::harness::BoundCell;
using diag::harness::EngineRun;
using diag::harness::MatrixCell;
using diag::harness::ValidationReport;

/** One figure's matrix. Cells point into `suite`, so a SuiteMatrix
 *  is built in place and never moved. */
struct SuiteMatrix
{
    std::vector<diag::workloads::Workload> suite;
    std::vector<MatrixCell> cells;
    std::vector<BoundCell> bounds;
    double paper_avg[3] = {}; //!< paper geomeans at 32/256/512 PEs
};

struct FigureSetup
{
    SuiteMatrix fig[2]; //!< Fig. 9a Rodinia, Fig. 10a SPEC
};

constexpr size_t kConfigs = 3;           // F4C2, F4C16, F4C32
constexpr size_t kStride = 1 + kConfigs; // baseline first per workload

void
buildMatrix(SuiteMatrix &m)
{
    const auto cfgs = diag::harness::diagSingleThreadConfigs();
    diag::harness::RunSpec spec{1, false};
    // Failed runs come back to be counted instead of ending the process.
    spec.tolerate_failures = true;
    for (const auto &w : m.suite) {
        MatrixCell c;
        c.w = &w;
        c.spec = spec;
        c.on_diag = false;
        c.ooo_cfg = diag::ooo::OooConfig::baseline8();
        m.cells.push_back(c);
        for (const auto &cfg : cfgs) {
            MatrixCell d;
            d.w = &w;
            d.spec = spec;
            d.diag_cfg = cfg;
            m.cells.push_back(d);
        }
        m.bounds.push_back({.cfg = cfgs.back(), .w = &w, .use_simt = false});
    }
}

std::unique_ptr<FigureSetup>
makeSetup()
{
    auto s = std::make_unique<FigureSetup>();
    s->fig[0].suite = diag::workloads::rodiniaSuite();
    s->fig[1].suite = diag::workloads::specSuite();
    const double paper[2][3] = {{0.91, 1.12, 1.12}, {0.81, 0.97, 0.97}};
    for (int f = 0; f < 2; ++f) {
        buildMatrix(s->fig[f]);
        for (size_t c = 0; c < kConfigs; ++c)
            s->fig[f].paper_avg[c] = paper[f][c];
    }
    return s;
}

const char *
serialLabel(const std::string &cfg_name)
{
    if (cfg_name == "F4C2")
        return kSerialF4C2;
    if (cfg_name == "F4C32")
        return kSerialF4C32;
    return kSerialF4C16;
}

/** A pass is four harness calls: each figure's runMatrix, then its
 *  validateBoundMany. These are the workload's timed operations. */
constexpr size_t kCalls = 4;

/** SpeedProbe samples taken at each call boundary. */
constexpr unsigned kProbeRuns = 5;

/** Results of one untraced pass. */
struct Pass
{
    std::vector<EngineRun> runs[2];
    std::vector<ValidationReport> reps[2];
    double call_s[kCalls] = {}; //!< calibrated (SpeedProbe)
    double wall_s = 0;
};

Pass
runPass(const FigureSetup &s)
{
    Pass p;
    const auto start = Clock::now();
    SpeedProbe probe;
    probe.sample(kProbeRuns);
    for (int f = 0; f < 2; ++f) {
        auto t0 = Clock::now();
        p.runs[f] = diag::harness::runMatrix(s.fig[f].cells, kHostJobs);
        p.call_s[2 * f] = seconds(t0, Clock::now());
        probe.sample(kProbeRuns);
        t0 = Clock::now();
        p.reps[f] =
            diag::harness::validateBoundMany(s.fig[f].bounds, kHostJobs);
        p.call_s[2 * f + 1] = seconds(t0, Clock::now());
        probe.sample(kProbeRuns);
    }
    p.wall_s = seconds(start, Clock::now());
    const double scale = probe.scale();
    for (double &c : p.call_s)
        c *= scale;
    return p;
}

/** Check every operation of @p p; returns its retired instructions. */
double
checkPass(const FigureSetup &s, const Pass &p, const GoldenRef &golden,
          Outcome &out)
{
    double insts = 0;
    for (int f = 0; f < 2; ++f) {
        const SuiteMatrix &m = s.fig[f];
        for (size_t i = 0; i < m.cells.size(); ++i) {
            const EngineRun &r = p.runs[f][i];
            const std::string &name = m.cells[i].w->name;
            const bool ok = r.stats.halted && r.checked &&
                            r.stats.instructions == golden.insts.at(name);
            out.op(ok, name + " on " +
                           (m.cells[i].on_diag ? m.cells[i].diag_cfg.name
                                               : std::string("baseline8")));
            insts += static_cast<double>(r.stats.instructions);
        }
        for (size_t b = 0; b < m.bounds.size(); ++b) {
            // validateBound runs the same serial F4C32 simulation as
            // the workload's last matrix cell.
            const EngineRun &same = p.runs[f][b * kStride + kConfigs];
            const ValidationReport &rep = p.reps[f][b];
            out.op(rep.ok() && rep.measured_cycles ==
                                   static_cast<double>(same.stats.cycles),
                   "bound validation of " + m.bounds[b].w->name);
            insts += static_cast<double>(same.stats.instructions);
        }
    }
    return insts;
}

/** Mean absolute relative error of the six geomeans, percent. */
double
paperErrPct(const FigureSetup &s, const Pass &p)
{
    double err = 0;
    for (int f = 0; f < 2; ++f) {
        const SuiteMatrix &m = s.fig[f];
        for (size_t c = 0; c < kConfigs; ++c) {
            std::vector<double> rels;
            for (size_t i = 0; i < m.suite.size(); ++i)
                rels.push_back(
                    static_cast<double>(p.runs[f][i * kStride].stats.cycles) /
                    static_cast<double>(
                        p.runs[f][i * kStride + 1 + c].stats.cycles));
            const double g = diag::harness::geomean(rels);
            err += std::abs(g - m.paper_avg[c]) / m.paper_avg[c];
        }
    }
    return err / (2 * kConfigs) * 100;
}

std::vector<double>
passCycles(const Pass &p)
{
    std::vector<double> c;
    for (int f = 0; f < 2; ++f) {
        for (const EngineRun &r : p.runs[f])
            c.push_back(static_cast<double>(r.stats.cycles));
        for (const ValidationReport &rep : p.reps[f])
            c.push_back(rep.measured_cycles);
    }
    return c;
}

/** One traced cell (matrix run or bound validation). */
struct TracedCell
{
    SpanLog log;
    EngineOutcome run;
    bool on_diag = false;
    bool is_bound = false;
    bool bound_ok = false;
    double cycles = 0; //!< simulated cycles of the run or validation
};

/** Results of one traced pass. */
struct TracedPass
{
    std::vector<TracedCell> cells; //!< in passCycles() order
    double call_s[kCalls] = {};
    double wall_s = 0;
};

/**
 * Replay every cell with spans, as four fan-outs on kHostJobs jobs
 * like runPass(). Checks each cell against golden and against
 * @p untraced_cycles.
 */
TracedPass
tracedPass(const FigureSetup &s, const std::vector<double> &untraced_cycles,
           const GoldenRef &golden, Outcome &out)
{
    TracedPass tp;
    std::vector<TracedCell> &all = tp.cells;
    const auto start = Clock::now();
    SpeedProbe probe;
    probe.sample(kProbeRuns);
    u64 group = 0;
    for (int f = 0; f < 2; ++f) {
        const SuiteMatrix &m = s.fig[f];
        const u64 base = group;
        auto t0 = Clock::now();
        auto cells = diag::host::parallelMap<TracedCell>(
            kHostJobs, m.cells.size(), [&m, base](size_t i) {
                const MatrixCell &c = m.cells[i];
                TracedCell t;
                t.on_diag = c.on_diag;
                EngineJob job;
                job.on_diag = c.on_diag;
                job.diag_cfg = c.diag_cfg;
                job.ooo_cfg = c.ooo_cfg;
                job.threads = c.spec.threads;
                job.variant = c.on_diag ? serialLabel(c.diag_cfg.name) : kOoo;
                ScopedSpan cell(&t.log, "harness.cell", base + i);
                t.run = replayRun(*c.w, job, &t.log, base + i);
                t.cycles = static_cast<double>(t.run.cycles);
                return t;
            });
        tp.call_s[2 * f] = seconds(t0, Clock::now());
        probe.sample(kProbeRuns);
        group += m.cells.size();
        const u64 bbase = group;
        t0 = Clock::now();
        auto bounds = diag::host::parallelMap<TracedCell>(
            kHostJobs, m.bounds.size(), [&m, bbase](size_t i) {
                const BoundCell &c = m.bounds[i];
                TracedCell t;
                t.is_bound = true;
                ScopedSpan cell(&t.log, "harness.cell", bbase + i);
                ScopedSpan v(&t.log, "harness.validate", bbase + i);
                const ValidationReport rep = diag::harness::validateBound(
                    c.cfg, *c.w, c.use_simt, c.slack);
                t.bound_ok = rep.ok();
                t.cycles = rep.measured_cycles;
                return t;
            });
        tp.call_s[2 * f + 1] = seconds(t0, Clock::now());
        probe.sample(kProbeRuns);
        group += m.bounds.size();
        for (size_t i = 0; i < cells.size(); ++i) {
            const TracedCell &t = cells[i];
            const std::string &name = m.cells[i].w->name;
            out.op(t.run.lint_ok && t.run.halted && t.run.checked &&
                       t.run.insts == golden.insts.at(name) &&
                       t.cycles == untraced_cycles[all.size()],
                   "traced " + name + " cell " + std::to_string(i));
            all.push_back(std::move(cells[i]));
        }
        for (size_t i = 0; i < bounds.size(); ++i) {
            out.op(bounds[i].bound_ok &&
                       bounds[i].cycles == untraced_cycles[all.size()],
                   "traced bound validation of " + m.bounds[i].w->name);
            all.push_back(std::move(bounds[i]));
        }
    }
    tp.wall_s = seconds(start, Clock::now());
    const double scale = probe.scale();
    for (double &c : tp.call_s)
        c *= scale;
    return tp;
}

} // namespace

Outcome
runFigureSweep(const Options &opt)
{
    Outcome out;
    GoldenRef golden;
    const auto setup = setUp(out, golden, makeSetup);

    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    OpTimes calls(kCalls);
    std::vector<double> walls;
    std::vector<double> first_cycles;
    double insts_per_pass = 0;
    double ops_per_pass = 0;
    repeatFor(budget, [&] {
        const Pass p = runPass(*setup);
        const u64 before = out.attempted;
        insts_per_pass = checkPass(*setup, p, golden, out);
        ops_per_pass = static_cast<double>(out.attempted - before);
        for (size_t k = 0; k < kCalls; ++k)
            calls.record(k, p.call_s[k]);
        walls.push_back(p.wall_s);
        const std::vector<double> cycles = passCycles(p);
        if (first_cycles.empty()) {
            first_cycles = cycles;
            out.per_layer["model.paper_err_pct"] = paperErrPct(*setup, p);
        } else if (cycles != first_cycles) {
            out.inexact("figure-sweep cycles differ between passes");
        }
    });

    // A pass at each call's median time; latency percentiles over the
    // four calls' median times.
    const double median_pass = calls.sum();
    std::vector<double> lat_ms;
    for (double s : calls.medians())
        lat_ms.push_back(s * 1e3);
    out.end_to_end["sim_inst_per_s"] = insts_per_pass / median_pass;
    out.end_to_end["req_per_s"] = ops_per_pass / median_pass;
    out.end_to_end["latency_p99_ms"] = percentile(lat_ms, 99);
    out.per_layer["bench.latency_samples"] =
        static_cast<double>(walls.size() * kCalls);
    out.note("passes " + std::to_string(walls.size()) +
             ", calibrated median pass " + std::to_string(median_pass) +
             " s, raw median pass " + std::to_string(median(walls)) + " s");

    if (opt.trace) {
        SpanLog log;
        ExactCounts exact;
        OpTimes traced_calls(kCalls);
        std::vector<double> efficiency;
        repeatFor(budget, [&] {
            const TracedPass tp =
                tracedPass(*setup, first_cycles, golden, out);
            const bool first = efficiency.empty();
            double busy = 0;
            for (const TracedCell &c : tp.cells) {
                const Span &cell = c.log.spans().front(); // harness.cell
                busy +=
                    static_cast<double>(cell.end_ns - cell.start_ns) * 1e-9;
                log.append(c.log);
                if (first && !c.is_bound)
                    exact.add(c.run, c.on_diag);
            }
            // Summed cell busy time over the host time the pass had on
            // kHostJobs jobs, both from the same traced pass.
            efficiency.push_back(busy / (kHostJobs * tp.wall_s));
            for (size_t k = 0; k < kCalls; ++k)
                traced_calls.record(k, tp.call_s[k]);
        });
        reportSpanLayers(log, out.per_layer);
        exact.report(out.per_layer);
        out.per_layer["host.parallel_efficiency"] = median(efficiency);
        out.per_layer["bench.trace_overhead_pct"] =
            (traced_calls.sum() / median_pass - 1) * 100;
        writeSpanFile(log, opt, "figure-sweep");
    }
    out.end_to_end["peak_rss_mb"] = peakRssMb();
    return out;
}

} // namespace suitebench
