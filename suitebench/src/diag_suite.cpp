/**
 * @file
 * diag-suite: every bundled workload on DiAG alone, one request at a
 * time on one host thread. Per workload: F4C16 serial; F4C16 simt
 * when a simt variant exists; the Fig. 9b MT arrangement (16 threads
 * on 16x2 rings); MT+SIMT (8 threads on 8x4) for simt variants. Each
 * request is workloads::findWorkload followed by the runOnDiag call
 * sequence (replay.hpp), timed from outside as one latency sample.
 *
 * The golden model's reference run of every workload happens once
 * per process (common.hpp) and is not part of a pass.
 */
#include "diag/config.hpp"
#include "harness/runner.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace suitebench
{

namespace
{

struct Request
{
    std::string workload;
    EngineJob job;
};

std::vector<Request>
makeRequests()
{
    std::vector<diag::workloads::Workload> all =
        diag::workloads::rodiniaSuite();
    for (auto &w : diag::workloads::specSuite())
        all.push_back(std::move(w));
    std::vector<Request> reqs;
    for (const auto &w : all) {
        const bool simt = !w.asm_simt.empty();
        EngineJob j;
        j.diag_cfg = diag::core::DiagConfig::f4c16();
        j.variant = kSerialF4C16;
        reqs.push_back({w.name, j});
        if (simt) {
            j.simt = true;
            j.variant = kSimtF4C16;
            reqs.push_back({w.name, j});
        }
        j = EngineJob{};
        j.diag_cfg = diag::harness::diagMultiThreadConfig();
        j.threads = diag::harness::kDiagMtThreads;
        j.variant = kMt;
        reqs.push_back({w.name, j});
        if (simt) {
            j.diag_cfg = diag::harness::diagMtSimtConfig();
            j.threads = diag::harness::kDiagMtSimtThreads;
            j.simt = true;
            j.variant = kMtSimt;
            reqs.push_back({w.name, j});
        }
    }
    return reqs;
}

/** One pass over every request. */
struct Pass
{
    std::vector<double> latency_s; //!< calibrated (SpeedProbe)
    std::vector<double> cycles;
    double insts = 0;
    double wall_s = 0;
};

Pass
runPass(const std::vector<Request> &reqs, const GoldenRef &golden,
        const std::vector<double> *untraced_cycles, SpanLog *log,
        diag::obs::SimProfile *profile, ExactCounts *exact, Outcome &out)
{
    Pass p;
    const auto start = Clock::now();
    SpeedProbe probe;
    for (size_t i = 0; i < reqs.size(); ++i) {
        const Request &r = reqs[i];
        const auto t0 = Clock::now();
        EngineOutcome o;
        {
            ScopedSpan req(log, "diag.request", i);
            diag::workloads::Workload w;
            {
                ScopedSpan s(log, "workloads.lookup", i);
                w = diag::workloads::findWorkload(r.workload);
            }
            o = replayRun(w, r.job, log, i, profile);
        }
        p.latency_s.push_back(seconds(t0, Clock::now()));
        probe.sample();
        p.cycles.push_back(static_cast<double>(o.cycles));
        p.insts += static_cast<double>(o.insts);
        if (exact)
            exact->add(o, true);
        bool ok = o.lint_ok && o.halted && o.checked;
        if (o.serial())
            ok = ok && o.insts == golden.insts.at(r.workload);
        if (untraced_cycles)
            ok = ok && p.cycles.back() == (*untraced_cycles)[i];
        out.op(ok, std::string(untraced_cycles ? "traced " : "") +
                       r.workload + " " + r.job.variant);
    }
    p.wall_s = seconds(start, Clock::now());
    const double scale = probe.scale();
    for (double &l : p.latency_s)
        l *= scale;
    return p;
}

} // namespace

Outcome
runDiagSuite(const Options &opt)
{
    Outcome out;
    GoldenRef golden;
    const std::vector<Request> reqs = setUp(out, golden, makeRequests);

    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    OpTimes times(reqs.size());
    std::vector<double> walls;
    std::vector<double> first_cycles;
    double insts_per_pass = 0;
    repeatFor(budget, [&] {
        const Pass p = runPass(reqs, golden, nullptr, nullptr, nullptr, nullptr,
                               out);
        walls.push_back(p.wall_s);
        insts_per_pass = p.insts;
        for (size_t i = 0; i < reqs.size(); ++i)
            times.record(i, p.latency_s[i]);
        if (first_cycles.empty())
            first_cycles = p.cycles;
        else if (p.cycles != first_cycles)
            out.inexact("diag-suite cycles differ between passes");
    });
    // A pass at each request's median time; latency percentiles over
    // the requests' median times.
    const double median_pass = times.sum();
    std::vector<double> lat_ms;
    for (double s : times.medians())
        lat_ms.push_back(s * 1e3);
    out.end_to_end["sim_inst_per_s"] = insts_per_pass / median_pass;
    out.end_to_end["req_per_s"] =
        static_cast<double>(reqs.size()) / median_pass;
    out.end_to_end["latency_p99_ms"] = percentile(lat_ms, 99);
    out.per_layer["bench.latency_samples"] =
        static_cast<double>(walls.size() * reqs.size());
    out.note("passes " + std::to_string(walls.size()) +
             ", calibrated median pass " + std::to_string(median_pass) +
             " s, raw median pass " + std::to_string(median(walls)) + " s");

    if (opt.trace) {
        SpanLog log;
        diag::obs::SimProfile profile;
        ExactCounts exact;
        OpTimes traced_times(reqs.size());
        bool first = true;
        repeatFor(budget, [&] {
            const Pass p = runPass(reqs, golden, &first_cycles, &log,
                                   &profile, first ? &exact : nullptr, out);
            first = false;
            for (size_t i = 0; i < reqs.size(); ++i)
                traced_times.record(i, p.latency_s[i]);
        });
        reportSpanLayers(log, out.per_layer);
        exact.report(out.per_layer);
        out.per_layer["obs.batched_fraction"] = profile.batchedFraction();
        out.per_layer["bench.trace_overhead_pct"] =
            (traced_times.sum() / median_pass - 1) * 100;
        writeSpanFile(log, opt, "diag-suite");
    }
    out.end_to_end["peak_rss_mb"] = peakRssMb();
    return out;
}

} // namespace suitebench
