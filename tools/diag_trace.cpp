/**
 * @file
 * diag-trace: trace capture and bottleneck attribution driver.
 *
 *   diag-trace --workload NAME [options]
 *   diag-trace --all-workloads [options]
 *     --config I4C2|F4C2|F4C16|F4C32   DiAG preset (default: F4C32)
 *     --simt                      run the simt-annotated variant
 *     --threads N                 software threads (default: 1)
 *     --out FILE                  write the Chrome/Perfetto trace
 *     --metrics FILE              write the IPC/occupancy time series
 *     --metrics-stride N          sample bucket width in cycles
 *     --events LIST               comma list of event kinds
 *     --attribution-json FILE     machine-readable attribution
 *     --jobs N                    host threads for --all-workloads
 *
 * Every invocation prints the bottleneck attribution report: measured
 * per-region cycles aligned against the static bound model's
 * prediction, decomposed into fill / steady-state / replica-setup
 * components, with the model's dominant limiter named per region.
 * --all-workloads sweeps every workload that has a simt variant (the
 * validated simt regions) and fans the runs out over host workers;
 * reports print in workload order, byte-identical for any job count.
 *
 * Exit codes: 0 pass, 1 usage/internal error, 2 a run failed its
 * output check or stopped early.
 */
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "asm/assembler.hpp"
#include "common/log.hpp"
#include "harness/cli.hpp"
#include "harness/runner.hpp"
#include "harness/validate.hpp"
#include "host/parallel.hpp"
#include "trace/attribution.hpp"
#include "trace/export.hpp"

using namespace diag;

namespace
{

struct Options
{
    std::string config = "F4C32";
    std::string workload;
    std::string out_file;
    std::string metrics_file;
    std::string attribution_json;
    bool simt = false;
    bool all_workloads = false;
    unsigned threads = 1;
    unsigned jobs = 0;
    u32 events = trace::kDefaultEvents;
    u64 metrics_stride = 0;
};

/** One traced run plus its attribution (the per-workload work unit,
 *  self-contained so --all-workloads can fan it out per worker). */
struct TracedRun
{
    harness::EngineRun run;
    trace::AttributionReport attribution;
    bool ok = false;
};

TracedRun
traceOne(const Options &opt, const workloads::Workload &w, bool simt)
{
    const core::DiagConfig cfg =
        harness::configByName(opt.config);

    trace::TraceConfig tc;
    tc.event_mask = opt.events;
    tc.metrics_stride =
        opt.metrics_stride ? opt.metrics_stride
                           : (opt.metrics_file.empty() ? 0 : 1000);

    harness::RunSpec spec;
    spec.threads = opt.threads;
    spec.use_simt = simt;
    spec.tolerate_failures = true;
    spec.trace = &tc;

    TracedRun res;
    res.run = harness::runOnDiag(cfg, w, spec);
    res.ok = res.run.stats.halted && res.run.checked;

    // Attribution: static model of this program vs the run's counters.
    const Program prog =
        assembler::assemble(simt ? w.asm_simt : w.asm_serial);
    const analysis::ProgramAnalysis an = analysis::analyzeProgram(
        prog, harness::lintOptionsFor(cfg));
    res.attribution = trace::attributeRegions(
        an.bound, res.run.stats.counters,
        static_cast<double>(res.run.stats.cycles),
        static_cast<double>(res.run.stats.instructions));
    res.attribution.workload = w.name;
    res.attribution.config = cfg.name;
    res.attribution.simt = simt;
    return res;
}

int
runSingle(const Options &opt)
{
    const workloads::Workload w = workloads::findWorkload(opt.workload);
    if (opt.simt)
        fatal_if(w.asm_simt.empty(), "%s has no simt variant",
                 w.name.c_str());
    const TracedRun res = traceOne(opt, w, opt.simt);

    const trace::TraceMeta meta{w.name, opt.config, opt.simt};
    if (!opt.out_file.empty()) {
        std::ofstream os(opt.out_file);
        fatal_if(!os.good(), "cannot write '%s'", opt.out_file.c_str());
        trace::writeChromeTrace(os, *res.run.trace, meta);
        std::printf("trace    %s (%zu events, %llu dropped)\n",
                    opt.out_file.c_str(),
                    res.run.trace->sink().events().size(),
                    static_cast<unsigned long long>(
                        res.run.trace->sink().dropped()));
        if (res.run.trace->sink().dropped() > 0)
            std::fprintf(stderr,
                         "diag-trace: warning: the trace ring buffer "
                         "dropped %llu events (oldest first); narrow "
                         "--events to keep the whole run\n",
                         static_cast<unsigned long long>(
                             res.run.trace->sink().dropped()));
    }
    if (!opt.metrics_file.empty()) {
        std::ofstream os(opt.metrics_file);
        fatal_if(!os.good(), "cannot write '%s'",
                 opt.metrics_file.c_str());
        trace::writeMetricsJson(os, *res.run.trace, meta);
        std::printf("metrics  %s (%zu samples)\n",
                    opt.metrics_file.c_str(),
                    res.run.trace->metrics().samples().size());
    }
    if (!opt.attribution_json.empty()) {
        std::ofstream os(opt.attribution_json);
        fatal_if(!os.good(), "cannot write '%s'",
                 opt.attribution_json.c_str());
        os << trace::renderAttributionJson(res.attribution);
    }
    std::printf("%s", trace::renderAttribution(res.attribution).c_str());
    if (!res.ok) {
        std::printf("FAIL (exit 2): %s\n",
                    res.run.stats.stop_reason.empty()
                        ? "output check failed"
                        : res.run.stats.stop_reason.c_str());
        return 2;
    }
    return 0;
}

int
runAll(const Options &opt)
{
    // The validated simt inventory: every bundled workload that ships
    // a simt-annotated variant.
    std::vector<workloads::Workload> all;
    for (auto &w : workloads::allWorkloads())
        if (!w.asm_simt.empty())
            all.push_back(std::move(w));
    fatal_if(all.empty(), "no simt-annotated workloads found");

    // Each worker owns its run's simulator and tracer (DESIGN.md §11);
    // reports come back in workload order.
    const std::vector<TracedRun> runs = host::parallelMap<TracedRun>(
        opt.jobs, all.size(),
        [&](size_t i) { return traceOne(opt, all[i], true); });

    int rc = 0;
    std::string json = "[";
    for (size_t i = 0; i < runs.size(); ++i) {
        std::printf("%s",
                    trace::renderAttribution(runs[i].attribution)
                        .c_str());
        if (!runs[i].ok) {
            std::printf("FAIL: %s did not pass\n",
                        all[i].name.c_str());
            rc = 2;
        }
        json += (i ? ",\n " : "") +
                trace::renderAttributionJson(runs[i].attribution);
    }
    json += "]\n";
    if (!opt.attribution_json.empty()) {
        std::ofstream os(opt.attribution_json);
        fatal_if(!os.good(), "cannot write '%s'",
                 opt.attribution_json.c_str());
        os << json;
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string events;
    harness::ArgParser ap("diag-trace");
    ap.option("--workload", &opt.workload, "NAME",
              "trace a built-in benchmark kernel")
        .flag("--all-workloads", &opt.all_workloads,
              "sweep every simt-annotated kernel")
        .configFlag(&opt.config)
        .flag("--simt", &opt.simt, "run the simt-annotated variant")
        .option("--threads", &opt.threads, "N",
                "software threads (default 1)")
        .option("--out", &opt.out_file, "FILE",
                "write a Chrome/Perfetto trace")
        .option("--metrics", &opt.metrics_file, "FILE",
                "write IPC/occupancy time series")
        .option("--metrics-stride", &opt.metrics_stride, "N",
                "sample bucket width in cycles (default 1000 with "
                "--metrics)")
        .option("--events", &events, "LIST",
                "comma list of event kinds, or 'all'/'default'")
        .option("--attribution-json", &opt.attribution_json, "FILE",
                "machine-readable attribution")
        .jobsFlag(&opt.jobs);
    switch (ap.parse(argc, argv)) {
    case harness::ArgParser::Status::Help:
        return 0;
    case harness::ArgParser::Status::Usage:
        return 1;
    case harness::ArgParser::Status::Run:
        break;
    }
    if (!events.empty()) {
        std::string bad;
        fatal_if(!trace::parseEventMask(events, opt.events, bad),
                 "unknown trace event kind '%s'", bad.c_str());
    }
    if (opt.all_workloads)
        return runAll(opt);
    if (opt.workload.empty()) {
        ap.usage();
        fatal("no --workload or --all-workloads given");
    }
    return runSingle(opt);
}
