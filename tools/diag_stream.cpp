/**
 * @file
 * diag-stream: static stream & locality analyzer with
 * trace-differential validation.
 *
 *   diag-stream [options] [program.s ...]
 *     --workload NAME        analyze a built-in benchmark kernel
 *     --all-workloads        analyze every bundled kernel
 *     --config I4C2|F4C2|F4C16|F4C32   DiAG preset (default F4C32)
 *     --rings N              override the ring count of the preset
 *     --json                 emit machine-readable JSON
 *     --sarif                emit SARIF 2.1.0 (findings only)
 *     --validate             record per-instruction addresses on the
 *                            simulator and replay them against the
 *                            predicted affine maps (simt units)
 *     --jobs N               host threads for the sweep (default: one
 *                            per hardware thread); output stays
 *                            byte-identical for any N
 *     --werror               treat warnings as errors (exit status)
 *
 * Analysis mode classifies every memory access of every simt region
 * (and serial single-block loop) as affine / indirect / pointer-chase
 * / unknown, with proven strides, footprint and reuse estimates, L1D
 * bank-conflict verdicts, and a prefetchability class per stream.
 *
 * Validation mode additionally runs each simt workload unit with the
 * address recorder attached: any proven-affine stream whose observed
 * address sequence deviates from the predicted map, or any proven
 * conflict-free stream with an observed same-bank consecutive pair,
 * fails the unit (a soundness bug in the analyzer).
 *
 * Exit status: 0 when no errors and validation holds (no warnings
 * either under --werror), 1 otherwise, 2 when no input was given.
 */
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "analysis/lint.hpp"
#include "analysis/stream.hpp"
#include "asm/assembler.hpp"
#include "common/log.hpp"
#include "diag/config.hpp"
#include "harness/cli.hpp"
#include "harness/validate.hpp"
#include "harness/validate_stream.hpp"
#include "host/parallel.hpp"
#include "workloads/workload.hpp"

using namespace diag;

namespace
{

struct Options
{
    std::string config = "F4C32";
    std::string workload;
    std::vector<std::string> files;
    unsigned rings = 0;  //!< 0 = keep the preset's ring count
    unsigned jobs = 0;   //!< host threads for the sweep (0 = auto)
    bool all_workloads = false;
    bool json = false;
    bool sarif = false;
    bool validate = false;
    bool werror = false;
};

core::DiagConfig
engineConfig(const Options &opt)
{
    return harness::configWithRings(opt.config, opt.rings);
}

/** True when @p res fails the exit bar of @p opt. */
bool
fails(const analysis::LintResult &res, const Options &opt)
{
    return res.errors() > 0 || (opt.werror && res.warnings() > 0);
}

/**
 * One analysis unit of the sweep: a (label, source) pair, plus the
 * owning workload when the unit may also be simulated for --validate.
 */
struct UnitSpec
{
    std::string label;
    std::string source;
    workloads::Workload w;  //!< empty name = plain file, no validation
    bool simt = false;
    bool abi_entry = true;
};

/** What one unit produces: its printed block (exactly what the serial
 *  sweep would print), its diagnostics for SARIF, and its fail count. */
struct UnitResult
{
    std::string printed;
    analysis::LintResult diags;
    int bad = 0;
};

/** Analyze (and under --validate simulate) one unit. Pure: all output
 *  is returned, so units can run on host workers in any order. */
UnitResult
processUnit(const UnitSpec &u, const Options &opt)
{
    UnitResult r;
    const Program prog = assembler::assemble(u.source);
    analysis::LintOptions lo =
        harness::lintOptionsFor(engineConfig(opt));
    if (!u.abi_entry)
        lo.entry_defined = analysis::RegSet{};
    analysis::LintResult diags;
    const analysis::StreamResult sr =
        analysis::analyzeStreams(prog, lo, diags);
    if (!opt.sarif) {
        if (opt.json) {
            r.printed = detail::vformat(
                "{\"unit\": \"%s\",\n\"diags\": %s,\n\"streams\": %s}\n",
                u.label.c_str(), analysis::renderJson(diags).c_str(),
                analysis::renderStreamJson(sr).c_str());
        } else {
            r.printed = detail::vformat(
                "== %s ==\n%s%s", u.label.c_str(),
                analysis::renderText(diags).c_str(),
                analysis::renderStreamText(sr).c_str());
        }
    }
    r.bad += fails(diags, opt);
    // Validation replays simt regions, so only simt workload units
    // simulate; serial units are static-only.
    if (opt.validate && !u.w.name.empty() && u.simt &&
        !fails(diags, opt)) {
        const harness::StreamValidation rep =
            harness::validateStream(engineConfig(opt), u.w);
        if (!opt.json && !opt.sarif)
            r.printed += harness::renderStreamValidation(rep);
        else if (opt.json)
            r.printed += harness::renderStreamValidationJson(rep);
        r.bad += rep.ok() ? 0 : 1;
    }
    r.diags = std::move(diags);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    harness::ArgParser ap("diag-stream", "[program.s ...]");
    ap.option("--workload", &opt.workload, "NAME",
              "analyze a built-in benchmark kernel")
        .flag("--all-workloads", &opt.all_workloads,
              "analyze every bundled kernel")
        .configFlag(&opt.config)
        .option("--rings", &opt.rings, "N",
                "override the preset's ring count")
        .jsonFlag(&opt.json)
        .sarifFlag(&opt.sarif)
        .flag("--validate", &opt.validate,
              "replay recorded addresses against the predicted maps")
        .jobsFlag(&opt.jobs)
        .werrorFlag(&opt.werror)
        .operands(&opt.files);
    switch (ap.parse(argc, argv)) {
    case harness::ArgParser::Status::Help:
        return 0;
    case harness::ArgParser::Status::Usage:
        return 1;
    case harness::ArgParser::Status::Run:
        break;
    }

    if (!opt.all_workloads && opt.workload.empty() &&
        opt.files.empty()) {
        ap.usage();
        return 2;
    }

    // Collect every unit first (cheap), then fan the analysis +
    // validation out over host workers; printing the returned blocks
    // in unit order keeps the output byte-identical for any --jobs.
    std::vector<UnitSpec> units;
    const auto addWorkload = [&](const workloads::Workload &w) {
        units.push_back({w.name + " (serial)", w.asm_serial, w,
                         /*simt=*/false, /*abi_entry=*/true});
        if (!w.asm_simt.empty())
            units.push_back({w.name + " (simt)", w.asm_simt, w,
                             /*simt=*/true, /*abi_entry=*/true});
    };
    if (opt.all_workloads) {
        for (const auto &w : workloads::allWorkloads())
            addWorkload(w);
    } else if (!opt.workload.empty()) {
        addWorkload(workloads::findWorkload(opt.workload));
    }
    for (const std::string &file : opt.files) {
        units.push_back({file, harness::readAsmFile(file).source,
                         workloads::Workload{}, /*simt=*/false,
                         /*abi_entry=*/false});
    }

    std::vector<UnitResult> results =
        host::parallelMap<UnitResult>(
            opt.jobs, units.size(),
            [&units, &opt](size_t i) {
                return processUnit(units[i], opt);
            });

    std::vector<std::pair<std::string, analysis::LintResult>> sarif_units;
    int bad = 0;
    for (size_t i = 0; i < results.size(); ++i) {
        std::fputs(results[i].printed.c_str(), stdout);
        bad += results[i].bad;
        if (opt.sarif)
            sarif_units.emplace_back(units[i].label,
                                     std::move(results[i].diags));
    }
    if (opt.sarif)
        std::printf("%s\n",
                    analysis::renderSarif(sarif_units, "diag-stream")
                        .c_str());
    return bad ? 1 : 0;
}
