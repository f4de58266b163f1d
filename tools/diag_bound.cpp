/**
 * @file
 * diag-bound: static performance-bound & memory-dependence analyzer
 * with simulator cross-validation.
 *
 *   diag-bound [options] [program.s ...]
 *     --workload NAME        analyze a built-in benchmark kernel
 *     --all-workloads        analyze every bundled kernel
 *     --config I4C2|F4C2|F4C16|F4C32   DiAG preset (default F4C32)
 *     --rings N              override the ring count of the preset
 *     --json                 emit machine-readable JSON
 *     --sarif                emit SARIF 2.1.0 (findings only)
 *     --validate             simulate and cross-check the bound model
 *     --slack FRAC           allowed prediction error (default 0.15)
 *     --jobs N               host threads for the sweep (default: one
 *                            per hardware thread); output stays
 *                            byte-identical for any N
 *     --werror               treat warnings as errors (exit status)
 *
 * Analysis mode prints the diag-lint findings (including the memdep
 * pass: load classification, cross-iteration races, CAM pressure)
 * plus the static schedule model: per-block critical paths, resident
 * loop iteration periods, and per-simt-region fill/II bounds.
 *
 * Validation mode additionally runs the workload on the simulator and
 * compares the measured per-region cycles against the model: measured
 * below the *provable* lower bound fails (that is a simulator timing
 * bug), and a prediction off by more than --slack fails (model drift).
 *
 * Exit status: 0 when no errors and validation holds (no warnings
 * either under --werror), 1 otherwise (usage errors included).
 */
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "analysis/lint.hpp"
#include "asm/assembler.hpp"
#include "common/log.hpp"
#include "diag/config.hpp"
#include "harness/cli.hpp"
#include "harness/validate.hpp"
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
    double slack = 0.15;
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

std::string
renderBoundText(const analysis::BoundResult &b)
{
    std::string out;
    for (const auto &blk : b.blocks)
        out += detail::vformat(
            "block 0x%08x..0x%08x: %u insts, critical path >= %llu "
            "cycles\n",
            blk.first, blk.last, blk.insts,
            static_cast<unsigned long long>(blk.crit_lb));
    for (const auto &l : b.loops) {
        out += detail::vformat(
            "loop 0x%08x..0x%08x: %u insts over %u lines, %s", l.head,
            l.tail, l.insts, l.lines,
            l.resident ? "resident (datapath reuse)" : "not resident");
        if (l.iter_pred > 0)
            out += detail::vformat(", ~%.1f cycles/iteration",
                                   l.iter_pred);
        out += "\n";
    }
    for (const auto &r : b.regions)
        out += detail::vformat(
            "simt region 0x%08x..0x%08x: %u-inst body over %u lines, "
            "interval %llu, fill >= %llu, II floor %.2f "
            "(lsu %.2f, unpipelined %.2f, replicas <= %u)\n",
            r.simt_s_pc, r.simt_e_pc, r.body_insts, r.lines,
            static_cast<unsigned long long>(r.interval),
            static_cast<unsigned long long>(r.fill_lb), r.resource_ii,
            r.lsu_ii, r.unpip_ii, r.max_replicas);
    return out;
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
 *  sweep would print), its lint result for SARIF, and its fail count. */
struct UnitResult
{
    std::string printed;
    analysis::LintResult lint;
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
    analysis::ProgramAnalysis an = analysis::analyzeProgram(prog, lo);
    if (!opt.sarif) {
        if (opt.json) {
            r.printed = detail::vformat(
                "{\"unit\": \"%s\",\n\"lint\": %s,\n\"bound\": %s}\n",
                u.label.c_str(),
                analysis::renderJson(an.lint).c_str(),
                analysis::renderBoundJson(an.bound).c_str());
        } else {
            r.printed = detail::vformat(
                "== %s ==\n%s%s", u.label.c_str(),
                analysis::renderText(an.lint).c_str(),
                renderBoundText(an.bound).c_str());
        }
    }
    r.bad += fails(an.lint, opt);
    if (opt.validate && !u.w.name.empty() && !fails(an.lint, opt)) {
        const harness::ValidationReport rep = harness::validateBound(
            engineConfig(opt), u.w, u.simt, opt.slack);
        if (!opt.json && !opt.sarif)
            r.printed += harness::renderValidation(rep);
        else if (opt.json)
            r.printed += harness::renderValidationJson(rep);
        r.bad += rep.ok() ? 0 : 1;
    }
    r.lint = std::move(an.lint);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    harness::ArgParser ap("diag-bound", "[program.s ...]");
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
              "simulate and cross-check the model")
        .option("--slack", &opt.slack, "FRAC",
                "allowed prediction error (default 0.15)")
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
        for (const auto &w : workloads::rodiniaSuite())
            addWorkload(w);
        for (const auto &w : workloads::specSuite())
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
                                     std::move(results[i].lint));
    }
    if (opt.sarif)
        std::printf("%s\n",
                    analysis::renderSarif(sarif_units, "diag-bound")
                        .c_str());
    return bad ? 1 : 0;
}
