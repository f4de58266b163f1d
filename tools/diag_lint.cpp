/**
 * @file
 * diag-lint: static dataflow analyzer for assembled DiAG programs.
 *
 *   diag-lint [options] [program.s ...]
 *     --workload NAME        lint a built-in benchmark kernel
 *     --all-workloads        lint every bundled kernel (both variants)
 *     --config I4C2|F4C2|F4C16|F4C32   DiAG preset (default F4C32)
 *     --rings N              override the ring count of the preset
 *     --json                 emit machine-readable JSON
 *     --sarif                emit SARIF 2.1.0 (one document per run)
 *     --werror               treat warnings as errors (exit status)
 *
 * Passes: CFG construction (unreachable code, control flow leaving the
 * image), register-lane liveness (undefined-lane reads, dead writes,
 * x0 destinations), SIMT region legality (the exact rules the control
 * unit applies at runtime), and datapath-reuse diagnostics (loop spans
 * vs. loaded clusters, I-line straddles).
 *
 * Exit status: 0 when no errors (no warnings either under --werror),
 * 1 when findings fail that bar or on usage errors.
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
    bool all_workloads = false;
    bool json = false;
    bool sarif = false;
    bool werror = false;
};

/** Units accumulated for the single SARIF document. */
std::vector<std::pair<std::string, analysis::LintResult>> g_sarif_units;

analysis::LintOptions
lintOptions(const Options &opt, bool abi_entry)
{
    const core::DiagConfig cfg =
        harness::configWithRings(opt.config, opt.rings);
    analysis::LintOptions lo =
        abi_entry ? analysis::LintOptions::abiEntry()
                  : analysis::LintOptions{};
    lo.line_bytes = cfg.pes_per_cluster * 4;
    lo.clusters_per_ring = cfg.clustersPerRing();
    lo.simt_enabled = cfg.simt_enabled;
    return lo;
}

/** Lint one unit; prints findings, returns the result. */
analysis::LintResult
lintUnit(const std::string &label, const std::string &source,
         const Options &opt, bool abi_entry)
{
    const Program prog = assembler::assemble(source);
    const analysis::LintResult res =
        analysis::lintProgram(prog, lintOptions(opt, abi_entry));
    if (opt.sarif) {
        g_sarif_units.emplace_back(label, res);
    } else if (opt.json) {
        std::printf("%s\n", analysis::renderJson(res).c_str());
    } else {
        std::printf("== %s ==\n%s", label.c_str(),
                    analysis::renderText(res).c_str());
    }
    return res;
}

/** True when @p res fails the exit bar of @p opt. */
bool
fails(const analysis::LintResult &res, const Options &opt)
{
    return res.errors() > 0 || (opt.werror && res.warnings() > 0);
}

int
lintWorkload(const workloads::Workload &w, const Options &opt)
{
    int bad = 0;
    bad += fails(lintUnit(w.name + " (serial)", w.asm_serial, opt,
                          /*abi_entry=*/true),
                 opt);
    if (!w.asm_simt.empty())
        bad += fails(lintUnit(w.name + " (simt)", w.asm_simt, opt,
                              /*abi_entry=*/true),
                     opt);
    return bad;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    harness::ArgParser ap("diag-lint", "[program.s ...]");
    ap.option("--workload", &opt.workload, "NAME",
              "lint a built-in benchmark kernel")
        .flag("--all-workloads", &opt.all_workloads,
              "lint every bundled kernel (both variants)")
        .configFlag(&opt.config)
        .option("--rings", &opt.rings, "N",
                "override the preset's ring count")
        .jsonFlag(&opt.json)
        .sarifFlag(&opt.sarif)
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

    int bad = 0;
    if (opt.all_workloads) {
        for (const auto &w : workloads::rodiniaSuite())
            bad += lintWorkload(w, opt);
        for (const auto &w : workloads::specSuite())
            bad += lintWorkload(w, opt);
    } else if (!opt.workload.empty()) {
        bad += lintWorkload(workloads::findWorkload(opt.workload), opt);
    }
    for (const std::string &file : opt.files) {
        bad += fails(lintUnit(file, harness::readAsmFile(file).source,
                              opt, /*abi_entry=*/false),
                     opt);
    }
    if (!opt.all_workloads && opt.workload.empty() &&
        opt.files.empty()) {
        ap.usage();
        return 2;
    }
    if (opt.sarif)
        std::printf("%s\n",
                    analysis::renderSarif(g_sarif_units, "diag-lint")
                        .c_str());
    return bad ? 1 : 0;
}
