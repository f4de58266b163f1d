/**
 * @file
 * diag-verify: abstract-interpretation program verifier with a
 * SIMT-aware differential fuzzer checking its own soundness.
 *
 * Verification mode (default) decides, per program, the safety
 * properties of analysis/verify.hpp — control safety, div-by-zero /
 * alignment / bounds freedom, and per-simt-region race and deadlock
 * freedom — each as proven / refuted / unknown, and prints the
 * verdicts plus any findings. Workload units verify against the
 * kernel's declared data map (Workload::data_ranges).
 *
 * Fuzz mode (--fuzz N) generates N seeded programs (scalar trap
 * hazards and simt regions with injected races) and cross-checks
 * every verdict against the golden reference, the DiAG model, and
 * the OoO baseline (harness::validateVerify): an unsound proof or a
 * bogus refutation fails the corpus. Failing programs can be dumped
 * for CI artifact upload with --dump-failing.
 *
 * Exit status: 0 when every unit verifies clean (or the whole corpus
 * holds up), 1 on refuted properties / unsound verdicts (or warnings
 * under --werror) and on usage errors.
 */
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/verify.hpp"
#include "asm/assembler.hpp"
#include "common/log.hpp"
#include "diag/config.hpp"
#include "harness/cli.hpp"
#include "harness/validate.hpp"
#include "harness/validate_verify.hpp"
#include "host/parallel.hpp"
#include "workloads/workload.hpp"

using namespace diag;

namespace
{

struct Options
{
    std::string config = "F4C32";
    std::string workload;
    std::string profile = "mixed";
    std::string dump_dir;
    std::vector<std::string> files;
    unsigned rings = 0;  //!< 0 = keep the preset's ring count
    unsigned jobs = 0;   //!< host threads for the sweep (0 = auto)
    unsigned fuzz = 0;   //!< 0 = verification mode
    u64 fuzz_timeout_ms = 60000; //!< host watchdog per fuzz seed
    u64 seed = 1;
    bool all_workloads = false;
    bool json = false;
    bool sarif = false;
    bool verbose = false;
    bool werror = false;
};

/** One verification unit: a (label, source) pair plus its data map. */
struct UnitSpec
{
    std::string label;
    std::string source;
    std::vector<std::pair<Addr, u32>> extra_ranges;
    bool abi_entry = true;
};

/** What one unit produces, printable in unit order for any --jobs. */
struct UnitResult
{
    std::string printed;
    analysis::LintResult findings;
    int bad = 0;
};

/** Verify one unit. Pure: all output is returned, so units can run
 *  on host workers in any order. */
UnitResult
processUnit(const UnitSpec &u, const Options &opt,
            const core::DiagConfig &cfg)
{
    UnitResult r;
    const Program prog = assembler::assemble(u.source);
    analysis::VerifyOptions vo;
    vo.lint = harness::lintOptionsFor(cfg);
    if (!u.abi_entry)
        vo.lint.entry_defined = analysis::RegSet{};
    vo.extra_ranges = u.extra_ranges;
    analysis::VerifyResult res = analysis::verifyProgram(prog, vo);
    if (opt.json)
        r.printed = detail::vformat(
            "{\"unit\": \"%s\",\n\"verify\": %s}\n", u.label.c_str(),
            analysis::renderVerifyJson(res).c_str());
    else if (!opt.sarif)
        r.printed =
            detail::vformat("== %s ==\n%s", u.label.c_str(),
                            analysis::renderVerifyText(res).c_str());
    r.bad = (!res.clean() ||
             (opt.werror && res.report.warnings() > 0))
                ? 1
                : 0;
    r.findings = std::move(res.report);
    return r;
}

harness::FuzzProfile
profileByName(const std::string &name)
{
    if (name == "scalar")
        return harness::FuzzProfile::Scalar;
    if (name == "simt")
        return harness::FuzzProfile::Simt;
    if (name == "mixed")
        return harness::FuzzProfile::Mixed;
    fatal("unknown fuzz profile '%s' (scalar|simt|mixed)",
          name.c_str());
}

/** The --fuzz mode: a seeded differential corpus. */
int
runFuzz(const Options &opt, const core::DiagConfig &cfg)
{
    const harness::VerifyFuzzReport rep = harness::runVerifyFuzz(
        cfg, opt.seed, opt.fuzz, opt.jobs, profileByName(opt.profile),
        opt.fuzz_timeout_ms);
    std::fputs(harness::renderVerifyFuzz(rep, opt.verbose).c_str(),
               stdout);
    if (!opt.dump_dir.empty() && !rep.ok()) {
        std::filesystem::create_directories(opt.dump_dir);
        for (const harness::VerifyCheck &c : rep.checks) {
            if (c.ok())
                continue;
            const std::string path = detail::vformat(
                "%s/seed_%llu.s", opt.dump_dir.c_str(),
                static_cast<unsigned long long>(c.seed));
            std::ofstream out(path);
            out << "# diag-verify fuzz failure, seed "
                << c.seed << "\n";
            for (const std::string &f : c.failures)
                out << "#   " << f << "\n";
            if (!c.engines_match)
                out << "#   engine state mismatch vs golden\n";
            out << c.source;
            std::printf("wrote %s\n", path.c_str());
        }
    }
    return rep.ok() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    harness::ArgParser ap("diag-verify", "[program.s ...]");
    ap.option("--workload", &opt.workload, "NAME",
              "verify a built-in benchmark kernel")
        .flag("--all-workloads", &opt.all_workloads,
              "verify every bundled kernel")
        .configFlag(&opt.config)
        .option("--rings", &opt.rings, "N",
                "override the preset's ring count")
        .jsonFlag(&opt.json)
        .sarifFlag(&opt.sarif)
        .option("--fuzz", &opt.fuzz, "N",
                "cross-validate verdicts on N generated programs")
        .option("--profile", &opt.profile, "scalar|simt|mixed",
                "fuzz generator profile (default mixed)")
        .option("--fuzz-timeout-ms", &opt.fuzz_timeout_ms, "MS",
                "wall-clock cap per fuzz seed, 0 = uncapped "
                "(default 60000)")
        .seedFlag(&opt.seed)
        .option("--dump-failing", &opt.dump_dir, "DIR",
                "write failing fuzz programs into DIR")
        .flag("--verbose", &opt.verbose,
              "per-seed fuzz result lines")
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

    const core::DiagConfig cfg =
        harness::configWithRings(opt.config, opt.rings);
    if (opt.fuzz > 0)
        return runFuzz(opt, cfg);

    if (!opt.all_workloads && opt.workload.empty() &&
        opt.files.empty()) {
        std::fprintf(stderr,
                     "diag-verify: error: nothing to verify (give "
                     "--workload, --all-workloads, --fuzz, or a "
                     "program file)\n");
        ap.usage();
        return 1;
    }

    // Collect every unit first (cheap), then fan the verification out
    // over host workers; printing the returned blocks in unit order
    // keeps the output byte-identical for any --jobs.
    std::vector<UnitSpec> units;
    const auto addWorkload = [&](const workloads::Workload &w) {
        units.push_back({w.name + " (serial)", w.asm_serial,
                         w.data_ranges, /*abi_entry=*/true});
        if (!w.asm_simt.empty())
            units.push_back({w.name + " (simt)", w.asm_simt,
                             w.data_ranges, /*abi_entry=*/true});
    };
    if (opt.all_workloads) {
        for (const auto &w : workloads::allWorkloads())
            addWorkload(w);
    } else if (!opt.workload.empty()) {
        addWorkload(workloads::findWorkload(opt.workload));
    }
    for (const std::string &file : opt.files) {
        units.push_back({file, harness::readAsmFile(file).source, {},
                         /*abi_entry=*/false});
    }

    std::vector<UnitResult> results = host::parallelMap<UnitResult>(
        opt.jobs, units.size(), [&units, &opt, &cfg](size_t i) {
            return processUnit(units[i], opt, cfg);
        });

    std::vector<std::pair<std::string, analysis::LintResult>>
        sarif_units;
    int bad = 0;
    for (size_t i = 0; i < results.size(); ++i) {
        std::fputs(results[i].printed.c_str(), stdout);
        bad += results[i].bad;
        if (opt.sarif)
            sarif_units.emplace_back(units[i].label,
                                     std::move(results[i].findings));
    }
    if (opt.sarif)
        std::printf("%s\n",
                    analysis::renderSarif(sarif_units, "diag-verify")
                        .c_str());
    return bad ? 1 : 0;
}
