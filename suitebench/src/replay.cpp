#include "replay.hpp"

#include <optional>
#include <string_view>
#include <type_traits>

#include "analysis/lint.hpp"
#include "asm/assembler.hpp"
#include "diag/processor.hpp"
#include "energy/diag_energy.hpp"
#include "energy/ooo_energy.hpp"
#include "ooo/processor.hpp"

namespace suitebench
{

namespace
{

using diag::workloads::Workload;

void
readCounters(const diag::sim::RunStats &st, EngineOutcome &out)
{
    out.halted = st.halted;
    out.insts = st.instructions;
    out.cycles = st.cycles;
    out.l1_loads = st.counters.get("l1_loads");
    out.l2_loads = st.counters.get("l2_loads");
    out.dram_loads = st.counters.get("dram_loads");
    out.stl_forwards =
        st.counters.get("stl_forwards") + st.counters.get("memlane_fwd");
}

/** Span names of one engine's layers. */
struct EngineLayers
{
    const char *construct;
    const char *load;
    const char *warm;
    const char *simulate;
};

constexpr EngineLayers kDiagLayers{"diag.construct", "diag.load",
                                   "diag.warm", "diag.simulate"};
constexpr EngineLayers kOooLayers{"ooo.construct", "ooo.load", "ooo.warm",
                                  "ooo.simulate"};

/** Everything after assembly and lint, for either engine. */
template <class Proc, class Spec, class Cfg, class Energy>
void
simulate(const Workload &w, const diag::Program &prog, const Cfg &cfg,
         const EngineJob &job, const EngineLayers &layers, SpanLog *log,
         u64 group, diag::obs::SimProfile *profile, Energy energy,
         EngineOutcome &out)
{
    std::optional<Proc> proc;
    {
        ScopedSpan s(log, layers.construct, group);
        proc.emplace(cfg);
    }
    {
        ScopedSpan s(log, layers.load, group);
        proc->loadProgram(prog);
    }
    {
        ScopedSpan s(log, "workloads.init", group);
        w.init(proc->memory());
    }
    {
        ScopedSpan s(log, layers.warm, group);
        proc->warmCaches();
    }
    std::vector<Spec> specs;
    for (unsigned t = 0; t < out.threads; ++t)
        specs.push_back(
            {prog.entry, {{diag::isa::RegId{10}, t},
                          {diag::isa::RegId{11}, out.threads}}});
    diag::sim::RunStats st;
    {
        ScopedSpan s(log, layers.simulate, group);
        if constexpr (std::is_same_v<Proc, diag::core::DiagProcessor>) {
            if (profile)
                proc->attachObs(profile);
            st = proc->runThreads(prog, specs, w.max_insts);
            proc->attachObs(nullptr);
        } else {
            st = proc->runThreads(prog, specs, w.max_insts);
        }
        s.annotate(job.variant, st.instructions, st.cycles);
    }
    readCounters(st, out);
    if (!st.halted)
        return;
    {
        ScopedSpan s(log, "workloads.check", group);
        out.checked = w.check(proc->memory());
    }
    {
        // runOnDiag/runOnOoo price every run; the report is not needed.
        ScopedSpan s(log, "energy.report", group);
        (void)energy(cfg, st);
    }
}

} // namespace

void
ExactCounts::add(const EngineOutcome &o, bool on_diag)
{
    if (on_diag) {
        diag_cycles += static_cast<double>(o.cycles);
        diag_insts += static_cast<double>(o.insts);
    } else {
        ooo_cycles += static_cast<double>(o.cycles);
    }
    l1_loads += o.l1_loads;
    l2_loads += o.l2_loads;
    dram_loads += o.dram_loads;
    stl_forwards += o.stl_forwards;
}

void
ExactCounts::report(std::map<std::string, double> &per_layer) const
{
    per_layer["diag.sim_cycles"] = diag_cycles;
    per_layer["diag.sim_insts"] = diag_insts;
    per_layer["ooo.sim_cycles"] = ooo_cycles;
    per_layer["mem.l1_loads"] = l1_loads;
    per_layer["mem.l2_loads"] = l2_loads;
    per_layer["mem.dram_loads"] = dram_loads;
    per_layer["mem.stl_forwards"] = stl_forwards;
}

void
reportSpanLayers(const SpanLog &log, std::map<std::string, double> &per_layer)
{
    const auto t = layerTimes(log);
    per_layer["workloads.lookup_us"] = meanSelf(t, "workloads.lookup", 1e-6);
    per_layer["workloads.init_ms"] = meanSelf(t, "workloads.init", 1e-3);
    per_layer["workloads.check_ms"] = meanSelf(t, "workloads.check", 1e-3);
    per_layer["asm.assemble_ms"] = meanSelf(t, "asm.assemble", 1e-3);
    per_layer["analysis.lint_ms"] = meanSelf(t, "analysis.lint", 1e-3);
    per_layer["harness.bound_validate_ms"] =
        meanSelf(t, "harness.validate", 1e-3);
    per_layer["diag.construct_ms"] = meanSelf(t, "diag.construct", 1e-3);
    per_layer["diag.warm_ms"] = meanSelf(t, "diag.warm", 1e-3);
    per_layer["diag.simulate_ms"] = meanSelf(t, "diag.simulate", 1e-3);
    per_layer["ooo.construct_ms"] = meanSelf(t, "ooo.construct", 1e-3);
    per_layer["ooo.simulate_ms"] = meanSelf(t, "ooo.simulate", 1e-3);

    per_layer["diag.serial.inst_per_s"] =
        spanRate(log, "diag.simulate", {kSerialF4C2, kSerialF4C16,
                                        kSerialF4C32});
    per_layer["diag.simt.inst_per_s"] =
        spanRate(log, "diag.simulate", {kSimtF4C16});
    per_layer["diag.mt.inst_per_s"] = spanRate(log, "diag.simulate", {kMt});
    per_layer["diag.mt_simt.inst_per_s"] =
        spanRate(log, "diag.simulate", {kMtSimt});
    per_layer["diag.f4c2.inst_per_s"] =
        spanRate(log, "diag.simulate", {kSerialF4C2});
    per_layer["diag.f4c32.inst_per_s"] =
        spanRate(log, "diag.simulate", {kSerialF4C32});
    per_layer["ooo.inst_per_s"] = spanRate(log, "ooo.simulate");

    double ns = 0;
    double cycles = 0;
    for (const Span &s : log.spans())
        if (std::string_view(s.name) == "diag.simulate") {
            ns += static_cast<double>(s.end_ns - s.start_ns);
            cycles += static_cast<double>(s.cycles);
        }
    per_layer["diag.host_ns_per_cycle"] = cycles > 0 ? ns / cycles : 0;
}

EngineOutcome
replayRun(const Workload &w, const EngineJob &job, SpanLog *log, u64 group,
          diag::obs::SimProfile *profile)
{
    EngineOutcome out;
    out.threads = w.partitionable ? job.threads : 1;
    out.simt = job.simt;
    const std::string &src = job.simt ? w.asm_simt : w.asm_serial;
    std::optional<diag::Program> prog;
    {
        ScopedSpan s(log, "asm.assemble", group);
        prog.emplace(diag::assembler::assemble(src));
    }
    {
        ScopedSpan s(log, "analysis.lint", group);
        out.lint_ok = diag::analysis::lintProgram(
                          *prog, diag::analysis::LintOptions::abiEntry())
                          .errors() == 0;
    }
    if (!out.lint_ok)
        return out;
    if (job.on_diag)
        simulate<diag::core::DiagProcessor, diag::core::ThreadSpec>(
            w, *prog, job.diag_cfg, job, kDiagLayers, log, group, profile,
            diag::energy::diagEnergy, out);
    else
        simulate<diag::ooo::OooProcessor, diag::ooo::ThreadSpec>(
            w, *prog, job.ooo_cfg, job, kOooLayers, log, group, nullptr,
            diag::energy::oooEnergy, out);
    return out;
}

} // namespace suitebench
