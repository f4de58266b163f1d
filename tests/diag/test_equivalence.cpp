/**
 * Differential equivalence sweep for the skip-idle scheduler
 * (DESIGN.md §15): the event-timed fast path (cached cluster
 * metadata, PE-cursor jumps, in-place lane propagation, closed-form
 * simt trips) must be *bit-for-bit* indistinguishable from dense
 * per-PE stepping. Every workload and a
 * seeded fuzz corpus run both ways; cycles, instruction counts, the
 * full StatGroup JSON dump (byte-equal — same keys, same order, same
 * values), trace event streams, address logs, and fault-campaign
 * reports must match exactly.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "asm/assembler.hpp"
#include "diag/processor.hpp"
#include "fault/campaign.hpp"
#include "harness/runner.hpp"
#include "sim/fuzz.hpp"
#include "trace/export.hpp"
#include "workloads/workload.hpp"

using namespace diag;
using namespace diag::core;

namespace
{

std::string
statsJson(const StatGroup &g)
{
    std::ostringstream os;
    g.dumpJson(os);
    return os.str();
}

/** Dense twin of @p cfg: same machine, per-PE stepping. */
DiagConfig
denseTwin(const DiagConfig &cfg)
{
    DiagConfig d = cfg;
    d.dense_loop = true;
    return d;
}

/** Full RunStats equality, counters compared as dumped JSON bytes. */
void
expectRunsEqual(const sim::RunStats &skip, const sim::RunStats &dense,
                const std::string &what)
{
    EXPECT_EQ(skip.cycles, dense.cycles) << what;
    EXPECT_EQ(skip.instructions, dense.instructions) << what;
    EXPECT_EQ(skip.halted, dense.halted) << what;
    EXPECT_EQ(skip.timed_out, dense.timed_out) << what;
    EXPECT_EQ(skip.faulted, dense.faulted) << what;
    EXPECT_EQ(skip.aborted, dense.aborted) << what;
    EXPECT_EQ(skip.stop_reason, dense.stop_reason) << what;
    EXPECT_EQ(statsJson(skip.counters), statsJson(dense.counters))
        << what;
}

/** Field-wise AddrTrace equality (the type has no operator==). */
void
expectAddrTracesEqual(const trace::AddrTrace &a,
                      const trace::AddrTrace &b, const std::string &what)
{
    ASSERT_EQ(a.regions.size(), b.regions.size()) << what;
    for (size_t i = 0; i < a.regions.size(); ++i) {
        const auto &ra = a.regions[i];
        const auto &rb = b.regions[i];
        EXPECT_EQ(ra.simt_s_pc, rb.simt_s_pc) << what << " region " << i;
        EXPECT_EQ(ra.rc0, rb.rc0) << what << " region " << i;
        EXPECT_EQ(ra.step, rb.step) << what << " region " << i;
        EXPECT_EQ(ra.trips, rb.trips) << what << " region " << i;
        EXPECT_EQ(ra.addrs, rb.addrs) << what << " region " << i;
        EXPECT_EQ(ra.counts, rb.counts) << what << " region " << i;
    }
    EXPECT_EQ(a.serial_addrs, b.serial_addrs) << what;
    EXPECT_EQ(a.serial_counts, b.serial_counts) << what;
    EXPECT_EQ(a.loop_backs, b.loop_backs) << what;
    EXPECT_EQ(a.loop_back_count, b.loop_back_count) << what;
}

/** Run @p w under @p spec on skip-idle and dense twins; compare. */
void
sweepWorkload(const workloads::Workload &w, const DiagConfig &cfg,
              bool use_simt)
{
    harness::RunSpec spec;
    spec.use_simt = use_simt;
    const harness::EngineRun skip = harness::runOnDiag(cfg, w, spec);
    const harness::EngineRun dense =
        harness::runOnDiag(denseTwin(cfg), w, spec);
    const std::string what =
        w.name + (use_simt ? " (simt)" : " (serial)");
    EXPECT_TRUE(skip.checked) << what;
    EXPECT_TRUE(dense.checked) << what;
    expectRunsEqual(skip.stats, dense.stats, what);
}

} // namespace

// --- Workload sweep: every bundled workload, both variants. --------

TEST(SkipIdleEquivalence, AllBundledWorkloadsMatchDense)
{
    const DiagConfig cfg = DiagConfig::f4c32();
    for (const auto &suite :
         {workloads::rodiniaSuite(), workloads::specSuite()}) {
        for (const workloads::Workload &w : suite) {
            sweepWorkload(w, cfg, false);
            if (!w.asm_simt.empty())
                sweepWorkload(w, cfg, true);
        }
    }
}

TEST(SkipIdleEquivalence, SmallConfigMatchesDense)
{
    // The two-cluster machine exercises cluster-boundary crossings and
    // ring wrap far more often per instruction.
    const DiagConfig cfg = DiagConfig::f4c2();
    for (const workloads::Workload &w : workloads::rodiniaSuite())
        sweepWorkload(w, cfg, false);
}

// --- Fuzz corpus: seeded random programs, all generator modes. -----

namespace
{

void
fuzzOne(u64 seed, const DiagConfig &cfg, bool use_fp, bool use_simt)
{
    sim::FuzzOptions fo;
    fo.seed = seed;
    fo.use_fp = use_fp;
    fo.use_simt = use_simt;
    const sim::FuzzProgram fp = sim::generateFuzzProgramEx(fo);
    const Program p = assembler::assemble(fp.source);

    DiagProcessor skip(cfg);
    const sim::RunStats rs = skip.run(p);
    DiagProcessor dense(denseTwin(cfg));
    const sim::RunStats rd = dense.run(p);

    const std::string what = "fuzz seed " + std::to_string(seed);
    expectRunsEqual(rs, rd, what);
    for (unsigned r = 1; r < isa::kNumRegs; ++r)
        ASSERT_EQ(skip.finalReg(0, static_cast<isa::RegId>(r)),
                  dense.finalReg(0, static_cast<isa::RegId>(r)))
            << what << ": register " << r;
    const Addr buf = p.symbol("buf");
    for (Addr off = 0; off < 1024; off += 4)
        ASSERT_EQ(skip.memory().read32(buf + off),
                  dense.memory().read32(buf + off))
            << what << ": buf+" << off;
}

} // namespace

class SkipIdleFuzz : public ::testing::TestWithParam<u64>
{};

TEST_P(SkipIdleFuzz, IntegerProgramsMatchDense)
{
    fuzzOne(GetParam(), DiagConfig::f4c16(), false, false);
}

TEST_P(SkipIdleFuzz, FpProgramsMatchDense)
{
    fuzzOne(GetParam() + 1000, DiagConfig::f4c16(), true, false);
}

TEST_P(SkipIdleFuzz, SimtProgramsMatchDense)
{
    fuzzOne(GetParam() + 2000, DiagConfig::f4c16(), false, true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkipIdleFuzz,
                         ::testing::Range<u64>(1, 13));

// --- Loop stress: resident loops re-entered mid-line. -------------
//
// Every loop top below sits past slot 0 of its line, so each backward
// branch re-enters the resident cluster through the PE-cursor jump
// over the disabled leading PEs, and the cached backward-branch flag
// decides prefetch suppression on every activation.

namespace
{

void
kernelBothWays(const std::string &src)
{
    const Program p = assembler::assemble(src);
    DiagProcessor skip(DiagConfig::f4c32());
    const sim::RunStats rs = skip.run(p);
    DiagProcessor dense(denseTwin(DiagConfig::f4c32()));
    const sim::RunStats rd = dense.run(p);
    ASSERT_TRUE(rs.halted);
    expectRunsEqual(rs, rd, src.substr(0, 40));
    for (unsigned r = 1; r < isa::kNumRegs; ++r)
        ASSERT_EQ(skip.finalReg(0, static_cast<isa::RegId>(r)),
                  dense.finalReg(0, static_cast<isa::RegId>(r)))
            << "register " << r;
}

} // namespace

TEST(SkipIdleEquivalence, SteadyAluLoop)
{
    // Long counted pure-ALU loop: thousands of mid-line re-entries
    // through the PE-cursor jump.
    kernelBothWays(R"(
        _start:
            li a0, 0
            li a1, 2000
        loop:
            addi t0, a0, 3
            slli t1, t0, 2
            xor t2, t1, a0
            and t3, t2, t1
            addi a0, a0, 1
            bne a0, a1, loop
            ebreak
    )");
}

TEST(SkipIdleEquivalence, ShortTripLoops)
{
    // One-, two-, and three-iteration loops: the speculation window
    // never fills, and the not-taken exit path must still be exact.
    for (int n : {1, 2, 3}) {
        kernelBothWays(R"(
        _start:
            li a0, 0
            li a1, )" + std::to_string(n) +
                       R"(
        loop:
            addi t0, a0, 7
            addi a0, a0, 1
            bne a0, a1, loop
            ebreak
        )");
    }
}

TEST(SkipIdleEquivalence, NestedLoopsMatchDense)
{
    // The inner loop is re-entered from the outer one 17 times; every
    // entry at the inner top and every final not-taken exit must
    // match dense stepping exactly.
    kernelBothWays(R"(
        _start:
            li s0, 0
            li s1, 17
        outer:
            li a0, 0
            li a1, 23
        inner:
            add t0, a0, s0
            addi a0, a0, 1
            bne a0, a1, inner
            addi s0, s0, 1
            bne s0, s1, outer
            ebreak
    )");
}

TEST(SkipIdleEquivalence, MemoryLoopMatchesDense)
{
    // Strided stores then a reduction load loop: cache/bus counters
    // and the final memory image must match dense stepping.
    kernelBothWays(R"(
        _start:
            li a0, 0x8000
            li a1, 0
            li a2, 256
        fill:
            sw a1, 0(a0)
            addi a0, a0, 4
            addi a1, a1, 3
            bne a1, a2, fillchk
        fillchk:
            blt a1, a2, fill
            li a0, 0x8000
            li a3, 0
            li a4, 0
        sum:
            lw t0, 0(a0)
            add a3, a3, t0
            addi a0, a0, 4
            addi a4, a4, 1
            blt a4, a2, sum
            ebreak
    )");
}

TEST(SkipIdleEquivalence, DataDependentExitMatchesDense)
{
    // Collatz-style loop: a data-dependent forward branch inside the
    // body disables a different run of PEs from one iteration to the
    // next, so the PE-cursor jump skips a different span each time.
    kernelBothWays(R"(
        _start:
            li a0, 27
            li t2, 1
        loop:
            andi t0, a0, 1
            beq t0, zero, even
            slli t1, a0, 1
            add a0, t1, a0
            addi a0, a0, 1
            jal x0, next
        even:
            srli a0, a0, 1
        next:
            bne a0, t2, loop
            ebreak
    )");
}

// --- Observer equality: traces and address logs, byte for byte. ----

TEST(SkipIdleEquivalence, ChromeTraceBytesMatchDense)
{
    // With a tracer attached the PE-cursor jump, cached metadata, and
    // in-place lane file stay active — the emitted event stream must
    // be byte-identical to dense stepping.
    const workloads::Workload w = workloads::findWorkload("nn");
    trace::TraceConfig tc;
    harness::RunSpec spec;
    spec.trace = &tc;
    const harness::EngineRun skip =
        harness::runOnDiag(DiagConfig::f4c16(), w, spec);
    const harness::EngineRun dense =
        harness::runOnDiag(denseTwin(DiagConfig::f4c16()), w, spec);
    ASSERT_TRUE(skip.trace && dense.trace);
    expectRunsEqual(skip.stats, dense.stats, "nn traced");

    trace::TraceMeta meta;
    meta.workload = w.name;
    meta.config = "f4c16";
    std::ostringstream ts, td;
    trace::writeChromeTrace(ts, *skip.trace, meta);
    trace::writeChromeTrace(td, *dense.trace, meta);
    EXPECT_EQ(ts.str(), td.str());
}

TEST(SkipIdleEquivalence, AddrTraceMatchesDense)
{
    const workloads::Workload w = workloads::findWorkload("nn");
    harness::RunSpec spec;
    spec.use_simt = !w.asm_simt.empty();
    spec.record_addrs = true;
    const harness::EngineRun skip =
        harness::runOnDiag(DiagConfig::f4c16(), w, spec);
    const harness::EngineRun dense =
        harness::runOnDiag(denseTwin(DiagConfig::f4c16()), w, spec);
    ASSERT_TRUE(skip.addrs && dense.addrs);
    expectRunsEqual(skip.stats, dense.stats, "nn addr-traced");
    expectAddrTracesEqual(*skip.addrs, *dense.addrs, "nn");
}

// --- Fault campaigns: forced-dense injection runs, any job count. --

TEST(SkipIdleEquivalence, FaultCampaignReportMatchesDense)
{
    // Injection and recovery run at activation boundaries on both
    // paths, so a campaign configured with skip-idle scheduling must
    // render the very same report as one configured dense — and as
    // one fanned over four host jobs.
    fault::CampaignSpec spec;
    spec.workload = "nn";
    spec.config = DiagConfig::f4c16();
    spec.seed = 99;
    spec.trials = 12;
    spec.jobs = 1;
    const fault::CampaignReport skip = fault::runCampaign(spec);

    fault::CampaignSpec dspec = spec;
    dspec.config = denseTwin(spec.config);
    const fault::CampaignReport dense = fault::runCampaign(dspec);
    EXPECT_EQ(skip.renderJson(), dense.renderJson());

    fault::CampaignSpec fanned = spec;
    fanned.jobs = 4;
    const fault::CampaignReport par = fault::runCampaign(fanned);
    EXPECT_EQ(skip.renderJson(), par.renderJson());
}
