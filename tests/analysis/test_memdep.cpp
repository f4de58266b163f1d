/**
 * Memory-dependence pass tests: the load classification lattice
 * (lane-forwardable / LSU-serialized / unknown-alias), the
 * cross-iteration store-to-load race error inside simt regions with
 * its lane-forwardable counterpart accepted, CAM pressure notes, RV32
 * wraparound of the shared address algebra, and the byte-stability of
 * the finalized diagnostic stream.
 */
#include <gtest/gtest.h>

#include <string>

#include "analysis/lint.hpp"
#include "analysis/stream.hpp"
#include "analysis/verify.hpp"
#include "asm/assembler.hpp"
#include "workloads/workload.hpp"

using namespace diag;
using namespace diag::analysis;

namespace
{

ProgramAnalysis
analyze(const std::string &src, const LintOptions &opt = {})
{
    return analyzeProgram(assembler::assemble(src), opt);
}

bool
has(const LintResult &r, const std::string &pass, Severity sev,
    const std::string &needle)
{
    for (const Diagnostic &d : r.diags) {
        if (d.pass == pass && d.severity == sev &&
            d.message.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

/** The pipelined-thread race: every iteration reads and writes the
 *  same fixed address, so the value loaded depends on thread timing. */
const char *kCarriedRace = R"(
    _start:
        li s2, 0x100000
        li a2, 0
        li a3, 4
        li a4, 64
    head:
        simt_s a2, a3, a4, 1
        lw t0, 0(s2)
        addi t0, t0, 1
        sw t0, 0(s2)
        simt_e a2, a4, head
        ebreak
)";

/** The accepted counterpart: same store->load shape, but the address
 *  moves with the loop-control lane, so each thread touches its own
 *  cell and the memory lanes forward the store to the load. */
const char *kForwardable = R"(
    _start:
        li s2, 0x100000
        li a2, 0
        li a3, 4
        li a4, 64
    head:
        simt_s a2, a3, a4, 1
        add t5, s2, a2
        li t6, 7
        sw t6, 0(t5)
        lw t4, 0(t5)
        sw t4, 4(t5)
        simt_e a2, a4, head
        ebreak
)";

} // namespace

TEST(MemDep, CrossIterationRaceIsRejected)
{
    const ProgramAnalysis a = analyze(kCarriedRace);
    EXPECT_GT(a.lint.errors(), 0u) << renderText(a.lint);
    EXPECT_TRUE(has(a.lint, "memdep", Severity::Error,
                    "cross-iteration store-to-load race"))
        << renderText(a.lint);
    ASSERT_EQ(a.memdep.regions.size(), 1u);
    EXPECT_TRUE(a.memdep.regions[0].carried_race);
}

TEST(MemDep, ForwardableCounterpartIsAccepted)
{
    const ProgramAnalysis a = analyze(kForwardable);
    EXPECT_EQ(a.lint.errors(), 0u) << renderText(a.lint);
    ASSERT_EQ(a.memdep.regions.size(), 1u);
    const RegionMemDep &r = a.memdep.regions[0];
    EXPECT_FALSE(r.carried_race);
    ASSERT_EQ(r.loads.size(), 1u);
    EXPECT_EQ(r.loads[0].cls, LoadClass::LaneForwardable);
    EXPECT_TRUE(has(a.lint, "memdep", Severity::Note,
                    "forwards from the store"))
        << renderText(a.lint);
}

TEST(MemDep, PartialOverlapSerializesThroughLsu)
{
    const ProgramAnalysis a = analyze(R"(
        _start:
            li t0, 0x100000
            li t1, 5
            sw t1, 0(t0)
            lw t2, 2(t0)
            sw t2, 64(t0)
            ebreak
    )");
    ASSERT_EQ(a.memdep.loads.size(), 1u);
    EXPECT_EQ(a.memdep.loads[0].cls, LoadClass::LsuSerialized);
    EXPECT_TRUE(has(a.lint, "memdep", Severity::Note,
                    "serializes through the LSU"))
        << renderText(a.lint);
}

TEST(MemDep, OpaqueStoreLeavesLoadUndecided)
{
    const ProgramAnalysis a = analyze(R"(
        _start:
            li t0, 0x100000
            lw t3, 0(t0)
            li t1, 5
            sw t1, 0(t3)
            lw t2, 4(t0)
            sw t2, 64(t0)
            ebreak
    )");
    // The second load's window holds a store through an opaque base:
    // whether the CAM matches is unknowable statically.
    bool found = false;
    for (const LoadDep &ld : a.memdep.loads)
        if (ld.cls == LoadClass::UnknownAlias)
            found = true;
    EXPECT_TRUE(found);
}

TEST(MemDep, StrideMismatchWarnsOfPossibleAliasing)
{
    const ProgramAnalysis a = analyze(R"(
        _start:
            li s2, 0x100000
            li a2, 0
            li a3, 4
            li a4, 64
        head:
            simt_s a2, a3, a4, 1
            add t5, s2, a2
            slli t6, a2, 1
            add t6, s2, t6
            li t3, 9
            sw t3, 0(t5)
            lw t4, 0(t6)
            sw t4, 4(t6)
            simt_e a2, a4, head
            ebreak
    )");
    EXPECT_TRUE(has(a.lint, "memdep", Severity::Warning,
                    "share a base address"))
        << renderText(a.lint);
}

TEST(MemDep, CamPressureNoteWhenDemandExceedsEntries)
{
    LintOptions opt;
    opt.timing.mem_lane_entries = 4;
    const ProgramAnalysis a = analyze(kForwardable, opt);
    EXPECT_TRUE(has(a.lint, "memdep", Severity::Note,
                    "memory-lane pressure"))
        << renderText(a.lint);
}

// ---------------------------------------------------------------------
// The shared value numbering: recomputed addresses compare equal, and
// coefficients wrap at 2^32 as RV32 arithmetic does.
// ---------------------------------------------------------------------

namespace
{

/** The single block-scope load's classification in @p src. */
LoadClass
blockLoadClass(const std::string &src)
{
    const ProgramAnalysis a = analyze(src);
    EXPECT_EQ(a.memdep.loads.size(), 1u) << renderText(a.lint);
    return a.memdep.loads.empty() ? LoadClass::UnknownAlias
                                  : a.memdep.loads[0].cls;
}

} // namespace

TEST(MemDep, RecomputedScaledAddressForwards)
{
    // The jump makes `body` a block of its own, so s2 enters it as an
    // opaque term; both `slli` computations give the same 4*s2.
    EXPECT_EQ(blockLoadClass(R"(
        _start:
            li s2, 0x40000
            j body
        body:
            slli t0, s2, 2
            li t1, 5
            sw t1, 0(t0)
            slli t2, s2, 2
            lw t3, 0(t2)
            ebreak
    )"), LoadClass::LaneForwardable);
}

TEST(MemDep, RecomputedSumAddressForwards)
{
    EXPECT_EQ(blockLoadClass(R"(
        _start:
            li s2, 0x100000
            li s3, 0x40
            j body
        body:
            add t0, s2, s3
            li t1, 5
            sw t1, 8(t0)
            add t2, s3, s2
            lw t3, 8(t2)
            ebreak
    )"), LoadClass::LaneForwardable);
}

TEST(MemDep, DifferentScalesOfOneBaseStayUndecided)
{
    EXPECT_EQ(blockLoadClass(R"(
        _start:
            li s2, 0x40000
            j body
        body:
            slli t0, s2, 2
            li t1, 5
            sw t1, 0(t0)
            slli t2, s2, 3
            lw t3, 0(t2)
            ebreak
    )"), LoadClass::UnknownAlias);
}

TEST(MemDep, ShiftedOutCoefficientsWrapWithoutOverflow)
{
    // rc << 62 is 0 in RV32, so both accesses hit address 0 in every
    // iteration. Unwrapped i64 coefficients overflow here (UBSan).
    const std::string src = R"(
        _start:
            li a2, 0
            li a3, 4
            li a4, 64
        head:
            simt_s a2, a3, a4, 1
            slli t0, a2, 31
            slli t0, t0, 31
            add t0, t0, t0
            add t0, t0, t0
            sw zero, 0(t0)
            lw t1, 0(t0)
            simt_e a2, a4, head
            ebreak
    )";
    const ProgramAnalysis a = analyze(src);
    ASSERT_EQ(a.memdep.regions.size(), 1u);
    EXPECT_TRUE(a.memdep.regions[0].carried_race);
    EXPECT_TRUE(has(a.lint, "memdep", Severity::Error,
                    "cross-iteration store-to-load race"))
        << renderText(a.lint);

    const Program prog = assembler::assemble(src);
    EXPECT_FALSE(verifyProgram(prog, {}).clean());
    LintResult report;
    const StreamResult sr = analyzeStreams(prog, {}, report);
    ASSERT_EQ(sr.regions.size(), 1u);
    ASSERT_EQ(sr.regions[0].streams.size(), 2u);
    EXPECT_EQ(sr.regions[0].streams[0].rc_coeff, 0);
}

TEST(MemDep, AddressesThatDifferBy2To32RaceAcrossIterations)
{
    // s2 + (0x100 << 24) is s2 again mod 2^32: the store writes the
    // loaded cell every iteration, exactly like `add t2, s2, zero`.
    const ProgramAnalysis a = analyze(R"(
        _start:
            li s2, 0x100000
            li a2, 0
            li a3, 4
            li a4, 64
        head:
            simt_s a2, a3, a4, 1
            lw t0, 0(s2)
            addi t0, t0, 1
            li t1, 0x100
            slli t1, t1, 24
            add t2, s2, t1
            sw t0, 0(t2)
            simt_e a2, a4, head
            ebreak
    )");
    ASSERT_EQ(a.memdep.regions.size(), 1u);
    EXPECT_TRUE(a.memdep.regions[0].carried_race);
    EXPECT_TRUE(has(a.lint, "memdep", Severity::Error,
                    "cross-iteration store-to-load race"))
        << renderText(a.lint);
}

TEST(MemDep, AddressAbove2To31PrintsUnsigned)
{
    // The data sits at 0x80000000, the usual RV32 DRAM base: the note
    // names the unsigned address, not its sign-extended value.
    const ProgramAnalysis a = analyze(R"(
        _start:
            li a2, 0
            li a3, 4
            li a4, 64
        head:
            simt_s a2, a3, a4, 1
            lui t2, 0x80000
            add t1, a2, t2
            li t3, 5
            sw t3, 0(t1)
            lw t4, 0(t1)
            simt_e a2, a4, head
            ebreak
    )");
    EXPECT_TRUE(has(a.lint, "memdep", Severity::Note,
                    "store-to-load hit on base+1*rc+2147483648"))
        << renderText(a.lint);
}

// ---------------------------------------------------------------------
// Deterministic diagnostics: the finalized stream is sorted by
// (pc, pass, severity), deduplicated, and byte-stable across runs.
// ---------------------------------------------------------------------

TEST(Diagnostics, FinalizedStreamIsSortedAndDeduped)
{
    LintResult r;
    r.add(Severity::Note, 0x20, "bbb", "later");
    r.add(Severity::Warning, 0x10, "bbb", "mid");
    r.add(Severity::Error, 0x10, "aaa", "first");
    r.add(Severity::Warning, 0x10, "bbb", "mid");  // exact duplicate
    r.finalize();
    ASSERT_EQ(r.diags.size(), 3u);
    EXPECT_EQ(r.diags[0].pass, "aaa");
    EXPECT_EQ(r.diags[1].message, "mid");
    EXPECT_EQ(r.diags[2].pc, 0x20u);
}

TEST(Diagnostics, WorkloadAnalysisIsByteStable)
{
    auto renderAll = [](const std::string &src) {
        const ProgramAnalysis a = analyzeProgram(
            assembler::assemble(src), LintOptions::abiEntry());
        return renderJson(a.lint) + renderBoundJson(a.bound);
    };
    auto checkSuite = [&](const std::vector<workloads::Workload> &ws) {
        for (const auto &w : ws) {
            EXPECT_EQ(renderAll(w.asm_serial), renderAll(w.asm_serial))
                << w.name;
            if (!w.asm_simt.empty()) {
                EXPECT_EQ(renderAll(w.asm_simt),
                          renderAll(w.asm_simt))
                    << w.name;
            }
        }
    };
    checkSuite(workloads::rodiniaSuite());
    checkSuite(workloads::specSuite());
}
