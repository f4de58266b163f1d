/** Ring control-unit behaviour: line residency and reuse, eviction
 *  under capacity, prefetch suppression for resident loops, the
 *  speculation window, and the stride-prefetcher extension. */
#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "diag/processor.hpp"

using namespace diag;
using namespace diag::core;

namespace
{

sim::RunStats
runOn(const DiagConfig &cfg, const std::string &src)
{
    DiagProcessor proc(cfg);
    return proc.run(assembler::assemble(src));
}

/** A loop whose body spans @p lines I-lines (16 insts each). */
std::string
loopOfLines(unsigned lines, unsigned iters)
{
    std::string src = "_start:\n    li t0, 0\n    li t1, " +
                      std::to_string(iters) + "\n    j loop\n";
    src += ".org 0x2000\nloop:\n";
    for (unsigned i = 0; i < lines * 16 - 2; ++i)
        src += "    addi t2, t2, 1\n";
    src += "    addi t0, t0, 1\n    bne t0, t1, loop\n    ebreak\n";
    return src;
}

} // namespace

TEST(RingControl, LoopFittingRingIsFullyReused)
{
    // 4-line loop in a 16-cluster ring: after the first iteration no
    // further fetches happen.
    const sim::RunStats rs =
        runOn(DiagConfig::f4c16(), loopOfLines(4, 50));
    EXPECT_LT(rs.counters.get("iline_fetches"), 10.0);
    EXPECT_GT(rs.counters.get("reuse_activations"), 150.0);
}

TEST(RingControl, LoopLargerThanRingThrashes)
{
    // 5-line loop in a 2-cluster ring: every iteration refetches.
    DiagConfig cfg = DiagConfig::f4c32();
    cfg.num_rings = 16;  // 2 clusters per ring
    const sim::RunStats rs = runOn(cfg, loopOfLines(5, 50));
    EXPECT_GT(rs.counters.get("iline_fetches"), 200.0);
}

TEST(RingControl, ThrashingCostsCycles)
{
    const sim::RunStats fit =
        runOn(DiagConfig::f4c16(), loopOfLines(5, 50));
    DiagConfig tiny = DiagConfig::f4c32();
    tiny.num_rings = 16;
    const sim::RunStats thrash = runOn(tiny, loopOfLines(5, 50));
    EXPECT_LT(fit.cycles, thrash.cycles);
}

TEST(RingControl, SingleLineLoopStaysResidentInTwoClusterRing)
{
    // The fall-through prefetch must not evict a resident loop line
    // even with only two clusters.
    DiagConfig cfg = DiagConfig::f4c2();
    const sim::RunStats rs = runOn(cfg, loopOfLines(1, 100));
    EXPECT_LT(rs.counters.get("iline_fetches"), 8.0);
    EXPECT_GT(rs.counters.get("reuse_activations"), 95.0);
}

TEST(RingControl, SpeculationDepthBoundsOverlap)
{
    // Deeper speculation windows cannot be slower; depth 1 serializes
    // iterations of an independent-work loop and must be slowest.
    std::string src = "_start:\n    li t0, 0\n    li t1, 300\nloop:\n";
    for (int r = 5; r < 21; ++r)
        src += "    addi x" + std::to_string(r) + ", x" +
               std::to_string(r) + ", 1\n";
    src += "    addi t0, t0, 1\n    bne t0, t1, loop\n    ebreak\n";

    Cycle prev = ~Cycle{0};
    for (const unsigned depth : {1u, 4u, 12u}) {
        DiagConfig cfg = DiagConfig::f4c32();
        cfg.speculation_depth = depth;
        const sim::RunStats rs = runOn(cfg, src);
        EXPECT_LE(rs.cycles, prev) << "depth " << depth;
        prev = rs.cycles;
    }
}

TEST(RingControl, StridePrefetchHelpsStreams)
{
    // A strided streaming loop over an L2-resident array: the per-PE
    // stride prefetcher converts L1 misses into line-buffer hits.
    const char *src = R"(
        .data
        .org 0x100000
        arr: .space 262144
        .text
        _start:
            li t0, 0x100000
            li t1, 0
            li t2, 4096
        loop:
            slli t3, t1, 6
            add t4, t0, t3
            lw t5, 0(t4)
            add t6, t6, t5
            addi t1, t1, 1
            bne t1, t2, loop
            ebreak
    )";
    auto run = [&](bool prefetch) {
        DiagConfig cfg = DiagConfig::f4c32();
        cfg.stride_prefetch_enabled = prefetch;
        DiagProcessor proc(cfg);
        proc.loadProgram(assembler::assemble(src));
        proc.warmCaches();
        return proc.run(assembler::assemble(src));
    };
    const sim::RunStats off = run(false);
    const sim::RunStats on = run(true);
    EXPECT_LT(on.cycles, off.cycles);
    EXPECT_GT(on.counters.get("stride_prefetches"), 3000.0);
}

TEST(RingControl, StridePrefetchKeepsResultsCorrect)
{
    DiagConfig cfg = DiagConfig::f4c32();
    cfg.stride_prefetch_enabled = true;
    DiagProcessor proc(cfg);
    const Program p = assembler::assemble(R"(
        .data
        arr: .space 4096
        .text
        _start:
            la t0, arr
            li t1, 0
            li t2, 512
        fill:
            slli t3, t1, 3
            add t4, t0, t3
            sw t1, 0(t4)
            addi t1, t1, 1
            bne t1, t2, fill
            li t1, 0
            li a0, 0
        sum:
            slli t3, t1, 3
            add t4, t0, t3
            lw t5, 0(t4)
            add a0, a0, t5
            addi t1, t1, 1
            bne t1, t2, sum
            ebreak
    )");
    proc.run(p);
    EXPECT_EQ(proc.finalReg(0, 10), 511u * 512 / 2);
}

TEST(RingControl, OverwrittenCodeLineIsDecodedAfresh)
{
    // The line at 0x2000 runs once with `addi a0, a0, 1`, then a store
    // overwrites that word with `addi a0, a0, 100` (0x06450513). On a
    // 2-cluster ring the lines at 0x3000 and 0x4000 evict it, so the
    // second visit re-fetches and must execute the new word, even
    // though the same line was decoded before. Registers and cycles
    // are pinned to the values measured before the decoded-line cache
    // existed.
    const std::string src = R"(
_start:
    li a0, 0
    li a2, 0
    la t0, patch
    li t1, 0x06450513
    j patch_line
.org 0x2000
patch_line:
patch:
    addi a0, a0, 1
    j dispatch
.org 0x3000
dispatch:
    bnez a2, done
    li a2, 1
    sw t1, 0(t0)
    j filler
done:
    ebreak
.org 0x4000
filler:
    addi a1, a1, 1
    j patch_line
)";
    DiagProcessor proc(DiagConfig::f4c2());
    const sim::RunStats rs = proc.run(assembler::assemble(src));
    ASSERT_TRUE(rs.halted);
    EXPECT_EQ(proc.finalReg(0, isa::RegId{10}), 101u);  // a0: 1 + 100
    EXPECT_EQ(proc.finalReg(0, isa::RegId{11}), 1u);    // a1
    EXPECT_EQ(proc.finalReg(0, isa::RegId{12}), 1u);    // a2
    EXPECT_EQ(rs.instructions, 19u);
    EXPECT_EQ(rs.cycles, 623u);
    EXPECT_EQ(rs.counters.get("iline_fetches"), 11.0);
}
