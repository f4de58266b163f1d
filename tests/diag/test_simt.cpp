/** SIMT thread-pipelining tests: region validation, scalar fallback,
 *  replication, launch-interval pacing, and lane-propagation rules. */
#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "diag/processor.hpp"
#include "sim/golden.hpp"

using namespace diag;
using namespace diag::core;

namespace
{

/** vecout[i] = 2*vecin[i] + i over n elements via a simt region. */
std::string
vecKernel(unsigned interval)
{
    return R"(
        .data
        .org 0x100000
        vin: .space 1024
        .org 0x101000
        vout: .space 1024
        .text
        _start:
            li t0, 0x100000
            li t1, 0
            li t2, 256
        init:
            slli t3, t1, 2
            add t4, t0, t3
            sw t1, 0(t4)
            addi t1, t1, 1
            bne t1, t2, init
            li s2, 0x100000
            li s3, 0x101000
            li a2, 0
            li a3, 4
            li a4, 1024
        head:
            simt_s a2, a3, a4, )" + std::to_string(interval) + R"(
            add t5, s2, a2
            lw t6, 0(t5)
            slli t0, t6, 1
            add t6, t0, a2
            add t5, s3, a2
            sw t6, 0(t5)
            simt_e a2, a4, head
            ebreak
    )";
}

sim::RunStats
runOn(const DiagConfig &cfg, const std::string &src)
{
    DiagProcessor proc(cfg);
    return proc.run(assembler::assemble(src));
}

} // namespace

TEST(Simt, PipelineProducesGoldenOutput)
{
    const Program p = assembler::assemble(vecKernel(1));
    sim::GoldenSim gold(p);
    gold.run();

    DiagProcessor proc(DiagConfig::f4c32());
    const sim::RunStats rs = proc.run(p);
    EXPECT_TRUE(rs.halted);
    EXPECT_EQ(rs.counters.get("simt_regions"), 1.0);
    EXPECT_EQ(rs.counters.get("simt_threads"), 256.0);
    for (u32 i = 0; i < 256; ++i)
        ASSERT_EQ(proc.memory().read32(0x101000 + 4 * i),
                  gold.memory().read32(0x101000 + 4 * i))
            << "element " << i;
}

TEST(Simt, ReplicatesAcrossFreeClusters)
{
    // A one-to-two-line region in a 32-cluster ring replicates many
    // times; in a 4-cluster ring only once or twice.
    const std::string src = vecKernel(1);
    const sim::RunStats big = runOn(DiagConfig::f4c32(), src);
    DiagConfig small = DiagConfig::f4c32();
    small.num_rings = 8;  // 4 clusters per ring
    small.name = "F4C32-8x4";
    const sim::RunStats few = runOn(small, src);
    EXPECT_GT(big.counters.get("simt_replicas"), 4.0);
    EXPECT_LE(few.counters.get("simt_replicas"), 4.0);
    EXPECT_GT(big.counters.get("simt_replicas"),
              few.counters.get("simt_replicas"));
}

TEST(Simt, LaunchIntervalPacesThreads)
{
    // interval=8 must be slower than interval=1 (launch-rate-bound).
    const sim::RunStats fast = runOn(DiagConfig::f4c32(), vecKernel(1));
    const sim::RunStats slow = runOn(DiagConfig::f4c32(), vecKernel(8));
    EXPECT_LT(fast.cycles + 200, slow.cycles);
    EXPECT_EQ(slow.counters.get("simt_threads"), 256.0);
}

TEST(Simt, BackwardBranchInRegionFallsBackToScalar)
{
    const char *src = R"(
        _start:
            li a0, 0
            li a1, 1
            li a2, 8
            li s0, 0
        head:
            simt_s a0, a1, a2, 1
            li t0, 2
        inner:
            addi s0, s0, 1
            addi t0, t0, -1
            bnez t0, inner
            simt_e a0, a2, head
            ebreak
    )";
    DiagProcessor proc(DiagConfig::f4c32());
    const sim::RunStats rs = proc.run(assembler::assemble(src));
    EXPECT_TRUE(rs.halted);
    EXPECT_EQ(rs.counters.get("simt_regions"), 0.0);
    EXPECT_GT(rs.counters.get("simt_fallbacks"), 0.0);
    EXPECT_EQ(proc.finalReg(0, 8), 16u);  // 8 trips x 2 inner
}

TEST(Simt, FallbackExitsKeepTheirTiming)
{
    // Three single-trip regions the scanner rejects (s0 is read before
    // it is written), each on its own line, so each runs as one scalar
    // fallback activation that leaves the line a different way: a far
    // redirect into a resident line, running off the end of the line,
    // and a halt. The cycle count pins the handover each exit pays.
    const char *src = R"(
        _start:
            li a1, 1
            li a2, 1
            li s0, 5
            j setup
            .align 8
        setup:
            li a0, 0
            j r1
        back:
            addi s0, s0, 3
            j r2
            .align 8
        r1:
            simt_s a0, a1, a2, 1
            add s0, s0, s0
            simt_e a0, a2, r1
            j back
            .align 8
        r2:
            simt_s a0, a1, a2, 1
            add s0, s0, s0
            nop
            nop
            nop
            nop
            nop
            nop
            nop
            nop
            nop
            nop
            nop
            nop
            nop
            simt_e a0, a2, r2
        r3:
            simt_s a0, a1, a2, 1
            add s0, s0, s0
            simt_e a0, a2, r3
            ebreak
    )";
    const Program p = assembler::assemble(src);
    sim::GoldenSim gold(p);
    gold.run();
    DiagProcessor proc(DiagConfig::f4c16());
    const sim::RunStats rs = proc.run(p);
    ASSERT_TRUE(rs.halted);
    EXPECT_EQ(rs.counters.get("simt_regions"), 0.0);
    EXPECT_EQ(rs.counters.get("simt_fallbacks"), 3.0);
    EXPECT_EQ(proc.finalReg(0, 8), gold.reg(8));
    EXPECT_EQ(gold.reg(8), 52u);
    EXPECT_EQ(proc.finalReg(0, 10), 3u);
    EXPECT_EQ(rs.cycles, 749u);
}

TEST(Simt, FallbackFallThroughHandsOverAndHoldsItsCluster)
{
    // A 2-cluster ring runs four back-to-back lines: setup, a rejected
    // single-trip region (s0 is read before it is written) that runs
    // off the end of its line, a line that prefetches the next, and a
    // halt. The region's divides finish in segment 0, so its scalar
    // fallback retires (end_cycle) one lane hop after its PEs are done
    // (compute_done). The following line enters through the
    // inter-cluster latch, and its prefetch of the halt line evicts the
    // region's cluster, which must wait for the fallback to retire.
    // The cycle count pins both handovers: 27 cycles more if the
    // fell-through pc_enter were 50 late, one fewer if the fallback
    // freed its cluster at compute_done.
    const char *src = R"(
        _start:
            li a1, 1
            li a2, 1
            li s0, 5
            li s1, 3
            li a0, 0
            j r
            .align 6
        r:
            simt_s a0, a1, a2, 1
            div s0, s0, a1
            div s0, s0, a1
            div s0, s0, a1
            div s0, s0, a1
            div s0, s0, a1
            div s0, s0, a1
            nop
            nop
            nop
            nop
            nop
            nop
            nop
            nop
            simt_e a0, a2, r
        n:
            addi s2, s0, 1
            j m
            .align 6
        m:
            ebreak
    )";
    const Program p = assembler::assemble(src);
    sim::GoldenSim gold(p);
    gold.run();
    DiagConfig cfg = DiagConfig::f4c32();
    cfg.num_rings = 16;  // 2 clusters per ring
    DiagProcessor proc(cfg);
    proc.loadProgram(p);
    proc.warmCaches();
    const sim::RunStats rs = proc.run(p);
    ASSERT_TRUE(rs.halted);
    EXPECT_EQ(rs.counters.get("simt_regions"), 0.0);
    EXPECT_EQ(rs.counters.get("simt_fallbacks"), 1.0);
    EXPECT_EQ(proc.finalReg(0, 18), gold.reg(18));
    EXPECT_EQ(gold.reg(18), 6u);
    EXPECT_EQ(rs.cycles, 149u);
}

TEST(Simt, IndirectJumpInRegionFallsBack)
{
    const char *src = R"(
        _start:
            li a0, 0
            li a1, 1
            li a2, 4
            la s1, target
        head:
            simt_s a0, a1, a2, 1
            jalr x0, s1, 0
        target:
            addi s0, s0, 1
            simt_e a0, a2, head
            ebreak
    )";
    DiagProcessor proc(DiagConfig::f4c32());
    const sim::RunStats rs = proc.run(assembler::assemble(src));
    EXPECT_TRUE(rs.halted);
    EXPECT_EQ(rs.counters.get("simt_regions"), 0.0);
    EXPECT_EQ(proc.finalReg(0, 8), 4u);
}

TEST(Simt, RegionTooBigForRingFallsBack)
{
    // A region longer than a 2-cluster ring (32 instructions).
    std::string src = R"(
        _start:
            li a0, 0
            li a1, 1
            li a2, 4
        head:
            simt_s a0, a1, a2, 1
)";
    for (int i = 0; i < 40; ++i)
        src += "            addi s0, s0, 1\n";
    src += R"(
            simt_e a0, a2, head
            ebreak
    )";
    DiagConfig cfg = DiagConfig::f4c32();
    cfg.num_rings = 16;  // 2 clusters per ring
    DiagProcessor proc(cfg);
    const sim::RunStats rs = proc.run(assembler::assemble(src));
    EXPECT_TRUE(rs.halted);
    EXPECT_EQ(rs.counters.get("simt_regions"), 0.0);
    EXPECT_EQ(proc.finalReg(0, 8), 160u);  // scalar fallback: 4 x 40
}

TEST(Simt, ZeroAndSingleTripCounts)
{
    // Do-while semantics: the body always runs at least once, even if
    // rc already exceeds the bound.
    const char *src = R"(
        _start:
            li a0, 50
            li a1, 1
            li a2, 8    # end < rc: still one trip
        head:
            simt_s a0, a1, a2, 1
            addi s0, a0, 1     # s0 = rc + 1 (no loop-carried dep)
            simt_e a0, a2, head
            ebreak
    )";
    const Program p = assembler::assemble(src);
    sim::GoldenSim gold(p);
    gold.run();
    DiagProcessor proc(DiagConfig::f4c32());
    const sim::RunStats rs = proc.run(p);
    EXPECT_EQ(proc.finalReg(0, 8), gold.reg(8));
    EXPECT_EQ(gold.reg(8), 51u);
    EXPECT_EQ(rs.counters.get("simt_threads"), 1.0);
    EXPECT_EQ(proc.finalReg(0, 10), 51u);  // rc advanced once
}

TEST(Simt, NegativeStepLoops)
{
    // rc counts down by 4; each thread stores its rc to out[rc].
    const char *src = R"(
        .data
        .org 0x100000
        out: .space 64
        .text
        _start:
            li s4, 0x100000
            li a0, 40
            li a1, -4
            li a2, 0
        head:
            simt_s a0, a1, a2, 1
            add t0, s4, a0
            sw a0, 0(t0)
            simt_e a0, a2, head
            ebreak
    )";
    const Program p = assembler::assemble(src);
    sim::GoldenSim gold(p);
    gold.run();
    DiagProcessor proc(DiagConfig::f4c32());
    const sim::RunStats rs = proc.run(p);
    EXPECT_EQ(rs.counters.get("simt_regions"), 1.0);
    EXPECT_EQ(rs.counters.get("simt_threads"), 10.0);
    for (u32 off = 4; off <= 40; off += 4)
        EXPECT_EQ(proc.memory().read32(0x100000 + off), off);
    EXPECT_EQ(proc.finalReg(0, 10), gold.reg(10));  // rc ends at 0
}

TEST(Simt, LoopCarriedRegisterDependenceIsRejected)
{
    // An accumulator (read-before-write of s0) cannot be pipelined:
    // each thread would see only the simt_s snapshot. The scanner must
    // fall back to scalar execution, which matches golden.
    const char *src = R"(
        _start:
            li a0, 0
            li a1, 1
            li a2, 10
            li s0, 0
        head:
            simt_s a0, a1, a2, 1
            add s0, s0, a0
            simt_e a0, a2, head
            ebreak
    )";
    const Program p = assembler::assemble(src);
    sim::GoldenSim gold(p);
    gold.run();
    DiagProcessor proc(DiagConfig::f4c32());
    const sim::RunStats rs = proc.run(p);
    EXPECT_EQ(rs.counters.get("simt_regions"), 0.0);
    EXPECT_GT(rs.counters.get("simt_fallbacks"), 0.0);
    EXPECT_EQ(proc.finalReg(0, 8), gold.reg(8));
    EXPECT_EQ(gold.reg(8), 45u);
}

TEST(Simt, ConditionallyWrittenLiveInIsRejected)
{
    // t2 is written only on one path but read unconditionally: a
    // thread could observe the previous iteration's value in scalar
    // semantics, so the region must not be pipelined.
    const char *src = R"(
        .data
        .org 0x100000
        out: .space 64
        .text
        _start:
            li s4, 0x100000
            li a0, 0
            li a1, 4
            li a2, 40
            li t2, 7
        head:
            simt_s a0, a1, a2, 1
            andi t0, a0, 4
            beqz t0, skip
            addi t2, a0, 100
        skip:
            add t1, s4, a0
            sw t2, 0(t1)
            simt_e a0, a2, head
            ebreak
    )";
    const Program p = assembler::assemble(src);
    sim::GoldenSim gold(p);
    gold.run();
    DiagProcessor proc(DiagConfig::f4c32());
    const sim::RunStats rs = proc.run(p);
    EXPECT_EQ(rs.counters.get("simt_regions"), 0.0);
    for (u32 off = 0; off < 40; off += 4)
        EXPECT_EQ(proc.memory().read32(0x100000 + off),
                  gold.memory().read32(0x100000 + off))
            << "offset " << off;
}

TEST(Simt, OnlyLastThreadLanesPropagate)
{
    // A body register written per thread must hold the LAST thread's
    // value after the region (paper §5.4: simt_e "does not propagate
    // all but the last thread's register lanes").
    const char *src = R"(
        _start:
            li a0, 0
            li a1, 1
            li a2, 16
        head:
            simt_s a0, a1, a2, 1
            slli s1, a0, 3    # s1 = 8 * rc, unique per thread
            simt_e a0, a2, head
            mv s2, s1         # observe after the region
            ebreak
    )";
    DiagProcessor proc(DiagConfig::f4c32());
    proc.run(assembler::assemble(src));
    EXPECT_EQ(proc.finalReg(0, 18), 8u * 15);  // last thread rc = 15
}

TEST(Simt, DisabledConfigRunsScalar)
{
    DiagConfig cfg = DiagConfig::f4c32();
    cfg.simt_enabled = false;
    const sim::RunStats rs = runOn(cfg, vecKernel(1));
    EXPECT_TRUE(rs.halted);
    EXPECT_EQ(rs.counters.get("simt_regions"), 0.0);
    EXPECT_EQ(rs.counters.get("simt_fallbacks"), 0.0);
}
