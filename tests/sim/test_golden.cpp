/** Golden-simulator tests: end-to-end programs through the assembler. */
#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "sim/golden.hpp"

using namespace diag;
using namespace diag::assembler;
using namespace diag::isa;
using namespace diag::sim;

namespace
{

GoldenSim
runProgram(const std::string &src, u64 max_insts = 1'000'000)
{
    const Program p = assemble(src);
    GoldenSim sim(p);
    const RunResult r = sim.run(max_insts);
    EXPECT_TRUE(r.halted) << "program did not halt";
    return sim;
}

} // namespace

TEST(Golden, SumLoop)
{
    GoldenSim sim = runProgram(R"(
        _start:
            li a0, 0
            li a1, 1
            li a2, 101
        loop:
            add a0, a0, a1
            addi a1, a1, 1
            bne a1, a2, loop
            ebreak
    )");
    EXPECT_EQ(sim.reg(10), 5050u);  // 1+2+...+100
}

TEST(Golden, Fibonacci)
{
    GoldenSim sim = runProgram(R"(
        _start:
            li a0, 0
            li a1, 1
            li a2, 10
        loop:
            add a3, a0, a1
            mv a0, a1
            mv a1, a3
            addi a2, a2, -1
            bnez a2, loop
            ebreak
    )");
    EXPECT_EQ(sim.reg(10), 55u);  // fib(10)
}

TEST(Golden, MemoryReadWrite)
{
    GoldenSim sim = runProgram(R"(
        .data
        arr: .word 10, 20, 30, 40
        out: .space 4
        .text
        _start:
            la t0, arr
            lw t1, 0(t0)
            lw t2, 4(t0)
            lw t3, 8(t0)
            lw t4, 12(t0)
            add t1, t1, t2
            add t1, t1, t3
            add t1, t1, t4
            la t5, out
            sw t1, 0(t5)
            lw a0, 0(t5)
            ebreak
    )");
    EXPECT_EQ(sim.reg(10), 100u);
}

TEST(Golden, SubWordAccesses)
{
    GoldenSim sim = runProgram(R"(
        .data
        buf: .space 8
        .text
        _start:
            la t0, buf
            li t1, 0x80
            sb t1, 0(t0)
            lb a0, 0(t0)     # sign-extends to -128
            lbu a1, 0(t0)    # zero-extends to 128
            li t2, 0x8000
            sh t2, 4(t0)
            lh a2, 4(t0)
            lhu a3, 4(t0)
            ebreak
    )");
    EXPECT_EQ(sim.reg(10), 0xffffff80u);
    EXPECT_EQ(sim.reg(11), 0x80u);
    EXPECT_EQ(sim.reg(12), 0xffff8000u);
    EXPECT_EQ(sim.reg(13), 0x8000u);
}

TEST(Golden, FunctionCallAndReturn)
{
    GoldenSim sim = runProgram(R"(
        _start:
            li a0, 6
            call square
            mv s0, a0
            li a0, 7
            call square
            add a0, a0, s0
            ebreak
        square:
            mul a0, a0, a0
            ret
    )");
    EXPECT_EQ(sim.reg(10), 85u);  // 36 + 49
}

TEST(Golden, FloatingPointKernel)
{
    // Dot product of two 4-element vectors via fmadd.
    GoldenSim sim = runProgram(R"(
        .data
        va: .float 1.0, 2.0, 3.0, 4.0
        vb: .float 0.5, 1.5, 2.5, 3.5
        .text
        _start:
            la t0, va
            la t1, vb
            li t2, 4
            fmv.w.x fa0, x0
        loop:
            flw ft0, 0(t0)
            flw ft1, 0(t1)
            fmadd.s fa0, ft0, ft1, fa0
            addi t0, t0, 4
            addi t1, t1, 4
            addi t2, t2, -1
            bnez t2, loop
            fmv.x.w a0, fa0
            ebreak
    )");
    // 0.5 + 3 + 7.5 + 14 = 25
    EXPECT_EQ(sim.reg(10), 0x41c80000u);  // 25.0f
}

TEST(Golden, FpControlFlow)
{
    GoldenSim sim = runProgram(R"(
        _start:
            li t0, 3
            fcvt.s.w ft0, t0
            li t1, 4
            fcvt.s.w ft1, t1
            fmul.s ft2, ft0, ft0
            fmul.s ft3, ft1, ft1
            fadd.s ft4, ft2, ft3
            fsqrt.s ft5, ft4
            fcvt.w.s a0, ft5
            ebreak
    )");
    EXPECT_EQ(sim.reg(10), 5u);  // hypot(3,4)
}

TEST(Golden, X0AlwaysZero)
{
    GoldenSim sim = runProgram(R"(
        _start:
            addi x0, x0, 100
            add a0, x0, x0
            ebreak
    )");
    EXPECT_EQ(sim.reg(10), 0u);
    EXPECT_EQ(sim.reg(0), 0u);
}

TEST(Golden, SimtLoopScalarSemantics)
{
    // A simt-annotated loop behaves exactly like a scalar loop when
    // interpreted: rc steps by r_step until it reaches r_end.
    GoldenSim sim = runProgram(R"(
        .data
        acc: .word 0
        .text
        _start:
            li a0, 0          # rc
            li a1, 1          # step
            li a2, 8          # end
            li s0, 0          # accumulator
        head:
            simt_s a0, a1, a2, 1
            add s0, s0, a0
            simt_e a0, a2, head
            la t0, acc
            sw s0, 0(t0)
            ebreak
    )");
    EXPECT_EQ(sim.reg(8), 0u + 1 + 2 + 3 + 4 + 5 + 6 + 7);
    EXPECT_EQ(sim.memory().read32(sim.reg(5)), 28u);
}

TEST(Golden, HaltsOnInvalid)
{
    const Program p = assemble(".word 0\n");
    GoldenSim sim(p);
    const RunResult r = sim.run(10);
    EXPECT_TRUE(r.faulted);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.inst_count, 0u);
}

TEST(Golden, StraySimtETrapsPrecisely)
{
    // A simt_e whose target is not a simt_s assembles, but its scalar
    // semantics have no step register: a precise trap, not an exit.
    const Program p = assemble(R"(
        _start:
            li a0, 0
            li a2, 4
        head:
            addi s0, s0, 1
            simt_e a0, a2, head
            ebreak
    )");
    GoldenSim sim(p);
    const RunResult r = sim.run(100);
    EXPECT_TRUE(r.faulted);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.inst_count, 3u);
    EXPECT_EQ(r.stop_pc, 0x100cu);
    EXPECT_EQ(r.stop_reason, "trap: simt_e at 0x100c without simt_s");
}

TEST(Golden, MaxInstLimit)
{
    const Program p = assemble("_start: j _start\n");
    GoldenSim sim(p);
    const RunResult r = sim.run(100);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.inst_count, 100u);
}

TEST(Golden, TraceHookObservesRetirement)
{
    const Program p = assemble(R"(
        _start:
            li a0, 5
            li a1, 6
            add a2, a0, a1
            ebreak
    )");
    GoldenSim sim(p);
    int count = 0;
    u32 last_rd_value = 0;
    sim.setTraceHook([&](const StepInfo &info) {
        ++count;
        if (info.wrote_reg)
            last_rd_value = info.rd_value;
    });
    sim.run(100);
    EXPECT_EQ(count, 4);
    EXPECT_EQ(last_rd_value, 11u);
}

TEST(Golden, StepInfoForMemoryOps)
{
    const Program p = assemble(R"(
        .data
        v: .word 77
        .text
        _start:
            la t0, v
            lw a0, 0(t0)
            sw a0, 4(t0)
            ebreak
    )");
    GoldenSim sim(p);
    sim.step();  // lui
    sim.step();  // addi
    const StepInfo ld = sim.step();
    EXPECT_TRUE(ld.is_mem);
    EXPECT_EQ(ld.mem_value, 77u);
    const StepInfo st = sim.step();
    EXPECT_TRUE(st.is_mem);
    EXPECT_EQ(st.mem_addr, ld.mem_addr + 4);
}
