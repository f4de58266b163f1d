/** OoO microarchitecture sensitivity tests: structural windows, FU
 *  pools, wakeup delay, and store-to-load forwarding behaviour. */
#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "ooo/processor.hpp"

using namespace diag;
using namespace diag::ooo;

namespace
{

sim::RunStats
runOn(const OooConfig &cfg, const std::string &src)
{
    OooProcessor proc(cfg);
    return proc.run(assembler::assemble(src));
}

/** Independent-iteration loop: 16 parallel chains per iteration. */
std::string
ilpLoop()
{
    std::string src = "_start:\n    li x31, 512\nloop:\n";
    for (int r = 5; r < 21; ++r)
        src += "    addi x" + std::to_string(r) + ", x" +
               std::to_string(r) + ", 1\n";
    src += "    addi x31, x31, -1\n    bnez x31, loop\n    ebreak\n";
    return src;
}

} // namespace

TEST(OooMicroarch, SmallerRobIsSlower)
{
    OooConfig big = OooConfig::baseline8();
    OooConfig small = OooConfig::baseline8();
    small.rob_entries = 16;
    const sim::RunStats b = runOn(big, ilpLoop());
    const sim::RunStats s = runOn(small, ilpLoop());
    EXPECT_LT(b.cycles, s.cycles);
}

TEST(OooMicroarch, SmallerIqIsSlower)
{
    // A long-latency producer parks dependents in the IQ; a tiny IQ
    // blocks dispatch of younger independent work.
    std::string src = "_start:\n    li x31, 256\n    li x5, 1000\n"
                      "    li x6, 7\nloop:\n"
                      "    div x7, x5, x6\n"
                      "    add x8, x7, x7\n";
    for (int r = 10; r < 24; ++r)
        src += "    addi x" + std::to_string(r) + ", x" +
               std::to_string(r) + ", 1\n";
    src += "    addi x31, x31, -1\n    bnez x31, loop\n    ebreak\n";
    OooConfig big = OooConfig::baseline8();
    OooConfig small = OooConfig::baseline8();
    small.iq_entries = 4;
    const sim::RunStats b = runOn(big, src);
    const sim::RunStats s = runOn(small, src);
    EXPECT_LT(b.cycles, s.cycles);
}

TEST(OooMicroarch, NarrowWidthIsSlower)
{
    OooConfig wide = OooConfig::baseline8();
    OooConfig narrow = OooConfig::baseline8();
    narrow.width = 2;
    const sim::RunStats w = runOn(wide, ilpLoop());
    const sim::RunStats n = runOn(narrow, ilpLoop());
    EXPECT_LT(w.cycles, n.cycles);
    // 16+2 instructions per iteration at width 2 needs >= 9 cy/iter.
    EXPECT_GT(n.cycles, 512u * 8);
}

TEST(OooMicroarch, FewerAluUnitsAreSlower)
{
    OooConfig many = OooConfig::baseline8();
    OooConfig few = OooConfig::baseline8();
    few.alu_units = 1;
    const sim::RunStats m = runOn(many, ilpLoop());
    const sim::RunStats f = runOn(few, ilpLoop());
    // 16 independent adds per iteration on one ALU: >= 16 cy/iter.
    EXPECT_LT(m.cycles, f.cycles);
    EXPECT_GT(f.cycles, 512u * 15);
}

TEST(OooMicroarch, WakeupDelaySlowsDependentChains)
{
    // A pure dependent chain is paced by exec latency + wakeup delay.
    std::string src = "_start:\n    li x31, 1024\nloop:\n"
                      "    addi x5, x5, 1\n"
                      "    addi x5, x5, 1\n"
                      "    addi x5, x5, 1\n"
                      "    addi x5, x5, 1\n"
                      "    addi x31, x31, -1\n    bnez x31, loop\n"
                      "    ebreak\n";
    OooConfig fast = OooConfig::baseline8();
    fast.wakeup_delay = 0;
    OooConfig slow = OooConfig::baseline8();
    slow.wakeup_delay = 2;
    const sim::RunStats f = runOn(fast, src);
    const sim::RunStats s = runOn(slow, src);
    // Chain length 4 x 1024: each extra wakeup cycle adds ~2 cycles
    // per chain hop beyond the faster configuration.
    EXPECT_GT(s.cycles, f.cycles + 4000);
}

TEST(OooMicroarch, UnpipelinedDividerSerializes)
{
    // Back-to-back independent divides throttle on the single
    // unpipelined divider (occupancy = latency).
    std::string src = "_start:\n    li x31, 256\n    li x5, 1000\n"
                      "    li x6, 7\nloop:\n"
                      "    div x7, x5, x6\n"
                      "    div x8, x5, x6\n"
                      "    addi x31, x31, -1\n    bnez x31, loop\n"
                      "    ebreak\n";
    const sim::RunStats rs = runOn(OooConfig::baseline8(), src);
    // 512 divides x 12-cycle occupancy on one unit.
    EXPECT_GT(rs.cycles, 512u * 11);
}

TEST(OooMicroarch, StoreToLoadForwardingBeatsCacheRoundTrip)
{
    // A store immediately re-read forwards from the store buffer.
    const char *fwd = R"(
        .data
        buf: .space 64
        .text
        _start:
            la t0, buf
            li t1, 0
            li t2, 2048
        loop:
            sw t1, 0(t0)
            lw t3, 0(t0)
            add t4, t4, t3
            addi t1, t1, 1
            bne t1, t2, loop
            ebreak
    )";
    OooProcessor proc(OooConfig::baseline8());
    const sim::RunStats rs = proc.run(assembler::assemble(fwd));
    EXPECT_TRUE(rs.halted);
    EXPECT_GT(rs.counters.get("stl_forwards"), 2000.0);
}

TEST(OooMicroarch, MispredictPenaltyScalesWithConfig)
{
    // Data-dependent unpredictable branches: doubling the penalty
    // must cost roughly (extra_penalty x mispredicts) cycles.
    std::string src = R"(
        _start:
            li t0, 0
            li t1, 4096
            li t3, 1103515245
            li t4, 0x10001
        loop:
            mul t4, t4, t3
            addi t4, t4, 1013
            srli t5, t4, 16
            andi t5, t5, 1
            beqz t5, skip
            addi t2, t2, 1
        skip:
            addi t0, t0, 1
            bne t0, t1, loop
            ebreak
    )";
    OooConfig cheap = OooConfig::baseline8();
    cheap.mispredict_penalty = 2;
    OooConfig costly = OooConfig::baseline8();
    costly.mispredict_penalty = 20;
    const sim::RunStats a = runOn(cheap, src);
    const sim::RunStats b = runOn(costly, src);
    const double mispredicts = a.counters.get("mispredicts");
    EXPECT_GT(mispredicts, 1000.0);  // ~50% of 4096 unpredictable
    EXPECT_GT(b.cycles, a.cycles + 10 * 1000);
}

TEST(OooMicroarch, IcacheMissesStallFrontend)
{
    // A call chain spanning many lines with a cold L1I: the first
    // pass pays instruction misses, later passes hit.
    std::string src = "_start:\n    li s0, 0\n    li s1, 64\nouter:\n";
    for (int f = 0; f < 4; ++f)
        src.append("    call f").append(std::to_string(f)).append("\n");
    src += "    addi s0, s0, 1\n    bne s0, s1, outer\n    ebreak\n";
    for (int f = 0; f < 4; ++f) {
        src += ".align 6\n";  // one I-line per function
        src.append("f").append(std::to_string(f)).append(":\n");
        for (int i = 0; i < 14; ++i)
            src += "    addi t0, t0, 1\n";
        src += "    ret\n";
    }
    OooProcessor proc(OooConfig::baseline8());
    const sim::RunStats rs = proc.run(assembler::assemble(src));
    EXPECT_TRUE(rs.halted);
    EXPECT_GT(rs.counters.get("l1i.misses"), 3.0);
}
