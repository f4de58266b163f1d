/** End-to-end fault-injection tests: zero-cost-off hooks, parity and
 *  lockstep detection with rollback recovery, PE-stuck cluster
 *  degradation, and campaign determinism. */
#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "diag/processor.hpp"
#include "fault/campaign.hpp"
#include "fault/controller.hpp"
#include "sim/golden.hpp"

using namespace diag;
using namespace diag::core;
using namespace diag::fault;

namespace
{

/** ~600 retired instructions, result 5050 in a0; fits one line. */
const char *kSumLoop = R"(
    _start:
        li a0, 0
        li a1, 1
        li a2, 101
    loop:
        add a0, a0, a1
        addi a1, a1, 1
        bne a1, a2, loop
        ebreak
)";

std::unique_ptr<LockstepOracle>
makeOracle(const Program &prog)
{
    return std::make_unique<LockstepOracle>(sim::GoldenSim(prog));
}

} // namespace

TEST(FaultInjection, EmptyControllerIsCycleNeutral)
{
    // The zero-cost-off criterion, strengthened: even an *attached*
    // controller with no events and no detectors must not perturb
    // timing — the hooks only branch, they never charge cycles.
    const Program p = assembler::assemble(kSumLoop);

    DiagProcessor bare(DiagConfig::f4c2());
    const sim::RunStats base = bare.run(p);
    ASSERT_TRUE(base.halted);

    FaultController fc(FaultPlan{}, DetectConfig{});
    DiagProcessor faulty(DiagConfig::f4c2());
    faulty.attachFaults(&fc);
    const sim::RunStats rs = faulty.run(p);
    ASSERT_TRUE(rs.halted);

    EXPECT_EQ(rs.cycles, base.cycles);
    EXPECT_EQ(rs.instructions, base.instructions);
    EXPECT_EQ(faulty.finalReg(0, 10), 5050u);
}

TEST(FaultInjection, ParityDetectsLaneFlipAndRecovers)
{
    const Program p = assembler::assemble(kSumLoop);

    FaultPlan plan;
    plan.seed = 1;
    FaultEvent ev;
    ev.site = FaultSite::RegLaneValue;
    ev.trigger = 50;  // mid-loop, well before the ~600th retirement
    ev.lane = 10;     // a0, the accumulator
    ev.bit = 7;
    plan.events.push_back(ev);

    DetectConfig det;
    det.parity = true;
    FaultController fc(std::move(plan), det);

    DiagProcessor proc(DiagConfig::f4c2());
    proc.attachFaults(&fc);
    const sim::RunStats rs = proc.run(p);

    EXPECT_TRUE(rs.halted);
    EXPECT_EQ(fc.tally().parity_detections, 1u);
    EXPECT_EQ(fc.tally().recoveries, 1u);
    EXPECT_TRUE(fc.allFired());
    // Rollback restored the clean lane file: the sum is still right.
    EXPECT_EQ(proc.finalReg(0, 10), 5050u);
    EXPECT_EQ(rs.counters.get("fault_recoveries"), 1.0);
}

TEST(FaultInjection, UndetectedLaneFlipCorruptsResult)
{
    // Sanity check on the fault path itself: with every detector off,
    // the same flip must actually corrupt the architectural result
    // (otherwise the detection tests above prove nothing).
    const Program p = assembler::assemble(kSumLoop);

    FaultPlan plan;
    plan.seed = 1;
    FaultEvent ev;
    ev.site = FaultSite::RegLaneValue;
    ev.trigger = 50;
    ev.lane = 10;
    ev.bit = 7;
    plan.events.push_back(ev);

    FaultController fc(std::move(plan), DetectConfig{});
    DiagProcessor proc(DiagConfig::f4c2());
    proc.attachFaults(&fc);
    const sim::RunStats rs = proc.run(p);

    EXPECT_TRUE(rs.halted);
    EXPECT_TRUE(fc.allFired());
    EXPECT_NE(proc.finalReg(0, 10), 5050u);
}

TEST(FaultInjection, LockstepDetectsPeResultFlip)
{
    const Program p = assembler::assemble(kSumLoop);

    FaultPlan plan;
    plan.seed = 1;
    FaultEvent ev;
    ev.site = FaultSite::PeResult;
    ev.trigger = 60;
    ev.cluster = 0;  // the single loop line lands on cluster 0 first
    ev.pe = 3;       // the add's slot within the line
    ev.bit = 12;
    plan.events.push_back(ev);

    DetectConfig det;
    det.lockstep = true;
    FaultController fc(std::move(plan), det);
    fc.attachOracle(makeOracle(p));

    DiagProcessor proc(DiagConfig::f4c2());
    proc.attachFaults(&fc);
    const sim::RunStats rs = proc.run(p);

    EXPECT_TRUE(rs.halted);
    EXPECT_GE(fc.tally().lockstep_detections, 1u);
    EXPECT_GE(fc.tally().recoveries, 1u);
    // The transient flip is one-shot: re-execution after rollback is
    // clean, so the architectural result is intact.
    EXPECT_EQ(proc.finalReg(0, 10), 5050u);
}

TEST(FaultInjection, StuckPeDisablesClusterAndCompletes)
{
    const Program p = assembler::assemble(kSumLoop);

    // Fault-free reference timing.
    DiagProcessor ref(DiagConfig::f4c16());
    const sim::RunStats base = ref.run(p);
    ASSERT_TRUE(base.halted);

    FaultPlan plan;
    plan.seed = 1;
    FaultEvent ev;
    ev.site = FaultSite::PeStuck;
    ev.trigger = 30;
    ev.cluster = 0;
    ev.pe = 3;
    ev.stuck_value = 0xdeadbeef;
    plan.events.push_back(ev);

    DetectConfig det;
    det.lockstep = true;
    FaultController fc(std::move(plan), det);
    fc.attachOracle(makeOracle(p));

    // 16 clusters: the ring can afford to take one offline.
    DiagProcessor proc(DiagConfig::f4c16());
    proc.attachFaults(&fc);
    const sim::RunStats rs = proc.run(p);

    EXPECT_TRUE(rs.halted);
    // A permanent fault keeps diverging until the blame counter takes
    // the cluster offline, after which the remap executes cleanly.
    EXPECT_GE(fc.tally().lockstep_detections, 2u);
    EXPECT_EQ(fc.tally().clusters_disabled, 1u);
    EXPECT_EQ(rs.counters.get("clusters_disabled"), 1.0);
    EXPECT_EQ(proc.finalReg(0, 10), 5050u);
    // Degraded, not free: rollbacks and remapping cost cycles.
    EXPECT_GT(rs.cycles, base.cycles);
}

/**
 * A simt region the control unit rejects (s0 is read before it is
 * written, a loop-carried dependence), so it runs as the scalar
 * fallback activation. The region starts its own line and is entered
 * by a jump: the activation that traps at the simt_s executes nothing,
 * so the first PE result after the jump's boundary comes from the
 * fallback. On the serial path its simt_e loops back to head + 4.
 * 40 trips; s0 ends at 0+1+...+39 = 780, s1 at the xor of the partial
 * sums, 40.
 */
const char *kFallbackLoop = R"(
    _start:
        li a0, 0
        li a1, 1
        li a2, 40
        li s0, 0
        j head
        .align 6
    head:
        simt_s a0, a1, a2, 1
        add s0, s0, a0
        xor s1, s1, s0
        simt_e a0, a2, head
        ebreak
)";

/** Lockstep on, a single event of @p site on cluster 1 (where the
 *  region's line is prefetched), PE 1 (the add's slot). */
FaultController
fallbackController(const Program &p, FaultSite site, u64 trigger,
                   DetectConfig det = {})
{
    FaultPlan plan;
    plan.seed = 1;
    FaultEvent ev;
    ev.site = site;
    ev.trigger = trigger;
    ev.cluster = 1;
    ev.pe = 1;
    ev.bit = 9;
    ev.stuck_value = 0xdeadbeef;
    plan.events.push_back(ev);
    det.lockstep = true;
    FaultController fc(std::move(plan), det);
    fc.attachOracle(makeOracle(p));
    return fc;
}

TEST(FaultInjection, PeFlipInSimtFallbackStrikesTheMarker)
{
    // A transient flip armed at the jump's boundary strikes the first
    // result of the fallback activation: the simt_s marker's, which
    // writes nothing, so lockstep sees a clean run.
    const Program p = assembler::assemble(kFallbackLoop);
    DiagProcessor bare(DiagConfig::f4c16());
    const sim::RunStats base = bare.run(p);
    ASSERT_TRUE(base.halted);

    FaultController fc = fallbackController(p, FaultSite::PeResult, 5);
    DiagProcessor proc(DiagConfig::f4c16());
    proc.attachFaults(&fc);
    const sim::RunStats rs = proc.run(p);

    ASSERT_TRUE(rs.halted);
    EXPECT_EQ(rs.counters.get("simt_fallbacks"), 1.0);
    EXPECT_EQ(rs.counters.get("simt_regions"), 0.0);
    ASSERT_TRUE(fc.allFired());
    EXPECT_EQ(fc.eventLog()[0].note, "PE cl1/0 result bit 9 flipped");
    EXPECT_EQ(rs.cycles, 410u);
    EXPECT_EQ(rs.cycles, base.cycles);
    EXPECT_EQ(fc.tally().lockstep_detections, 0u);
    EXPECT_EQ(fc.tally().recoveries, 0u);
    EXPECT_EQ(proc.finalReg(0, 8), 780u);
    EXPECT_EQ(proc.finalReg(0, 9), 40u);
    EXPECT_EQ(proc.finalReg(0, 10), 40u);
}

TEST(FaultInjection, StuckPeInSimtFallbackDisablesCluster)
{
    // The dead PE corrupts the add in the fallback activation, which
    // rolls back twice and then takes cluster 1 offline; the region's
    // line remaps and the run completes with the right sums.
    const Program p = assembler::assemble(kFallbackLoop);
    FaultController fc = fallbackController(p, FaultSite::PeStuck, 0);
    DiagProcessor proc(DiagConfig::f4c16());
    proc.attachFaults(&fc);
    const sim::RunStats rs = proc.run(p);

    ASSERT_TRUE(rs.halted);
    EXPECT_EQ(rs.counters.get("simt_fallbacks"), 1.0);
    EXPECT_EQ(rs.cycles, 546u);
    EXPECT_EQ(fc.tally().lockstep_detections, 2u);
    EXPECT_EQ(fc.tally().recoveries, 2u);
    EXPECT_EQ(fc.tally().clusters_disabled, 1u);
    EXPECT_EQ(rs.counters.get("fault_recoveries"), 2.0);
    EXPECT_EQ(rs.counters.get("clusters_disabled"), 1.0);
    EXPECT_EQ(proc.finalReg(0, 8), 780u);
    EXPECT_EQ(proc.finalReg(0, 9), 40u);
    EXPECT_EQ(proc.finalReg(0, 10), 40u);
}

TEST(FaultInjection, StuckPeInSimtFallbackExhaustsRecovery)
{
    // With one recovery allowed, the second divergence in the fallback
    // activation aborts the run before the cluster is taken offline.
    const Program p = assembler::assemble(kFallbackLoop);
    DetectConfig det;
    det.max_recoveries = 1;
    FaultController fc =
        fallbackController(p, FaultSite::PeStuck, 0, det);
    DiagProcessor proc(DiagConfig::f4c16());
    proc.attachFaults(&fc);
    const sim::RunStats rs = proc.run(p);

    EXPECT_FALSE(rs.halted);
    EXPECT_TRUE(rs.aborted);
    EXPECT_EQ(rs.stop_reason,
              "thread 0: lockstep: lockstep divergence at pc 0x1044 "
              "(golden pc 0x1044): rd x8=0xdeadbeef vs golden x8=0x0 "
              "(recovery budget exhausted)");
    EXPECT_EQ(rs.cycles, 358u);
    EXPECT_EQ(rs.instructions, 5u);
    EXPECT_EQ(fc.tally().lockstep_detections, 2u);
    EXPECT_EQ(fc.tally().recoveries, 1u);
    EXPECT_EQ(fc.tally().clusters_disabled, 0u);
}

TEST(FaultInjection, CampaignJsonIsBitReproducible)
{
    CampaignSpec spec;
    spec.workload = "lud";
    spec.seed = 77;
    spec.trials = 3;
    const CampaignReport a = runCampaign(spec);
    const CampaignReport b = runCampaign(spec);
    EXPECT_EQ(a.renderJson(), b.renderJson());
    EXPECT_EQ(a.trials.size(), 3u);
}

TEST(FaultInjection, LaneCampaignHasNoUndetectedSdc)
{
    // The headline resilience claim: with parity + lockstep armed,
    // register-lane upsets never escape as silent data corruption.
    CampaignSpec spec;
    spec.workload = "lud";
    spec.seed = 5;
    spec.trials = 6;
    spec.site_mask = siteBit(FaultSite::RegLaneValue);
    const CampaignReport rep = runCampaign(spec);
    EXPECT_EQ(rep.total.sdc, 0u);
    EXPECT_EQ(rep.total.hang, 0u);
    EXPECT_EQ(rep.total.trials, 6u);
    // Every lane flip on a live window should actually fire.
    EXPECT_GT(rep.total.fired, 0u);
}
