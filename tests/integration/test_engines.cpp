/** Cross-engine integration tests: the benchmark workloads must
 *  produce correct outputs on the DiAG model and the OoO baseline, in
 *  serial, multithreaded, and (where available) simt variants — the
 *  same property the figure benches depend on. */
#include <gtest/gtest.h>

#include "harness/runner.hpp"

using namespace diag;
using namespace diag::harness;

namespace
{

std::vector<std::string>
allNames()
{
    std::vector<std::string> names;
    for (const auto &w : workloads::allWorkloads())
        names.push_back(w.name);
    return names;
}

} // namespace

class EngineWorkload : public ::testing::TestWithParam<std::string>
{};

TEST_P(EngineWorkload, DiagSerialChecksOut)
{
    const workloads::Workload w = workloads::findWorkload(GetParam());
    // runOnDiag fatal()s if the run does not halt or fails the check.
    const EngineRun run =
        runOnDiag(core::DiagConfig::f4c16(), w, {1, false});
    EXPECT_TRUE(run.checked);
    EXPECT_GT(run.stats.cycles, 0u);
    EXPECT_GT(run.energy.totalPj(), 0.0);
}

TEST_P(EngineWorkload, OooSerialChecksOut)
{
    const workloads::Workload w = workloads::findWorkload(GetParam());
    const EngineRun run =
        runOnOoo(ooo::OooConfig::baseline8(), w, {1, false});
    EXPECT_TRUE(run.checked);
    EXPECT_GT(run.stats.ipc(), 0.05);
    EXPECT_LT(run.stats.ipc(), 8.0);  // cannot beat the commit width
}

TEST_P(EngineWorkload, DiagMultiThreadChecksOut)
{
    const workloads::Workload w = workloads::findWorkload(GetParam());
    const EngineRun run = runOnDiag(diagMultiThreadConfig(), w,
                                    {kDiagMtThreads, false});
    EXPECT_TRUE(run.checked);
}

TEST_P(EngineWorkload, OooMultiThreadChecksOut)
{
    const workloads::Workload w = workloads::findWorkload(GetParam());
    const EngineRun run = runOnOoo(ooo::OooConfig::multicore12(), w,
                                   {kOooMtThreads, false});
    EXPECT_TRUE(run.checked);
}

TEST_P(EngineWorkload, DiagSimtChecksOut)
{
    const workloads::Workload w = workloads::findWorkload(GetParam());
    if (w.asm_simt.empty())
        GTEST_SKIP() << w.name << " has no simt variant";
    const EngineRun run = runOnDiag(diagMtSimtConfig(), w,
                                    {kDiagMtSimtThreads, true});
    EXPECT_TRUE(run.checked);
    EXPECT_GT(run.stats.counters.get("simt_threads"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(All, EngineWorkload,
                         ::testing::ValuesIn(allNames()),
                         [](const auto &info) { return info.param; });

TEST(EngineComparison, MultiThreadingSpeedsUpPartitionableWork)
{
    // Spatial TLP must help both architectures on partitionable
    // kernels (paper §4.4: spatial parallelism).
    const workloads::Workload w = workloads::findWorkload("kmeans");
    const EngineRun d1 =
        runOnDiag(diagMultiThreadConfig(), w, {1, false});
    const EngineRun d16 =
        runOnDiag(diagMultiThreadConfig(), w, {16, false});
    EXPECT_LT(d16.stats.cycles, d1.stats.cycles);

    const EngineRun o1 =
        runOnOoo(ooo::OooConfig::multicore12(), w, {1, false});
    const EngineRun o12 =
        runOnOoo(ooo::OooConfig::multicore12(), w, {12, false});
    EXPECT_LT(o12.stats.cycles, o1.stats.cycles);
}

TEST(EngineComparison, MorePesNeverHurtMuch)
{
    // F4C32 should never be dramatically slower than F4C2 (it strictly
    // adds resources); allow small noise from allocation differences.
    for (const char *name : {"backprop", "srad", "deepsjeng"}) {
        const workloads::Workload w = workloads::findWorkload(name);
        const EngineRun small =
            runOnDiag(core::DiagConfig::f4c2(), w, {1, false});
        const EngineRun large =
            runOnDiag(core::DiagConfig::f4c32(), w, {1, false});
        EXPECT_LT(large.stats.cycles,
                  static_cast<Cycle>(1.10 *
                                     static_cast<double>(
                                         small.stats.cycles)))
            << name;
    }
}

TEST(EngineComparison, ReuseConfigBeatsNoReuse)
{
    const workloads::Workload w = workloads::findWorkload("hotspot");
    core::DiagConfig off = core::DiagConfig::f4c32();
    off.reuse_enabled = false;
    const EngineRun with_reuse =
        runOnDiag(core::DiagConfig::f4c32(), w, {1, false});
    const EngineRun without = runOnDiag(off, w, {1, false});
    EXPECT_LT(with_reuse.stats.cycles, without.stats.cycles);
}
