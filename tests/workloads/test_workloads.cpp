/** Workload validation: every kernel assembles, runs to completion on
 *  the golden simulator, and produces the reference outputs — for the
 *  serial, multithreaded (partitioned), and simt variants. */
#include <gtest/gtest.h>

#include <algorithm>

#include "asm/assembler.hpp"
#include "sim/golden.hpp"
#include "workloads/workload.hpp"

using namespace diag;
using namespace diag::sim;
using namespace diag::workloads;

namespace
{

/** Run one variant on the golden model with the given thread count
 *  (threads execute sequentially; partitions are disjoint, so the
 *  result equals a parallel execution). */
u64
goldenRun(const Workload &w, const std::string &src, u32 threads,
          SparseMemory &out_mem)
{
    const Program p = assembler::assemble(src);
    u64 total_insts = 0;
    SparseMemory state;
    {
        GoldenSim loader(p);
        w.init(loader.memory());
        state = loader.memory();
    }
    for (u32 t = 0; t < threads; ++t) {
        GoldenSim sim(p);
        sim.memory() = state;
        sim.setReg(10, t);        // a0 = tid
        sim.setReg(11, threads);  // a1 = nthreads
        const RunResult r = sim.run(w.max_insts);
        EXPECT_TRUE(r.halted)
            << w.name << " thread " << t << " did not halt";
        EXPECT_FALSE(r.faulted) << w.name << " faulted";
        total_insts += r.inst_count;
        state = sim.memory();
    }
    out_mem = state;
    return total_insts;
}

class WorkloadSerial : public ::testing::TestWithParam<std::string>
{};

class WorkloadMt : public ::testing::TestWithParam<std::string>
{};

class WorkloadSimt : public ::testing::TestWithParam<std::string>
{};

std::vector<std::string>
allNames()
{
    std::vector<std::string> names;
    for (const auto &w : allWorkloads())
        names.push_back(w.name);
    return names;
}

std::vector<std::string>
simtNames()
{
    std::vector<std::string> names;
    for (const auto &w : allWorkloads())
        if (!w.asm_simt.empty())
            names.push_back(w.name);
    return names;
}

} // namespace

TEST_P(WorkloadSerial, GoldenRunPassesCheck)
{
    const Workload w = findWorkload(GetParam());
    SparseMemory mem;
    const u64 insts = goldenRun(w, w.asm_serial, 1, mem);
    EXPECT_TRUE(w.check(mem)) << w.name << " output check failed";
    // Workloads are sized for tractable cycle-level simulation.
    EXPECT_GT(insts, 10'000u) << w.name << " too small";
    EXPECT_LT(insts, 2'000'000u) << w.name << " too large";
}

TEST_P(WorkloadSerial, LookupMatchesSuiteEntry)
{
    const std::string name = GetParam();
    const std::vector<Workload> suite = allWorkloads();
    const auto entry =
        std::find_if(suite.begin(), suite.end(),
                     [&](const Workload &w) { return w.name == name; });
    ASSERT_NE(entry, suite.end());
    Workload w;
    ASSERT_TRUE(tryFindWorkload(name, &w));
    EXPECT_EQ(w.name, entry->name);
    EXPECT_EQ(w.suite, entry->suite);
    EXPECT_EQ(w.asm_serial, entry->asm_serial);
    EXPECT_EQ(w.asm_simt, entry->asm_simt);
    EXPECT_EQ(w.data_ranges, entry->data_ranges);
}

TEST_P(WorkloadMt, PartitionedRunPassesCheck)
{
    const Workload w = findWorkload(GetParam());
    if (!w.partitionable)
        GTEST_SKIP() << w.name << " is not partitionable";
    for (const u32 threads : {4u, 12u, 16u}) {
        SparseMemory mem;
        goldenRun(w, w.asm_serial, threads, mem);
        EXPECT_TRUE(w.check(mem))
            << w.name << " with " << threads << " threads";
    }
}

TEST_P(WorkloadSimt, SimtVariantPassesCheck)
{
    const Workload w = findWorkload(GetParam());
    ASSERT_FALSE(w.asm_simt.empty());
    SparseMemory mem;
    goldenRun(w, w.asm_simt, 1, mem);
    EXPECT_TRUE(w.check(mem)) << w.name << " simt output check failed";
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadSerial,
                         ::testing::ValuesIn(allNames()),
                         [](const auto &info) { return info.param; });
INSTANTIATE_TEST_SUITE_P(All, WorkloadMt,
                         ::testing::ValuesIn(allNames()),
                         [](const auto &info) { return info.param; });
INSTANTIATE_TEST_SUITE_P(All, WorkloadSimt,
                         ::testing::ValuesIn(simtNames()),
                         [](const auto &info) { return info.param; });

TEST(Workloads, SuiteShapes)
{
    EXPECT_EQ(rodiniaSuite().size(), 12u);
    EXPECT_EQ(specSuite().size(), 8u);
    // allWorkloads() is the Rodinia suite followed by the SPEC suite.
    const std::vector<Workload> all = allWorkloads();
    ASSERT_EQ(all.size(), 20u);
    EXPECT_EQ(all.front().name, rodiniaSuite().front().name);
    EXPECT_EQ(all[12].name, specSuite().front().name);
    Workload w;
    EXPECT_FALSE(tryFindWorkload("no-such-workload", &w));
    // The paper pipelines a subset of benchmarks (purple bars).
    EXPECT_GE(simtNames().size(), 8u);
}
