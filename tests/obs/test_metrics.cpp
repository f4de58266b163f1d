/**
 * @file
 * The observability core's contracts (DESIGN.md §16): log2 histogram
 * bucket boundaries and merge algebra, byte-stable key-sorted registry
 * dumps, shard-merge invariance for any job count, the skip-idle
 * self-profile's zero-overhead guarantee (a profiled run is cycle- and
 * counter-identical to an unprofiled one), and soak-report metric
 * determinism across --jobs.
 */
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "diag/processor.hpp"
#include "harness/runner.hpp"
#include "host/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/serve_obs.hpp"
#include "obs/sim_profile.hpp"
#include "serve/soak.hpp"
#include "workloads/workload.hpp"

using namespace diag;
using namespace diag::obs;

namespace
{

TEST(ObsHistogram, BucketBoundaries)
{
    // Bucket 0 is the value 0; bucket k >= 1 is [2^(k-1), 2^k).
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Histogram::bucketOf(7), 3u);
    EXPECT_EQ(Histogram::bucketOf(8), 4u);
    EXPECT_EQ(Histogram::bucketOf(1023), 10u);
    EXPECT_EQ(Histogram::bucketOf(1024), 11u);
    EXPECT_EQ(Histogram::bucketOf(~u64{0}), 64u);

    EXPECT_EQ(Histogram::upperOf(0), 0u);
    EXPECT_EQ(Histogram::upperOf(1), 1u);
    EXPECT_EQ(Histogram::upperOf(2), 3u);
    EXPECT_EQ(Histogram::upperOf(10), 1023u);
    EXPECT_EQ(Histogram::upperOf(64), ~u64{0});

    // Every value lands in a bucket whose bounds contain it.
    for (u64 v : {u64{1},   u64{5},    u64{100},
                  u64{999}, u64{4096}, u64{1} << 40}) {
        const unsigned b = Histogram::bucketOf(v);
        EXPECT_LE(v, Histogram::upperOf(b)) << v;
        if (b > 0) {
            EXPECT_GT(v, Histogram::upperOf(b - 1)) << v;
        }
    }
}

TEST(ObsHistogram, PercentilesNeverExceedTheExactMax)
{
    Histogram h;
    for (u64 v = 0; v < 100; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.sum(), 4950u);
    EXPECT_EQ(h.max(), 99u);
    // p100-ish percentiles report a bucket upper bound capped at the
    // recorded max; lower ones report their bucket's bound.
    EXPECT_LE(h.percentile(50), h.percentile(95));
    EXPECT_LE(h.percentile(95), h.percentile(99));
    EXPECT_LE(h.percentile(99), h.max());
    // An empty histogram reports zeros.
    Histogram e;
    EXPECT_EQ(e.percentile(50), 0u);
    EXPECT_EQ(e.max(), 0u);
}

TEST(ObsHistogram, MergeIsBucketwiseSum)
{
    Histogram a, b, combined;
    for (u64 v = 0; v < 64; ++v) {
        (v % 2 ? a : b).record(v * 17 % 300);
        combined.record(v * 17 % 300);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_EQ(a.sum(), combined.sum());
    EXPECT_EQ(a.max(), combined.max());
    for (unsigned k = 0; k < Histogram::kBuckets; ++k)
        EXPECT_EQ(a.bucket(k), combined.bucket(k)) << k;
}

TEST(ObsRegistry, DumpIsByteStableAndKeySorted)
{
    MetricRegistry reg("t");
    reg.inc("zeta", 3);
    reg.inc("alpha");
    reg.maxGauge("depth", 7);
    reg.maxGauge("depth", 4); // high-watermark keeps 7
    reg.observe("lat", 0);
    reg.observe("lat", 9);
    const std::string a = reg.toJson();
    EXPECT_EQ(a, reg.toJson());
    // std::map keys dump sorted: alpha before zeta.
    EXPECT_LT(a.find("\"alpha\""), a.find("\"zeta\""));
    EXPECT_NE(a.find("\"depth\": 7"), std::string::npos);
    EXPECT_NE(a.find("\"p50\""), std::string::npos);
    EXPECT_EQ(a.back(), '\n');
}

TEST(ObsRegistry, ShardMergeIsJobCountInvariant)
{
    // The same 600 deterministic samples, sharded three different
    // ways and merged in task-index order, must dump byte-identically
    // — the property that makes per-worker metric shards safe under
    // any --jobs value.
    const auto sample = [](size_t i) { return (i * 2654435761u) % 5000; };
    std::string golden;
    for (unsigned nshards : {1u, 4u, 16u}) {
        const std::vector<MetricRegistry> shards =
            host::parallelMap<MetricRegistry>(
                nshards, nshards, [&](size_t shard) {
                    MetricRegistry r;
                    for (size_t i = shard; i < 600; i += nshards) {
                        r.inc("items");
                        r.inc(i % 3 ? "odd_ish" : "third");
                        r.maxGauge("peak", sample(i));
                        r.observe("value", sample(i));
                    }
                    return r;
                });
        const std::string dump =
            mergeShards("sharded", shards).toJson();
        if (golden.empty())
            golden = dump;
        EXPECT_EQ(dump, golden) << nshards << " shards";
    }
    EXPECT_NE(golden.find("\"items\": 600"), std::string::npos);
}

TEST(ObsProfile, MergeAlgebra)
{
    SimProfile a, b;
    a.dense_activations = 10;
    a.simt_closed_form = 2;
    b.dense_activations = 5;
    b.simt_activations = 7;
    b.simt_closed_form = 1;
    b.simt_iterative = 3;
    a.merge(b);
    EXPECT_EQ(a.dense_activations, 15u);
    EXPECT_EQ(a.simt_activations, 7u);
    EXPECT_EQ(a.simt_closed_form, 3u);
    EXPECT_EQ(a.simt_iterative, 3u);
}

/** Run @p name on the diag engine, optionally self-profiled. */
harness::EngineRun
runWorkload(const std::string &name, bool simt, bool obs)
{
    const workloads::Workload w = workloads::findWorkload(name);
    harness::RunSpec spec;
    spec.threads = 1;
    spec.use_simt = simt;
    spec.obs = obs;
    return harness::runOnDiag(core::DiagConfig::f4c32(), w, spec);
}

TEST(ObsOverhead, ProfiledRunIsCycleAndCounterIdentical)
{
    const harness::EngineRun plain = runWorkload("kmeans", true,
                                                 false);
    const harness::EngineRun profiled = runWorkload("kmeans", true,
                                                    true);
    EXPECT_FALSE(plain.obs);
    ASSERT_TRUE(profiled.obs);
    // The profile only tallies its own u64s — every cycle the model
    // computes and every counter it increments must be unchanged.
    EXPECT_EQ(profiled.stats.cycles, plain.stats.cycles);
    EXPECT_EQ(profiled.stats.instructions, plain.stats.instructions);
    EXPECT_EQ(profiled.stats.counters.all(),
              plain.stats.counters.all());
    // And it saw the run: activations flowed through some path.
    EXPECT_GT(profiled.obs->dense_activations +
                  profiled.obs->simt_activations,
              0u);
}

TEST(ObsProfile, SimtWorkloadResolvesTripsInClosedForm)
{
    // kmeans' simt region has a launch-constant trip count, so the
    // skip-idle path resolves it in closed form instead of walking it.
    const harness::EngineRun run = runWorkload("kmeans", true, true);
    ASSERT_TRUE(run.obs);
    EXPECT_GT(run.obs->simt_closed_form, 0u);
    EXPECT_GT(run.obs->simt_activations, 0u);
}

TEST(ObsSoak, ReportBytesAreJobCountInvariant)
{
    serve::SoakSpec sp;
    sp.requests = 80;
    sp.faults.crash_pct = 5.0;
    sp.faults.stall_pct = 2.0;
    sp.faults.corrupt_pct = 10.0;
    sp.jobs = 1;
    const serve::SoakReport one = serve::runSoak(sp);
    sp.jobs = 4;
    const serve::SoakReport four = serve::runSoak(sp);
    EXPECT_EQ(serve::renderSoakJson(sp, one),
              serve::renderSoakJson(sp, four));
    EXPECT_EQ(one.obs.reg.toJson(), four.obs.reg.toJson());
    EXPECT_EQ(one.obs.spans.size(), four.obs.spans.size());
}

TEST(ObsSoak, ReportCarriesStageHistograms)
{
    serve::SoakSpec sp;
    sp.requests = 60;
    const serve::SoakReport rep = serve::runSoak(sp);
    EXPECT_TRUE(rep.robust());
    const Histogram *total = rep.obs.reg.histogram("total_ms");
    ASSERT_NE(total, nullptr);
    // Every request resolves exactly once into total_ms.
    EXPECT_EQ(total->count(), rep.requests);
    const Histogram *qwait = rep.obs.reg.histogram("queue_wait_ms");
    ASSERT_NE(qwait, nullptr);
    EXPECT_GT(qwait->count(), 0u);
    // Registry counters mirror the report tallies.
    EXPECT_EQ(rep.obs.reg.counter("ok"), rep.ok);
    EXPECT_EQ(rep.obs.reg.counter("cache_hits"), rep.cache.hits);
    EXPECT_LE(total->percentile(50), total->percentile(99));
    EXPECT_LE(total->percentile(99), total->max());
    // Spans exist and carry the queue + worker track taxonomy.
    EXPECT_FALSE(rep.obs.spans.empty());
    bool saw_queue = false, saw_attempt = false;
    for (const trace::SpanEvent &s : rep.obs.spans) {
        saw_queue = saw_queue || s.cat == "queue";
        saw_attempt = saw_attempt || s.cat == "attempt";
    }
    EXPECT_TRUE(saw_queue);
    EXPECT_TRUE(saw_attempt);
}

} // namespace
