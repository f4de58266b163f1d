/**
 * @file
 * End-to-end tests of the threaded SimService and the soak DES:
 * admission backpressure, cancel-before-start vs mid-run, deadline
 * expiry, crash isolation in forked workers, cache corruption
 * degradation, and the soak's two contracts — byte-identical reports
 * for any --jobs value and full robustness under fault injection.
 *
 * Subprocess (fork) tests are skipped under ThreadSanitizer: TSan
 * instrumentation does not survive fork-without-exec.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "serve/service.hpp"
#include "serve/soak.hpp"

#if defined(__SANITIZE_THREAD__)
#define DIAG_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DIAG_TSAN 1
#endif
#endif
#ifndef DIAG_TSAN
#define DIAG_TSAN 0
#endif

using namespace diag;
using namespace diag::serve;

namespace
{

SimRequest
quickRequest(u64 id)
{
    SimRequest q;
    q.id = id;
    q.workload = "nn";
    q.config = "F4C2";
    return q;
}

TEST(SimService, MalformedResolvesImmediately)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    SimService svc(cfg);
    SimRequest q;
    q.id = 5;
    q.workload = "definitely-not-a-workload";
    auto t = svc.submit(q);
    const SimResponse r = t.result.get();
    EXPECT_EQ(r.status, RespStatus::Failed);
    EXPECT_EQ(r.fail, FailKind::Malformed);
    EXPECT_EQ(r.attempts, 0u);
    EXPECT_EQ(svc.stats().malformed, 1u);
}

TEST(SimService, RunsThenServesRepeatFromCache)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    SimService svc(cfg);
    const SimResponse a = svc.submit(quickRequest(1)).result.get();
    ASSERT_EQ(a.status, RespStatus::Ok);
    EXPECT_FALSE(a.from_cache);
    EXPECT_FALSE(a.payload.empty());

    const SimResponse b = svc.submit(quickRequest(2)).result.get();
    ASSERT_EQ(b.status, RespStatus::Ok);
    EXPECT_TRUE(b.from_cache);
    EXPECT_EQ(b.payload, a.payload)
        << "a cache hit must be byte-equal to the computed run";
    EXPECT_EQ(svc.cacheStats().hits, 1u);
}

TEST(SimService, BackpressureRejectsAndShedsAtWatermarks)
{
    // workers = 0: nothing pumps until destruction, so admission is
    // exercised deterministically against a standing backlog.
    ServiceConfig cfg;
    cfg.workers = 0;
    cfg.queue.capacity = 4;
    cfg.queue.high_watermark = 3;
    cfg.queue.low_watermark = 2;
    std::vector<SimService::Ticket> tickets;
    {
        SimService svc(cfg);
        for (u64 i = 1; i <= 3; ++i)
            tickets.push_back(svc.submit(quickRequest(i)));
        EXPECT_EQ(svc.queueDepth(), 3u);

        // At the high watermark: Low is shed, Normal still admitted.
        SimRequest low = quickRequest(4);
        low.priority = Priority::Low;
        const SimResponse shed = svc.submit(low).result.get();
        EXPECT_EQ(shed.status, RespStatus::Shed);
        EXPECT_EQ(shed.fail, FailKind::Saturated);
        EXPECT_GT(shed.retry_after_ms, 0u);

        tickets.push_back(svc.submit(quickRequest(5)));
        EXPECT_EQ(svc.queueDepth(), 4u);

        // At capacity: everything is rejected, even High.
        SimRequest high = quickRequest(6);
        high.priority = Priority::High;
        const SimResponse rej = svc.submit(high).result.get();
        EXPECT_EQ(rej.status, RespStatus::Rejected);
        EXPECT_EQ(rej.fail, FailKind::Saturated);
        EXPECT_GT(rej.retry_after_ms, 0u);

        const ServiceStats s = svc.stats();
        EXPECT_EQ(s.shed, 1u);
        EXPECT_EQ(s.rejected_full, 1u);
        EXPECT_EQ(s.accepted, 4u);
    } // destructor drains: every queued promise must still resolve
    for (auto &t : tickets) {
        const SimResponse r = t.result.get();
        EXPECT_EQ(r.status, RespStatus::Ok);
    }
}

TEST(SimService, CancelBeforeStartResolvesWithoutRunning)
{
    ServiceConfig cfg;
    cfg.workers = 0; // the request can never start
    SimService *svc = new SimService(cfg);
    auto t = svc->submit(quickRequest(1));
    t.cancel.cancel();
    delete svc; // drain serves the request; it must see the cancel
    const SimResponse r = t.result.get();
    EXPECT_EQ(r.status, RespStatus::Cancelled);
    EXPECT_EQ(r.attempts, 0u);
}

TEST(SimService, CancelMidRunStopsTheEngine)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.cache_enabled = false;
    SimService svc(cfg);
    SimRequest q;
    q.id = 1;
    // pathfinder runs ~30 ms host time on F4C16 even with skip-idle
    // scheduling, so a 5 ms cancel lands mid-run.
    q.workload = "pathfinder";
    q.config = "F4C16";
    auto t = svc.submit(q);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    t.cancel.cancel();
    const SimResponse r = t.result.get();
    EXPECT_EQ(r.status, RespStatus::Cancelled);
    EXPECT_EQ(r.attempts, 1u);
}

TEST(SimService, DeadlineExpiryClassifiesExpired)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.cache_enabled = false;
    SimService svc(cfg);
    SimRequest q;
    q.id = 1;
    q.workload = "bfs";
    q.config = "F4C16";
    q.deadline_ms = 1; // far below the run's real duration
    const SimResponse r = svc.submit(q).result.get();
    EXPECT_EQ(r.status, RespStatus::Expired);
    EXPECT_EQ(r.fail, FailKind::Timeout);
    EXPECT_LE(r.attempts, 1u);
    EXPECT_EQ(svc.stats().expired, 1u);
}

TEST(SimService, CacheCorruptionDegradesToRecompute)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.faults.seed = 3;
    cfg.faults.corrupt_pct = 100; // every insert is damaged
    SimService svc(cfg);
    const SimResponse a = svc.submit(quickRequest(1)).result.get();
    ASSERT_EQ(a.status, RespStatus::Ok);
    const SimResponse b = svc.submit(quickRequest(2)).result.get();
    ASSERT_EQ(b.status, RespStatus::Ok);
    EXPECT_FALSE(b.from_cache)
        << "the damaged entry must fail verification";
    EXPECT_EQ(b.payload, a.payload)
        << "degradation recomputes; it never serves wrong bytes";
    EXPECT_GE(svc.cacheStats().integrity_drops, 1u);
}

#if !DIAG_TSAN

TEST(SimServiceSubprocess, CrashIsolationKeepsTheDaemonAlive)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.subprocess = true;
    cfg.faults.seed = 11;
    cfg.faults.crash_pct = 100; // every attempt abort()s its child
    cfg.retry.max_attempts = 2;
    cfg.retry.base_backoff_ms = 1;
    SimService svc(cfg);
    const SimResponse r = svc.submit(quickRequest(1)).result.get();
    EXPECT_EQ(r.status, RespStatus::Failed);
    EXPECT_EQ(r.fail, FailKind::WorkerCrash);
    EXPECT_EQ(r.attempts, 2u);
    EXPECT_EQ(svc.stats().worker_crashes, 2u);

    // The daemon survived both aborts and still serves.
    ServiceConfig ok = cfg;
    ok.faults = {};
    SimService svc2(ok);
    EXPECT_EQ(svc2.submit(quickRequest(2)).result.get().status,
              RespStatus::Ok);
}

TEST(SimServiceSubprocess, PayloadCrossesTheProcessBoundaryIntact)
{
    ServiceConfig in_proc;
    in_proc.workers = 1;
    const SimResponse a =
        SimService(in_proc).submit(quickRequest(1)).result.get();

    ServiceConfig forked = in_proc;
    forked.subprocess = true;
    const SimResponse b =
        SimService(forked).submit(quickRequest(1)).result.get();

    ASSERT_EQ(a.status, RespStatus::Ok);
    ASSERT_EQ(b.status, RespStatus::Ok);
    EXPECT_EQ(a.payload, b.payload)
        << "the checksummed frame must reproduce the in-process "
           "payload byte for byte";
}

TEST(SimServiceSubprocess, ExhaustedRestartBudgetTripsTheBreaker)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.subprocess = true;
    cfg.faults.seed = 13;
    cfg.faults.crash_pct = 100;
    cfg.restart_budget = 1;
    cfg.breaker_cooldown_ms = 60000; // stays open for the test
    cfg.retry.max_attempts = 2;
    cfg.retry.base_backoff_ms = 1;
    SimService svc(cfg);
    const SimResponse r = svc.submit(quickRequest(1)).result.get();
    EXPECT_EQ(r.status, RespStatus::Failed);
    // Attempt 1 crashed and exhausted the budget; attempt 2 was
    // refused by the open breaker (Saturated), ending the request.
    EXPECT_EQ(r.fail, FailKind::Saturated);
    EXPECT_STREQ(svc.breakerState(), "open");
}

#endif // !DIAG_TSAN

TEST(Soak, ReportIsByteIdenticalForAnyJobs)
{
    SoakSpec spec;
    spec.requests = 60;
    spec.seed = 5;
    spec.jobs = 1;
    const SoakReport a = runSoak(spec);
    spec.jobs = 4;
    const SoakReport b = runSoak(spec);
    EXPECT_EQ(renderSoakJson(spec, a), renderSoakJson(spec, b));
    EXPECT_TRUE(a.robust());
    EXPECT_EQ(a.unresolved, 0u);
}

TEST(Soak, FaultInjectionExercisesEveryRecoveryPath)
{
    SoakSpec spec;
    spec.requests = 150;
    spec.seed = 2;
    spec.jobs = 4;
    spec.faults.seed = 2;
    spec.faults.crash_pct = 20;
    spec.faults.stall_pct = 10;
    spec.faults.corrupt_pct = 50;
    spec.restart_budget = 2;
    const SoakReport rep = runSoak(spec);

    // The soak's whole point: under injected crashes, stalls, and
    // corruption, every request resolves and no payload deviates.
    EXPECT_EQ(rep.unresolved, 0u);
    EXPECT_EQ(rep.wrong_payloads, 0u);
    EXPECT_TRUE(rep.robust());

    // And each recovery path actually fired.
    EXPECT_GT(rep.worker_crashes, 0u);
    EXPECT_GT(rep.worker_stalls, 0u);
    EXPECT_GT(rep.retries, 0u);
    EXPECT_GT(rep.cache.integrity_drops, 0u);
    EXPECT_GT(rep.breaker_trips, 0u);
    EXPECT_GT(rep.ok, 0u);
}

} // namespace
