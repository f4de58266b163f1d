/**
 * @file
 * serve-mix: a closed loop of kHostJobs synchronous clients against
 * an in-process serve::SimService with kHostJobs workers and the
 * result cache on.
 *
 * The request space is every bundled workload x {F4C2, F4C16, F4C32}
 * x {serial, simt where a simt variant exists}: 90 keys. The seed
 * ranks the keys and draws kEpochRequests requests from a Zipf
 * popularity over the ranks. A run replays that sequence in epochs,
 * each against a freshly constructed service (cold cache), so every
 * epoch has the same mix: a miss per distinct key (a simulation and
 * a cache insert) and hits for the rest.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "serve/service.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace suitebench
{

namespace
{

using diag::serve::RespStatus;
using diag::serve::SimRequest;
using diag::serve::SimResponse;
using diag::serve::SimService;

constexpr size_t kEpochRequests = 4000;
constexpr double kZipfExponent = 1.0;
/** SpeedProbe samples taken before and after each epoch. */
constexpr unsigned kProbeRuns = 15;

u64
splitmix64(u64 &state)
{
    u64 z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** The request space, in suite order. */
std::vector<SimRequest>
keySpace()
{
    std::vector<diag::workloads::Workload> all =
        diag::workloads::rodiniaSuite();
    for (auto &w : diag::workloads::specSuite())
        all.push_back(std::move(w));
    std::vector<SimRequest> keys;
    for (const auto &w : all)
        for (const char *cfg : {"F4C2", "F4C16", "F4C32"}) {
            SimRequest q;
            q.workload = w.name;
            q.config = cfg;
            keys.push_back(q);
            if (!w.asm_simt.empty()) {
                q.use_simt = true;
                keys.push_back(q);
            }
        }
    return keys;
}

std::string
keyOf(const SimRequest &q)
{
    return q.workload + "/" + q.config + (q.use_simt ? "/simt" : "");
}

/** Value of the unsigned field @p field in a payload, or -1. */
long long
payloadField(const std::string &payload, const char *field)
{
    const std::string tag = std::string("\"") + field + "\": ";
    const size_t at = payload.find(tag);
    if (at == std::string::npos)
        return -1;
    return std::strtoll(payload.c_str() + at + tag.size(), nullptr, 10);
}

/** First payload computed per key; later ones must match it. */
class PayloadBook
{
  public:
    bool
    matches(const std::string &key, const std::string &payload)
    {
        std::lock_guard<std::mutex> lk(m_);
        const auto [it, fresh] = first_.emplace(key, payload);
        return fresh || it->second == payload;
    }

  private:
    std::mutex m_;
    std::map<std::string, std::string> first_;
};

struct Sample
{
    size_t index = 0; //!< position in the request sequence
    double latency_s = 0;
    bool hit = false;
};

struct ClientLog
{
    std::vector<Sample> samples;
    std::vector<std::string> failures;
    u64 ok = 0;
    double miss_insts = 0;
    SpanLog spans;
};

struct Epoch
{
    double wall_s = 0;
    std::vector<ClientLog> clients;
    diag::serve::ResultCache::Stats cache;
    double queue_wait_sum_ms = 0;
    double queue_waits = 0;
};

diag::serve::ServiceConfig
serviceConfig()
{
    diag::serve::ServiceConfig cfg;
    cfg.workers = kHostJobs;
    cfg.cache_enabled = true;
    return cfg;
}

/** Check one response; returns the failure text, empty when ok. */
std::string
checkResponse(const SimRequest &q, const SimResponse &r,
              const GoldenRef &golden, PayloadBook &book)
{
    const std::string key = keyOf(q);
    if (r.status != RespStatus::Ok)
        return key + " answered " + diag::serve::respStatusName(r.status) +
               ": " + r.reason;
    if (r.payload.find("\"halted\": true") == std::string::npos ||
        r.payload.find("\"checked\": true") == std::string::npos)
        return key + " payload did not halt and check";
    if (!q.use_simt &&
        payloadField(r.payload, "instructions") !=
            static_cast<long long>(golden.insts.at(q.workload)))
        return key + " retired a different count than golden";
    if (!book.matches(key, r.payload))
        return key + (r.from_cache ? " cache hit" : " recomputation") +
               " differs from the first payload";
    return {};
}

/** One pass of @p reqs against @p svc, which must be fresh. */
Epoch
runEpoch(SimService &svc, const std::vector<SimRequest> &reqs,
         const GoldenRef &golden, PayloadBook &book, bool traced,
         u64 group_base)
{
    Epoch e;
    e.clients.resize(kHostJobs);
    std::atomic<size_t> next{0};
    const auto client = [&](ClientLog &cl) {
        SpanLog *log = traced ? &cl.spans : nullptr;
        for (;;) {
            const size_t i = next.fetch_add(1);
            if (i >= reqs.size())
                return;
            const SimRequest &q = reqs[i];
            const u64 group = group_base + i;
            Sample s;
            s.index = i;
            SimResponse r;
            const auto t0 = Clock::now();
            {
                ScopedSpan req(log, "serve.request", group);
                SimService::Ticket t;
                {
                    ScopedSpan sub(log, "serve.submit", group);
                    t = svc.submit(q);
                }
                ScopedSpan wait(log, "serve.wait", group);
                r = t.result.get();
            }
            s.latency_s = seconds(t0, Clock::now());
            s.hit = r.from_cache;
            const std::string fail = checkResponse(q, r, golden, book);
            if (fail.empty()) {
                ++cl.ok;
                if (!r.from_cache)
                    cl.miss_insts += static_cast<double>(
                        payloadField(r.payload, "instructions"));
            } else {
                cl.failures.push_back(fail);
            }
            cl.samples.push_back(s);
        }
    };
    const auto start = Clock::now();
    {
        std::vector<std::jthread> threads;
        for (ClientLog &cl : e.clients)
            threads.emplace_back(client, std::ref(cl));
    }
    e.wall_s = seconds(start, Clock::now());
    e.cache = svc.cacheStats();
    const diag::obs::ServeObs obs = svc.obsSnapshot();
    if (const auto *h = obs.reg.histogram("queue_wait_ms")) {
        e.queue_wait_sum_ms = static_cast<double>(h->sum());
        e.queue_waits = static_cast<double>(h->count());
    }
    return e;
}

/** Fold an epoch's requests into @p out. */
void
countEpoch(const Epoch &e, Outcome &out)
{
    for (const ClientLog &cl : e.clients) {
        for (u64 i = 0; i < cl.ok; ++i)
            out.op(true, "");
        for (const std::string &f : cl.failures)
            out.op(false, f);
    }
}

double
missInsts(const Epoch &e)
{
    double n = 0;
    for (const ClientLog &cl : e.clients)
        n += cl.miss_insts;
    return n;
}

} // namespace

std::vector<SimRequest>
serveMixRequests(u64 seed)
{
    std::vector<SimRequest> keys = keySpace();
    u64 state = seed;
    // Seeded popularity ranking: Fisher-Yates over the key space.
    for (size_t i = keys.size(); i > 1; --i)
        std::swap(keys[i - 1], keys[splitmix64(state) % i]);
    std::vector<double> cdf;
    double total = 0;
    for (size_t r = 0; r < keys.size(); ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
        cdf.push_back(total);
    }
    std::vector<SimRequest> reqs;
    for (size_t i = 0; i < kEpochRequests; ++i) {
        const double u = static_cast<double>(splitmix64(state) >> 11) *
                         0x1.0p-53 * total;
        const size_t r = static_cast<size_t>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        SimRequest q = keys[std::min(r, keys.size() - 1)];
        q.id = i + 1;
        reqs.push_back(q);
    }
    return reqs;
}

Outcome
runServeMix(const Options &opt)
{
    Outcome out;
    GoldenRef golden;
    // The workload's own set-up: draw the request sequence and
    // construct the service the first epoch runs against.
    auto [reqs, first_svc] = setUp(out, golden, [&opt] {
        return std::make_pair(serveMixRequests(opt.seed),
                              std::make_unique<SimService>(serviceConfig()));
    });
    std::set<std::string> distinct;
    for (const SimRequest &q : reqs)
        distinct.insert(keyOf(q));
    PayloadBook book;
    u64 epochs = 0;
    // Each epoch gets a fresh service (cold cache); construction and
    // teardown stay outside the epoch's timing. SpeedProbe samples
    // bracket the epoch (none during it: every CPU is busy then), and
    // its latencies are scaled by their factor.
    const auto epoch = [&](bool traced) {
        std::unique_ptr<SimService> svc = std::move(first_svc);
        if (!svc)
            svc = std::make_unique<SimService>(serviceConfig());
        SpeedProbe probe;
        probe.sample(kProbeRuns);
        Epoch e = runEpoch(*svc, reqs, golden, book, traced,
                           (epochs++) * kEpochRequests);
        probe.sample(kProbeRuns);
        const double scale = probe.scale();
        for (ClientLog &cl : e.clients)
            for (Sample &s : cl.samples)
                s.latency_s *= scale;
        return e;
    };

    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    OpTimes times(reqs.size());
    std::vector<double> walls, miss_insts;
    repeatFor(budget, [&] {
        const Epoch e = epoch(false);
        countEpoch(e, out);
        walls.push_back(e.wall_s);
        miss_insts.push_back(missInsts(e));
        for (const ClientLog &cl : e.clients)
            for (const Sample &s : cl.samples)
                times.record(s.index, s.latency_s);
    });
    // Closed loop, no think time: throughput = clients / mean latency
    // (Little's law), here at each request's median latency.
    const double n = static_cast<double>(reqs.size());
    const double req_per_s = kHostJobs * n / times.sum();
    std::vector<double> lat_ms;
    for (double s : times.medians())
        lat_ms.push_back(s * 1e3);
    out.end_to_end["req_per_s"] = req_per_s;
    out.end_to_end["sim_inst_per_s"] = median(miss_insts) / n * req_per_s;
    out.end_to_end["latency_p99_ms"] = percentile(lat_ms, 99);
    out.per_layer["bench.latency_samples"] =
        static_cast<double>(walls.size()) * n;
    out.note("epochs " + std::to_string(walls.size()) +
             ", raw median epoch " + std::to_string(median(walls)) + " s");

    if (opt.trace) {
        SpanLog log;
        OpTimes traced_times(reqs.size());
        std::vector<double> hit_us, miss_ms;
        unsigned traced_epochs = 0;
        double hits = 0, misses = 0, waits = 0, wait_sum = 0;
        repeatFor(budget, [&] {
            const Epoch e = epoch(true);
            countEpoch(e, out);
            ++traced_epochs;
            for (const ClientLog &cl : e.clients) {
                log.append(cl.spans);
                for (const Sample &s : cl.samples) {
                    traced_times.record(s.index, s.latency_s);
                    if (s.hit)
                        hit_us.push_back(s.latency_s * 1e6);
                    else
                        miss_ms.push_back(s.latency_s * 1e3);
                }
            }
            hits += static_cast<double>(e.cache.hits);
            misses += static_cast<double>(e.cache.misses);
            wait_sum += e.queue_wait_sum_ms;
            waits += e.queue_waits;
        });
        const auto t = layerTimes(log);
        out.per_layer["serve.submit_us"] = meanSelf(t, "serve.submit", 1e-6);
        out.per_layer["serve.hit_latency_us"] = median(hit_us);
        out.per_layer["serve.miss_latency_ms"] = median(miss_ms);
        out.per_layer["serve.queue_wait_ms"] = waits > 0 ? wait_sum / waits : 0;
        out.per_layer["serve.cache_hit_ratio"] =
            hits + misses > 0 ? hits / (hits + misses) : 0;
        out.per_layer["serve.useful_miss_ratio"] =
            misses > 0 ? static_cast<double>(distinct.size()) *
                             static_cast<double>(traced_epochs) / misses
                       : 0;
        out.per_layer["bench.trace_overhead_pct"] =
            (traced_times.sum() / times.sum() - 1) * 100;
        writeSpanFile(log, opt, "serve-mix");
    }
    out.end_to_end["peak_rss_mb"] = peakRssMb();
    return out;
}

} // namespace suitebench
