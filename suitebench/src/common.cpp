#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <x86intrin.h>
#endif

#include "asm/assembler.hpp"
#include "sim/golden.hpp"
#include "workloads/workload.hpp"

// Throughput from an unoptimized build measures the compiler, not the
// simulator (the same bar as bench/bench_sim_speed.cpp).
#if !defined(__OPTIMIZE__)
#error "suitebench requires an optimized build: configure with -DCMAKE_BUILD_TYPE=Release"
#endif

namespace suitebench
{

void
Outcome::op(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (problems.size() < 20)
        problems.push_back("failed: " + what);
}

void
Outcome::inexact(const std::string &what)
{
    exact = false;
    if (problems.size() < 20)
        problems.push_back("inexact: " + what);
}

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},
        {"sim_inst_per_s", "1/s"},
        {"req_per_s", "1/s"},
        {"latency_p99_ms", "ms"},
        {"peak_rss_mb", "MiB"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"workloads.lookup_us", "us"},
        {"workloads.init_ms", "ms"},
        {"workloads.check_ms", "ms"},
        {"asm.assemble_ms", "ms"},
        {"analysis.lint_ms", "ms"},
        {"harness.bound_validate_ms", "ms"},
        {"host.parallel_efficiency", "ratio"},
        {"diag.construct_ms", "ms"},
        {"diag.warm_ms", "ms"},
        {"diag.simulate_ms", "ms"},
        {"diag.serial.inst_per_s", "1/s"},
        {"diag.simt.inst_per_s", "1/s"},
        {"diag.mt.inst_per_s", "1/s"},
        {"diag.mt_simt.inst_per_s", "1/s"},
        {"diag.f4c2.inst_per_s", "1/s"},
        {"diag.f4c32.inst_per_s", "1/s"},
        {"diag.host_ns_per_cycle", "ns"},
        {"diag.sim_cycles", "count"},
        {"diag.sim_insts", "count"},
        {"obs.batched_fraction", "ratio"},
        {"ooo.construct_ms", "ms"},
        {"ooo.simulate_ms", "ms"},
        {"ooo.inst_per_s", "1/s"},
        {"ooo.sim_cycles", "count"},
        {"sim.golden_inst_per_s", "1/s"},
        {"mem.l1_loads", "count"},
        {"mem.l2_loads", "count"},
        {"mem.dram_loads", "count"},
        {"mem.stl_forwards", "count"},
        {"serve.submit_us", "us"},
        {"serve.hit_latency_us", "us"},
        {"serve.miss_latency_ms", "ms"},
        {"serve.queue_wait_ms", "ms"},
        {"serve.cache_hit_ratio", "ratio"},
        {"serve.useful_miss_ratio", "ratio"},
        {"model.paper_err_pct", "%"},
        {"bench.trace_overhead_pct", "%"},
        {"bench.latency_samples", "count"},
    };
    return specs;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
    const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

unsigned
repeatFor(double budget_s, const std::function<void()> &pass)
{
    const auto start = Clock::now();
    unsigned n = 0;
    do {
        pass();
        ++n;
    } while (seconds(start, Clock::now()) < budget_s);
    return n;
}

namespace
{
/** Keeps the reference kernel's result observable. */
volatile unsigned probe_sink = 0;
} // namespace

namespace
{

/** One run of the reference kernel, in seconds. */
double
kernelSeconds()
{
    constexpr unsigned kSlots = 1u << 16; // 256 KiB of u32
    // A single random cycle over the table, built once: each step of
    // the chase is a dependent load.
    static const std::vector<unsigned> next = [] {
        std::vector<unsigned> order(kSlots);
        unsigned s = 1;
        for (unsigned i = 0; i < kSlots; ++i)
            order[i] = i;
        for (unsigned i = kSlots - 1; i > 0; --i) {
            s = s * 1664525u + 1013904223u;
            std::swap(order[i], order[s % (i + 1)]);
        }
        std::vector<unsigned> n(kSlots);
        for (unsigned i = 0; i < kSlots; ++i)
            n[order[i]] = order[(i + 1) % kSlots];
        return n;
    }();
    static std::vector<unsigned> scratch(8192);

    const auto t0 = Clock::now();
    unsigned at = 0;
    unsigned acc = 0;
    for (unsigned i = 0; i < 80000; ++i) {
        at = next[at];
        acc += at;
    }
    unsigned s = acc | 1;
    for (unsigned i = 0; i < 80000; ++i) {
        s = s * 1664525u + 1013904223u;
        if ((s >> 13) & 1)
            acc += s >> 7;
        else
            acc ^= s;
    }
    for (unsigned &v : scratch) {
        s = s * 1664525u + 1013904223u;
        v = s;
    }
    std::sort(scratch.begin(), scratch.end());
    acc += scratch[acc % scratch.size()];
    probe_sink = acc;
    return seconds(t0, Clock::now());
}

} // namespace

void
SpeedProbe::sample(unsigned runs)
{
    for (unsigned i = 0; i < runs; ++i)
        samples_.push_back(kernelSeconds());
}

double
SpeedProbe::scale()
{
    const double m = median(samples_);
    samples_.clear();
    return m > 0 ? kReferenceKernelSeconds / m : 1;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace
{

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
    if (max_ext >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        while (!s.empty() && s.back() == ' ')
            s.pop_back();
        s.erase(0, s.find_first_not_of(' '));
        return s;
    }
#endif
    return "unknown";
}

/** Nominal clock in MHz: CPUID leaf 0x16 when the CPU reports it,
 *  else the time-stamp counter's rate over a short sleep. */
double
cpuMhz()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (__get_cpuid_max(0, nullptr) >= 0x16 &&
        __get_cpuid(0x16, &a, &b, &c, &d) && (a & 0xffff) != 0)
        return static_cast<double>(a & 0xffff);
    const auto t0 = Clock::now();
    const unsigned long long c0 = __rdtsc();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const unsigned long long c1 = __rdtsc();
    return static_cast<double>(c1 - c0) / seconds(t0, Clock::now()) / 1e6;
#else
    return 0;
#endif
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(ch) >= 0x20)
            out.push_back(ch);
    }
    return out + "\"";
}

} // namespace

std::string
hostFactsJson()
{
    char mhz[32];
    std::snprintf(mhz, sizeof mhz, "%.0f", cpuMhz());
#ifdef NDEBUG
    const char *asserts = "false";
#else
    const char *asserts = "true";
#endif
    return std::string("{\"nproc\": ") +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"cpu_model\": " + jsonString(cpuModel()) +
           ", \"cpu_mhz\": " + mhz +
           ", \"build_type\": " + jsonString(SUITEBENCH_BUILD_TYPE) +
           ", \"optimized\": true, \"asserts\": " + asserts + "}";
}

GoldenRef
goldenReference()
{
    GoldenRef ref;
    double run_s = 0;
    double total = 0;
    std::vector<diag::workloads::Workload> all =
        diag::workloads::rodiniaSuite();
    for (auto &w : diag::workloads::specSuite())
        all.push_back(std::move(w));
    for (const auto &w : all) {
        const diag::Program prog = diag::assembler::assemble(w.asm_serial);
        diag::sim::GoldenSim sim(prog);
        w.init(sim.memory());
        sim.setReg(10, 0); // a0 = thread id
        sim.setReg(11, 1); // a1 = thread count
        const auto t0 = Clock::now();
        const diag::sim::RunResult r = sim.run(w.max_insts);
        run_s += seconds(t0, Clock::now());
        total += static_cast<double>(r.inst_count);
        ref.insts[w.name] = r.inst_count;
        if (!r.halted || r.faulted || !w.check(sim.memory())) {
            ref.problems.push_back("golden run of " + w.name +
                                   " did not halt cleanly or failed "
                                   "its output check");
        }
    }
    ref.inst_per_s = run_s > 0 ? total / run_s : 0;
    return ref;
}

} // namespace suitebench
