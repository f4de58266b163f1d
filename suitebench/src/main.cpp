/**
 * @file
 * suitebench: entry point of the real-suite benchmark.
 *
 *   suitebench --workload figure-sweep|diag-suite|serve-mix
 *              --seed N --seconds S --trace 0|1
 *
 * Prints host facts, one "metric value unit" line per measured metric
 * and, as the last line, one JSON object with the keys correct,
 * attempted, failed and metrics: the end-to-end metrics with
 * --trace 0, the per-layer metrics with --trace 1. Exits 2 on a usage
 * error without printing a result.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

using namespace suitebench;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "suitebench: %s\nusage: suitebench --workload "
                 "figure-sweep|diag-suite|serve-mix --seed N --seconds S "
                 "--trace 0|1\n",
                 why);
    std::exit(2);
}

bool
parseNumber(const char *s, double &out)
{
    char *end = nullptr;
    out = std::strtod(s, &end);
    return end != s && *end == '\0' && std::isfinite(out);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *val = argv[++i];
        double num = 0;
        if (arg == "--workload") {
            opt.workload = val;
            have_workload = true;
        } else if (arg == "--seed") {
            if (!parseNumber(val, num) || num < 0 || num != std::floor(num))
                usage("--seed takes a whole number");
            opt.seed = static_cast<u64>(num);
        } else if (arg == "--seconds") {
            if (!parseNumber(val, num) || num <= 0 || num > 600)
                usage("--seconds takes a number in (0, 600]");
            opt.seconds = num;
        } else if (arg == "--trace") {
            if (std::string(val) != "0" && std::string(val) != "1")
                usage("--trace takes 0 or 1");
            opt.trace = std::string(val) == "1";
        } else {
            usage(("unknown option " + arg).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return opt;
}

/** A JSON number with every digit the double carries. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[40];
    if (v == std::floor(v) && std::abs(v) < 1e15)
        std::snprintf(buf, sizeof buf, "%.0f", v);
    else
        std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    Outcome (*run)(const Options &) = nullptr;
    if (opt.workload == "figure-sweep")
        run = runFigureSweep;
    else if (opt.workload == "diag-suite")
        run = runDiagSuite;
    else if (opt.workload == "serve-mix")
        run = runServeMix;
    else
        usage(("unknown workload '" + opt.workload + "'").c_str());

    std::printf("# suitebench workload=%s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    std::printf("{\"host\": %s}\n", hostFactsJson().c_str());
    std::fflush(stdout);

    Outcome out = run(opt);

    for (const std::string &n : out.notes)
        std::printf("# %s\n", n.c_str());
    for (const std::string &p : out.problems)
        std::printf("# %s\n", p.c_str());
    // Human-readable lines: the end-to-end metrics always (with
    // --trace 1 they come from the untraced half), the per-layer ones
    // when traced. The JSON line carries one catalogue.
    std::string metrics;
    const auto emit = [&](const std::vector<MetricSpec> &catalogue,
                          const std::map<std::string, double> &values,
                          bool to_json) {
        for (const MetricSpec &m : catalogue) {
            const auto it = values.find(m.name);
            const double v = it == values.end() ? 0 : it->second;
            std::printf("%-28s %22s %s\n", m.name, num(v).c_str(), m.unit);
            if (!to_json)
                continue;
            if (!metrics.empty())
                metrics += ", ";
            metrics += std::string("\"") + m.name +
                       "\": {\"value\": " + num(v) + ", \"unit\": \"" +
                       m.unit + "\"}";
        }
    };
    emit(endToEndMetrics(), out.end_to_end, !opt.trace);
    if (opt.trace)
        emit(perLayerMetrics(), out.per_layer, true);
    const bool correct = out.failed == 0 && out.exact && out.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed), metrics.c_str());
    return 0;
}
