/**
 * @file
 * Determinism tests of the benchmark itself:
 *  - the serve-mix request sequence is identical for one seed and
 *    differs for another;
 *  - two traced runs of figure-sweep and of diag-suite report
 *    identical exact counts (diag.sim_cycles, diag.sim_insts,
 *    ooo.sim_cycles, mem.*) and paper error, with no failed
 *    operation;
 *  - a short serve-mix run reports no failed operation.
 *
 * Each run is as short as the workload allows (one untraced and one
 * traced pass). Exits 0 when every check holds, 1 otherwise.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "workloads.hpp"

using namespace suitebench;

namespace
{

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

bool
sameSequence(const std::vector<diag::serve::SimRequest> &a,
             const std::vector<diag::serve::SimRequest> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].id != b[i].id || a[i].workload != b[i].workload ||
            a[i].config != b[i].config || a[i].use_simt != b[i].use_simt)
            return false;
    return true;
}

Options
shortTraced(const std::string &workload)
{
    Options opt;
    opt.workload = workload;
    opt.seconds = 0.01; // one untraced and one traced pass
    opt.trace = true;
    opt.span_dir = ".bench_build/selftest-spans";
    return opt;
}

void
expectClean(const Outcome &o, const std::string &what)
{
    expect(o.attempted > 0 && o.failed == 0 && o.exact,
           what + ": " + std::to_string(o.attempted) + " operations, " +
               std::to_string(o.failed) + " failed" +
               (o.problems.empty() ? "" : " (" + o.problems[0] + ")"));
}

/** The exact counts of two runs agree; paper error too when
 *  @p with_paper (figure-sweep is the one workload that computes it). */
void
expectSameExact(const Outcome &a, const Outcome &b, const std::string &what,
                bool with_paper)
{
    std::vector<const char *> keys = {
        "diag.sim_cycles", "diag.sim_insts", "ooo.sim_cycles",
        "mem.l1_loads",    "mem.l2_loads",   "mem.dram_loads",
        "mem.stl_forwards"};
    if (with_paper)
        keys.push_back("model.paper_err_pct");
    for (const char *key : keys) {
        const auto ia = a.per_layer.find(key);
        const auto ib = b.per_layer.find(key);
        const bool present = ia != a.per_layer.end() && ib != b.per_layer.end();
        expect(present && ia->second == ib->second,
               what + " " + key + " repeats (" +
                   (present ? std::to_string(ia->second) : "missing") + ")");
    }
}

} // namespace

int
main()
{
    expect(sameSequence(serveMixRequests(7), serveMixRequests(7)),
           "serve-mix sequence is identical for one seed");
    expect(!sameSequence(serveMixRequests(7), serveMixRequests(8)),
           "serve-mix sequence differs between seeds");

    for (const std::string w : {"figure-sweep", "diag-suite"}) {
        const bool figure = w == "figure-sweep";
        const auto run = figure ? runFigureSweep : runDiagSuite;
        const Outcome a = run(shortTraced(w));
        const Outcome b = run(shortTraced(w));
        expectClean(a, w + " first run");
        expectClean(b, w + " second run");
        expectSameExact(a, b, w, figure);
    }
    expectClean(runServeMix(shortTraced("serve-mix")), "serve-mix");

    std::printf("%s\n", failures ? "selftest FAILED" : "selftest passed");
    return failures ? 1 : 0;
}
