/**
 * @file
 * Workload suite registry.
 */
#include "workloads/workload.hpp"

#include <span>
#include <string_view>

#include "common/log.hpp"

namespace diag::workloads
{

// Factories defined in rodinia_*.cpp / spec_*.cpp.
Workload workloadBackprop();
Workload workloadBfs();
Workload workloadHeartwall();
Workload workloadHotspot();
Workload workloadKmeans();
Workload workloadLavamd();
Workload workloadLud();
Workload workloadNn();
Workload workloadNw();
Workload workloadParticlefilter();
Workload workloadPathfinder();
Workload workloadSrad();
Workload workloadMcf();
Workload workloadLbm();
Workload workloadX264();
Workload workloadDeepsjeng();
Workload workloadLeela();
Workload workloadNab();
Workload workloadXz();
Workload workloadImagick();

namespace
{

/** One bundled workload: its name and the factory that builds it. */
struct Entry
{
    std::string_view name;
    Workload (*make)();
};

/** Every bundled workload in suite order: the Rodinia-class kernels
 *  first, then the SPEC-class ones. A lookup builds only its match. */
constexpr Entry kWorkloads[] = {
    {"backprop", workloadBackprop},
    {"bfs", workloadBfs},
    {"heartwall", workloadHeartwall},
    {"hotspot", workloadHotspot},
    {"kmeans", workloadKmeans},
    {"lavamd", workloadLavamd},
    {"lud", workloadLud},
    {"nn", workloadNn},
    {"nw", workloadNw},
    {"particlefilter", workloadParticlefilter},
    {"pathfinder", workloadPathfinder},
    {"srad", workloadSrad},
    {"mcf", workloadMcf},
    {"lbm", workloadLbm},
    {"x264", workloadX264},
    {"deepsjeng", workloadDeepsjeng},
    {"leela", workloadLeela},
    {"nab", workloadNab},
    {"xz", workloadXz},
    {"imagick", workloadImagick},
};
constexpr std::size_t kRodiniaCount = 12;

std::vector<Workload>
build(std::span<const Entry> entries)
{
    std::vector<Workload> suite;
    suite.reserve(entries.size());
    for (const Entry &e : entries)
        suite.push_back(e.make());
    return suite;
}

} // namespace

std::vector<Workload>
rodiniaSuite()
{
    return build(std::span(kWorkloads).first(kRodiniaCount));
}

std::vector<Workload>
specSuite()
{
    return build(std::span(kWorkloads).subspan(kRodiniaCount));
}

bool
tryFindWorkload(const std::string &name, Workload *out)
{
    for (const Entry &e : kWorkloads)
        if (e.name == name) {
            *out = e.make();
            return true;
        }
    return false;
}

Workload
findWorkload(const std::string &name)
{
    Workload w;
    fatal_if(!tryFindWorkload(name, &w), "unknown workload '%s'",
             name.c_str());
    return w;
}

} // namespace diag::workloads
