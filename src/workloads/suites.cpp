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
Workload makeBackprop();
Workload makeBfs();
Workload makeHeartwall();
Workload makeHotspot();
Workload makeKmeans();
Workload makeLavamd();
Workload makeLud();
Workload makeNn();
Workload makeNw();
Workload makeParticlefilter();
Workload makePathfinder();
Workload makeSrad();
Workload makeMcf();
Workload makeLbm();
Workload makeX264();
Workload makeDeepsjeng();
Workload makeLeela();
Workload makeNab();
Workload makeXz();
Workload makeImagick();

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
    {"backprop", makeBackprop},
    {"bfs", makeBfs},
    {"heartwall", makeHeartwall},
    {"hotspot", makeHotspot},
    {"kmeans", makeKmeans},
    {"lavamd", makeLavamd},
    {"lud", makeLud},
    {"nn", makeNn},
    {"nw", makeNw},
    {"particlefilter", makeParticlefilter},
    {"pathfinder", makePathfinder},
    {"srad", makeSrad},
    {"mcf", makeMcf},
    {"lbm", makeLbm},
    {"x264", makeX264},
    {"deepsjeng", makeDeepsjeng},
    {"leela", makeLeela},
    {"nab", makeNab},
    {"xz", makeXz},
    {"imagick", makeImagick},
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
allWorkloads()
{
    return build(kWorkloads);
}

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
