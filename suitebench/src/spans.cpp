#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>

namespace suitebench
{

namespace
{

long long
nowNs()
{
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

} // namespace

long
SpanLog::open(const char *name, u64 group)
{
    Span s;
    s.name = name;
    s.group = group;
    s.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(s);
    const long idx = static_cast<long>(spans_.size()) - 1;
    stack_.push_back(idx);
    // Read the clock last so the span's own bookkeeping stays outside it.
    spans_[static_cast<size_t>(idx)].start_ns = nowNs();
    return idx;
}

void
SpanLog::close(long idx)
{
    spans_[static_cast<size_t>(idx)].end_ns = nowNs();
    if (!stack_.empty() && stack_.back() == idx)
        stack_.pop_back();
}

void
SpanLog::annotate(long idx, const char *variant, u64 insts, u64 cycles)
{
    Span &s = spans_[static_cast<size_t>(idx)];
    s.variant = variant;
    s.insts = insts;
    s.cycles = cycles;
}

void
SpanLog::append(const SpanLog &other)
{
    const long base = static_cast<long>(spans_.size());
    for (Span s : other.spans_) {
        if (s.parent >= 0)
            s.parent += base;
        spans_.push_back(s);
    }
}

std::map<std::string, LayerTime>
layerTimes(const SpanLog &log)
{
    const std::vector<Span> &sp = log.spans();
    std::vector<long long> child_ns(sp.size(), 0);
    for (const Span &s : sp)
        if (s.parent >= 0)
            child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    std::map<std::string, LayerTime> out;
    for (size_t i = 0; i < sp.size(); ++i) {
        const double dur = static_cast<double>(sp[i].end_ns - sp[i].start_ns);
        LayerTime &t = out[sp[i].name];
        ++t.calls;
        t.total_s += dur * 1e-9;
        t.self_s += (dur - static_cast<double>(child_ns[i])) * 1e-9;
    }
    return out;
}

double
meanSelf(const std::map<std::string, LayerTime> &t, const std::string &name,
         double unit_s)
{
    const auto it = t.find(name);
    if (it == t.end() || it->second.calls == 0)
        return 0;
    return it->second.self_s / static_cast<double>(it->second.calls) /
           unit_s;
}

double
spanRate(const SpanLog &log, const std::string &name,
         const std::vector<std::string> &variants)
{
    double insts = 0;
    double ns = 0;
    for (const Span &s : log.spans()) {
        if (name != s.name || s.variant == nullptr)
            continue;
        if (!variants.empty() &&
            std::find(variants.begin(), variants.end(), s.variant) ==
                variants.end())
            continue;
        insts += static_cast<double>(s.insts);
        ns += static_cast<double>(s.end_ns - s.start_ns);
    }
    return ns > 0 ? insts / (ns * 1e-9) : 0;
}

bool
writeSpans(const SpanLog &log, const std::string &path)
{
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"traceEvents\": [\n", f);
    const std::vector<Span> &sp = log.spans();
    for (size_t i = 0; i < sp.size(); ++i) {
        const Span &s = sp[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %ld",
                     s.name, static_cast<unsigned long long>(s.group),
                     static_cast<double>(s.start_ns) / 1e3,
                     static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                     s.parent);
        if (s.variant)
            std::fprintf(f,
                         ", \"variant\": \"%s\", \"insts\": %llu, "
                         "\"cycles\": %llu",
                         s.variant, static_cast<unsigned long long>(s.insts),
                         static_cast<unsigned long long>(s.cycles));
        std::fputs(i + 1 < sp.size() ? "}},\n" : "}}\n", f);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

void
writeSpanFile(const SpanLog &log, const Options &opt,
              const std::string &workload)
{
    const std::string path = opt.span_dir + "/" + workload + "-seed" +
                             std::to_string(opt.seed) + ".json";
    if (!writeSpans(log, path))
        std::fprintf(stderr, "suitebench: cannot write %s\n", path.c_str());
}

} // namespace suitebench
