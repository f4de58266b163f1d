/**
 * @file
 * In-memory span recording for the traced run.
 *
 * A span covers one call into a simulator layer: name, start, end,
 * the span that caused it (parent) and the id of the matrix cell or
 * service request it belongs to. Spans that wrap an engine run also
 * carry the run's variant label and its retired instructions and
 * simulated cycles, so per-layer rates are measured at the boundary
 * where the work happens.
 *
 * Each host thread (or each matrix cell) records into its own
 * SpanLog; logs merge after their owners finish. A null log makes
 * every ScopedSpan a no-op, which is how the untraced run uses the
 * same replay code without recording anything.
 */
#ifndef SUITEBENCH_SPANS_HPP
#define SUITEBENCH_SPANS_HPP

#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace suitebench
{

struct Span
{
    const char *name = "";
    u64 group = 0;       //!< matrix cell / request id
    long parent = -1;    //!< index in the same log, -1 = root
    long long start_ns = 0;
    long long end_ns = 0;
    const char *variant = nullptr; //!< engine-run label, else null
    u64 insts = 0;
    u64 cycles = 0;
};

class SpanLog
{
  public:
    /** Open a span under the innermost open one; returns its index. */
    long open(const char *name, u64 group);
    void close(long idx);
    /** Label an engine-run span with what it simulated. */
    void annotate(long idx, const char *variant, u64 insts, u64 cycles);

    /** Append @p other, re-basing its parent indices. */
    void append(const SpanLog &other);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    std::vector<long> stack_;
};

/** RAII span; a no-op when constructed with a null log. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name, u64 group)
        : log_(log), idx_(log ? log->open(name, group) : -1)
    {}
    ~ScopedSpan()
    {
        if (log_)
            log_->close(idx_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    void
    annotate(const char *variant, u64 insts, u64 cycles)
    {
        if (log_)
            log_->annotate(idx_, variant, insts, cycles);
    }

  private:
    SpanLog *log_;
    long idx_;
};

/** Self time and call count of one span name. */
struct LayerTime
{
    u64 calls = 0;
    double self_s = 0;  //!< duration minus the part children cover
    double total_s = 0; //!< summed duration
};

/** Per-name self times of every span in @p log. */
std::map<std::string, LayerTime> layerTimes(const SpanLog &log);

/** Mean self time per call of @p name, in @p unit_s units (0 if the
 *  layer never ran). */
double meanSelf(const std::map<std::string, LayerTime> &t,
                const std::string &name, double unit_s);

/**
 * Instructions per second of span time over the spans named @p name
 * whose variant label is in @p variants (all labels when empty). Use
 * it on leaf spans, whose span time is their self time.
 */
double spanRate(const SpanLog &log, const std::string &name,
                const std::vector<std::string> &variants = {});

/** Write @p log as Chrome trace-event JSON to @p path (creating the
 *  directory). Returns false when the file cannot be written. */
bool writeSpans(const SpanLog &log, const std::string &path);

/** Write the traced run's spans to
 *  <span_dir>/<workload>-seed<seed>.json, warning on stderr when the
 *  file cannot be written (the measurement itself stands). */
void writeSpanFile(const SpanLog &log, const Options &opt,
                   const std::string &workload);

} // namespace suitebench

#endif // SUITEBENCH_SPANS_HPP
