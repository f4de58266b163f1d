/**
 * @file
 * A dataflow ring: a chain of processing clusters with a control unit
 * (paper §5.1.3). The control unit fetches I-lines into clusters,
 * tracks which lines are resident (enabling backward-branch datapath
 * reuse), prefetches the fall-through line, and orchestrates the SIMT
 * thread pipeline for simt_s/simt_e regions.
 */
#ifndef DIAG_DIAG_RING_HPP
#define DIAG_DIAG_RING_HPP

#include <set>
#include <unordered_map>
#include <vector>

#include <string>

#include "diag/activation.hpp"
#include "host/cancel.hpp"
#include "mem/bus.hpp"

namespace diag::obs
{
struct SimProfile;
} // namespace diag::obs

namespace diag::core
{

/** Result of running one software thread to completion on a ring. */
struct ThreadResult
{
    Cycle finish = 0;      //!< cycle the thread halted
    u64 retired = 0;       //!< instructions committed
    bool halted = false;   //!< reached EBREAK/ECALL
    bool faulted = false;  //!< invalid encoding or misaligned PC
    bool timed_out = false; //!< watchdog / cycle or inst budget
    bool aborted = false;  //!< detected fault, recovery exhausted
    Addr stop_pc = 0;      //!< PC of the halting instruction
    std::string stop_reason; //!< one-line reason when not halted
    LaneFile final_regs{}; //!< architectural registers at halt
};

/** One dataflow ring and its control unit. */
class Ring
{
  public:
    Ring(const DiagConfig &cfg, unsigned index, mem::MemHierarchy &mh,
         mem::Bus &bus, StatGroup &stats);

    /**
     * Run a thread starting at @p entry with initial lane state
     * @p init_regs against memory @p mem. @p start_cycle is the cycle
     * the thread becomes runnable (MT launch skew).
     */
    ThreadResult runThread(Addr entry, const LaneFile &init_regs,
                           SparseMemory &mem, Cycle start_cycle,
                           u64 max_insts);

    void reset();

    /** Attach (or detach with nullptr) a fault controller; forwards to
     *  the activation engine's per-instruction hooks. */
    void setFaultController(fault::FaultController *fc);

    /** Attach (or detach with nullptr) a tracer; forwards to the
     *  activation engine. Every hook is one null check when off and
     *  never alters timing — a traced run retires on the same cycle
     *  as an untraced one. */
    void setTracer(trace::Tracer *t);

    /** Attach (or detach with nullptr) the stream validator's address
     *  recorder; forwards to the activation engine. Region entries
     *  record their launch parameters (rc0/step/trips) so predicted
     *  affine maps can be replayed against observed addresses. Same
     *  zero-overhead contract as setTracer. */
    void setAddrTrace(trace::AddrTrace *t);

    /**
     * Attach (or detach with nullptr) a cooperative cancellation
     * token. runThread polls it at activation boundaries (the
     * cancelled flag every activation, the wall-clock deadline every
     * 64th) and stops with a structured timeout when it fires. Host
     * policy only: an uncancelled run computes cycle-identical results
     * with or without a token attached.
     */
    void setCancelToken(const host::CancelToken *t) { cancel_ = t; }

    /**
     * Attach (or detach with nullptr) a skip-idle self-profile
     * (DESIGN.md §16). The profile is pure observation — plain u64
     * tallies of fast-path coverage — so a profiled run computes
     * cycle- and counter-identical results.
     */
    void setObs(obs::SimProfile *p) { obs_ = p; }

    /** Pre-validate a simt region starting at @p simt_s_pc. Public so
     *  tests can check it agrees with the static analyzer. */
    struct SimtRegion
    {
        bool ok = false;
        Addr simt_e_pc = 0;
        isa::SimtStartFields fields{};
    };
    SimtRegion scanSimtRegion(Addr simt_s_pc, SparseMemory &mem) const;

  private:
    /** A line made resident in a cluster. */
    struct Resident
    {
        Cluster *cluster;
        Cycle ready;   //!< fetched + decoded
        bool reused;   //!< was already resident (datapath reuse)
    };

    /**
     * Make @p line resident, fetching into an LRU victim if needed,
     * with the request issued no earlier than @p when.
     */
    Resident ensureLoaded(Addr line, Cycle when, SparseMemory &mem);

    /** Pick the LRU unpinned cluster (panics if all are pinned). */
    Cluster &chooseVictim();

    /**
     * Fetch + decode @p line into @p cl; returns the ready cycle. The
     * simulated fetch and decode are charged on every call; the host
     * decode work is memoized in decoded_ (validated, see DecodedLine).
     */
    Cycle loadLine(Cluster &cl, Addr line, Cycle when,
                   SparseMemory &mem);

    /** Fire-and-forget prefetch of the fall-through line. */
    void prefetch(Addr line, Cycle when, SparseMemory &mem);

    /**
     * Execute a simt region as a thread pipeline. Returns the serial
     * resume state via the in/out parameters. False when the cycle
     * ceiling was exceeded mid-pipeline (structured timeout).
     */
    bool runSimtPipeline(const SimtRegion &region, Addr simt_s_pc,
                         LaneFile &regs, Cycle resolve, Addr &pc,
                         Cycle &pc_enter, Cycle &min_start,
                         ThreadMemCtx &tmc, u64 &retired);

    /** Clusters not taken offline by fault recovery. */
    unsigned enabledClusters() const;

    /** The cluster the resident map holds @p line in, or null. */
    Cluster *residentCluster(Addr line);

    /** Drop @p cl's line from the resident map. */
    void unmapLine(const Cluster &cl);

    /**
     * Graceful degradation: take @p cl offline and let the normal
     * allocation path remap its lines onto the survivors.
     */
    void disableCluster(Cluster &cl);

    /** warn()-level ring-state dump attached to watchdog aborts. */
    void dumpState(const char *why) const;

    /**
     * Host-side memo of one decoded I-line. loadLine reuses it only
     * when the line's raw bytes in memory still equal `raw`, so a line
     * whose code was overwritten since it was decoded is decoded again
     * exactly as it would be without the memo.
     */
    struct DecodedLine
    {
        std::vector<u8> raw;  //!< line_bytes_ bytes
        LoweredLine lowered;  //!< decode of raw, lowered (lowerLine)
    };

    const DiagConfig &cfg_;
    unsigned index_;
    mem::MemHierarchy &mh_;
    mem::Bus &bus_;
    StatGroup &stats_;
    ActivationEngine engine_;
    std::vector<Cluster> clusters_;
    /**
     * Resident map, one entry per cluster: the line the control unit
     * can reuse in that cluster, or kNoLine. An entry is either kNoLine
     * or its cluster's line_base (replica stage clusters hold a line
     * without being mapped). A flat array the size of the ring (at most
     * 32 clusters in every shipped configuration), searched linearly.
     */
    std::vector<Addr> mapped_;
    std::unordered_map<Addr, DecodedLine> decoded_; //!< line -> memo
    std::vector<u8> line_raw_;  //!< loadLine's read buffer
    std::set<Addr> pinned_lines_;      //!< simt region lines (no evict)
    std::set<Addr> not_pipelinable_;   //!< simt_s PCs that fell back
    u64 use_counter_ = 0;
    u32 line_bytes_;

    // Lazy-bound counter handles for the per-activation and line-load
    // hot paths.
    StatCounter st_reuse_activations_{stats_, "reuse_activations"};
    StatCounter st_fetch_wait_cycles_{stats_, "fetch_wait_cycles"};
    StatCounter st_reuse_redirects_{stats_, "reuse_redirects"};
    StatCounter st_ctrl_stall_cycles_{stats_, "ctrl_stall_cycles"};
    StatCounter st_iline_fetches_{stats_, "iline_fetches"};
    StatCounter st_decodes_{stats_, "decodes"};
    StatCounter st_other_stall_cycles_{stats_, "other_stall_cycles"};
    StatCounter st_clusters_used_{stats_, "clusters_used"};
    StatCounter st_prefetches_{stats_, "prefetches"};
    StatCounter st_clusters_disabled_{stats_, "clusters_disabled"};
    fault::FaultController *faults_ = nullptr; //!< null = no injection
    trace::Tracer *trc_ = nullptr;             //!< null = tracing off
    trace::AddrTrace *atrc_ = nullptr;         //!< null = no addr log
    const host::CancelToken *cancel_ = nullptr; //!< null = no watchdog
    obs::SimProfile *obs_ = nullptr;           //!< null = profiling off
};

} // namespace diag::core

#endif // DIAG_DIAG_RING_HPP
