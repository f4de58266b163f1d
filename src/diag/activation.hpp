/**
 * @file
 * The activation engine: simulates one pass of the PC lane through one
 * processing cluster (an "activation"), computing per-PE dataflow
 * timing over the register lanes, memory-system interaction through the
 * cluster LSU, and control-flow (PC-lane) retirement. This is the core
 * of the DiAG model — both serial execution and SIMT pipeline stages
 * are sequences of activations.
 */
#ifndef DIAG_DIAG_ACTIVATION_HPP
#define DIAG_DIAG_ACTIVATION_HPP

#include "common/stats.hpp"
#include "diag/cluster.hpp"
#include "diag/config.hpp"
#include "diag/lanes.hpp"
#include "diag/thread_ctx.hpp"
#include "mem/hierarchy.hpp"
#include "trace/tracer.hpp"

namespace diag::fault
{
class FaultController;
}

namespace diag::trace
{
class AddrTrace;
}

namespace diag::core
{

/** How an activation interprets simt instructions. */
enum class ActMode : u8
{
    Serial,    //!< normal execution; simt_e loops back (scalar semantics)
    SimtStage, //!< pipeline stage; simt_e terminates the thread
};

/** Why an activation ended. */
enum class ActExit : u8
{
    FellThrough, //!< PC ran off the end of the line
    Redirect,    //!< control transfer out of the cluster
    Halt,        //!< ebreak/ecall or a precise trap
    SimtTrap,    //!< serial mode reached a simt_s (not executed)
    ThreadEnd,   //!< stage mode retired its simt_e
};

/**
 * Activation request. The lane file itself is passed to run() by
 * reference and updated in place, so an activation copies no lanes.
 * Lane timing is seg-free (lanes.hpp, DESIGN.md §15): the cluster
 * output-latch transfer delays every lane by the last segment index,
 * which the file records in O(1) as its shared bias.
 */
struct ActivationInput
{
    Cluster *cluster = nullptr;
    Addr entry_pc = 0;
    Cycle pc_enter = 0;       //!< PC-lane arrival at the cluster
    Cycle min_start = 0;      //!< earliest correct execution (decode,
                              //!< squash re-steer, pipeline entry)
    ActMode mode = ActMode::Serial;
    bool trap_on_simt = false; //!< serial: stop at simt_s for the CU
    u32 simt_step = 0;         //!< stage mode: step value for simt_e
};

/** Activation outcome. */
struct ActivationOutput
{
    ActExit exit = ActExit::FellThrough;
    bool faulted = false;     //!< Halt caused by a precise trap
    bool stray_simt_e = false; //!< the trap is a simt_e whose target
                               //!< is no simt_s (else a bad encoding)
    bool redirect_backward = false;  //!< Redirect target is at or
                                     //!< before the branch (a loop)
    Addr exit_pc = 0;         //!< next PC (or the simt_s PC on SimtTrap)
    Cycle exit_resolve = 0;   //!< cycle the next PC was known in order
    Cycle branch_done = 0;    //!< redirecting PE's execute-done cycle
                              //!< (= exit_resolve for other exits);
                              //!< earliest cycle a predicted-taken
                              //!< backward branch can re-steer
    Cycle pc_exit = 0;        //!< PC lane left the cluster
    Cycle end_cycle = 0;      //!< PEs done and retire sweep finished
    Cycle compute_done = 0;   //!< all PEs done executing; the cluster
                              //!< can accept a new (speculative)
                              //!< activation from this cycle on
    u64 retired = 0;
    u64 taken_branches = 0;
};

/** Simulates activations against the shared memory system. */
class ActivationEngine
{
  public:
    ActivationEngine(const DiagConfig &cfg, mem::MemHierarchy &mh,
                     unsigned mem_port, StatGroup &stats);

    /** Run one activation for the thread @p tmc. @p regs is the lane
     *  file at the cluster input latch; it is updated in place and
     *  holds the output-latch state on return (on every exit kind). */
    ActivationOutput run(const ActivationInput &in, LaneFile &regs,
                         ThreadMemCtx &tmc);

    /** Attach (or detach with nullptr) a fault controller. Every hook
     *  in the hot path is a single null check when detached. */
    void setFaultController(fault::FaultController *fc) { fc_ = fc; }

    /** Attach (or detach with nullptr) a tracer for lane-write,
     *  memory-lane, and LSU-queue events; @p ring labels the track.
     *  Same hot-path contract: one null check when detached. */
    void
    setTracer(trace::Tracer *t, unsigned ring)
    {
        trc_ = t;
        ring_ = static_cast<u8>(ring);
    }

    /** Attach (or detach with nullptr) the address recorder for the
     *  stream validator. Same hot-path contract: one null check when
     *  detached, and the hook never feeds back into timing. */
    void setAddrTrace(trace::AddrTrace *t) { atrc_ = t; }

  private:
    /** Cycles until a load's data is available, with full accounting.
     *  @p pe is the issuing PE slot (keys the stride prefetcher). */
    Cycle serveLoad(Cluster &cl, ThreadMemCtx &tmc, Addr ea, u8 size,
                    Cycle issue, unsigned pe);

    /** Occupy LSU + cache for a committing store. */
    void commitStore(Cluster &cl, Addr ea, Cycle commit);

    const DiagConfig &cfg_;
    mem::MemHierarchy &mh_;
    unsigned mem_port_;
    StatGroup &stats_;
    u32 line_bytes_;

    // Lazy-bound counter handles for the per-activation hot path (see
    // StatCounter): identical key-creation semantics to stats_.inc,
    // without a map lookup per event.
    StatCounter st_activations_{stats_, "activations"};
    StatCounter st_pe_exec_{stats_, "pe_exec"};
    StatCounter st_pe_busy_cycles_{stats_, "pe_busy_cycles"};
    StatCounter st_pe_exec_cycles_{stats_, "pe_exec_cycles"};
    StatCounter st_fpu_active_cycles_{stats_, "fpu_active_cycles"};
    StatCounter st_lane_writes_{stats_, "lane_writes"};
    StatCounter st_lane_hops_{stats_, "lane_hops"};
    StatCounter st_taken_branches_{stats_, "taken_branches"};
    StatCounter st_loop_exit_mispredicts_{stats_, "loop_exit_mispredicts"};
    StatCounter st_ctrl_stall_cycles_{stats_, "ctrl_stall_cycles"};
    StatCounter st_loads_{stats_, "loads"};
    StatCounter st_stores_{stats_, "stores"};
    StatCounter st_stride_prefetches_{stats_, "stride_prefetches"};
    StatCounter st_mem_queue_stall_cycles_{stats_,
                                           "mem_queue_stall_cycles"};
    StatCounter st_memlane_fwd_{stats_, "memlane_fwd"};
    StatCounter st_linebuf_hits_{stats_, "linebuf_hits"};
    StatCounter st_l1_loads_{stats_, "l1_loads"};
    StatCounter st_l2_loads_{stats_, "l2_loads"};
    StatCounter st_dram_loads_{stats_, "dram_loads"};
    StatCounter st_mem_stall_cycles_{stats_, "mem_stall_cycles"};
    fault::FaultController *fc_ = nullptr; //!< null = injection off
    trace::Tracer *trc_ = nullptr;         //!< null = tracing off
    trace::AddrTrace *atrc_ = nullptr;     //!< null = no address log
    u8 ring_ = 0;                          //!< ring id for trace tracks
};

} // namespace diag::core

#endif // DIAG_DIAG_ACTIVATION_HPP
