#include "diag/ring.hpp"

#include <algorithm>
#include <limits>
#include <deque>

#include "analysis/simt_scan.hpp"
#include "common/bits.hpp"
#include "common/log.hpp"
#include "fault/checkpoint.hpp"
#include "fault/controller.hpp"
#include "fault/watchdog.hpp"
#include "isa/decoder.hpp"
#include "obs/sim_profile.hpp"
#include "trace/addr_trace.hpp"

namespace diag::core
{

using namespace diag::isa;

namespace
{

/** stop_reason of an activation that trapped at its exit pc. */
std::string
trapReason(const ActivationOutput &act)
{
    if (act.stray_simt_e)
        return detail::vformat("trap: simt_e at 0x%x without simt_s",
                               act.exit_pc);
    return detail::vformat("trap: invalid encoding at pc 0x%x",
                           act.exit_pc);
}

/** A backward branch or JAL: a loop may re-enter the line. */
bool
hasBackwardBranch(const std::vector<DecodedInst> &insts)
{
    return std::any_of(insts.begin(), insts.end(),
                       [](const DecodedInst &di) {
                           return (di.isBranch() || di.op == Op::JAL) &&
                                  di.imm < 0;
                       });
}

} // namespace

Ring::Ring(const DiagConfig &cfg, unsigned index, mem::MemHierarchy &mh,
           mem::Bus &bus, StatGroup &stats)
    : cfg_(cfg), index_(index), mh_(mh), bus_(bus), stats_(stats),
      engine_(cfg, mh, 0, stats),
      line_bytes_(cfg.pes_per_cluster * 4)
{
    clusters_.resize(cfg.clustersPerRing());
    for (unsigned c = 0; c < clusters_.size(); ++c)
        clusters_[c].index = c;
    fatal_if(clusters_.size() < 2,
             "a ring needs at least two clusters to alternate (have %zu)",
             clusters_.size());
}

void
Ring::reset()
{
    for (Cluster &cl : clusters_)
        cl.reset();
    resident_.clear();
    decoded_.clear();
    pinned_lines_.clear();
    not_pipelinable_.clear();
    use_counter_ = 0;
}

void
Ring::setFaultController(fault::FaultController *fc)
{
    faults_ = fc;
    engine_.setFaultController(fc);
}

void
Ring::setTracer(trace::Tracer *t)
{
    trc_ = t;
    engine_.setTracer(t, index_);
}

void
Ring::setAddrTrace(trace::AddrTrace *t)
{
    atrc_ = t;
    engine_.setAddrTrace(t);
}

unsigned
Ring::enabledClusters() const
{
    unsigned n = 0;
    for (const Cluster &cl : clusters_)
        n += cl.disabled ? 0 : 1;
    return n;
}

void
Ring::unmapLine(const Cluster &cl)
{
    auto it = resident_.find(cl.line_base);
    if (it != resident_.end() && it->second == cl.index)
        resident_.erase(it);
}

void
Ring::disableCluster(Cluster &cl)
{
    unmapLine(cl);
    cl.evict();
    cl.disabled = true;
    st_clusters_disabled_.inc();
    if (faults_)
        faults_->noteClusterDisabled();
    warn("ring%u: cluster %u disabled after repeated faults; "
         "remapping onto %u surviving clusters",
         index_, cl.index, enabledClusters());
}

void
Ring::dumpState(const char *why) const
{
    warn("ring%u state dump (%s):", index_, why);
    for (const Cluster &cl : clusters_) {
        warn("  cl%u%s line=0x%x ready=%llu free=%llu last_use=%llu",
             cl.index, cl.disabled ? " [disabled]" : "",
             cl.line_base, static_cast<unsigned long long>(cl.ready_at),
             static_cast<unsigned long long>(cl.free_at),
             static_cast<unsigned long long>(cl.last_use));
    }
}

Cluster &
Ring::chooseVictim()
{
    Cluster *victim = nullptr;
    for (Cluster &cl : clusters_) {
        if (cl.disabled)
            continue;
        if (cl.loaded() && pinned_lines_.count(cl.line_base))
            continue;
        if (!victim || cl.last_use < victim->last_use)
            victim = &cl;
    }
    panic_if(!victim, "all clusters pinned; cannot evict");
    return *victim;
}

Cycle
Ring::loadLine(Cluster &cl, Addr line, Cycle when, SparseMemory &mem)
{
    unmapLine(cl);

    // The cluster must finish draining before it can be re-loaded.
    const Cycle start = std::max(when, cl.free_at);
    if (cl.free_at > when)
        st_other_stall_cycles_.inc(
            static_cast<double>(cl.free_at - when));
    // I-cache line fetch, delivery over the shared 512-bit bus, and
    // one decode cycle (paper §5.1.1).
    const mem::MemResult res = mh_.fetchLine(0, line, start);
    const Cycle grant = bus_.request(res.done, cfg_.bus_iline_transfer);
    const Cycle ready =
        grant + cfg_.bus_iline_transfer + cfg_.decode_latency;

    if (cl.last_use == 0)
        st_clusters_used_.inc();  // first use: un-gates its lanes
    cl.line_base = line;
    cl.ready_at = ready;
    cl.last_use = ++use_counter_;
    // Decoded-line cache (DESIGN.md §15): reuse an earlier decode of
    // this line only if its raw bytes are unchanged, so code written
    // since then decodes afresh.
    line_raw_.resize(line_bytes_);
    mem.readBlock(line, line_raw_.data(), line_raw_.size());
    DecodedLine &dl = decoded_[line];
    if (dl.raw != line_raw_) {
        dl.raw = line_raw_;
        dl.insts.clear();
        for (unsigned i = 0; i < cfg_.pes_per_cluster; ++i)
            dl.insts.push_back(decode(mem.read32(line + 4 * i)));
        // Skip-idle metadata, derived once per decode instead of once
        // per activation.
        dl.has_backward_branch = hasBackwardBranch(dl.insts);
    }
    cl.insts = dl.insts;
    cl.has_backward_branch = dl.has_backward_branch;
    st_iline_fetches_.inc();
    st_decodes_.inc(cfg_.pes_per_cluster);
    return ready;
}

Ring::Resident
Ring::ensureLoaded(Addr line, Cycle when, SparseMemory &mem)
{
    auto it = resident_.find(line);
    Cluster *cl = nullptr;
    if (it != resident_.end()) {
        cl = &clusters_[it->second];
        cl->last_use = ++use_counter_;
        if (cfg_.reuse_enabled)
            return {cl, cl->ready_at, true};
        // Ablation: without datapath reuse every activation re-fetches
        // and re-decodes its line, even when it is still resident.
    } else {
        cl = &chooseVictim();
    }
    const Cycle ready = loadLine(*cl, line, when, mem);
    resident_[line] = cl->index;
    return {cl, ready, false};
}

void
Ring::prefetch(Addr line, Cycle when, SparseMemory &mem)
{
    if (resident_.count(line))
        return;
    ensureLoaded(line, when, mem);
    st_prefetches_.inc();
}

ThreadResult
Ring::runThread(Addr entry, const LaneFile &init_regs, SparseMemory &mem,
                Cycle start_cycle, u64 max_insts)
{
    ThreadResult res;
    LaneFile regs = init_regs;
    regs.clampThenDelay(start_cycle, 0);
    Addr pc = entry;
    Cycle pc_enter = start_cycle;
    Cycle min_start = start_cycle;
    ThreadMemCtx tmc(mem, cfg_.mem_lane_entries);
    u64 retired = 0;
    // Lookahead window: an activation may not begin before the one
    // speculation_depth activations earlier finished executing.
    std::deque<Cycle> inflight;

    if (faults_ && faults_->parityEnabled())
        refreshParity(regs);
    fault::Watchdog wd(cfg_.max_cycles);
    fault::ThreadCheckpoint ckpt;

    // Fill in the common tail of every structured early stop.
    auto stop = [&](Cycle when, Addr where, std::string reason) {
        res.finish = when;
        res.retired = retired;
        res.stop_pc = where;
        res.stop_reason = std::move(reason);
        res.final_regs = regs;
    };
    // The thread ended in @p act: it halted (EBREAK/ECALL) or trapped.
    auto halt = [&](const ActivationOutput &act) {
        res.halted = !act.faulted;
        res.faulted = act.faulted;
        stop(act.end_cycle, act.exit_pc,
             act.faulted ? trapReason(act) : std::string());
    };
    // Profile and trace one activation of @p cl entered at @p at.
    auto notice = [&](const Cluster &cl, Addr at, Cycle start,
                      const ActivationOutput &act, bool reused) {
        if (obs_)
            ++obs_->dense_activations;
        if (trc_)
            trc_->activation(static_cast<u8>(index_),
                             static_cast<u16>(cl.index), at, start,
                             act.end_cycle, reused, act.retired);
    };
    // Recovery tail of every detected fault: abort with @p why once
    // the budget is spent, else restore the checkpointed pc and lane
    // file and re-enter after the penalty counted from @p from.
    auto recover = [&](Cycle from, std::string why) {
        if (!faults_->recoveryBudgetLeft()) {
            res.aborted = true;
            stop(from, pc, std::move(why));
            return false;
        }
        faults_->noteRecovery();
        stats_.inc("fault_recoveries");
        pc = ckpt.pc;
        regs = ckpt.regs;
        const Cycle resume = from + faults_->detect().recovery_penalty;
        pc_enter = resume;
        min_start = resume;
        if (trc_)
            trc_->rollback(static_cast<u8>(index_), pc, resume,
                           faults_->tally().recoveries);
        return true;
    };
    // Lockstep check after an activation on @p cl that ended at @p end.
    // On a retirement mismatch the oracle flagged, discard the
    // activation's architectural effects (precise at the activation
    // boundary), roll back and re-execute; a cluster blamed repeatedly
    // is taken offline. True on a divergence: the caller re-enters the
    // loop, or returns res if it was aborted.
    auto diverged = [&](Cycle end, Cluster &cl) {
        if (!faults_ || !faults_->divergencePending())
            return false;
        stats_.inc("fault_lockstep_detections");
        faults_->noteLockstepDetection();
        if (!recover(end, "lockstep: " + faults_->divergenceReason() +
                              " (recovery budget exhausted)"))
            return true;
        faults_->undoLog().rollback(mem);
        retired = ckpt.retired;
        tmc = *ckpt.mem_lanes;
        inflight = ckpt.inflight;
        faults_->oracleRewind();
        faults_->clearDivergence();
        if (faults_->strike(cl.index) && enabledClusters() > 2)
            disableCluster(cl);
        return true;
    };
    // Lanes hand over to the next line's cluster through the
    // inter-cluster latch.
    auto fallThrough = [&](const ActivationOutput &act) {
        pc = act.exit_pc;
        pc_enter = act.exit_resolve + cfg_.inter_cluster_latch;
        min_start = 0;
        regs.delay(cfg_.inter_cluster_latch);
    };
    // Mispredicted control transfer to a far or non-resident target,
    // resolved at @p resolve: register file over the bus plus the
    // squash re-steer.
    auto busHandover = [&](Cycle resolve) {
        const Cycle grant =
            bus_.request(resolve, cfg_.bus_regfile_transfer);
        const Cycle xfer = grant + cfg_.bus_regfile_transfer;
        regs.clampThenDelay(grant, cfg_.bus_regfile_transfer);
        pc_enter = xfer;
        min_start = resolve + cfg_.squash_resteer;
        st_ctrl_stall_cycles_.inc(static_cast<double>(xfer - resolve));
    };

    u64 activations = 0;

    while (retired < max_insts) {
        // The cycle the thread stands at on this activation boundary.
        const Cycle now = std::max(pc_enter, min_start);
        // Cooperative host cancellation / wall-clock watchdog: the
        // flag is one atomic load per activation; the deadline (a
        // clock read) is consulted on the first activation and every
        // 64th after, so an already-expired token stops before any
        // work and a pathological seed stops within one check window.
        if (cancel_ &&
            (cancel_->cancelled() ||
             ((activations++ & 63) == 0 && cancel_->expired()))) {
            res.timed_out = true;
            stop(now, pc,
                 detail::vformat("host watchdog: %s", cancel_->reason()));
            return res;
        }
        // Hardware trap: a misaligned PC (reachable through jalr off a
        // corrupted lane — the ISA masks only bit 0) cannot address an
        // I-line slot.
        if (pc & 3u) {
            res.faulted = true;
            stop(now, pc, detail::vformat("trap: misaligned pc 0x%x", pc));
            return res;
        }
        // Forward-progress watchdog: activation boundaries that stop
        // retiring instructions mean a control-unit livelock.
        if (wd.onProgress(retired) || wd.onCycle(now)) {
            dumpState(wd.reason().c_str());
            res.timed_out = true;
            stop(now, pc, wd.reason());
            return res;
        }
        if (faults_) {
            // Activation boundary = checkpoint: snapshot architectural
            // state *before* injection so recovery restores a clean
            // image, then let due fault events strike.
            ckpt.valid = true;
            ckpt.pc = pc;
            ckpt.pc_enter = pc_enter;
            ckpt.min_start = min_start;
            ckpt.retired = retired;
            ckpt.regs = regs;
            ckpt.inflight = inflight;
            ckpt.mem_lanes = tmc;
            faults_->undoLog().clear();
            faults_->oracleMark();
            faults_->onBoundary(regs, tmc, mem, mh_, retired);
            if (trc_)
                trc_->checkpoint(static_cast<u8>(index_), pc, now, retired);
            if (faults_->parityEnabled()) {
                const int bad = faults_->paritySweep(regs);
                if (bad >= 0) {
                    stats_.inc("fault_parity_detections");
                    faults_->noteParityDetection();
                    // Lane scrub before re-entry.
                    if (!recover(now, detail::vformat(
                                          "parity error on lane %d: "
                                          "recovery budget exhausted",
                                          bad)))
                        return res;
                }
            }
        }
        const Addr line = alignDown(pc, line_bytes_);
        const Cycle demand = std::max(pc_enter, min_start);
        const Resident got = ensureLoaded(line, demand, mem);
        Cluster &cl = *got.cluster;
        if (got.reused)
            st_reuse_activations_.inc();
        if (got.ready > demand)
            st_fetch_wait_cycles_.inc(
                static_cast<double>(got.ready - demand));

        ActivationInput in;
        in.cluster = &cl;
        in.entry_pc = pc;
        in.pc_enter = std::max(pc_enter, got.ready);
        // Per-PE occupancy is enforced inside the activation engine;
        // min_start carries decode readiness, squash re-steer floors,
        // and the bounded speculation window.
        in.min_start = std::max(min_start, got.ready);
        if (inflight.size() >= cfg_.speculation_depth)
            in.min_start = std::max(in.min_start, inflight.front());
        in.mode = ActMode::Serial;
        in.trap_on_simt = cfg_.simt_enabled;

        // Overlap: prefetch the fall-through line while executing —
        // but not while a loop is resident in this line (a backward
        // branch will re-enter it; prefetching would evict the loop's
        // own lines in small rings, defeating reuse). The dense escape
        // hatch rescans the (unchanged) line the way the pre-skip-idle
        // control unit did: same answer as the cached flag.
        if (!(cfg_.dense_loop ? hasBackwardBranch(cl.insts)
                              : cl.has_backward_branch))
            prefetch(line + line_bytes_, in.min_start, mem);

        const ActivationOutput act = engine_.run(in, regs, tmc);
        notice(cl, pc, in.min_start, act, got.reused);
        inform("ring%u act cl%u pc=0x%x..0x%x start=%llu done=%llu "
               "retired=%llu exit=%d%s",
               index_, cl.index, pc, act.exit_pc,
               static_cast<unsigned long long>(in.min_start),
               static_cast<unsigned long long>(act.compute_done),
               static_cast<unsigned long long>(act.retired),
               static_cast<int>(act.exit), got.reused ? " [reuse]" : "");
        // The cluster accepts the next (speculative) activation once
        // its PEs finished executing; the retire sweep (pc_exit) can
        // trail behind.
        cl.free_at = act.compute_done;
        cl.last_use = ++use_counter_;
        if (diverged(act.end_cycle, cl)) {
            if (res.aborted)
                return res;
            continue;
        }
        retired += act.retired;
        inflight.push_back(act.compute_done);
        if (inflight.size() > cfg_.speculation_depth)
            inflight.pop_front();

        switch (act.exit) {
          case ActExit::Halt:
            halt(act);
            return res;
          case ActExit::SimtTrap: {
            const Addr simt_s_pc = act.exit_pc;
            if (!not_pipelinable_.count(simt_s_pc)) {
                const SimtRegion region = scanSimtRegion(simt_s_pc, mem);
                if (region.ok) {
                    if (!runSimtPipeline(region, simt_s_pc, regs,
                                         act.exit_resolve, pc, pc_enter,
                                         min_start, tmc, retired)) {
                        dumpState("simt pipeline cycle ceiling");
                        res.timed_out = true;
                        stop(std::max(pc_enter, min_start), pc,
                             detail::vformat(
                                 "watchdog: simt pipeline exceeded "
                                 "max_cycles %llu",
                                 static_cast<unsigned long long>(
                                     cfg_.max_cycles)));
                        return res;
                    }
                    continue;
                }
                not_pipelinable_.insert(simt_s_pc);
                stats_.inc("simt_fallbacks");
            }
            // Fall back to scalar execution: re-enter at the simt_s
            // with trapping suppressed via a one-shot serial pass. It
            // holds the cluster until it ends, and its exits take
            // neither the reuse nor the next-line redirect shortcut.
            ActivationInput again = in;
            again.entry_pc = simt_s_pc;
            again.pc_enter = std::max(act.exit_resolve, got.ready);
            again.min_start = again.pc_enter;
            again.trap_on_simt = false;
            const ActivationOutput act2 = engine_.run(again, regs, tmc);
            notice(cl, simt_s_pc, again.min_start, act2, false);
            cl.free_at = act2.end_cycle;
            // A divergence re-executes the whole loop iteration,
            // including the simt trap, from the boundary checkpoint.
            if (diverged(act2.end_cycle, cl)) {
                if (res.aborted)
                    return res;
                continue;
            }
            retired += act2.retired;
            if (act2.exit == ActExit::Halt) {
                halt(act2);
                return res;
            }
            if (act2.exit == ActExit::FellThrough) {
                fallThrough(act2);
            } else {
                pc = act2.exit_pc;
                busHandover(act2.exit_resolve);
            }
            continue;
          }
          case ActExit::FellThrough:
            fallThrough(act);
            break;
          case ActExit::Redirect: {
            if (trc_)
                trc_->pcRedirect(static_cast<u8>(index_),
                                 static_cast<u16>(cl.index), pc,
                                 act.exit_resolve, act.exit_pc);
            pc = act.exit_pc;
            const Addr target_line = alignDown(pc, line_bytes_);
            const auto res_it = resident_.find(target_line);
            const bool reuse = cfg_.reuse_enabled &&
                               act.redirect_backward &&
                               res_it != resident_.end();
            if (reuse) {
                // Predicted-taken backward branch into a resident
                // datapath: no fetch, no decode, no re-steer bubble —
                // the control unit's scheduling table has the loop's
                // head/tail clusters registered (§5.1.3), so the lane
                // wrap path is pre-configured and the handover costs
                // one latch like any cluster-to-cluster transfer.
                const Cycle latch = cfg_.inter_cluster_latch;
                regs.delay(latch);
                min_start = act.branch_done + latch;
                pc_enter = act.exit_resolve + latch;
                st_reuse_redirects_.inc();
                if (trc_)
                    trc_->reuseHit(
                        static_cast<u8>(index_),
                        static_cast<u16>(
                            clusters_[res_it->second].index),
                        pc, pc_enter);
            } else if (pc == line + line_bytes_) {
                // Taken forward branch to the immediately next line:
                // lanes hand over through the inter-cluster latch; the
                // wrong-path squash costs the re-steer bubble.
                pc_enter = act.exit_resolve + cfg_.inter_cluster_latch;
                regs.delay(cfg_.inter_cluster_latch);
                min_start = act.exit_resolve + cfg_.squash_resteer;
                st_ctrl_stall_cycles_.inc(
                    static_cast<double>(cfg_.squash_resteer));
            } else {
                busHandover(act.exit_resolve);
            }
            break;
          }
          case ActExit::ThreadEnd:
            panic("ThreadEnd exit outside a simt pipeline stage");
        }
    }
    // Instruction budget exhausted: report a structured timeout.
    res.timed_out = true;
    stop(std::max(pc_enter, min_start), pc,
         detail::vformat("instruction budget exhausted (%llu retired)",
                         static_cast<unsigned long long>(retired)));
    return res;
}

Ring::SimtRegion
Ring::scanSimtRegion(Addr simt_s_pc, SparseMemory &mem) const
{
    // The legality rules live in the shared static analyzer so that
    // diag-lint reports exactly what this control unit will accept.
    SimtRegion region;
    if (!cfg_.simt_enabled)
        return region;
    const analysis::SimtScan scan = analysis::scanSimtRegion(
        simt_s_pc, mem, line_bytes_, cfg_.clustersPerRing());
    if (!scan.ok())
        return region;
    region.ok = true;
    region.simt_e_pc = scan.simt_e_pc;
    region.fields = scan.fields;
    return region;
}

bool
Ring::runSimtPipeline(const SimtRegion &region, Addr simt_s_pc,
                      LaneFile &regs, Cycle resolve, Addr &pc,
                      Cycle &pc_enter, Cycle &min_start,
                      ThreadMemCtx &tmc, u64 &retired)
{
    // Retirement order across pipelined threads is interleaved, so the
    // instruction-by-instruction golden oracle cannot follow it.
    fatal_if(faults_ && faults_->lockstepEnabled(),
             "golden-lockstep checking is incompatible with simt "
             "thread pipelining; disable one of the two");
    const auto &f = region.fields;
    auto reg_value = [&](RegId r) -> u32 {
        return r == kRegZero ? 0 : regs[r].value;
    };
    const u32 rc0 = reg_value(f.rc);
    const u32 step = reg_value(f.rStep);
    const u32 end = reg_value(f.rEnd);

    // Trip count with do-while semantics, matching simt_e's scalar
    // behaviour exactly (the step's sign selects the condition).
    constexpr u64 kTripCap = u64{1} << 20;
    u64 trips = 0;
    bool capped = false;
    bool closed = false;
    if (!cfg_.dense_loop) {
        // Closed form (skip-idle, DESIGN.md §15): the counter walks an
        // arithmetic progression, so the exit trip is one division.
        // Valid only while the i32 counter never wraps; since the
        // progression is monotone, checking the final value in i64
        // covers every intermediate one. On wrap, fall back to the
        // iterative walk below, which has wrap semantics built in.
        const i64 c0 = static_cast<i32>(rc0);
        const i64 sstep = static_cast<i32>(step);
        const i64 e = static_cast<i32>(end);
        i64 t;
        if (sstep > 0)
            t = std::max<i64>(1, (e - c0 + sstep - 1) / sstep);
        else if (sstep < 0)
            t = std::max<i64>(1, (c0 - e + (-sstep) - 1) / (-sstep));
        else
            t = c0 < e ? static_cast<i64>(kTripCap) + 1 : 1;
        capped = t > static_cast<i64>(kTripCap);
        trips = capped ? kTripCap : static_cast<u64>(t);
        const i64 v_last = c0 + static_cast<i64>(trips) * sstep;
        closed = v_last >= std::numeric_limits<i32>::min() &&
                 v_last <= std::numeric_limits<i32>::max();
    }
    if (!closed) {
        trips = 0;
        capped = false;
        for (u32 v = rc0;;) {
            ++trips;
            v += step;
            const bool more =
                static_cast<i32>(step) >= 0
                    ? static_cast<i32>(v) < static_cast<i32>(end)
                    : static_cast<i32>(v) > static_cast<i32>(end);
            if (!more)
                break;
            if (trips >= kTripCap) {
                capped = true;
                break;
            }
        }
    }
    if (capped)
        warn("simt region at 0x%x exceeds 2^20 threads; capping",
             simt_s_pc);
    if (obs_) {
        if (closed)
            ++obs_->simt_closed_form;
        else
            ++obs_->simt_iterative;
    }
    stats_.inc("simt_regions");
    stats_.inc("simt_threads", static_cast<double>(trips));
    // Per-region counters (keyed by the simt_s pc) let the bound
    // validator compare each region's measured duration against its
    // static model (tools/diag_bound.cpp --validate).
    stats_.inc(analysis::simtRegionKey(simt_s_pc, "entries"));
    stats_.inc(analysis::simtRegionKey(simt_s_pc, "threads"),
               static_cast<double>(trips));
    if (trc_)
        trc_->regionEnter(static_cast<u8>(index_), simt_s_pc, resolve,
                          trips);
    if (atrc_)
        atrc_->regionEnter(simt_s_pc, rc0, step, trips);

    // Region lines; pin them so stage clusters are never evicted.
    const Addr first_line = alignDown(simt_s_pc + 4, line_bytes_);
    const Addr last_line = alignDown(region.simt_e_pc, line_bytes_);
    std::vector<Addr> lines;
    for (Addr line = first_line; line <= last_line; line += line_bytes_) {
        lines.push_back(line);
        pinned_lines_.insert(line);
    }

    // Spatial replication (paper §4.4.1): when the pipeline has fewer
    // stages than the ring has clusters, replicate it to maximise PE
    // utilisation. Threads round-robin across replicas.
    const unsigned max_replicas = static_cast<unsigned>(
        clusters_.size() / lines.size());
    const unsigned replicas = static_cast<unsigned>(std::max<u64>(
        1, std::min<u64>({max_replicas, trips})));
    stats_.inc("simt_replicas", static_cast<double>(replicas));

    // Allocate and load stage clusters: replica r, stage s uses a
    // dedicated cluster. Replica 0 reuses already-resident lines.
    std::vector<std::vector<Cluster *>> stage(replicas);
    Cycle ready_all = resolve;
    for (unsigned r = 0; r < replicas; ++r) {
        for (const Addr line : lines) {
            Cluster *cl = nullptr;
            Cycle ready = 0;
            if (r == 0) {
                const Resident got = ensureLoaded(line, resolve,
                                                  tmc.mem());
                cl = got.cluster;
                ready = got.ready;
            } else {
                cl = &chooseVictim();
                ready = loadLine(*cl, line, resolve, tmc.mem());
            }
            stage[r].push_back(cl);
            ready_all = std::max(ready_all, ready);
        }
    }

    const Cycle interval = std::max<Cycle>(1, f.interval);
    Cycle launch = std::max(resolve, ready_all);
    Cycle last_exit_resolve = resolve;
    LaneFile last_regs = regs;

    for (u64 k = 0; k < trips; ++k) {
        if (cfg_.max_cycles != 0 && launch > cfg_.max_cycles) {
            if (atrc_)
                atrc_->regionExit(); // close the partial entry record
            return false; // structured timeout, not an endless spin
        }
        const auto &my_stages = stage[k % replicas];
        LaneFile thr = regs;
        thr[f.rc].value = rc0 + static_cast<u32>(k) * step;
        thr.setReady(f.rc, launch);
        thr[f.rc].parity = faults_ && faults_->parityEnabled()
                               ? laneParity(thr[f.rc].value)
                               : 0;
        Addr tpc = simt_s_pc + 4;
        Cycle tpc_enter = launch;
        Cycle tmin = launch;
        for (;;) {
            const Addr line = alignDown(tpc, line_bytes_);
            const size_t idx =
                static_cast<size_t>((line - first_line) / line_bytes_);
            Cluster &cl = *my_stages[idx];
            ActivationInput in;
            in.cluster = &cl;
            in.entry_pc = tpc;
            in.pc_enter = std::max(tpc_enter, cl.ready_at);
            // Threads stream through stage PEs back-to-back; per-PE
            // occupancy (pipeline registers) is enforced inside the
            // engine rather than whole-cluster exclusivity.
            in.min_start = std::max(tmin, cl.ready_at);
            in.mode = ActMode::SimtStage;
            in.simt_step = step;
            const ActivationOutput act = engine_.run(in, thr, tmc);
            if (obs_)
                ++obs_->simt_activations;
            if (trc_) {
                trc_->simtStage(static_cast<u8>(index_),
                                static_cast<u16>(cl.index), tpc,
                                in.min_start, act.end_cycle, k);
                trc_->retired(act.end_cycle, act.retired);
            }
            inform("simt thread %llu stage cl%u: launch=%llu "
                   "min_start=%llu end=%llu exit=%d",
                   static_cast<unsigned long long>(k), cl.index,
                   static_cast<unsigned long long>(launch),
                   static_cast<unsigned long long>(in.min_start),
                   static_cast<unsigned long long>(act.end_cycle),
                   static_cast<int>(act.exit));
            cl.free_at = act.end_cycle;
            cl.last_use = ++use_counter_;
            retired += act.retired;
            if (act.exit == ActExit::ThreadEnd) {
                last_exit_resolve =
                    std::max(last_exit_resolve, act.exit_resolve);
                if (k == trips - 1)
                    last_regs = thr;
                break;
            }
            panic_if(act.exit == ActExit::Halt ||
                         act.exit == ActExit::SimtTrap,
                     "unexpected exit %d inside simt stage",
                     static_cast<int>(act.exit));
            // FellThrough or forward Redirect within the region.
            panic_if(act.exit_pc <= tpc || act.exit_pc >
                         region.simt_e_pc,
                     "simt stage left the region: 0x%x", act.exit_pc);
            tpc = act.exit_pc;
            tpc_enter = act.exit_resolve + cfg_.inter_cluster_latch;
            tmin = 0;
            thr.delay(cfg_.inter_cluster_latch);
        }
        launch += interval;
    }

    // Release replica clusters (replica 0 stays resident for reuse).
    for (unsigned r = 1; r < replicas; ++r) {
        for (Cluster *cl : stage[r])
            cl->evict();
    }
    for (Addr line : lines)
        pinned_lines_.erase(line);

    // Only the last thread's lanes propagate past simt_e (paper §5.4).
    regs = last_regs;
    pc = region.simt_e_pc + 4;
    stats_.inc(analysis::simtRegionKey(simt_s_pc, "cycles"),
               static_cast<double>(last_exit_resolve +
                                   cfg_.inter_cluster_latch - resolve));
    if (trc_)
        trc_->regionExit(static_cast<u8>(index_), simt_s_pc, resolve,
                         last_exit_resolve + cfg_.inter_cluster_latch);
    if (atrc_)
        atrc_->regionExit();
    pc_enter = last_exit_resolve + cfg_.inter_cluster_latch;
    min_start = 0;
    regs.delay(cfg_.inter_cluster_latch);
    return true;
}

} // namespace diag::core
