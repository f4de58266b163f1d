#include "diag/activation.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "fault/controller.hpp"
#include "isa/decoder.hpp"
#include "isa/exec.hpp"
#include "isa/latency.hpp"
#include "trace/addr_trace.hpp"

namespace diag::core
{

using namespace diag::isa;

bool
hasBackwardBranch(const std::vector<DecodedInst> &insts)
{
    return std::any_of(insts.begin(), insts.end(),
                       [](const DecodedInst &di) {
                           return (di.isBranch() || di.op == Op::JAL) &&
                                  di.imm < 0;
                       });
}

LoweredLine
lowerLine(std::vector<DecodedInst> insts, unsigned segment_size)
{
    LoweredLine line;
    line.slots.reserve(insts.size());
    for (size_t i = 0; i < insts.size(); ++i) {
        const DecodedInst &di = insts[i];
        SlotInfo si;
        si.cls = di.cls();
        si.latency = execLatency(si.cls);
        si.seg = static_cast<u8>(i / segment_size);
        si.mem_bytes = di.info().memBytes;
        const auto set = [&si](bool on, SlotInfo::Flag f) {
            if (on)
                si.flags = static_cast<u16>(si.flags | f);
        };
        set(di.valid(), SlotInfo::kValid);
        set(di.isLoad(), SlotInfo::kLoad);
        set(di.isStore(), SlotInfo::kStore);
        set(di.isFp(), SlotInfo::kFp);
        set(di.writesReg(), SlotInfo::kWritesReg);
        set(di.isBranch() && di.imm < 0, SlotInfo::kBackCondBranch);
        set(di.op == Op::SIMT_S, SlotInfo::kSimtS);
        set(di.op == Op::SIMT_E, SlotInfo::kSimtE);
        set(si.cls == ExecClass::IntDiv || si.cls == ExecClass::FpDiv ||
                si.cls == ExecClass::FpSqrt,
            SlotInfo::kUnpipelined);
        line.slots.push_back(si);
    }
    line.has_backward_branch = hasBackwardBranch(insts);
    line.insts = std::move(insts);
    return line;
}

ActivationEngine::ActivationEngine(const DiagConfig &cfg,
                                   mem::MemHierarchy &mh,
                                   unsigned mem_port, StatGroup &stats)
    : cfg_(cfg), mh_(mh), mem_port_(mem_port), stats_(stats),
      line_bytes_(cfg.pes_per_cluster * 4)
{}

Cycle
ActivationEngine::serveLoad(Cluster &cl, ThreadMemCtx &tmc, Addr ea,
                            u8 size, Cycle issue, unsigned pe)
{
    st_loads_.inc();
    // Localized stride prefetch: each PE slot holds one (reused)
    // memory instruction, so its address stream is highly regular.
    if (cfg_.stride_prefetch_enabled) {
        const Addr predict = cl.strideTrain(pe, ea);
        if (predict != 0 &&
            alignDown(predict, 64) != alignDown(ea, 64)) {
            // Fetch the predicted line into L1D and the line buffer in
            // the background (bank occupancy is paid, the PE is not).
            mh_.dataAccess(mem_port_, predict, false, issue);
            cl.lineBufAccess(alignDown(predict, 64));
            st_stride_prefetches_.inc();
        }
    }
    // Queue admission: at most lsq_entries outstanding requests.
    auto &q = cl.outstanding;
    std::erase_if(q, [&](Cycle done) { return done <= issue; });
    if (q.size() >= cfg_.lsq_entries) {
        const Cycle earliest = *std::min_element(q.begin(), q.end());
        st_mem_queue_stall_cycles_.inc(
            static_cast<double>(earliest - issue));
        if (trc_)
            trc_->lsuQueue(ring_, static_cast<u16>(cl.index),
                           cl.line_base + 4 * pe, issue,
                           earliest - issue, q.size());
        issue = earliest;
        std::erase_if(q, [&](Cycle done) { return done <= issue; });
    }
    // LSU issue port (order-tolerant: pipelined iterations may present
    // requests out of time order).
    const Cycle grant =
        cl.lsu_port.reserve(issue, cfg_.lsu_issue_occupancy);

    // 1. Memory lanes: store-to-load forwarding (paper §5.2).
    if (cfg_.mem_lanes_enabled) {
        const Cycle fwd = tmc.forwardProbe(ea, size);
        if (fwd != kNeverCycle) {
            st_memlane_fwd_.inc();
            if (trc_)
                trc_->memLaneHit(
                    ring_, cl.line_base + 4 * pe, std::max(grant, fwd),
                    static_cast<u16>(tmc.entries().size()));
            return std::max(grant, fwd) + cfg_.mem_lane_latency;
        }
    }
    // 2. Cluster line buffer: recently accessed lines (paper §5.2).
    const Addr line = alignDown(ea, 64);
    if (cl.lineBufAccess(line)) {
        st_linebuf_hits_.inc();
        return grant + cfg_.line_buffer_latency;
    }
    // 3. Banked L1D (a second-level cache per §5.2), then L2, DRAM.
    const mem::MemResult res = mh_.dataAccess(mem_port_, ea, false,
                                              grant);
    switch (res.level) {
      case mem::ServedBy::L1: st_l1_loads_.inc(); break;
      case mem::ServedBy::L2: st_l2_loads_.inc(); break;
      case mem::ServedBy::Dram: st_dram_loads_.inc(); break;
    }
    // Memory stall attribution: everything beyond the cluster-local
    // ideal (memory-lane / line-buffer speed) counts as memory-stall
    // time, the way the paper attributes PE stalls to memory (§7.3.2).
    const Cycle ideal = grant + cfg_.line_buffer_latency;
    if (res.done > ideal)
        st_mem_stall_cycles_.inc(
            static_cast<double>(res.done - ideal));
    q.push_back(res.done);
    return res.done;
}

void
ActivationEngine::commitStore(Cluster &cl, Addr ea, Cycle commit)
{
    st_stores_.inc();
    // Committed stores drain from the memory lanes in the background
    // (the lanes "enable access reordering", §5.2): the write-back
    // occupies L1D bank bandwidth but not the cluster's load-issue
    // port, so younger loads — which forward from the lanes anyway —
    // are not delayed behind retirement-ordered store drains.
    mh_.dataAccess(mem_port_, ea, true, commit);
    cl.lineBufAccess(alignDown(ea, 64));
}

ActivationOutput
ActivationEngine::run(const ActivationInput &in, LaneFile &regs,
                      ThreadMemCtx &tmc)
{
    Cluster &cl = *in.cluster;
    panic_if(!cl.loaded(), "activation on unloaded cluster %u", cl.index);
    const Addr base = cl.line_base;
    const unsigned n = static_cast<unsigned>(cl.code.insts.size());
    const int last_seg = cl.code.slots.back().seg;

    panic_if(in.entry_pc < base || in.entry_pc >= base + line_bytes_ ||
                 (in.entry_pc & 3),
             "entry pc 0x%x outside cluster line 0x%x", in.entry_pc,
             base);

    ActivationOutput out;
    Cycle pc_cursor = in.pc_enter;
    int pc_seg = 0;
    Addr expect = in.entry_pc;
    Cycle floor = in.min_start;
    Cycle max_done = in.min_start;
    bool exited = false;

    // Per-PE occupancy from the previous firing: a PE cannot begin the
    // next iteration's instance before its unit is free.
    if (cl.pe_busy.size() < n)
        cl.pe_busy.resize(n, 0);

    auto lane_value = [&](RegId r) -> u32 {
        if (r == kNoReg || r == kRegZero)
            return 0;
        return regs[r].value;
    };
    // Seg-free lane timing (lanes.hpp): a consumer in segment @p seg
    // sees the value one cycle per lane buffer after segment 0. The
    // file's bias is constant until the output latch below.
    const Cycle bias = regs.bias();
    auto avail = [&](RegId r, int seg) -> Cycle {
        if (r == kNoReg || r == kRegZero)
            return 0;
        return regs[r].ready + bias + static_cast<Cycle>(seg);
    };
    auto finish = [&](ActExit why, Addr next, Cycle resolve) {
        out.exit = why;
        out.exit_pc = next;
        out.exit_resolve = resolve;
        exited = true;
    };
    // Precise trap at the instruction at @p addr in segment @p seg.
    auto trap = [&](Addr addr, int seg) {
        out.faulted = true;
        const Cycle here =
            std::max(floor, pc_cursor + laneDelay(pc_seg, seg));
        pc_cursor = here;
        pc_seg = seg;
        finish(ActExit::Halt, addr, here);
    };

    st_activations_.inc();
    // Per-instruction counters summed locally and flushed once at the
    // end of the activation. The sums are integers far below 2^53, so
    // the double counters receive exactly the values one inc() per
    // event would give, and a key is only created when its event
    // happened at least once.
    u64 n_exec = 0;
    u64 busy_cycles = 0;
    u64 exec_cycles = 0;
    u64 fpu_cycles = 0;
    u64 n_lane_writes = 0;
    u64 lane_hops = 0;

    for (unsigned i = (in.entry_pc - base) / 4; i < n && !exited; ++i) {
        const Addr addr = base + 4 * i;
        if (addr != expect) {
            // PE disabled: instruction-address/PC mismatch. `expect`
            // only ever moves forward within the line, so the cursor
            // can jump straight to the re-enable slot instead of
            // scanning each disabled PE (timing-neutral: disabled PEs
            // contribute nothing).
            if (!cfg_.dense_loop)
                i = static_cast<unsigned>((expect - base) / 4) - 1;
            continue;
        }
        const DecodedInst &di = cl.code.insts[i];
        const SlotInfo &si = cl.code.slots[i];
        const int seg = si.seg;

        if (!si.has(SlotInfo::kValid)) {
            trap(addr, seg);
            break;
        }
        if (si.has(SlotInfo::kSimtS) && in.mode == ActMode::Serial &&
            in.trap_on_simt) {
            // Hand control to the ring's thread-pipeline logic without
            // executing the marker.
            const Cycle here =
                std::max(floor, pc_cursor + laneDelay(pc_seg, seg));
            finish(ActExit::SimtTrap, addr, here);
            break;
        }
        panic_if(!cfg_.fp_supported && si.has(SlotInfo::kFp),
                 "FP instruction %s on an integer-only configuration",
                 opName(di.op));

        // ---- operand availability over the register lanes ----
        Cycle ops_ready = std::max(avail(di.rs1, seg),
                                   avail(di.rs2, seg));
        u32 c_val = 0;
        if (si.has(SlotInfo::kSimtE)) {
            if (in.mode == ActMode::Serial) {
                // Scalar semantics: the step register named by the
                // matching simt_s is an extra operand.
                const auto ef = simtEndFields(di);
                const DecodedInst start_inst =
                    decode(tmc.mem().read32(addr - ef.lOffset));
                if (start_inst.op != Op::SIMT_S) {
                    out.stray_simt_e = true;
                    trap(addr, seg);
                    break;
                }
                const RegId r_step = simtStartFields(start_inst).rStep;
                ops_ready = std::max(ops_ready, avail(r_step, seg));
                c_val = lane_value(r_step);
            } else {
                c_val = in.simt_step;
            }
        } else if (di.rs3 != kNoReg) {
            ops_ready = std::max(ops_ready, avail(di.rs3, seg));
            c_val = lane_value(di.rs3);
        }
        const Cycle start =
            std::max({ops_ready, floor, cl.pe_busy[i]});

        // ---- execute ----
        Cycle done;
        u32 value = 0;
        bool redirect = false;
        Addr target = 0;
        bool halt = false;
        bool is_store = false;
        Addr store_ea = 0;
        u8 store_size = 0;
        u32 store_val = 0;
        Cycle store_addr_ready = 0;

        if (si.has(SlotInfo::kLoad)) {
            const Addr ea = effectiveAddr(di, lane_value(di.rs1));
            if (atrc_)
                atrc_->access(addr, ea);
            const Cycle addr_ready = start + 1;  // address generation
            const Cycle issue =
                std::max(addr_ready, tmc.storeAddrGate());
            done = serveLoad(cl, tmc, ea, si.mem_bytes, issue, i);
            value = loadExtend(di, tmc.mem().read(ea, si.mem_bytes));
            if (fc_)
                fc_->onPeResult(cl.index, i, value);
        } else if (si.has(SlotInfo::kStore)) {
            is_store = true;
            store_ea = effectiveAddr(di, lane_value(di.rs1));
            store_size = si.mem_bytes;
            store_val = lane_value(di.rs2);
            if (fc_)
                fc_->onPeResult(cl.index, i, store_val);
            done = start + 1;  // address + data latched in the PE
            // The address resolves as soon as rs1 is available, even
            // if the data operand arrives much later; younger loads
            // are gated by the address only.
            store_addr_ready =
                std::max(avail(di.rs1, seg), floor) + 1;
        } else {
            const ExecOut eo = execute(di, addr, lane_value(di.rs1),
                                       lane_value(di.rs2), c_val);
            done = start + si.latency;
            value = eo.value;
            if (fc_)
                fc_->onPeResult(cl.index, i, value);
            halt = eo.halt;
            if (eo.redirect) {
                redirect = true;
                target = eo.target;
            }
            if (si.has(SlotInfo::kFp))
                fpu_cycles += si.latency;
        }
        ++n_exec;
        busy_cycles += done - start;
        // Clock-gated activity: execute-stage occupancy only (memory
        // wait time is spent in the LSU, not the PE's compute logic).
        exec_cycles += si.has(SlotInfo::kLoad) || si.has(SlotInfo::kStore)
                           ? 1
                           : si.latency;

        // ---- destination lane write ----
        if (si.has(SlotInfo::kWritesReg)) {
            LaneState &lane = regs[di.rd];
            lane.value = value;
            lane.ready = done - static_cast<Cycle>(seg) - bias;
            lane.parity =
                fc_ && fc_->parityEnabled() ? laneParity(value) : 0;
            if (trc_)
                trc_->laneWrite(ring_, di.rd, addr, done, value);
            ++n_lane_writes;
            lane_hops += static_cast<u64>(last_seg - seg + 1);
        }

        // ---- PC-lane retirement (in program order) ----
        const Cycle pc_arrive = pc_cursor + laneDelay(pc_seg, seg);
        const Cycle pc_leave = std::max(pc_arrive, done);
        pc_cursor = pc_leave;
        pc_seg = seg;
        if (is_store) {
            // Stores commit when the PC lane passes (paper §4.3).
            if (atrc_)
                atrc_->access(addr, store_ea);
            if (fc_)
                fc_->onStoreCommit(
                    store_ea, store_size,
                    tmc.mem().read(store_ea, store_size));
            tmc.mem().write(store_ea, store_val, store_size);
            if (tmc.recordStore(store_ea, store_size,
                                store_addr_ready, done) &&
                trc_)
                trc_->memLaneEvict(
                    ring_, addr, done,
                    static_cast<u16>(tmc.entries().size()));
            commitStore(cl, store_ea, pc_leave);
        }
        ++out.retired;
        if (fc_) {
            fault::RetireRecord rr;
            rr.pc = addr;
            rr.wrote_reg = si.has(SlotInfo::kWritesReg);
            rr.rd = di.rd;
            rr.rd_value = value;
            rr.is_store = is_store;
            rr.store_addr = store_ea;
            rr.store_value = store_val;
            fc_->onRetire(rr);
        }
        expect += 4;
        max_done = std::max(max_done, done);
        if (in.mode == ActMode::SimtStage) {
            // Thread pipelining inserts pipeline registers (paper
            // §4.4.1), letting a PE accept the next thread as soon as
            // its (pipelined) unit can take a new operation; divide
            // and square-root units are not pipelined.
            cl.pe_busy[i] =
                si.has(SlotInfo::kUnpipelined) ? done : start + 1;
        } else {
            // Serial mode has no pipeline registers per PE: the PE's
            // operand/result latches hold one instance until done.
            cl.pe_busy[i] = done;
        }

        if (halt) {
            finish(ActExit::Halt, addr, pc_leave);
            break;
        }
        if (si.has(SlotInfo::kSimtE) && in.mode == ActMode::SimtStage) {
            finish(ActExit::ThreadEnd, addr + 4, pc_leave);
            break;
        }
        if (si.has(SlotInfo::kBackCondBranch) && !redirect) {
            // Loop exit: a backward branch is predicted taken under
            // datapath reuse, so falling through is a misprediction —
            // downstream PEs were held off and must be re-steered.
            floor = std::max(floor,
                             pc_leave + cfg_.squash_resteer + 2);
            st_loop_exit_mispredicts_.inc();
            st_ctrl_stall_cycles_.inc(
                static_cast<double>(cfg_.squash_resteer + 3));
        }
        if (redirect) {
            ++out.taken_branches;
            st_taken_branches_.inc();
            if (atrc_ && target <= addr)
                atrc_->loopBack(addr);
            out.branch_done = done;
            const Cycle resolve = pc_leave;
            if (target > addr && alignDown(target, line_bytes_) == base) {
                // Forward skip within this cluster: downstream PEs are
                // disabled until the PC matches again; the squash
                // re-steer delays everything after the branch.
                expect = target;
                floor = std::max(floor, resolve + cfg_.squash_resteer);
                st_ctrl_stall_cycles_.inc(
                    static_cast<double>(cfg_.squash_resteer + 1));
            } else {
                out.redirect_backward = target <= addr;
                finish(ActExit::Redirect, target, resolve);
                break;
            }
        }
    }

    if (n_exec) {
        st_pe_exec_.inc(static_cast<double>(n_exec));
        st_pe_busy_cycles_.inc(static_cast<double>(busy_cycles));
        st_pe_exec_cycles_.inc(static_cast<double>(exec_cycles));
    }
    if (fpu_cycles)  // every FP class has a latency of at least 1
        st_fpu_active_cycles_.inc(static_cast<double>(fpu_cycles));
    if (n_lane_writes) {
        st_lane_writes_.inc(static_cast<double>(n_lane_writes));
        st_lane_hops_.inc(static_cast<double>(lane_hops));
    }

    if (!exited) {
        // Fell through: the PC crosses the remaining segments and the
        // output latch; the next cluster continues at `expect`.
        out.exit = ActExit::FellThrough;
        out.exit_pc = expect;
        pc_cursor += laneDelay(pc_seg, last_seg);
        out.exit_resolve = pc_cursor;
    }
    if (out.exit != ActExit::Redirect)
        out.branch_done = out.exit_resolve;
    out.pc_exit = pc_cursor;
    out.end_cycle = std::max(max_done, pc_cursor);
    out.compute_done = max_done;

    // Cluster output-latch transfer: every lane crosses the remaining
    // buffers to the last segment, which with seg-free timing is the
    // same shift for all of them, carried in the file's bias.
    regs.delay(static_cast<Cycle>(last_seg));
    return out;
}

} // namespace diag::core
