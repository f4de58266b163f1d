#include "sim/golden.hpp"

#include "common/log.hpp"

namespace diag::sim
{

using namespace diag::isa;

GoldenSim::GoldenSim(const Program &prog)
{
    prog.loadInto(mem_);
    pc_ = prog.entry;
}

const DecodedInst &
GoldenSim::decodeAt(Addr addr)
{
    auto it = icache_.find(addr);
    if (it != icache_.end())
        return it->second;
    const DecodedInst di = decode(mem_.read32(addr));
    return icache_.emplace(addr, di).first->second;
}

StepInfo
GoldenSim::step()
{
    StepInfo info;
    info.pc = pc_;
    const DecodedInst &di = decodeAt(pc_);
    info.inst = di;
    // Precise traps: an invalid encoding, or a simt_e whose target is
    // not a simt_s (its scalar semantics need that simt_s's step).
    if (!di.valid() ||
        (di.op == Op::SIMT_E &&
         decodeAt(pc_ - simtEndFields(di).lOffset).op != Op::SIMT_S)) {
        info.faulted = true;
        info.halted = true;
        halted_ = true;
        info.next_pc = pc_;
        return info;
    }
    ++inst_count_;
    Addr next_pc = pc_ + 4;
    if (di.isLoad()) {
        const Addr ea = effectiveAddr(di, reg(di.rs1));
        const u32 raw = mem_.read(ea, di.info().memBytes);
        const u32 value = loadExtend(di, raw);
        setReg(di.rd, value);
        info.is_mem = true;
        info.mem_addr = ea;
        info.mem_value = value;
        info.wrote_reg = di.writesReg();
        info.rd = di.rd;
        info.rd_value = value;
    } else if (di.isStore()) {
        const Addr ea = effectiveAddr(di, reg(di.rs1));
        const u32 value = reg(di.rs2);
        mem_.write(ea, value, di.info().memBytes);
        info.is_mem = true;
        info.mem_addr = ea;
        info.mem_value = value;
    } else {
        u32 c = 0;
        if (di.op == Op::SIMT_E) {
            // Recover the step register from the matching simt_s.
            const DecodedInst &start =
                decodeAt(pc_ - simtEndFields(di).lOffset);
            c = reg(simtStartFields(start).rStep);
        } else if (di.rs3 != kNoReg) {
            c = reg(di.rs3);
        }
        const ExecOut out =
            execute(di, pc_, reg(di.rs1 == kNoReg ? kRegZero : di.rs1),
                    reg(di.rs2 == kNoReg ? kRegZero : di.rs2), c);
        if (di.writesReg()) {
            setReg(di.rd, out.value);
            info.wrote_reg = true;
            info.rd = di.rd;
            info.rd_value = out.value;
        }
        if (out.redirect)
            next_pc = out.target;
        if (out.halt) {
            halted_ = true;
            info.halted = true;
            next_pc = pc_;
        }
    }
    info.next_pc = next_pc;
    pc_ = next_pc;
    if (trace_)
        trace_(info);
    return info;
}

RunResult
GoldenSim::run(u64 max_insts)
{
    RunResult res;
    const u64 start = inst_count_;
    while (!halted_ && inst_count_ - start < max_insts) {
        const StepInfo info = step();
        if (info.halted) {
            res.halted = !info.faulted;
            res.faulted = info.faulted;
            res.stop_pc = info.pc;
            if (info.faulted)
                res.stop_reason =
                    info.inst.valid()
                        ? detail::vformat(
                              "trap: simt_e at 0x%x without simt_s",
                              info.pc)
                        : detail::vformat(
                              "trap: invalid encoding at pc 0x%x",
                              info.pc);
            break;
        }
    }
    res.inst_count = inst_count_ - start;
    return res;
}

} // namespace diag::sim
