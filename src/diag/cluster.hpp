/**
 * @file
 * A processing cluster: 16 PEs fed by one I-cache line (paper §5.1.1),
 * with its cluster-level load/store unit state (line buffer, request
 * queue occupancy, issue port).
 */
#ifndef DIAG_DIAG_CLUSTER_HPP
#define DIAG_DIAG_CLUSTER_HPP

#include <vector>

#include "common/calendar.hpp"
#include "isa/inst.hpp"

namespace diag::core
{

/** Sentinel for "no line loaded". */
inline constexpr Addr kNoLine = ~Addr{0};

/**
 * What the activation engine asks of one PE slot, lowered once per
 * decoded line (lowerLine) instead of once per firing: the slot's
 * segment, its functional-unit class and latency, its memory width and
 * the DecodedInst predicates the engine branches on.
 */
struct SlotInfo
{
    enum Flag : u16
    {
        kValid = 1u << 0,        //!< decodes (else: precise trap)
        kLoad = 1u << 1,
        kStore = 1u << 2,
        kFp = 1u << 3,           //!< uses the FPU
        kWritesReg = 1u << 4,
        kBackCondBranch = 1u << 5, //!< conditional branch, imm < 0
        kSimtS = 1u << 6,
        kSimtE = 1u << 7,
        kUnpipelined = 1u << 8,  //!< divide / square-root unit
    };

    Cycle latency = 0;    //!< execLatency(cls)
    u16 flags = 0;
    u8 seg = 0;           //!< slot / segment_size
    u8 mem_bytes = 0;     //!< access size of a load/store, else 0
    isa::ExecClass cls = isa::ExecClass::Invalid;

    bool has(Flag f) const { return (flags & f) != 0; }
};

/** A decoded I-line with its lowered slot records (Ring::loadLine
 *  memoizes one per line address). */
struct LoweredLine
{
    std::vector<isa::DecodedInst> insts;  //!< one per PE slot
    std::vector<SlotInfo> slots;          //!< lowered from insts
    /** A backward branch or JAL: a loop may re-enter the line. The
     *  control unit's prefetch decision reads this instead of
     *  rescanning the (unchanged) line on every activation. */
    bool has_backward_branch = false;
};

/** A backward branch or JAL in @p insts: a loop may re-enter the
 *  line. */
bool hasBackwardBranch(const std::vector<isa::DecodedInst> &insts);

/** Lower @p insts for lane buffers every @p segment_size PEs. The one
 *  entry point that fills a LoweredLine. */
LoweredLine lowerLine(std::vector<isa::DecodedInst> insts,
                      unsigned segment_size);

/** One processing cluster's persistent hardware state. */
struct Cluster
{
    unsigned index = 0;       //!< position within its ring
    /** Taken offline by fault recovery (graceful degradation): the
     *  control unit never allocates lines to a disabled cluster. */
    bool disabled = false;

    // ---- instruction side ----
    Addr line_base = kNoLine; //!< loaded I-line base address
    Cycle ready_at = 0;       //!< fetch + decode complete
    Cycle free_at = 0;        //!< previous activation fully retired
    u64 last_use = 0;         //!< LRU stamp for victim selection
    /** Decoded line contents with their skip-idle slot records
     *  (DESIGN.md §15); empty when no line is loaded. */
    LoweredLine code;

    // ---- cluster-level LSU (paper §5.2) ----
    /** Small set-associative line buffer ("set-associative register
     *  lanes" for memory): tags of recently accessed D-lines. */
    static constexpr unsigned kLineBufEntries = 4;
    Addr line_buf[kLineBufEntries] = {kNoLine, kNoLine, kNoLine,
                                      kNoLine};
    u64 line_buf_use[kLineBufEntries] = {0, 0, 0, 0};
    u64 line_buf_tick = 0;
    BusyCalendar lsu_port;          //!< issue-port occupancy calendar
    std::vector<Cycle> outstanding; //!< completion times, <= lsq_entries

    /**
     * Per-PE occupancy. A PE holds one instruction and re-fires for
     * the next loop iteration as soon as its inputs are valid again
     * and its functional unit is free (§5.1.4: "PEs can always execute
     * at will") — the lane buffers every 8 PEs (§6.1.2) let successive
     * iteration values stream through a resident loop datapath.
     * pe_busy[i] is when PE i finished its previous firing.
     */
    std::vector<Cycle> pe_busy;

    /**
     * Per-PE stride prefetcher state (paper §5.2: "with instruction
     * reuse, each PE is assigned a single memory instruction whose
     * address likely changes in a fixed pattern each iteration. We
     * expect that localized stride prefetching ... will be effective").
     * One entry per PE slot, trained across activations.
     */
    struct StrideEntry
    {
        Addr last_addr = 0;
        i32 stride = 0;
        u8 confidence = 0;
        bool valid = false;
    };
    std::vector<StrideEntry> stride_table;

    /**
     * Train PE slot @p pe with the observed address; returns the
     * predicted next address when the stride is confident, else 0.
     */
    Addr
    strideTrain(unsigned pe, Addr addr)
    {
        if (stride_table.size() <= pe)
            stride_table.resize(pe + 1);
        StrideEntry &e = stride_table[pe];
        Addr predict = 0;
        if (e.valid) {
            const i32 delta =
                static_cast<i32>(addr - e.last_addr);
            if (delta == e.stride && delta != 0) {
                if (e.confidence < 3)
                    ++e.confidence;
            } else {
                e.stride = delta;
                e.confidence = 0;
            }
            if (e.confidence >= 1)
                predict = addr + static_cast<Addr>(e.stride);
        }
        e.last_addr = addr;
        e.valid = true;
        return predict;
    }

    /** Probe the line buffer; inserts on miss. True on hit. */
    bool
    lineBufAccess(Addr line)
    {
        unsigned victim = 0;
        for (unsigned e = 0; e < kLineBufEntries; ++e) {
            if (line_buf[e] == line) {
                line_buf_use[e] = ++line_buf_tick;
                return true;
            }
            if (line_buf_use[e] < line_buf_use[victim])
                victim = e;
        }
        line_buf[victim] = line;
        line_buf_use[victim] = ++line_buf_tick;
        return false;
    }

    bool loaded() const { return line_base != kNoLine; }

    /** Drop the loaded line (eviction / reallocation). */
    void
    evict()
    {
        line_base = kNoLine;
        code = {};
    }

    /** Reset all state between runs. */
    void
    reset()
    {
        evict();
        disabled = false;
        ready_at = 0;
        free_at = 0;
        last_use = 0;
        for (unsigned e = 0; e < kLineBufEntries; ++e) {
            line_buf[e] = kNoLine;
            line_buf_use[e] = 0;
        }
        line_buf_tick = 0;
        lsu_port.clear();
        outstanding.clear();
        pe_busy.clear();
        stride_table.clear();
    }
};

} // namespace diag::core

#endif // DIAG_DIAG_CLUSTER_HPP
