/**
 * @file
 * Symbolic value numbering of the lane file: the one address algebra
 * shared by the memdep pass (store-to-load forwarding and simt races,
 * whose addresses diag-verify and diag-bound consume) and the stream
 * pass.
 *
 * Every lane holds an SVal `scale*term(base) + rc*i + tid*t + off`,
 * where term(base) is an opaque symbolic value, `i` the scope's
 * induction index (the rc lane of a simt region, a serial loop's
 * iteration counter) and `t` the a0 lane as the scope entered it.
 * LUI/AUIPC and add/sub/slli over these forms stay linear; every other
 * result mints a fresh opaque term that remembers its load-derivation
 * provenance (TermMeta). Each caller picks its own seeding.
 *
 * Arithmetic follows RV32: every coefficient is kept as the
 * sign-extended low 32 bits of its value, so two values that differ by
 * a multiple of 2^32 compare equal and no coefficient overflows.
 */
#ifndef DIAG_ANALYSIS_VALUE_NUMBERING_HPP
#define DIAG_ANALYSIS_VALUE_NUMBERING_HPP

#include <algorithm>
#include <array>
#include <map>
#include <tuple>
#include <vector>

#include "asm/program.hpp"
#include "isa/decoder.hpp"

namespace diag::analysis
{

/** @p v modulo 2^32, as its sign-extended low 32 bits. */
inline i64
wrap32(i64 v)
{
    return static_cast<i32>(static_cast<u32>(v));
}

/** `v << s` under RV32 wraparound (0 <= s < 32). */
inline i64
shl32(i64 v, i64 s)
{
    return static_cast<i32>(static_cast<u32>(v) << s);
}

/**
 * A symbolic value `scale*term(base) + rc*i + tid*t + off`. base 0
 * means no opaque part, and then scale is 1.
 */
struct SVal
{
    u32 base = 0;
    i64 scale = 1;
    i64 rc = 0;
    i64 tid = 0;
    i64 off = 0;

    /** Same opaque part: the two differ in their linear terms only. */
    bool
    sameTerm(const SVal &o) const
    {
        return base == o.base && scale == o.scale;
    }
};

/** Provenance of one opaque term. */
struct TermMeta
{
    unsigned depth = 0; //!< loads on the derivation chain
    Addr feeder_pc = 0; //!< deepest producing load (0 = none)
    u32 parent = 0;     //!< term the derivation chain continues through
    bool invariant = true; //!< fixed across iterations of the scope
};

/** Value-numbering state over the unified lane file. */
struct SState
{
    std::array<SVal, isa::kNumRegs> reg{};
    std::vector<TermMeta> meta{TermMeta{}}; //!< meta[0] unused
    /** (term,scale,term,scale) -> combined term, so two computations
     *  of the same two-base sum compare equal. */
    std::map<std::tuple<u32, i64, u32, i64>, u32> combined;

    u32
    newTerm(const TermMeta &m)
    {
        meta.push_back(m);
        return static_cast<u32>(meta.size() - 1);
    }

    /** Seed every lane with a distinct invariant term (x0 stays 0).
     *  Term ids are assigned in register order, so a fresh state
     *  gives register r the term id r. */
    void
    seed()
    {
        for (unsigned r = 1; r < isa::kNumRegs; ++r)
            reg[r] = {newTerm({}), 1, 0, 0, 0};
    }

    SVal
    read(isa::RegId r) const
    {
        if (r == isa::kNoReg || r == isa::kRegZero)
            return {};
        return reg[r];
    }

    /** The value is provably the same in every iteration/thread. */
    bool
    valInvariant(const SVal &v) const
    {
        return v.rc == 0 && v.tid == 0 &&
               (v.base == 0 || meta[v.base].invariant);
    }

    unsigned
    depthOf(const SVal &v) const
    {
        return v.base ? meta[v.base].depth : 0;
    }

    Addr
    feederOf(const SVal &v) const
    {
        return v.base ? meta[v.base].feeder_pc : 0;
    }

    /** Result of an operation outside the address algebra. */
    SVal
    opaque(const SVal &a, const SVal &b)
    {
        TermMeta m;
        const unsigned da = depthOf(a);
        const unsigned db = depthOf(b);
        m.depth = std::max(da, db);
        m.feeder_pc = da >= db ? feederOf(a) : feederOf(b);
        m.parent = da >= db ? a.base : b.base;
        m.invariant = valInvariant(a) && valInvariant(b);
        return {newTerm(m), 1, 0, 0, 0};
    }

    /** Combined term for `sa*term(ta) + sb*term(tb)` (ADD of two
     *  based values), memoized for equality of repeated sums. */
    u32
    combine(u32 ta, i64 sa, u32 tb, i64 sb)
    {
        if (ta > tb || (ta == tb && sa > sb)) {
            std::swap(ta, tb);
            std::swap(sa, sb);
        }
        const auto key = std::make_tuple(ta, sa, tb, sb);
        const auto it = combined.find(key);
        if (it != combined.end())
            return it->second;
        TermMeta m;
        const TermMeta &ma = meta[ta];
        const TermMeta &mb = meta[tb];
        m.depth = std::max(ma.depth, mb.depth);
        m.feeder_pc = ma.depth >= mb.depth ? ma.feeder_pc : mb.feeder_pc;
        m.parent = ma.depth >= mb.depth ? ta : tb;
        m.invariant = ma.invariant && mb.invariant;
        const u32 t = newTerm(m);
        combined.emplace(key, t);
        return t;
    }

    /** Bottom of the derivation chain (a seed term). */
    u32
    chainRoot(u32 t) const
    {
        while (t != 0 && meta[t].parent != 0)
            t = meta[t].parent;
        return t;
    }
};

/** @p a's linear terms plus @p sign times @p b's (opaque part: a's). */
inline SVal
addLinear(SVal a, const SVal &b, i64 sign)
{
    a.rc = wrap32(a.rc + sign * b.rc);
    a.tid = wrap32(a.tid + sign * b.tid);
    a.off = wrap32(a.off + sign * b.off);
    return a;
}

/**
 * Transfer function for non-load instructions: the address-forming
 * subset stays linear, everything else mints an opaque term that
 * remembers depth/feeder/invariance.
 */
inline void
evalNonLoad(SState &st, Addr pc, const isa::DecodedInst &di)
{
    using isa::Op;
    if (!di.writesReg())
        return;
    const SVal a = st.read(di.rs1);
    const SVal b = st.read(di.rs2);
    SVal out;
    switch (di.op) {
      case Op::LUI:
        out.off = di.imm;
        break;
      case Op::AUIPC:
        out.off = static_cast<i32>(pc + static_cast<u32>(di.imm));
        break;
      case Op::ADDI:
        out = a;
        out.off = wrap32(a.off + di.imm);
        break;
      case Op::ADD:
        if (a.base == 0) {
            out = addLinear(b, a, 1);
        } else if (b.base == 0) {
            out = addLinear(a, b, 1);
        } else {
            out = addLinear(a, b, 1);
            out.base = st.combine(a.base, a.scale, b.base, b.scale);
            out.scale = 1;
        }
        break;
      case Op::SUB:
        if (b.base == 0) {
            out = addLinear(a, b, -1);
        } else if (a.sameTerm(b)) {
            out = addLinear(a, b, -1);
            out.base = 0;
            out.scale = 1;
        } else {
            out = st.opaque(a, b);
        }
        break;
      case Op::SLLI:
        if (di.imm >= 0 && di.imm < 32)
            out = {a.base, a.base ? shl32(a.scale, di.imm) : 1,
                   shl32(a.rc, di.imm), shl32(a.tid, di.imm),
                   shl32(a.off, di.imm)};
        else
            out = st.opaque(a, b);
        break;
      default:
        out = st.opaque(a, b);
        break;
    }
    st.reg[di.rd] = out;
}

/** One memory access with its reconstructed address value. */
struct RawAccess
{
    Addr pc = 0;
    SVal ea;
    u8 size = 0;
    bool is_store = false;
};

/**
 * Walk [first, last], collecting accesses and updating @p st. A load
 * mints a non-invariant term one level deeper than its address, with
 * the load pc as feeder — the backbone of indirect/chase detection.
 */
inline std::vector<RawAccess>
walkRange(SState &st, const Program &prog, Addr first, Addr last)
{
    std::vector<RawAccess> body;
    for (Addr pc = first; pc <= last; pc += 4) {
        const isa::DecodedInst di = isa::decode(prog.word(pc));
        if (di.isMem()) {
            RawAccess ra;
            ra.pc = pc;
            ra.ea = st.read(di.rs1);
            ra.ea.off = wrap32(ra.ea.off + di.imm);
            ra.size = di.info().memBytes;
            ra.is_store = di.isStore();
            body.push_back(ra);
            if (di.isLoad() && di.writesReg()) {
                TermMeta m;
                m.depth = st.depthOf(ra.ea) + 1;
                m.feeder_pc = pc;
                m.parent = ra.ea.base;
                m.invariant = false;
                st.reg[di.rd] = {st.newTerm(m), 1, 0, 0, 0};
            }
            continue;
        }
        evalNonLoad(st, pc, di);
    }
    return body;
}

} // namespace diag::analysis

#endif // DIAG_ANALYSIS_VALUE_NUMBERING_HPP
