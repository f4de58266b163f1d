#include "analysis/absint.hpp"

#include <algorithm>
#include <deque>

namespace diag::analysis
{

using namespace diag::isa;

namespace
{

constexpr u64 kU32Max = 0xffffffffull;

/** Bits strictly above the highest set bit of @p x (x != 0). */
u32
aboveHighestBit(u32 x)
{
    unsigned hb = 31;
    while (!(x & (1u << hb)))
        --hb;
    return hb == 31 ? 0 : (~0u << (hb + 1));
}

} // namespace

void
AbsVal::normalize()
{
    if (lo > hi || hi > kU32Max) {
        *this = bottom();
        return;
    }
    kval &= kmask;
    // Iterate interval<->bits tightening to a local fixed point; each
    // direction only shrinks the abstraction, so this terminates fast.
    for (int pass = 0; pass < 4; ++pass) {
        bool changed = false;
        // Interval -> bits: bits above the highest differing bit of
        // lo and hi are shared by every value in the interval.
        const u32 l = static_cast<u32>(lo);
        const u32 h = static_cast<u32>(hi);
        const u32 diff = l ^ h;
        const u32 iv_mask = diff ? aboveHighestBit(diff) : ~0u;
        const u32 iv_val = l & iv_mask;
        if ((iv_val ^ kval) & (iv_mask & kmask)) {
            *this = bottom();
            return;
        }
        if ((kmask & iv_mask) != iv_mask) {
            kmask |= iv_mask;
            kval |= iv_val;
            changed = true;
        }
        // Bits -> interval: clamp to the min/max value any bit
        // assignment of the unknown positions can reach.
        const u64 bit_min = kval;
        const u64 bit_max = static_cast<u64>(kval | ~kmask) & kU32Max;
        if (lo < bit_min) {
            lo = bit_min;
            changed = true;
        }
        if (hi > bit_max) {
            hi = bit_max;
            changed = true;
        }
        if (lo > hi) {
            *this = bottom();
            return;
        }
        if (!changed)
            break;
    }
}

bool
AbsVal::join(const AbsVal &o)
{
    if (o.isBottom())
        return false;
    if (isBottom()) {
        *this = o;
        return true;
    }
    AbsVal r;
    r.lo = std::min(lo, o.lo);
    r.hi = std::max(hi, o.hi);
    const u32 agree = kmask & o.kmask & ~(kval ^ o.kval);
    r.kmask = agree;
    r.kval = kval & agree;
    r.normalize();
    if (r == *this)
        return false;
    *this = r;
    return true;
}

bool
AbsVal::widen(const AbsVal &o)
{
    if (o.isBottom())
        return false;
    if (isBottom()) {
        *this = o;
        return true;
    }
    AbsVal r = *this;
    // A bound that is still growing jumps straight to its extreme so
    // long chains of loop iterations cannot creep one step at a time.
    if (o.lo < r.lo)
        r.lo = 0;
    if (o.hi > r.hi)
        r.hi = kU32Max;
    const u32 agree = r.kmask & o.kmask & ~(r.kval ^ o.kval);
    r.kmask = agree;
    r.kval &= agree;
    r.normalize();
    if (r == *this)
        return false;
    *this = r;
    return true;
}

void
AbsVal::meet(const AbsVal &o)
{
    if (isBottom())
        return;
    if (o.isBottom()) {
        *this = bottom();
        return;
    }
    if ((kval ^ o.kval) & (kmask & o.kmask)) {
        *this = bottom();
        return;
    }
    lo = std::max(lo, o.lo);
    hi = std::min(hi, o.hi);
    kval = (kval & kmask) | (o.kval & o.kmask);
    kmask |= o.kmask;
    normalize();
}

AbsVal
absAdd(const AbsVal &a, const AbsVal &b)
{
    if (a.isBottom() || b.isBottom())
        return AbsVal::bottom();
    AbsVal r = AbsVal::top();
    const u64 s_lo = a.lo + b.lo;
    const u64 s_hi = a.hi + b.hi;
    if (s_hi <= kU32Max) {
        r.lo = s_lo;
        r.hi = s_hi;
    }
    // Ripple-carry over the known low bits; the chain is modular, so
    // it stays valid even when the interval above overflowed.
    unsigned carry = 0;
    for (unsigned i = 0; i < 32; ++i) {
        const u32 bit = 1u << i;
        if (!(a.kmask & bit) || !(b.kmask & bit))
            break;
        const unsigned sum = ((a.kval >> i) & 1) + ((b.kval >> i) & 1) +
                             carry;
        r.kmask |= bit;
        r.kval |= (sum & 1u) << i;
        carry = sum >> 1;
    }
    r.normalize();
    return r;
}

AbsVal
absSub(const AbsVal &a, const AbsVal &b)
{
    if (a.isBottom() || b.isBottom())
        return AbsVal::bottom();
    AbsVal r = AbsVal::top();
    if (a.lo >= b.hi) {
        r.lo = a.lo - b.hi;
        r.hi = a.hi - b.lo;
    }
    unsigned borrow = 0;
    for (unsigned i = 0; i < 32; ++i) {
        const u32 bit = 1u << i;
        if (!(a.kmask & bit) || !(b.kmask & bit))
            break;
        const unsigned ai = (a.kval >> i) & 1;
        const unsigned bi = (b.kval >> i) & 1;
        r.kmask |= bit;
        r.kval |= ((ai ^ bi ^ borrow) & 1u) << i;
        borrow = ((1u - ai) & (bi | borrow)) | (bi & borrow);
    }
    r.normalize();
    return r;
}

AbsVal
absAnd(const AbsVal &a, const AbsVal &b)
{
    if (a.isBottom() || b.isBottom())
        return AbsVal::bottom();
    AbsVal r = AbsVal::top();
    const u32 known0 = (a.kmask & ~a.kval) | (b.kmask & ~b.kval);
    const u32 known1 = (a.kmask & a.kval) & (b.kmask & b.kval);
    r.kmask = known0 | known1;
    r.kval = known1;
    r.hi = std::min(a.hi, b.hi);
    r.normalize();
    return r;
}

AbsVal
absOr(const AbsVal &a, const AbsVal &b)
{
    if (a.isBottom() || b.isBottom())
        return AbsVal::bottom();
    AbsVal r = AbsVal::top();
    const u32 known0 = (a.kmask & ~a.kval) & (b.kmask & ~b.kval);
    const u32 known1 = (a.kmask & a.kval) | (b.kmask & b.kval);
    r.kmask = known0 | known1;
    r.kval = known1;
    r.lo = std::max(a.lo, b.lo);
    r.normalize();
    return r;
}

AbsVal
absXor(const AbsVal &a, const AbsVal &b)
{
    if (a.isBottom() || b.isBottom())
        return AbsVal::bottom();
    AbsVal r = AbsVal::top();
    r.kmask = a.kmask & b.kmask;
    r.kval = (a.kval ^ b.kval) & r.kmask;
    r.normalize();
    return r;
}

AbsVal
absShl(const AbsVal &a, unsigned sh)
{
    if (a.isBottom())
        return AbsVal::bottom();
    sh &= 31;
    if (sh == 0)
        return a;
    AbsVal r = AbsVal::top();
    r.kmask = (a.kmask << sh) | ((1u << sh) - 1);
    r.kval = a.kval << sh;
    if ((a.hi << sh) <= kU32Max) {
        r.lo = a.lo << sh;
        r.hi = a.hi << sh;
    }
    r.normalize();
    return r;
}

AbsVal
absShr(const AbsVal &a, unsigned sh)
{
    if (a.isBottom())
        return AbsVal::bottom();
    sh &= 31;
    if (sh == 0)
        return a;
    AbsVal r = AbsVal::top();
    r.kmask = (a.kmask >> sh) | (~0u << (32 - sh));
    r.kval = a.kval >> sh;
    r.lo = a.lo >> sh;
    r.hi = a.hi >> sh;
    r.normalize();
    return r;
}

AbsVal
absMul(const AbsVal &a, const AbsVal &b)
{
    if (a.isBottom() || b.isBottom())
        return AbsVal::bottom();
    if (a.isConst() && b.isConst())
        return AbsVal::constant(a.constVal() * b.constVal());
    if ((a.isConst() && a.constVal() == 0) ||
        (b.isConst() && b.constVal() == 0))
        return AbsVal::constant(0);
    AbsVal r = AbsVal::top();
    // Trailing zeros add: a product is at least as aligned as the
    // product of its factors' provable power-of-two divisors.
    unsigned tz = 0;
    while (tz < 32 && (a.kmask & (1u << tz)) && !(a.kval & (1u << tz)))
        ++tz;
    unsigned tzb = 0;
    while (tzb < 32 && (b.kmask & (1u << tzb)) &&
           !(b.kval & (1u << tzb)))
        ++tzb;
    const unsigned zeros = std::min(31u, tz + tzb);
    r.kmask = (1u << zeros) - 1;
    r.kval = 0;
    if (a.hi != 0 && b.hi != 0 && a.hi <= kU32Max / b.hi) {
        r.lo = a.lo * b.lo;
        r.hi = a.hi * b.hi;
    }
    r.normalize();
    return r;
}

namespace
{

constexpr unsigned kWidenAfter = 32;  //!< joins before widening

AbsVal
readReg(const AbsRegs &st, RegId r)
{
    if (r == kNoReg || r == kRegZero)
        return AbsVal::constant(0);
    return st[r];
}

/** rs1 + sign-extended immediate (effective addresses, addi). */
AbsVal
addImm(const AbsVal &a, i32 imm)
{
    return imm >= 0
               ? absAdd(a, AbsVal::constant(static_cast<u32>(imm)))
               : absSub(a, AbsVal::constant(static_cast<u32>(-imm)));
}

/** Shifted-compare result when provable, else [0, 1]. */
AbsVal
absLessThan(const AbsVal &a, const AbsVal &b, bool is_signed)
{
    if (a.isBottom() || b.isBottom())
        return AbsVal::bottom();
    // Signed compares reduce to unsigned when both operands are
    // proven non-negative (interval within [0, 2^31)).
    if (!is_signed || (a.hi < 0x80000000ull && b.hi < 0x80000000ull)) {
        if (a.hi < b.lo)
            return AbsVal::constant(1);
        if (a.lo >= b.hi)
            return AbsVal::constant(0);
    }
    return AbsVal::interval(0, 1);
}

void
transfer(AbsRegs &st, Addr pc, const DecodedInst &di)
{
    if (!di.writesReg())
        return;
    const AbsVal a = readReg(st, di.rs1);
    const AbsVal b = readReg(st, di.rs2);
    const AbsVal imm = AbsVal::constant(static_cast<u32>(di.imm));
    AbsVal out = AbsVal::top();
    switch (di.op) {
      case Op::LUI:
        out = AbsVal::constant(static_cast<u32>(di.imm));
        break;
      case Op::AUIPC:
        out = AbsVal::constant(pc + static_cast<u32>(di.imm));
        break;
      case Op::ADDI:
        out = addImm(a, di.imm);
        break;
      case Op::ADD:
        out = absAdd(a, b);
        break;
      case Op::SUB:
        out = absSub(a, b);
        break;
      case Op::ANDI:
        out = absAnd(a, imm);
        break;
      case Op::AND:
        out = absAnd(a, b);
        break;
      case Op::ORI:
        out = absOr(a, imm);
        break;
      case Op::OR:
        out = absOr(a, b);
        break;
      case Op::XORI:
        out = absXor(a, imm);
        break;
      case Op::XOR:
        out = absXor(a, b);
        break;
      case Op::SLLI:
        out = absShl(a, static_cast<unsigned>(di.imm) & 31);
        break;
      case Op::SRLI:
        out = absShr(a, static_cast<unsigned>(di.imm) & 31);
        break;
      case Op::SRAI:
        if (a.isConst())
            out = AbsVal::constant(static_cast<u32>(
                static_cast<i32>(a.constVal()) >>
                (static_cast<unsigned>(di.imm) & 31)));
        else if ((a.kmask & 0x80000000u) && !(a.kval & 0x80000000u))
            out = absShr(a, static_cast<unsigned>(di.imm) & 31);
        break;
      case Op::SLL:
        if (b.isConst())
            out = absShl(a, b.constVal() & 31);
        break;
      case Op::SRL:
        if (b.isConst())
            out = absShr(a, b.constVal() & 31);
        break;
      case Op::SRA:
        if (b.isConst() && a.isConst())
            out = AbsVal::constant(static_cast<u32>(
                static_cast<i32>(a.constVal()) >> (b.constVal() & 31)));
        else if (b.isConst() && (a.kmask & 0x80000000u) &&
                 !(a.kval & 0x80000000u))
            out = absShr(a, b.constVal() & 31);
        break;
      case Op::SLT:
        out = absLessThan(a, b, /*is_signed=*/true);
        break;
      case Op::SLTU:
        out = absLessThan(a, b, /*is_signed=*/false);
        break;
      case Op::SLTI:
        out = absLessThan(a, imm, /*is_signed=*/true);
        break;
      case Op::SLTIU:
        out = absLessThan(a, imm, /*is_signed=*/false);
        break;
      case Op::MUL:
        out = absMul(a, b);
        break;
      case Op::LBU:
        out = AbsVal::interval(0, 0xff);
        break;
      case Op::LHU:
        out = AbsVal::interval(0, 0xffff);
        break;
      case Op::JAL:
      case Op::JALR:
        out = AbsVal::constant(pc + 4);
        break;
      case Op::SIMT_S:
        return;  // pure marker: rc keeps its value
      default:
        break;  // loads, div/rem, mulh, FP, simt_e: top
    }
    st[di.rd] = out;
}

/**
 * Refine @p st for the CFG edge on which the branch @p di evaluated
 * to @p taken. Returns false when the refined state is empty (the
 * edge is statically dead).
 */
bool
refineEdge(AbsRegs &st, const DecodedInst &di, bool taken)
{
    AbsVal a = readReg(st, di.rs1);
    AbsVal b = readReg(st, di.rs2);

    enum class Rel { Eq, Ne, Ltu, Geu };
    Rel rel;
    bool usable = true;
    switch (di.op) {
      case Op::BEQ:
        rel = taken ? Rel::Eq : Rel::Ne;
        break;
      case Op::BNE:
        rel = taken ? Rel::Ne : Rel::Eq;
        break;
      case Op::BLTU:
        rel = taken ? Rel::Ltu : Rel::Geu;
        break;
      case Op::BGEU:
        rel = taken ? Rel::Geu : Rel::Ltu;
        break;
      case Op::BLT:
      case Op::BGE:
        // Signed orderings refine like unsigned ones only when both
        // sides are proven non-negative.
        usable = a.hi < 0x80000000ull && b.hi < 0x80000000ull;
        rel = (di.op == Op::BLT) == taken ? Rel::Ltu : Rel::Geu;
        break;
      default:
        return true;
    }
    if (!usable)
        return true;

    switch (rel) {
      case Rel::Eq: {
        AbsVal m = a;
        m.meet(b);
        a = m;
        b = m;
        break;
      }
      case Rel::Ne:
        if (a.isConst() && b.isConst() && a.constVal() == b.constVal())
            return false;
        if (b.isConst()) {
            if (a.lo == b.lo)
                ++a.lo;
            else if (a.hi == b.hi)
                --a.hi;
            a.normalize();
        }
        if (a.isConst()) {
            if (b.lo == a.lo)
                ++b.lo;
            else if (b.hi == a.hi)
                --b.hi;
            b.normalize();
        }
        break;
      case Rel::Ltu:
        if (b.hi == 0)
            return false;
        a.hi = std::min(a.hi, b.hi - 1);
        b.lo = std::max(b.lo, a.lo + 1);
        a.normalize();
        b.normalize();
        break;
      case Rel::Geu:
        a.lo = std::max(a.lo, b.lo);
        b.hi = std::min(b.hi, a.hi);
        a.normalize();
        b.normalize();
        break;
    }
    if (a.isBottom() || b.isBottom())
        return false;
    if (di.rs1 != kNoReg && di.rs1 != kRegZero)
        st[di.rs1] = a;
    if (di.rs2 != kNoReg && di.rs2 != kRegZero)
        st[di.rs2] = b;
    return true;
}

AbsRegs
entryState()
{
    AbsRegs st;
    st.fill(AbsVal::top());
    st[kRegZero] = AbsVal::constant(0);
    return st;
}

/** Post-call state: the callee may have written any lane. */
AbsRegs
clobberedState()
{
    return entryState();
}

bool
joinRegs(AbsRegs &into, const AbsRegs &from, bool widen)
{
    bool changed = false;
    for (unsigned r = 0; r < kNumRegs; ++r)
        changed |= widen ? into[r].widen(from[r])
                         : into[r].join(from[r]);
    return changed;
}

/**
 * Per-block must-execute: a block lies on every entry->halt path iff
 * it dominates every halting (ebreak/ecall) block. Iterative
 * dominator sets over word-packed bitsets; block counts are small.
 */
std::vector<bool>
mustExecuteBlocks(const Cfg &cfg, unsigned entry_id)
{
    const size_t nb = cfg.blocks.size();
    const size_t words = nb / 64 + 1;  // never zero: holds the entry
    std::vector<std::vector<u64>> dom(
        nb, std::vector<u64>(words, ~0ull));
    dom[entry_id].assign(words, 0);
    dom[entry_id][entry_id / 64] = 1ull << (entry_id % 64);
    bool changed = true;
    while (changed) {
        changed = false;
        for (const BasicBlock &bb : cfg.blocks) {
            if (bb.id == entry_id)
                continue;
            std::vector<u64> next(words, ~0ull);
            if (bb.preds.empty())
                next.assign(words, 0);
            for (const unsigned p : bb.preds)
                for (size_t w = 0; w < words; ++w)
                    next[w] &= dom[p][w];
            next[bb.id / 64] |= 1ull << (bb.id % 64);
            if (next != dom[bb.id]) {
                dom[bb.id] = std::move(next);
                changed = true;
            }
        }
    }

    std::vector<unsigned> exits;
    for (const BasicBlock &bb : cfg.blocks) {
        const auto it = cfg.insts.find(bb.last);
        if (it != cfg.insts.end() && (it->second.op == Op::EBREAK ||
                                      it->second.op == Op::ECALL))
            exits.push_back(bb.id);
    }

    std::vector<bool> must(nb, false);
    if (exits.empty()) {
        if (entry_id < nb)
            must[entry_id] = true;
        return must;
    }
    for (size_t b = 0; b < nb; ++b) {
        bool all = true;
        for (const unsigned e : exits)
            if (!(dom[e][b / 64] & (1ull << (b % 64)))) {
                all = false;
                break;
            }
        must[b] = all;
    }
    return must;
}

} // namespace

AbsIntResult
runAbsInt(const Cfg &cfg)
{
    AbsIntResult out;
    const size_t nb = cfg.blocks.size();
    out.block_must_execute.assign(nb, false);
    const auto ei = cfg.leader_index.find(cfg.entry);
    if (nb == 0 || ei == cfg.leader_index.end())
        return out;
    const unsigned entry_id = ei->second;
    out.block_must_execute = mustExecuteBlocks(cfg, entry_id);

    std::vector<AbsRegs> in(nb, entryState());
    std::vector<bool> reached(nb, false);
    std::vector<bool> queued(nb, false);
    std::vector<unsigned> joins(nb, 0);
    std::deque<unsigned> wl;

    reached[entry_id] = true;
    queued[entry_id] = true;
    wl.push_back(entry_id);

    u64 budget = 50'000 + 200ull * nb;
    while (!wl.empty()) {
        if (budget-- == 0) {
            out.converged = false;
            break;
        }
        const unsigned bi = wl.front();
        wl.pop_front();
        queued[bi] = false;
        const BasicBlock &bb = cfg.blocks[bi];

        AbsRegs st = in[bi];
        for (Addr pc = bb.first; pc <= bb.last; pc += 4) {
            const auto it = cfg.insts.find(pc);
            if (it == cfg.insts.end())
                break;
            transfer(st, pc, it->second);
        }

        const auto li = cfg.insts.find(bb.last);
        const DecodedInst *last =
            li != cfg.insts.end() ? &li->second : nullptr;
        for (const Addr succ_pc : bb.succs) {
            const auto si = cfg.leader_index.find(succ_pc);
            if (si == cfg.leader_index.end())
                continue;
            const unsigned s = si->second;
            AbsRegs edge = st;
            if (last && last->isBranch()) {
                const Addr tgt =
                    bb.last + static_cast<u32>(last->imm);
                if (tgt != bb.last + 4 &&
                    !refineEdge(edge, *last, succ_pc == tgt))
                    continue;  // statically dead edge
            } else if (bb.call_fallthrough && succ_pc == bb.last + 4) {
                edge = clobberedState();
            }
            if (!reached[s]) {
                reached[s] = true;
                in[s] = edge;
            } else {
                const bool widen = ++joins[s] > kWidenAfter;
                if (!joinRegs(in[s], edge, widen))
                    continue;
            }
            if (!queued[s]) {
                queued[s] = true;
                wl.push_back(s);
            }
        }
    }

    // A truncated fixpoint would under-approximate: fall back to top
    // everywhere so every downstream verdict degrades to Unknown.
    if (!out.converged)
        for (auto &st : in)
            st = entryState();

    // Extraction: evaluate each site in the converged entry state of
    // its block, re-applying transfers up to the site.
    for (const BasicBlock &bb : cfg.blocks) {
        if (!reached[bb.id] && out.converged)
            continue;
        AbsRegs st = in[bb.id];
        for (Addr pc = bb.first; pc <= bb.last; pc += 4) {
            const auto it = cfg.insts.find(pc);
            if (it == cfg.insts.end())
                break;
            const DecodedInst &di = it->second;
            if (di.isMem()) {
                SiteInfo s;
                s.pc = pc;
                s.is_mem = true;
                s.is_store = di.isStore();
                s.mem_bytes = di.info().memBytes;
                s.addr = addImm(readReg(st, di.rs1), di.imm);
                s.must_execute = out.block_must_execute[bb.id];
                out.sites[pc] = s;
            } else if (di.op == Op::DIV || di.op == Op::DIVU ||
                       di.op == Op::REM || di.op == Op::REMU) {
                SiteInfo s;
                s.pc = pc;
                s.is_div = true;
                s.divisor = readReg(st, di.rs2);
                s.must_execute = out.block_must_execute[bb.id];
                out.sites[pc] = s;
            } else if (di.op == Op::SIMT_S) {
                out.simt_entry[pc] = st;
            }
            transfer(st, pc, di);
        }
    }
    return out;
}

} // namespace diag::analysis
