/**
 * @file
 * SPEC-CPU2017-class workloads, part A: mcf, lbm, x264, deepsjeng.
 * Each captures the dominant kernel character of its namesake: mcf's
 * pointer chasing, lbm's collide step, x264's SAD motion search, and
 * deepsjeng's bitboard arithmetic.
 */
#include "workloads/workload.hpp"

#include <cmath>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "workloads/common.hpp"

namespace diag::workloads
{

using detail::closeF32;
using detail::partitionBounds;
using detail::readF32;
using detail::writeF32;

// ---------------------------------------------------------------------
// mcf: pointer chasing over per-tile permutation cycles
// ---------------------------------------------------------------------

constexpr u32 kMcfTiles = 48;
constexpr u32 kMcfTileEntries = 2048;
constexpr u32 kMcfEntries = kMcfTiles * kMcfTileEntries;
constexpr u32 kMcfSteps = 256;
constexpr Addr kMcfNext = 0x100000;  // permutation (global indices)
constexpr Addr kMcfVal = 0x180000;   // per-entry values
constexpr Addr kMcfOut = 0x200000;   // per-tile accumulator

static std::vector<u32>
mcfPermutation()
{
    Rng rng(0x3cf3cf);
    std::vector<u32> next(kMcfEntries);
    for (u32 t = 0; t < kMcfTiles; ++t) {
        // A single cycle through the tile: shuffled successor chain.
        std::vector<u32> order(kMcfTileEntries);
        std::iota(order.begin(), order.end(), 0);
        for (u32 i = kMcfTileEntries - 1; i > 0; --i)
            std::swap(order[i],
                      order[static_cast<u32>(rng.below(i + 1))]);
        const u32 base = t * kMcfTileEntries;
        for (u32 i = 0; i < kMcfTileEntries; ++i)
            next[base + order[i]] =
                base + order[(i + 1) % kMcfTileEntries];
    }
    return next;
}

Workload
makeMcf()
{
    Workload w;
    w.name = "mcf";
    w.suite = "spec";
    w.data_ranges = {{kMcfNext, 0x80000},
                     {kMcfVal, 0x80000},
                     {kMcfOut, 0x10000}};
    w.description = "network-simplex-style pointer chasing: " +
                    std::to_string(kMcfSteps) +
                    " dependent steps over " +
                    std::to_string(kMcfTiles) + " shuffled cycles";
    w.profile = Profile::Memory;

    w.asm_serial = "_start:\n"
                   "    li s4, " + std::to_string(kMcfNext) + "\n" +
                   "    li s5, " + std::to_string(kMcfVal) + "\n" +
                   "    li s6, " + std::to_string(kMcfOut) + "\n" +
                   partitionBounds(kMcfTiles) + R"(
tile_loop:
    li t0, )" + std::to_string(kMcfTileEntries) + R"(
    mul s9, s2, t0         # p = tile base entry
    li s10, 0              # acc
    li s11, )" + std::to_string(kMcfSteps) + R"(
chase:
    slli t0, s9, 2
    add t1, t0, s5
    lw t2, 0(t1)           # val[p]
    add s10, s10, t2
    andi t3, s10, 1
    beqz t3, even
    addi s10, s10, 3
even:
    add t1, t0, s4
    lw s9, 0(t1)           # p = next[p]
    addi s11, s11, -1
    bnez s11, chase
    slli t0, s2, 2
    add t0, t0, s6
    sw s10, 0(t0)
    addi s2, s2, 1
    blt s2, s3, tile_loop
    ebreak
)";

    w.init = [](SparseMemory &mem) {
        const std::vector<u32> next = mcfPermutation();
        for (u32 i = 0; i < kMcfEntries; ++i)
            mem.write32(kMcfNext + 4 * i, next[i]);
        Rng rng(0x3cf001);
        for (u32 i = 0; i < kMcfEntries; ++i)
            mem.write32(kMcfVal + 4 * i,
                        static_cast<u32>(rng.below(1000)));
    };

    w.check = [](const SparseMemory &mem) {
        const std::vector<u32> next = mcfPermutation();
        Rng rng(0x3cf001);
        std::vector<u32> val(kMcfEntries);
        for (auto &v : val)
            v = static_cast<u32>(rng.below(1000));
        for (u32 t = 0; t < kMcfTiles; ++t) {
            u32 p = t * kMcfTileEntries;
            u32 acc = 0;
            for (u32 s = 0; s < kMcfSteps; ++s) {
                acc += val[p];
                if (acc & 1)
                    acc += 3;
                p = next[p];
            }
            if (mem.read32(kMcfOut + 4 * t) != acc)
                return false;
        }
        return true;
    };
    return w;
}

// ---------------------------------------------------------------------
// lbm: D2Q5 lattice-Boltzmann collide step (local relaxation)
// ---------------------------------------------------------------------

constexpr u32 kLbmW_ = 64;   // grid width
constexpr u32 kLbmH = 98;    // grid height (96 interior rows)
constexpr u32 kLbmStride = 20;          // bytes per cell (5 dists)
constexpr u32 kLbmRowBytes = kLbmW_ * kLbmStride;  // 1280
constexpr Addr kLbmFIn = 0x100000;      // source distributions
constexpr Addr kLbmFOut = 0x140000;     // streamed+collided output
constexpr float kLbmOmega = 0.7f;
// D2Q5 weights: rest 1/3, directions 1/6.
constexpr float kLbmWt[5] = {1.0f / 3, 1.0f / 6, 1.0f / 6, 1.0f / 6,
                             1.0f / 6};

Workload
makeLbm()
{
    Workload w;
    w.name = "lbm";
    w.suite = "spec";
    w.data_ranges = {{kLbmFIn, 0x40000}, {kLbmFOut, 0x40000}};
    w.description = "lattice-Boltzmann D2Q5 stream+collide step over a "
                    "64x98 grid (neighbor gathers, double buffered)";
    w.profile = Profile::Memory;

    const std::string prologue =
        "_start:\n"
        "    li s4, " + std::to_string(kLbmFIn) + "\n" +
        "    li s5, " + std::to_string(kLbmFOut) + "\n" +
        "    li t1, 0x3f333333\n"    // omega 0.7f
        "    fmv.w.x f15, t1\n"
        "    li t1, 0x3eaaaaab\n"    // 1/3
        "    fmv.w.x f14, t1\n"
        "    li t1, 0x3e2aaaab\n"    // 1/6
        "    fmv.w.x f13, t1\n" +
        partitionBounds(kLbmH - 2);

    // Stream + collide one cell. Expects t1 = &f_in[cell], t2 =
    // &f_out[cell]; clobbers ft0..ft6. The f_d value is gathered from
    // the neighbor the distribution streams FROM: west/east are one
    // cell over (+-20B), north/south one row over (+-1280B).
    const std::string body =
        "    flw ft0, 0(t1)\n"         // rest: own cell
        "    flw ft1, -16(t1)\n"       // f1 from west  (-20 + 4)
        "    flw ft2, 28(t1)\n"        // f2 from east  (+20 + 8)
        "    flw ft3, -1268(t1)\n"     // f3 from north (-1280 + 12)
        "    flw ft4, 1296(t1)\n"      // f4 from south (+1280 + 16)
        "    fadd.s ft5, ft0, ft1\n"
        "    fadd.s ft5, ft5, ft2\n"
        "    fadd.s ft5, ft5, ft3\n"
        "    fadd.s ft5, ft5, ft4\n"   // rho
        "    fmul.s ft6, ft5, f14\n"
        "    fsub.s ft6, ft6, ft0\n"
        "    fmadd.s ft0, ft6, f15, ft0\n"
        "    fsw ft0, 0(t2)\n"
        "    fmul.s ft6, ft5, f13\n"
        "    fsub.s ft6, ft6, ft1\n"
        "    fmadd.s ft1, ft6, f15, ft1\n"
        "    fsw ft1, 4(t2)\n"
        "    fmul.s ft6, ft5, f13\n"
        "    fsub.s ft6, ft6, ft2\n"
        "    fmadd.s ft2, ft6, f15, ft2\n"
        "    fsw ft2, 8(t2)\n"
        "    fmul.s ft6, ft5, f13\n"
        "    fsub.s ft6, ft6, ft3\n"
        "    fmadd.s ft3, ft6, f15, ft3\n"
        "    fsw ft3, 12(t2)\n"
        "    fmul.s ft6, ft5, f13\n"
        "    fsub.s ft6, ft6, ft4\n"
        "    fmadd.s ft4, ft6, f15, ft4\n"
        "    fsw ft4, 16(t2)\n";

    w.asm_serial = prologue + R"(
    mv s7, s2
rloop:
    addi t0, s7, 1         # interior row index
    li t3, )" + std::to_string(kLbmRowBytes) + R"(
    mul t0, t0, t3
    addi t0, t0, 20        # first interior column
    add t1, s4, t0
    add t2, s5, t0
    li t6, )" + std::to_string(kLbmW_ - 2) + R"(
closs:
)" + body + R"(
    addi t1, t1, 20
    addi t2, t2, 20
    addi t6, t6, -1
    bnez t6, closs
    addi s7, s7, 1
    bne s7, s3, rloop
    ebreak
)";

    // SIMT variant: each row sweep is a region; rc = cell byte offset
    // within the row (steps of one cell stride).
    w.asm_simt = prologue + R"(
    mv s7, s2
rloop:
    addi t0, s7, 1
    li t3, )" + std::to_string(kLbmRowBytes) + R"(
    mul t0, t0, t3
    addi t0, t0, 20
    add a5, s4, t0         # in row base
    add a6, s5, t0         # out row base
    li a2, 0               # rc
    li a3, 20              # step: one cell
    li a4, )" + std::to_string((kLbmW_ - 2) * kLbmStride) + R"(
head:
    simt_s a2, a3, a4, 1
    add t1, a5, a2
    add t2, a6, a2
)" + body + R"(
    simt_e a2, a4, head
    addi s7, s7, 1
    bne s7, s3, rloop
    ebreak
)";

    w.init = [](SparseMemory &mem) {
        Rng rng(0x1b31b3);
        for (u32 c = 0; c < kLbmW_ * kLbmH; ++c)
            for (u32 d = 0; d < 5; ++d)
                writeF32(mem, kLbmFIn + c * kLbmStride + 4 * d,
                         kLbmWt[d] * (0.8f + 0.4f * rng.uniform()));
    };

    w.check = [](const SparseMemory &mem) {
        Rng rng(0x1b31b3);
        std::vector<float> f(5 * kLbmW_ * kLbmH);
        for (u32 c = 0; c < kLbmW_ * kLbmH; ++c)
            for (u32 d = 0; d < 5; ++d)
                f[c * 5 + d] =
                    kLbmWt[d] * (0.8f + 0.4f * rng.uniform());
        for (u32 r = 1; r + 1 < kLbmH; ++r) {
            for (u32 col = 1; col + 1 < kLbmW_; ++col) {
                const u32 c = r * kLbmW_ + col;
                const float g[5] = {
                    f[c * 5 + 0], f[(c - 1) * 5 + 1],
                    f[(c + 1) * 5 + 2], f[(c - kLbmW_) * 5 + 3],
                    f[(c + kLbmW_) * 5 + 4]};
                float rho = g[0] + g[1];
                rho += g[2];
                rho += g[3];
                rho += g[4];
                for (u32 d = 0; d < 5; ++d) {
                    const float eq = rho * kLbmWt[d];
                    const float want =
                        std::fmaf(eq - g[d], kLbmOmega, g[d]);
                    if (!closeF32(
                            readF32(mem, kLbmFOut + c * kLbmStride +
                                             4 * d),
                            want))
                        return false;
                }
            }
        }
        return true;
    };
    return w;
}

// ---------------------------------------------------------------------
// x264: sum-of-absolute-differences motion search
// ---------------------------------------------------------------------

constexpr u32 kX264Cands = 192;
constexpr u32 kX264Blk = 8;
constexpr u32 kX264RefW = 64;
constexpr Addr kX264Ref = 0x100000;   // 64x64 bytes
constexpr Addr kX264Cur = 0x102000;   // 8x8 bytes
constexpr Addr kX264Pos = 0x103000;   // candidate (x, y) word pairs
constexpr Addr kX264Sad = 0x104000;   // SAD per candidate

Workload
makeX264()
{
    Workload w;
    w.name = "x264";
    w.suite = "spec";
    w.data_ranges = {{kX264Ref, 0x2000},
                     {kX264Cur, 0x1000},
                     {kX264Pos, 0x1000},
                     {kX264Sad, 0x10000}};
    w.description = "video-encoder SAD motion search: 8x8 block vs " +
                    std::to_string(kX264Cands) +
                    " candidate positions in a 64x64 frame";
    w.profile = Profile::Compute;

    std::string row;
    for (u32 c = 0; c < kX264Blk; ++c) {
        row += "    lbu t1, " + std::to_string(c) + "(t3)\n";
        row += "    lbu t2, " + std::to_string(c) + "(t4)\n";
        row += "    sub t1, t1, t2\n"
               "    srai t2, t1, 31\n"
               "    xor t1, t1, t2\n"
               "    sub t1, t1, t2\n"   // |diff|
               "    add s10, s10, t1\n";
    }

    w.asm_serial = "_start:\n"
                   "    li s4, " + std::to_string(kX264Ref) + "\n" +
                   "    li s5, " + std::to_string(kX264Cur) + "\n" +
                   "    li s6, " + std::to_string(kX264Pos) + "\n" +
                   "    li s7, " + std::to_string(kX264Sad) + "\n" +
                   partitionBounds(kX264Cands) + R"(
    mv s9, s2
cand_loop:
    slli t0, s9, 3
    add t0, t0, s6
    lw t1, 0(t0)           # x
    lw t2, 4(t0)           # y
    slli t2, t2, 6         # y * 64
    add t1, t1, t2
    add t3, s4, t1         # ref window origin
    mv t4, s5              # cur block row
    li s10, 0              # sad
    li t5, )" + std::to_string(kX264Blk) + R"(
row_loop:
)" + row + R"(
    addi t3, t3, 64
    addi t4, t4, 8
    addi t5, t5, -1
    bnez t5, row_loop
    slli t0, s9, 2
    add t0, t0, s7
    sw s10, 0(t0)
    addi s9, s9, 1
    bne s9, s3, cand_loop
    ebreak
)";

    w.init = [](SparseMemory &mem) {
        Rng rng(0x264264);
        for (u32 i = 0; i < kX264RefW * kX264RefW; ++i)
            mem.write8(kX264Ref + i, static_cast<u8>(rng.below(256)));
        for (u32 i = 0; i < kX264Blk * kX264Blk; ++i)
            mem.write8(kX264Cur + i, static_cast<u8>(rng.below(256)));
        for (u32 p = 0; p < kX264Cands; ++p) {
            mem.write32(kX264Pos + 8 * p, static_cast<u32>(rng.below(
                                              kX264RefW - kX264Blk)));
            mem.write32(kX264Pos + 8 * p + 4,
                        static_cast<u32>(
                            rng.below(kX264RefW - kX264Blk)));
        }
    };

    w.check = [](const SparseMemory &mem) {
        for (u32 p = 0; p < kX264Cands; ++p) {
            const u32 x = mem.read32(kX264Pos + 8 * p);
            const u32 y = mem.read32(kX264Pos + 8 * p + 4);
            u32 want = 0;
            for (u32 r = 0; r < kX264Blk; ++r) {
                for (u32 c = 0; c < kX264Blk; ++c) {
                    const i32 a = mem.read8(
                        kX264Ref + (y + r) * kX264RefW + x + c);
                    const i32 b =
                        mem.read8(kX264Cur + r * kX264Blk + c);
                    want += static_cast<u32>(a > b ? a - b : b - a);
                }
            }
            if (mem.read32(kX264Sad + 4 * p) != want)
                return false;
        }
        return true;
    };
    return w;
}

// ---------------------------------------------------------------------
// deepsjeng: bitboard mobility evaluation
// ---------------------------------------------------------------------

constexpr u32 kDsPos = 1536;
constexpr Addr kDsBoards = 0x100000;  // (lo, hi) word pairs
constexpr Addr kDsScore = 0x110000;   // evaluation per position

Workload
makeDeepsjeng()
{
    Workload w;
    w.name = "deepsjeng";
    w.suite = "spec";
    w.data_ranges = {{kDsBoards, 0x10000}, {kDsScore, 0x10000}};
    w.description = "chess-engine bitboard evaluation: popcounts, "
                    "shifted attack masks, branchy scoring";
    w.profile = Profile::Control;

    // Kernighan popcount of t1 into t2 (clobbers t3).
    const std::string popcnt = R"(
    li t2, 0
    beqz t1, pcdone%ID%
pcloop%ID%:
    addi t3, t1, -1
    and t1, t1, t3
    addi t2, t2, 1
    bnez t1, pcloop%ID%
pcdone%ID%:
)";
    auto instantiate = [&](const std::string &tmpl, const char *id) {
        std::string out = tmpl;
        size_t pos = 0;
        while ((pos = out.find("%ID%", pos)) != std::string::npos)
            out.replace(pos, 4, id);
        return out;
    };

    w.asm_serial = "_start:\n"
                   "    li s4, " + std::to_string(kDsBoards) + "\n" +
                   "    li s5, " + std::to_string(kDsScore) + "\n" +
                   partitionBounds(kDsPos) + R"(
    mv s9, s2
ploop:
    slli t0, s9, 3
    add t0, t0, s4
    lw s10, 0(t0)          # lo
    lw s11, 4(t0)          # hi
    # material: popcount(lo) * 3 + popcount(hi) * 5
    mv t1, s10
)" + instantiate(popcnt, "a") + R"(
    slli t4, t2, 1
    add t4, t4, t2         # * 3
    mv t1, s11
)" + instantiate(popcnt, "b") + R"(
    slli t5, t2, 2
    add t5, t5, t2         # * 5
    add t4, t4, t5
    # mobility: attacks = (lo << 1 | lo >> 1) & ~hi
    slli t1, s10, 1
    srli t2, s10, 1
    or t1, t1, t2
    not t2, s11
    and t1, t1, t2
)" + instantiate(popcnt, "c") + R"(
    add t4, t4, t2
    # king safety: penalize if hi has its top bit set
    bgez s11, safe
    addi t4, t4, -7
safe:
    # tempo: parity of the running score
    andi t1, t4, 1
    beqz t1, stash
    addi t4, t4, 1
stash:
    slli t0, s9, 2
    add t0, t0, s5
    sw t4, 0(t0)
    addi s9, s9, 1
    bne s9, s3, ploop
    ebreak
)";

    w.init = [](SparseMemory &mem) {
        Rng rng(0xd5d5);
        for (u32 p = 0; p < kDsPos; ++p) {
            mem.write32(kDsBoards + 8 * p, rng.next32());
            mem.write32(kDsBoards + 8 * p + 4, rng.next32());
        }
    };

    w.check = [](const SparseMemory &mem) {
        auto pc = [](u32 v) {
            u32 n = 0;
            while (v) {
                v &= v - 1;
                ++n;
            }
            return n;
        };
        for (u32 p = 0; p < kDsPos; ++p) {
            const u32 lo = mem.read32(kDsBoards + 8 * p);
            const u32 hi = mem.read32(kDsBoards + 8 * p + 4);
            i32 score = static_cast<i32>(pc(lo) * 3 + pc(hi) * 5);
            score += static_cast<i32>(pc(((lo << 1) | (lo >> 1)) & ~hi));
            if (static_cast<i32>(hi) < 0)
                score -= 7;
            if (score & 1)
                score += 1;
            if (static_cast<i32>(mem.read32(kDsScore + 4 * p)) != score)
                return false;
        }
        return true;
    };
    return w;
}

} // namespace diag::workloads
