/**
 * @file
 * Rodinia-class workloads, part C: nw, particlefilter, pathfinder,
 * srad.
 */
#include "workloads/workload.hpp"

#include <algorithm>
#include <cmath>
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
// nw: Needleman-Wunsch sequence alignment DP over independent tiles
// ---------------------------------------------------------------------

constexpr u32 kNwTiles = 48;
constexpr u32 kNwN = 16;              // sequence length per tile
constexpr u32 kNwStride = kNwN * 4;   // table row stride in bytes
constexpr Addr kNwSeq = 0x100000;     // per tile: ref then qry(+32)
constexpr Addr kNwTab = 0x110000;     // per-tile tables, 4KB apart
constexpr i32 kNwMatch = 5;
constexpr i32 kNwMismatch = -3;
constexpr i32 kNwGap = 2;

Workload
makeNw()
{
    Workload w;
    w.name = "nw";
    w.suite = "rodinia";
    w.data_ranges = {{kNwSeq, 0x10000}, {kNwTab, 0x40000}};
    w.description = "Needleman-Wunsch alignment DP (" +
                    std::to_string(kNwTiles) + " independent " +
                    std::to_string(kNwN) + "x" + std::to_string(kNwN) +
                    " tiles, branchy max3)";
    w.profile = Profile::Control;

    w.asm_serial = "_start:\n" + partitionBounds(kNwTiles) + R"(
tile_loop:
    slli t0, s2, 6
    li s4, )" + std::to_string(kNwSeq) + R"(
    add s4, s4, t0         # ref base (qry at +32)
    slli t0, s2, 12
    li s5, )" + std::to_string(kNwTab) + R"(
    add s5, s5, t0         # table base
    li s6, 1               # i
iloop:
    # ref[i-1]
    add t0, s4, s6
    lbu s9, -1(t0)
    li s7, 1               # j
jloop:
    # score: match/mismatch of ref[i-1] vs qry[j-1]
    add t0, s4, s7
    lbu t1, 31(t0)         # qry[j-1] at base+32+(j-1)
    li t2, )" + std::to_string(kNwMismatch) + R"(
    bne t1, s9, scored
    li t2, )" + std::to_string(kNwMatch) + R"(
scored:
    # addresses of t[i-1][j-1]
    addi t0, s6, -1
    li t3, )" + std::to_string(kNwStride) + R"(
    mul t0, t0, t3
    add t0, t0, s5
    slli t4, s7, 2
    add t0, t0, t4         # &t[i-1][j]
    lw t5, -4(t0)          # diag
    add t5, t5, t2         # m = diag + score
    lw t6, 0(t0)           # up
    addi t6, t6, -)" + std::to_string(kNwGap) + R"(
    blt t6, t5, no_up
    mv t5, t6
no_up:
    add t0, t0, t3         # &t[i][j]
    lw t6, -4(t0)          # left
    addi t6, t6, -)" + std::to_string(kNwGap) + R"(
    blt t6, t5, no_left
    mv t5, t6
no_left:
    sw t5, 0(t0)
    addi s7, s7, 1
    li t0, )" + std::to_string(kNwN) + R"(
    blt s7, t0, jloop
    addi s6, s6, 1
    blt s6, t0, iloop
    addi s2, s2, 1
    blt s2, s3, tile_loop
    ebreak
)";

    w.init = [](SparseMemory &mem) {
        Rng rng(0x9999);
        for (u32 t = 0; t < kNwTiles; ++t) {
            for (u32 i = 0; i < kNwN; ++i) {
                mem.write8(kNwSeq + 64 * t + i,
                           static_cast<u8>(rng.below(4)));
                mem.write8(kNwSeq + 64 * t + 32 + i,
                           static_cast<u8>(rng.below(4)));
            }
            // Table borders: t[0][j] = -gap*j, t[i][0] = -gap*i.
            const Addr tab = kNwTab + 0x1000 * t;
            for (u32 j = 0; j < kNwN; ++j)
                mem.write32(tab + 4 * j,
                            static_cast<u32>(-kNwGap *
                                             static_cast<i32>(j)));
            for (u32 i = 0; i < kNwN; ++i)
                mem.write32(tab + kNwStride * i,
                            static_cast<u32>(-kNwGap *
                                             static_cast<i32>(i)));
        }
    };

    w.check = [](const SparseMemory &mem) {
        for (u32 t = 0; t < kNwTiles; ++t) {
            const Addr seq = kNwSeq + 64 * t;
            const Addr tab = kNwTab + 0x1000 * t;
            std::vector<i32> ref_tab(kNwN * kNwN);
            for (u32 j = 0; j < kNwN; ++j)
                ref_tab[j] = -kNwGap * static_cast<i32>(j);
            for (u32 i = 0; i < kNwN; ++i)
                ref_tab[i * kNwN] = -kNwGap * static_cast<i32>(i);
            for (u32 i = 1; i < kNwN; ++i) {
                for (u32 j = 1; j < kNwN; ++j) {
                    const i32 s =
                        mem.read8(seq + i - 1) ==
                                mem.read8(seq + 32 + j - 1)
                            ? kNwMatch
                            : kNwMismatch;
                    const i32 m = std::max(
                        {ref_tab[(i - 1) * kNwN + j - 1] + s,
                         ref_tab[(i - 1) * kNwN + j] - kNwGap,
                         ref_tab[i * kNwN + j - 1] - kNwGap});
                    ref_tab[i * kNwN + j] = m;
                }
            }
            for (u32 i = 0; i < kNwN; ++i)
                for (u32 j = 0; j < kNwN; ++j)
                    if (static_cast<i32>(mem.read32(
                            tab + kNwStride * i + 4 * j)) !=
                        ref_tab[i * kNwN + j])
                        return false;
        }
        return true;
    };
    return w;
}

// ---------------------------------------------------------------------
// particlefilter: likelihood weight update + per-thread normalization
// ---------------------------------------------------------------------

constexpr u32 kPfN = 768;
constexpr Addr kPfX = 0x100000;    // particle positions (floats)
constexpr Addr kPfW = 0x104000;    // weights (output)
constexpr Addr kPfSum = 0x110000;  // per-thread weight sums
constexpr float kPfObs = 3.75f;

static std::string
pfPrologue()
{
    return "_start:\n"
           "    li s4, " + std::to_string(kPfX) + "\n" +
           "    li s5, " + std::to_string(kPfW) + "\n" +
           "    li t1, 0x40700000\n"  // 3.75f observation
           "    fmv.w.x f14, t1\n"
           "    li t1, 0x3f800000\n"  // 1.0f
           "    fmv.w.x f15, t1\n" +
           partitionBounds(kPfN);
}

static std::string
pfReduce()
{
    return R"(
    fmv.w.x fa2, x0
    mv s7, s2
sloop:
    slli t0, s7, 2
    add t0, t0, s5
    flw ft0, 0(t0)
    fadd.s fa2, fa2, ft0
    addi s7, s7, 1
    bne s7, s3, sloop
    li t0, )" + std::to_string(kPfSum) + R"(
    slli t1, a0, 2
    add t0, t0, t1
    fsw fa2, 0(t0)
    ebreak
)";
}

Workload
makeParticlefilter()
{
    Workload w;
    w.name = "particlefilter";
    w.suite = "rodinia";
    w.data_ranges = {{kPfX, 0x4000},
                     {kPfW, 0xc000},
                     {kPfSum, 0x10000}};
    w.description = "particle-filter likelihood weights (Cauchy "
                    "kernel) + per-thread weight sums, 768 particles";
    w.profile = Profile::Compute;

    w.asm_serial = pfPrologue() + R"(
    mv s7, s2
ploop:
    slli t0, s7, 2
    add t0, t0, s4
    flw ft0, 0(t0)
    fsub.s ft0, ft0, f14
    fmadd.s ft1, ft0, ft0, f15   # 1 + (x-obs)^2
    fdiv.s ft1, f15, ft1
    slli t0, s7, 2
    add t0, t0, s5
    fsw ft1, 0(t0)
    addi s7, s7, 1
    bne s7, s3, ploop
)" + pfReduce();

    w.asm_simt = pfPrologue() + R"(
    slli t4, s2, 2
    slli t6, s3, 2
    li t5, 4
head:
    simt_s t4, t5, t6, 1
    add t0, t4, s4
    flw ft0, 0(t0)
    fsub.s ft0, ft0, f14
    fmadd.s ft1, ft0, ft0, f15
    fdiv.s ft1, f15, ft1
    add t0, t4, s5
    fsw ft1, 0(t0)
    simt_e t4, t6, head
)" + pfReduce();

    w.init = [](SparseMemory &mem) {
        Rng rng(0x9f01);
        for (u32 p = 0; p < kPfN; ++p)
            writeF32(mem, kPfX + 4 * p, rng.uniform() * 8.0f);
    };

    w.check = [](const SparseMemory &mem) {
        for (u32 p = 0; p < kPfN; ++p) {
            const float x = readF32(mem, kPfX + 4 * p);
            const float d = x - kPfObs;
            const float want = 1.0f / std::fmaf(d, d, 1.0f);
            if (!closeF32(readF32(mem, kPfW + 4 * p), want))
                return false;
        }
        return true;
    };
    return w;
}

// ---------------------------------------------------------------------
// pathfinder: row-by-row grid DP with min3 (independent column tiles)
// ---------------------------------------------------------------------

constexpr u32 kPfTiles = 48;
constexpr u32 kPfCols = 24;   // real columns per tile
constexpr u32 kPfRows = 16;
constexpr u32 kPfStrideW = kPfCols + 2;  // halo columns on both sides
constexpr Addr kPfWall = 0x100000;  // per tile: rows x cols ints
constexpr Addr kPfBufA = 0x140000;  // per tile: stride words
constexpr Addr kPfBufB = 0x150000;
constexpr u32 kPfTileWall = kPfRows * kPfCols * 4;
constexpr u32 kPfTileBuf = kPfStrideW * 4;

Workload
makePathfinder()
{
    Workload w;
    w.name = "pathfinder";
    w.suite = "rodinia";
    w.data_ranges = {{kPfWall, 0x40000},
                     {kPfBufA, 0x10000},
                     {kPfBufB, 0x10000}};
    w.description = "grid dynamic programming: dst[j] = wall[r][j] + "
                    "min3(src[j-1..j+1]) over " +
                    std::to_string(kPfTiles) + " column tiles";
    w.profile = Profile::Mixed;

    const std::string cell = R"(
    lw t1, -4(t3)
    lw t2, 0(t3)
    lw t4, 4(t3)
    blt t1, t2, pmin1
    mv t1, t2
pmin1:
    blt t1, t4, pmin2
    mv t1, t4
pmin2:
    lw t2, 0(t5)           # wall value
    add t1, t1, t2
    sw t1, 0(t6)
)";

    const std::string tile_head =
        "tile_loop:\n"
        "    li t0, " + std::to_string(kPfTileWall) + "\n" +
        "    mul s9, s2, t0\n"
        "    li s4, " + std::to_string(kPfWall) + "\n" +
        "    add s4, s4, s9         # wall tile\n"
        "    li t0, " + std::to_string(kPfTileBuf) + "\n" +
        "    mul s9, s2, t0\n"
        "    li s5, " + std::to_string(kPfBufA) + "\n" +
        "    add s5, s5, s9         # src row buffer\n"
        "    li s6, " + std::to_string(kPfBufB) + "\n" +
        "    add s6, s6, s9         # dst row buffer\n"
        "    li s10, 0              # row\n";

    w.asm_serial = "_start:\n" + partitionBounds(kPfTiles) +
                   tile_head + R"(
row_loop:
    li t0, )" + std::to_string(kPfCols * 4) + R"(
    mul t5, s10, t0
    add t5, t5, s4         # wall row
    addi t3, s5, 4         # src (first real column)
    addi t6, s6, 4         # dst
    li s11, )" + std::to_string(kPfCols) + R"(
col_loop:
)" + cell + R"(
    addi t3, t3, 4
    addi t5, t5, 4
    addi t6, t6, 4
    addi s11, s11, -1
    bnez s11, col_loop
    mv t0, s5
    mv s5, s6
    mv s6, t0
    addi s10, s10, 1
    li t0, )" + std::to_string(kPfRows) + R"(
    blt s10, t0, row_loop
    addi s2, s2, 1
    blt s2, s3, tile_loop
    ebreak
)";

    // SIMT: the per-row column sweep is the pipelined region.
    w.asm_simt = "_start:\n" + partitionBounds(kPfTiles) +
                 tile_head + R"(
row_loop:
    li t0, )" + std::to_string(kPfCols * 4) + R"(
    mul s7, s10, t0
    add s7, s7, s4         # wall row base
    li s9, 0               # rc: column byte offset
    li s8, 4
    li s11, )" + std::to_string(kPfCols * 4) + R"(
head:
    simt_s s9, s8, s11, 1
    add t3, s5, s9
    addi t3, t3, 4
    add t5, s7, s9
    add t6, s6, s9
    addi t6, t6, 4
)" + cell + R"(
    simt_e s9, s11, head
    mv t0, s5
    mv s5, s6
    mv s6, t0
    addi s10, s10, 1
    li t0, )" + std::to_string(kPfRows) + R"(
    blt s10, t0, row_loop
    addi s2, s2, 1
    blt s2, s3, tile_loop
    ebreak
)";

    w.init = [](SparseMemory &mem) {
        Rng rng(0x9a7f);
        for (u32 t = 0; t < kPfTiles; ++t) {
            for (u32 i = 0; i < kPfRows * kPfCols; ++i)
                mem.write32(kPfWall + t * kPfTileWall + 4 * i,
                            static_cast<u32>(rng.below(10)));
            // Row buffers: halo columns hold a large sentinel.
            for (u32 j = 0; j < kPfStrideW; ++j) {
                const bool halo = j == 0 || j == kPfStrideW - 1;
                const u32 v = halo ? 0x00ffffffu : 0;
                mem.write32(kPfBufA + t * kPfTileBuf + 4 * j, v);
                mem.write32(kPfBufB + t * kPfTileBuf + 4 * j, v);
            }
        }
    };

    w.check = [](const SparseMemory &mem) {
        for (u32 t = 0; t < kPfTiles; ++t) {
            std::vector<i32> src(kPfStrideW, 0);
            std::vector<i32> dst(kPfStrideW, 0);
            src[0] = src[kPfStrideW - 1] = 0x00ffffff;
            dst[0] = dst[kPfStrideW - 1] = 0x00ffffff;
            for (u32 r = 0; r < kPfRows; ++r) {
                for (u32 j = 0; j < kPfCols; ++j) {
                    const i32 m = std::min(
                        {src[j], src[j + 1], src[j + 2]});
                    dst[j + 1] =
                        m + static_cast<i32>(mem.read32(
                                kPfWall + t * kPfTileWall +
                                4 * (r * kPfCols + j)));
                }
                std::swap(src, dst);
            }
            // Final row lives in the buffer written last (src after
            // the final swap).
            const Addr base =
                (kPfRows % 2 ? kPfBufB : kPfBufA) + t * kPfTileBuf;
            for (u32 j = 0; j < kPfCols; ++j) {
                if (static_cast<i32>(mem.read32(base + 4 * (j + 1))) !=
                    src[j + 1])
                    return false;
            }
        }
        return true;
    };
    return w;
}

// ---------------------------------------------------------------------
// srad: speckle-reducing anisotropic diffusion (single local pass)
// ---------------------------------------------------------------------

constexpr u32 kSrW = 64;   // image width
constexpr u32 kSrH = 50;   // image height (48 interior rows)
constexpr Addr kSrIn = 0x100000;   // kSrH x 64 floats
constexpr Addr kSrOut = 0x108000;

Workload
makeSrad()
{
    Workload w;
    w.name = "srad";
    w.suite = "rodinia";
    w.data_ranges = {{kSrIn, 0x8000}, {kSrOut, 0x10000}};
    w.description = "speckle-reducing diffusion: per-pixel gradient, "
                    "diffusion coefficient, and update on a " +
                    std::to_string(kSrW) + "x" + std::to_string(kSrH) +
                    " image";
    w.profile = Profile::Compute;

    const std::string prologue =
        "_start:\n"
        "    li s4, " + std::to_string(kSrIn) + "\n" +
        "    li s5, " + std::to_string(kSrOut) + "\n" +
        "    li t1, 0x3f800000\n"   // 1.0f
        "    fmv.w.x f15, t1\n"
        "    li t1, 0x3e800000\n"   // 0.25f (lambda)
        "    fmv.w.x f14, t1\n"
        "    li t1, 0x3dcccccd\n"   // 0.1f (eps)
        "    fmv.w.x f13, t1\n" +
        partitionBounds(kSrH - 2);

    // Per-pixel body: expects t3 = &in[cell], t4 = &out[cell].
    const std::string cell = R"(
    flw ft0, 0(t3)          # J
    flw ft1, -256(t3)       # N
    flw ft2, 256(t3)        # S
    flw ft3, -4(t3)         # W
    flw ft4, 4(t3)          # E
    fsub.s ft1, ft1, ft0    # dN
    fsub.s ft2, ft2, ft0    # dS
    fsub.s ft3, ft3, ft0    # dW
    fsub.s ft4, ft4, ft0    # dE
    fmul.s ft5, ft1, ft1
    fmadd.s ft5, ft2, ft2, ft5
    fmadd.s ft5, ft3, ft3, ft5
    fmadd.s ft5, ft4, ft4, ft5   # G2
    fmadd.s ft6, ft0, ft0, f13   # J^2 + eps
    fdiv.s ft5, ft5, ft6         # q
    fadd.s ft5, ft5, f15
    fdiv.s ft5, f15, ft5         # c = 1 / (1 + q)
    fadd.s ft1, ft1, ft2
    fadd.s ft1, ft1, ft3
    fadd.s ft1, ft1, ft4         # div
    fmul.s ft1, ft1, ft5
    fmadd.s ft0, ft1, f14, ft0   # J + lambda*c*div
    fsw ft0, 0(t4)
)";

    w.asm_serial = prologue + R"(
    mv s7, s2
rloop:
    addi t0, s7, 1
    slli t0, t0, 8         # row * 64 * 4
    addi t0, t0, 4
    add t3, s4, t0
    add t4, s5, t0
    li t6, )" + std::to_string(kSrW - 2) + R"(
closs:
)" + cell + R"(
    addi t3, t3, 4
    addi t4, t4, 4
    addi t6, t6, -1
    bnez t6, closs
    addi s7, s7, 1
    bne s7, s3, rloop
    ebreak
)";

    // SIMT variant: each row's interior column sweep is a simt region.
    w.asm_simt = prologue + R"(
    mv s7, s2
rloop:
    addi t0, s7, 1
    slli t0, t0, 8         # row * 64 * 4
    addi t0, t0, 4
    add a5, s4, t0         # src row
    add a6, s5, t0         # dst row
    li a2, 0               # rc: column byte offset
    li a3, 4
    li a4, )" + std::to_string((kSrW - 2) * 4) + R"(
head:
    simt_s a2, a3, a4, 1
    add t3, a5, a2
    add t4, a6, a2
)" + cell + R"(
    simt_e a2, a4, head
    addi s7, s7, 1
    bne s7, s3, rloop
    ebreak
)";

    w.init = [](SparseMemory &mem) {
        Rng rng(0x5bad);
        for (u32 i = 0; i < kSrH * kSrW; ++i)
            writeF32(mem, kSrIn + 4 * i, rng.uniform() * 255.0f);
    };

    w.check = [](const SparseMemory &mem) {
        for (u32 r = 1; r + 1 < kSrH; ++r) {
            for (u32 c = 1; c + 1 < kSrW; ++c) {
                const u32 i = r * kSrW + c;
                const float j0 = readF32(mem, kSrIn + 4 * i);
                const float dn =
                    readF32(mem, kSrIn + 4 * (i - kSrW)) - j0;
                const float ds =
                    readF32(mem, kSrIn + 4 * (i + kSrW)) - j0;
                const float dw = readF32(mem, kSrIn + 4 * (i - 1)) - j0;
                const float de = readF32(mem, kSrIn + 4 * (i + 1)) - j0;
                float g2 = dn * dn;
                g2 = std::fmaf(ds, ds, g2);
                g2 = std::fmaf(dw, dw, g2);
                g2 = std::fmaf(de, de, g2);
                const float q = g2 / std::fmaf(j0, j0, 0.1f);
                const float cdiff = 1.0f / (q + 1.0f);
                const float div = dn + ds + dw + de;
                const float want =
                    std::fmaf(div * cdiff, 0.25f, j0);
                if (!closeF32(readF32(mem, kSrOut + 4 * i), want))
                    return false;
            }
        }
        return true;
    };
    return w;
}

} // namespace diag::workloads
