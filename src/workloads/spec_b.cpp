/**
 * @file
 * SPEC-CPU2017-class workloads, part B: leela, nab, xz, imagick.
 */
#include "workloads/workload.hpp"

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
// leela: Monte-Carlo playout kernel (RNG-driven board mutation)
// ---------------------------------------------------------------------

constexpr u32 kLlPlayouts = 192;
constexpr u32 kLlSteps = 64;
constexpr u32 kLlBoard = 256;        // cells per playout board
constexpr Addr kLlBoards = 0x100000; // one board per playout (1KB)
constexpr Addr kLlOut = 0x140000;    // score per playout
constexpr u32 kLlSeedBase = 0x1234567;

Workload
makeLeela()
{
    Workload w;
    w.name = "leela";
    w.suite = "spec";
    w.data_ranges = {{kLlBoards, 0x40000}, {kLlOut, 0x10000}};
    w.description = "Go-engine Monte-Carlo playouts: xorshift RNG "
                    "driving random board mutations and scoring";
    w.profile = Profile::Control;

    w.asm_serial = "_start:\n"
                   "    li s4, " + std::to_string(kLlBoards) + "\n" +
                   "    li s5, " + std::to_string(kLlOut) + "\n" +
                   partitionBounds(kLlPlayouts) + R"(
    mv s9, s2
playout:
    slli t0, s9, 10
    add s10, s4, t0        # this playout's board
    li t0, )" + std::to_string(kLlSeedBase) + R"(
    add s11, t0, s9        # rng state
    li s6, 0               # score
    li s7, )" + std::to_string(kLlSteps) + R"(
step:
    # xorshift32
    slli t0, s11, 13
    xor s11, s11, t0
    srli t0, s11, 17
    xor s11, s11, t0
    slli t0, s11, 5
    xor s11, s11, t0
    # pick a cell and mutate it
    andi t1, s11, )" + std::to_string(kLlBoard - 1) + R"(
    slli t1, t1, 2
    add t1, t1, s10
    lw t2, 0(t1)
    xor t2, t2, s11
    sw t2, 0(t1)
    # score: count when the mutated cell looks "alive"
    andi t3, t2, 3
    beqz t3, dead
    addi s6, s6, 1
dead:
    addi s7, s7, -1
    bnez s7, step
    slli t0, s9, 2
    add t0, t0, s5
    sw s6, 0(t0)
    addi s9, s9, 1
    bne s9, s3, playout
    ebreak
)";

    w.init = [](SparseMemory &mem) {
        Rng rng(0x1ee1a);
        for (u32 p = 0; p < kLlPlayouts; ++p)
            for (u32 c = 0; c < kLlBoard; ++c)
                mem.write32(kLlBoards + 1024 * p + 4 * c,
                            rng.next32());
    };

    w.check = [](const SparseMemory &mem) {
        Rng rng(0x1ee1a);
        std::vector<u32> boards(kLlPlayouts * kLlBoard);
        for (auto &v : boards)
            v = rng.next32();
        for (u32 p = 0; p < kLlPlayouts; ++p) {
            u32 state = kLlSeedBase + p;
            u32 score = 0;
            for (u32 s = 0; s < kLlSteps; ++s) {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                const u32 cell = state & (kLlBoard - 1);
                u32 &v = boards[p * kLlBoard + cell];
                v ^= state;
                if (v & 3)
                    ++score;
            }
            if (mem.read32(kLlOut + 4 * p) != score)
                return false;
        }
        return true;
    };
    return w;
}

// ---------------------------------------------------------------------
// nab: molecular-dynamics bonded forces (2 neighbors per atom)
// ---------------------------------------------------------------------

constexpr u32 kNabAtoms = 768;
constexpr Addr kNabPos = 0x100000;   // x,y,z,q per atom (stride 16)
constexpr Addr kNabNbr = 0x110000;   // 2 neighbor indices per atom
constexpr Addr kNabF = 0x120000;     // force magnitude sums (1 float)

Workload
makeNab()
{
    Workload w;
    w.name = "nab";
    w.suite = "spec";
    w.data_ranges = {{kNabPos, 0x10000},
                     {kNabNbr, 0x10000},
                     {kNabF, 0x10000}};
    w.description = "molecular-dynamics bonded interactions: distance "
                    "+ softened Coulomb for 2 bonds per atom";
    w.profile = Profile::Compute;

    const std::string prologue =
        "_start:\n"
        "    li s4, " + std::to_string(kNabPos) + "\n" +
        "    li s5, " + std::to_string(kNabNbr) + "\n" +
        "    li s6, " + std::to_string(kNabF) + "\n" +
        "    li t1, 0x3dcccccd\n"   // eps 0.1f
        "    fmv.w.x f15, t1\n" +
        partitionBounds(kNabAtoms);

    // One bonded interaction: neighbor index in t2; accumulates fa0.
    // Expects own position in f16/f17/f18.
    const std::string bond = R"(
    slli t3, t2, 4
    add t3, t3, s4
    flw ft0, 0(t3)
    flw ft1, 4(t3)
    flw ft2, 8(t3)
    flw ft3, 12(t3)
    fsub.s ft0, ft0, f16
    fsub.s ft1, ft1, f17
    fsub.s ft2, ft2, f18
    fmul.s ft4, ft0, ft0
    fmadd.s ft4, ft1, ft1, ft4
    fmadd.s ft4, ft2, ft2, ft4
    fsqrt.s ft5, ft4
    fadd.s ft4, ft4, f15
    fdiv.s ft3, ft3, ft4
    fmadd.s fa0, ft3, ft5, fa0
)";

    const std::string atom_body =
        "    slli t0, s9, 4\n"
        "    add t0, t0, s4\n"
        "    flw f16, 0(t0)\n"
        "    flw f17, 4(t0)\n"
        "    flw f18, 8(t0)\n"
        "    fmv.w.x fa0, x0\n"
        "    slli t0, s9, 3\n"
        "    add t0, t0, s5\n"
        "    lw t2, 0(t0)\n" +
        bond +
        "    lw t2, 4(t0)\n" + bond +
        "    slli t0, s9, 2\n"
        "    add t0, t0, s6\n"
        "    fsw fa0, 0(t0)\n";

    w.asm_serial = prologue + R"(
    mv s9, s2
aloop:
)" + atom_body + R"(
    addi s9, s9, 1
    bne s9, s3, aloop
    ebreak
)";

    w.asm_simt = prologue + R"(
    mv s10, s2
    li s11, 1
head:
    simt_s s10, s11, s3, 1
    mv s9, s10
)" + atom_body + R"(
    simt_e s10, s3, head
    ebreak
)";

    w.init = [](SparseMemory &mem) {
        Rng rng(0x0ab0ab);
        for (u32 a = 0; a < kNabAtoms; ++a) {
            for (u32 d = 0; d < 3; ++d)
                writeF32(mem, kNabPos + 16 * a + 4 * d,
                         rng.uniform() * 6.0f - 3.0f);
            writeF32(mem, kNabPos + 16 * a + 12,
                     rng.uniform() * 2.0f - 1.0f);
            mem.write32(kNabNbr + 8 * a,
                        static_cast<u32>(rng.below(kNabAtoms)));
            mem.write32(kNabNbr + 8 * a + 4,
                        static_cast<u32>(rng.below(kNabAtoms)));
        }
    };

    w.check = [](const SparseMemory &mem) {
        for (u32 a = 0; a < kNabAtoms; ++a) {
            const float xi = readF32(mem, kNabPos + 16 * a);
            const float yi = readF32(mem, kNabPos + 16 * a + 4);
            const float zi = readF32(mem, kNabPos + 16 * a + 8);
            float acc = 0.0f;
            for (u32 b = 0; b < 2; ++b) {
                const u32 n = mem.read32(kNabNbr + 8 * a + 4 * b);
                const float dx = readF32(mem, kNabPos + 16 * n) - xi;
                const float dy =
                    readF32(mem, kNabPos + 16 * n + 4) - yi;
                const float dz =
                    readF32(mem, kNabPos + 16 * n + 8) - zi;
                const float q = readF32(mem, kNabPos + 16 * n + 12);
                float r2 = dx * dx;
                r2 = std::fmaf(dy, dy, r2);
                r2 = std::fmaf(dz, dz, r2);
                const float r = std::sqrt(r2);
                acc = std::fmaf(q / (r2 + 0.1f), r, acc);
            }
            if (!closeF32(readF32(mem, kNabF + 4 * a), acc))
                return false;
        }
        return true;
    };
    return w;
}

// ---------------------------------------------------------------------
// xz: hash-chain match finder over per-tile data chunks
// ---------------------------------------------------------------------

constexpr u32 kXzTiles = 48;
constexpr u32 kXzChunk = 1024;       // bytes per tile
constexpr u32 kXzPosPerTile = 48;
constexpr u32 kXzTableEntries = 256;
constexpr u32 kXzMaxMatch = 16;
constexpr Addr kXzData = 0x100000;   // tile chunks, contiguous
constexpr Addr kXzTable = 0x140000;  // per-tile hash tables
constexpr Addr kXzLen = 0x150000;    // match length per position

Workload
makeXz()
{
    Workload w;
    w.name = "xz";
    w.suite = "spec";
    w.data_ranges = {{kXzData, 0x40000},
                     {kXzTable, 0x10000},
                     {kXzLen, 0x10000}};
    w.description = "LZ match finder: hash-table candidate lookup and "
                    "byte-wise match extension over 16 chunks";
    w.profile = Profile::Mixed;

    w.asm_serial = "_start:\n"
                   "    li s4, " + std::to_string(kXzData) + "\n" +
                   "    li s5, " + std::to_string(kXzTable) + "\n" +
                   "    li s6, " + std::to_string(kXzLen) + "\n" +
                   partitionBounds(kXzTiles) + R"(
tile_loop:
    slli t0, s2, 10
    add s7, s4, t0         # chunk base
    slli t0, s2, 10
    add s8, s5, t0         # hash table base (256 x 4B)
    li s9, 0               # position within chunk
pos_loop:
    # h = (data32(pos) * 2654435761) >> 24
    add t0, s7, s9
    lw t1, 0(t0)
    li t2, 0x9e3779b1
    mul t1, t1, t2
    srli t1, t1, 24
    slli t1, t1, 2
    add t1, t1, s8         # &table[h]
    lw t3, 0(t1)           # candidate position
    sw s9, 0(t1)           # table[h] = pos
    li s10, 0              # match length
    bltz t3, nomatch       # empty slot (-1)
    bge t3, s9, nomatch
    add t4, s7, t3         # candidate ptr
    add t5, s7, s9         # current ptr
extend:
    add t0, t4, s10
    lbu t1, 0(t0)
    add t0, t5, s10
    lbu t2, 0(t0)
    bne t1, t2, nomatch
    addi s10, s10, 1
    li t0, )" + std::to_string(kXzMaxMatch) + R"(
    blt s10, t0, extend
nomatch:
    # record length
    slli t0, s2, 7         # tile * 96 entries... (tile * 128 slots)
    slli t1, t0, 1
    add t0, t0, t1         # reserved spacing (tile * 384 bytes)
    add t0, t0, s6
    srli t1, s9, 4         # position / 16 = record index
    slli t1, t1, 2
    add t0, t0, t1
    sw s10, 0(t0)
    addi s9, s9, 16        # stride 16 bytes between probes
    li t0, )" + std::to_string(kXzPosPerTile * 16) + R"(
    blt s9, t0, pos_loop
    addi s2, s2, 1
    blt s2, s3, tile_loop
    ebreak
)";

    w.init = [](SparseMemory &mem) {
        Rng rng(0x7a7a);
        for (u32 t = 0; t < kXzTiles; ++t) {
            // Compressible-ish data: small alphabet with repeats.
            for (u32 i = 0; i < kXzChunk; ++i) {
                u8 byte;
                if (i >= 64 && rng.chance(0.4)) {
                    byte = mem.read8(kXzData + t * kXzChunk + i - 64);
                } else {
                    byte = static_cast<u8>(rng.below(8));
                }
                mem.write8(kXzData + t * kXzChunk + i, byte);
            }
            for (u32 e = 0; e < kXzTableEntries; ++e)
                mem.write32(kXzTable + t * 1024 + 4 * e, 0xffffffffu);
        }
    };

    w.check = [](const SparseMemory &mem) {
        for (u32 t = 0; t < kXzTiles; ++t) {
            std::vector<i32> table(kXzTableEntries, -1);
            const Addr chunk = kXzData + t * kXzChunk;
            for (u32 rec = 0; rec < kXzPosPerTile; ++rec) {
                const u32 pos = rec * 16;
                const u32 word = mem.read32(chunk + pos);
                const u32 h = (word * 0x9e3779b1u) >> 24;
                const i32 cand = table[h];
                table[h] = static_cast<i32>(pos);
                u32 len = 0;
                if (cand >= 0 && cand < static_cast<i32>(pos)) {
                    while (len < kXzMaxMatch &&
                           mem.read8(chunk + static_cast<u32>(cand) +
                                     len) ==
                               mem.read8(chunk + pos + len))
                        ++len;
                }
                if (mem.read32(kXzLen + t * 384 + 4 * rec) != len)
                    return false;
            }
        }
        return true;
    };
    return w;
}

// ---------------------------------------------------------------------
// imagick: separable 5-tap convolution (two horizontal passes)
// ---------------------------------------------------------------------

constexpr u32 kImW = 64;  // image width
constexpr u32 kImH = 48;  // image height (rows are partitioned)
constexpr Addr kImIn = 0x100000;
constexpr Addr kImTmp = 0x108000;
constexpr Addr kImOut = 0x110000;
constexpr float kImTaps[5] = {0.0625f, 0.25f, 0.375f, 0.25f, 0.0625f};

Workload
makeImagick()
{
    Workload w;
    w.name = "imagick";
    w.suite = "spec";
    w.data_ranges = {{kImIn, 0x8000},
                     {kImTmp, 0x8000},
                     {kImOut, 0x10000}};
    w.description = "image blur: two 5-tap separable convolution "
                    "passes over a " + std::to_string(kImW) + "x" +
                    std::to_string(kImH) + " float image";
    w.profile = Profile::Compute;

    // Taps in f20..f24.
    std::string prologue = "_start:\n";
    const u32 tap_bits[5] = {0x3d800000, 0x3e800000, 0x3ec00000,
                             0x3e800000, 0x3d800000};
    for (u32 k = 0; k < 5; ++k) {
        prologue += "    li t1, " + std::to_string(tap_bits[k]) + "\n";
        prologue +=
            "    fmv.w.x f" + std::to_string(20 + k) + ", t1\n";
    }
    prologue += partitionBounds(kImH);

    // Convolve one pixel: t3 = &src[row][col]; t4 = &dst[row][col].
    const std::string pixel = R"(
    flw ft0, -8(t3)
    flw ft1, -4(t3)
    flw ft2, 0(t3)
    flw ft3, 4(t3)
    flw ft4, 8(t3)
    fmul.s ft5, ft0, f20
    fmadd.s ft5, ft1, f21, ft5
    fmadd.s ft5, ft2, f22, ft5
    fmadd.s ft5, ft3, f23, ft5
    fmadd.s ft5, ft4, f24, ft5
    fsw ft5, 0(t4)
)";

    auto pass = [&](const char *label, Addr src, Addr dst) {
        return std::string(label) + ":\n" +
               "    mv s7, s2\n" + label + "_row:\n" +
               "    slli t0, s7, 8\n"
               "    addi t0, t0, 8\n"   // first col with full support
               "    li t5, " + std::to_string(src) + "\n" +
               "    add t3, t5, t0\n"
               "    li t5, " + std::to_string(dst) + "\n" +
               "    add t4, t5, t0\n"
               "    li t6, " + std::to_string(kImW - 4) + "\n" +
               label + "_col:\n" + pixel +
               "    addi t3, t3, 4\n"
               "    addi t4, t4, 4\n"
               "    addi t6, t6, -1\n"
               "    bnez t6, " + label + "_col\n" +
               "    addi s7, s7, 1\n"
               "    bne s7, s3, " + label + "_row\n";
    };

    w.asm_serial = prologue + pass("p1", kImIn, kImTmp) +
                   pass("p2", kImTmp, kImOut) + "    ebreak\n";

    // SIMT: each row's pixel sweep is a simt region (rc = col offset).
    auto simt_pass = [&](const char *label, Addr src, Addr dst) {
        const std::string lbl(label);
        return "    mv s7, s2\n" + lbl + "_row:\n"
               "    slli t0, s7, 8\n"
               "    addi t0, t0, 8\n"
               "    li t5, " + std::to_string(src) + "\n" +
               "    add a5, t5, t0\n"
               "    li t5, " + std::to_string(dst) + "\n" +
               "    add a6, t5, t0\n"
               "    li a2, 0\n"
               "    li a3, 4\n"
               "    li a4, " + std::to_string((kImW - 4) * 4) + "\n" +
               lbl + "_head:\n"
               "    simt_s a2, a3, a4, 1\n"
               "    add t3, a5, a2\n"
               "    add t4, a6, a2\n" + pixel +
               "    simt_e a2, a4, " + lbl + "_head\n" +
               "    addi s7, s7, 1\n"
               "    bne s7, s3, " + lbl + "_row\n";
    };

    w.asm_simt = prologue + simt_pass("p1", kImIn, kImTmp) +
                 simt_pass("p2", kImTmp, kImOut) + "    ebreak\n";

    w.init = [](SparseMemory &mem) {
        Rng rng(0x1439);
        for (u32 i = 0; i < kImH * kImW; ++i)
            writeF32(mem, kImIn + 4 * i, rng.uniform() * 255.0f);
    };

    w.check = [](const SparseMemory &mem) {
        // Reference both passes with identical arithmetic order.
        std::vector<float> tmp(kImH * kImW, 0.0f);
        for (u32 r = 0; r < kImH; ++r) {
            for (u32 c = 2; c < kImW - 2; ++c) {
                float acc = readF32(mem, kImIn + 4 * (r * kImW + c - 2)) *
                            kImTaps[0];
                for (u32 k = 1; k < 5; ++k)
                    acc = std::fmaf(
                        readF32(mem,
                                kImIn + 4 * (r * kImW + c - 2 + k)),
                        kImTaps[k], acc);
                tmp[r * kImW + c] = acc;
            }
        }
        for (u32 r = 0; r < kImH; ++r) {
            for (u32 c = 4; c < kImW - 4; ++c) {
                float acc = tmp[r * kImW + c - 2] * kImTaps[0];
                for (u32 k = 1; k < 5; ++k)
                    acc = std::fmaf(tmp[r * kImW + c - 2 + k],
                                    kImTaps[k], acc);
                if (!closeF32(readF32(mem, kImOut + 4 * (r * kImW + c)),
                              acc))
                    return false;
            }
        }
        return true;
    };
    return w;
}

} // namespace diag::workloads
