/**
 * @file
 * Rodinia-class workloads, part A: backprop, bfs, heartwall, hotspot.
 * Each kernel reproduces the dominant loop structure of its Rodinia
 * namesake (paper §7.2.1) on inputs sized for tractable RTL-class
 * simulation, the same methodology the paper uses (§7.1: reduced
 * inputs, projected results).
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
// backprop: neural-net layer forward pass (matrix-vector + activation)
// ---------------------------------------------------------------------

constexpr u32 kBpIn = 16;
constexpr u32 kBpOut = 1536;
constexpr Addr kBpW = 0x100000;     // weights [out][in], row stride 64B
constexpr Addr kBpInV = 0x120000;   // input vector
constexpr Addr kBpOutV = 0x121000;  // output vector
constexpr Addr kBpRes = 0x130000;   // per-thread partial sums

static std::string
backpropTaps()
{
    // 16 unrolled weight taps against the preloaded input registers.
    std::string taps;
    for (u32 i = 0; i < kBpIn; ++i) {
        taps += "    flw ft0, " + std::to_string(4 * i) + "(t0)\n";
        taps += "    fmadd.s fa0, ft0, f" + std::to_string(16 + i) +
                ", fa0\n";
    }
    return taps;
}

static std::string
backpropPrologue()
{
    std::string s;
    s += "_start:\n";
    s += "    li s4, " + std::to_string(kBpW) + "\n";
    s += "    li s5, " + std::to_string(kBpOutV) + "\n";
    s += "    li t0, " + std::to_string(kBpInV) + "\n";
    for (u32 i = 0; i < kBpIn; ++i)
        s += "    flw f" + std::to_string(16 + i) + ", " +
             std::to_string(4 * i) + "(t0)\n";
    s += "    li t1, 0x3f800000\n";
    s += "    fmv.w.x f15, t1\n";  // 1.0f
    s += partitionBounds(kBpOut);
    return s;
}

static std::string
backpropEpilogue()
{
    return R"(
    # per-thread checksum over this thread's output block
    fmv.w.x fa2, x0
    mv s7, s2
csum:
    slli t1, s7, 2
    add t1, t1, s5
    flw ft0, 0(t1)
    fadd.s fa2, fa2, ft0
    addi s7, s7, 1
    bne s7, s3, csum
    li t2, )" + std::to_string(kBpRes) + R"(
    slli t3, a0, 2
    add t2, t2, t3
    fsw fa2, 0(t2)
    ebreak
)";
}

Workload
makeBackprop()
{
    Workload w;
    w.name = "backprop";
    w.suite = "rodinia";
    w.data_ranges = {{kBpW, 0x20000},
                     {kBpInV, 0x1000},
                     {kBpOutV, 0xf000},
                     {kBpRes, 0x10000}};
    w.description =
        "neural-net layer forward pass: 1536x16 matrix-vector FMA with "
        "rational-sigmoid activation";
    w.profile = Profile::Compute;

    w.asm_serial = backpropPrologue() + R"(
    mv s7, s2
jloop:
    slli t0, s7, 6
    add t0, t0, s4
    fmv.w.x fa0, x0
)" + backpropTaps() + R"(
    fabs.s fa1, fa0
    fadd.s fa1, fa1, f15
    fdiv.s fa0, fa0, fa1
    slli t1, s7, 2
    add t1, t1, s5
    fsw fa0, 0(t1)
    addi s7, s7, 1
    bne s7, s3, jloop
)" + backpropEpilogue();

    w.asm_simt = backpropPrologue() + R"(
    slli t3, s2, 2
    slli t5, s3, 2
    li t4, 4
head:
    simt_s t3, t4, t5, 1
    slli t0, t3, 4
    add t0, t0, s4
    fmv.w.x fa0, x0
)" + backpropTaps() + R"(
    fabs.s fa1, fa0
    fadd.s fa1, fa1, f15
    fdiv.s fa0, fa0, fa1
    add t1, t3, s5
    fsw fa0, 0(t1)
    simt_e t3, t5, head
)" + backpropEpilogue();

    w.init = [](SparseMemory &mem) {
        Rng rng(0xbac0bac0);
        for (u32 j = 0; j < kBpOut; ++j)
            for (u32 i = 0; i < kBpIn; ++i)
                writeF32(mem, kBpW + j * 64 + i * 4,
                         rng.uniform() * 2.0f - 1.0f);
        for (u32 i = 0; i < kBpIn; ++i)
            writeF32(mem, kBpInV + 4 * i, rng.uniform());
    };

    w.check = [](const SparseMemory &mem) {
        Rng rng(0xbac0bac0);
        std::vector<float> weights(kBpOut * kBpIn);
        for (auto &v : weights)
            v = rng.uniform() * 2.0f - 1.0f;
        float in[kBpIn];
        for (float &v : in)
            v = rng.uniform();
        for (u32 j = 0; j < kBpOut; ++j) {
            float acc = 0.0f;
            for (u32 i = 0; i < kBpIn; ++i)
                acc = std::fmaf(weights[j * kBpIn + i], in[i], acc);
            const float want = acc / (std::fabs(acc) + 1.0f);
            if (!closeF32(readF32(mem, kBpOutV + 4 * j), want))
                return false;
        }
        return true;
    };
    return w;
}

// ---------------------------------------------------------------------
// bfs: level-synchronous breadth-first search over tiled CSR graphs
// ---------------------------------------------------------------------

constexpr u32 kBfsTiles = 48;
constexpr u32 kBfsTileNodes = 32;
constexpr u32 kBfsNodes = kBfsTiles * kBfsTileNodes;
constexpr u32 kBfsExtraPerNode = 3;
constexpr Addr kBfsRow = 0x100000;  // row offsets, kBfsNodes+1 words
constexpr Addr kBfsCol = 0x104000;  // edge targets
constexpr Addr kBfsDist = 0x110000; // distances (output)

namespace
{

struct BfsGraph
{
    std::vector<u32> row;
    std::vector<u32> col;
};

BfsGraph
bfsGraph()
{
    // Tiles are independent components: a ring through the tile's
    // nodes plus random intra-tile shortcuts.
    Rng rng(0xbf5bf5);
    BfsGraph g;
    std::vector<std::vector<u32>> adj(kBfsNodes);
    for (u32 t = 0; t < kBfsTiles; ++t) {
        const u32 base = t * kBfsTileNodes;
        for (u32 v = 0; v < kBfsTileNodes; ++v) {
            adj[base + v].push_back(base + (v + 1) % kBfsTileNodes);
            for (u32 e = 0; e < kBfsExtraPerNode; ++e)
                adj[base + v].push_back(
                    base + static_cast<u32>(rng.below(kBfsTileNodes)));
        }
    }
    for (u32 v = 0; v < kBfsNodes; ++v) {
        g.row.push_back(static_cast<u32>(g.col.size()));
        for (u32 n : adj[v])
            g.col.push_back(n);
    }
    g.row.push_back(static_cast<u32>(g.col.size()));
    return g;
}

} // namespace

Workload
makeBfs()
{
    Workload w;
    w.name = "bfs";
    w.suite = "rodinia";
    w.data_ranges = {{kBfsRow, 0x4000},
                     {kBfsCol, 0xc000},
                     {kBfsDist, 0x10000}};
    w.description = "level-synchronous BFS over " +
                    std::to_string(kBfsTiles) +
                    " independent CSR graph tiles (" +
                    std::to_string(kBfsNodes) + " nodes)";
    w.profile = Profile::Memory;

    w.asm_serial = "_start:\n"
                   "    li s4, " + std::to_string(kBfsRow) + "\n" +
                   "    li s5, " + std::to_string(kBfsCol) + "\n" +
                   "    li s6, " + std::to_string(kBfsDist) + "\n" +
                   partitionBounds(kBfsTiles) + R"(
tile_loop:
    li t0, )" + std::to_string(kBfsTileNodes) + R"(
    mul s9, s2, t0
    add s10, s9, t0
    li s11, 0
level_loop:
    li t5, 0
    mv t6, s9
vloop:
    slli t0, t6, 2
    add t0, t0, s6
    lw t1, 0(t0)
    bne t1, s11, vnext
    slli t0, t6, 2
    add t0, t0, s4
    lw t2, 0(t0)
    lw t3, 4(t0)
    bge t2, t3, vnext
eloop:
    slli t0, t2, 2
    add t0, t0, s5
    lw t4, 0(t0)
    slli t0, t4, 2
    add t0, t0, s6
    lw t1, 0(t0)
    bgez t1, edone
    addi t1, s11, 1
    sw t1, 0(t0)
    li t5, 1
edone:
    addi t2, t2, 1
    blt t2, t3, eloop
vnext:
    addi t6, t6, 1
    blt t6, s10, vloop
    addi s11, s11, 1
    bnez t5, level_loop
    addi s2, s2, 1
    blt s2, s3, tile_loop
    ebreak
)";

    w.init = [](SparseMemory &mem) {
        const BfsGraph g = bfsGraph();
        for (size_t i = 0; i < g.row.size(); ++i)
            mem.write32(kBfsRow + 4 * static_cast<Addr>(i), g.row[i]);
        for (size_t i = 0; i < g.col.size(); ++i)
            mem.write32(kBfsCol + 4 * static_cast<Addr>(i), g.col[i]);
        for (u32 v = 0; v < kBfsNodes; ++v)
            mem.write32(kBfsDist + 4 * v,
                        v % kBfsTileNodes == 0 ? 0 : 0xffffffffu);
    };

    w.check = [](const SparseMemory &mem) {
        const BfsGraph g = bfsGraph();
        // Reference BFS.
        std::vector<i32> want(kBfsNodes, -1);
        for (u32 t = 0; t < kBfsTiles; ++t) {
            std::vector<u32> frontier{t * kBfsTileNodes};
            want[t * kBfsTileNodes] = 0;
            i32 level = 0;
            while (!frontier.empty()) {
                std::vector<u32> next;
                for (u32 v : frontier) {
                    for (u32 e = g.row[v]; e < g.row[v + 1]; ++e) {
                        const u32 n = g.col[e];
                        if (want[n] < 0) {
                            want[n] = level + 1;
                            next.push_back(n);
                        }
                    }
                }
                frontier = std::move(next);
                ++level;
            }
        }
        for (u32 v = 0; v < kBfsNodes; ++v) {
            if (static_cast<i32>(mem.read32(kBfsDist + 4 * v)) !=
                want[v])
                return false;
        }
        return true;
    };
    return w;
}

// ---------------------------------------------------------------------
// heartwall: template SAD tracking over an image
// ---------------------------------------------------------------------

constexpr u32 kHwPos = 192;
constexpr u32 kHwImgW = 64;
constexpr u32 kHwTpl = 8;
constexpr Addr kHwImg = 0x100000;    // 64x64 floats
constexpr Addr kHwTplA = 0x108000;   // 8x8 floats
constexpr Addr kHwPosA = 0x109000;   // (x, y) word pairs
constexpr Addr kHwScore = 0x10a000;  // one float per position

Workload
makeHeartwall()
{
    Workload w;
    w.name = "heartwall";
    w.suite = "rodinia";
    w.data_ranges = {{kHwImg, 0x8000},
                     {kHwTplA, 0x1000},
                     {kHwPosA, 0x1000},
                     {kHwScore, 0x10000}};
    w.description = "template-matching SAD of an 8x8 template at 192 "
                    "image positions";
    w.profile = Profile::Compute;

    std::string row_body;
    for (u32 c = 0; c < kHwTpl; ++c) {
        row_body += "    flw ft0, " + std::to_string(4 * c) + "(t3)\n";
        row_body += "    flw ft1, " + std::to_string(4 * c) + "(t4)\n";
        row_body += "    fsub.s ft0, ft0, ft1\n";
        row_body += "    fabs.s ft0, ft0\n";
        row_body += "    fadd.s fa0, fa0, ft0\n";
    }

    w.asm_serial = "_start:\n"
                   "    li s4, " + std::to_string(kHwImg) + "\n" +
                   "    li s5, " + std::to_string(kHwTplA) + "\n" +
                   "    li s6, " + std::to_string(kHwPosA) + "\n" +
                   "    li s7, " + std::to_string(kHwScore) + "\n" +
                   partitionBounds(kHwPos) + R"(
    mv s9, s2
ploop:
    slli t0, s9, 3
    add t0, t0, s6
    lw t1, 0(t0)          # x
    lw t2, 4(t0)          # y
    slli t2, t2, 8        # y * 64 * 4
    slli t1, t1, 2
    add t3, s4, t2
    add t3, t3, t1        # image window origin
    mv t4, s5             # template row
    fmv.w.x fa0, x0
    li t5, )" + std::to_string(kHwTpl) + R"(
rloop:
)" + row_body + R"(
    addi t3, t3, 256      # next image row
    addi t4, t4, 32       # next template row
    addi t5, t5, -1
    bnez t5, rloop
    slli t0, s9, 2
    add t0, t0, s7
    fsw fa0, 0(t0)
    addi s9, s9, 1
    bne s9, s3, ploop
    ebreak
)";

    w.init = [](SparseMemory &mem) {
        Rng rng(0x4ea87);
        for (u32 i = 0; i < kHwImgW * kHwImgW; ++i)
            writeF32(mem, kHwImg + 4 * i, rng.uniform());
        for (u32 i = 0; i < kHwTpl * kHwTpl; ++i)
            writeF32(mem, kHwTplA + 4 * i, rng.uniform());
        for (u32 p = 0; p < kHwPos; ++p) {
            mem.write32(kHwPosA + 8 * p,
                        static_cast<u32>(rng.below(kHwImgW - kHwTpl)));
            mem.write32(kHwPosA + 8 * p + 4,
                        static_cast<u32>(rng.below(kHwImgW - kHwTpl)));
        }
    };

    w.check = [](const SparseMemory &mem) {
        for (u32 p = 0; p < kHwPos; ++p) {
            const u32 x = mem.read32(kHwPosA + 8 * p);
            const u32 y = mem.read32(kHwPosA + 8 * p + 4);
            float want = 0.0f;
            for (u32 r = 0; r < kHwTpl; ++r) {
                for (u32 c = 0; c < kHwTpl; ++c) {
                    const float img = readF32(
                        mem,
                        kHwImg + 4 * ((y + r) * kHwImgW + x + c));
                    const float tpl =
                        readF32(mem, kHwTplA + 4 * (r * kHwTpl + c));
                    want += std::fabs(img - tpl);
                }
            }
            if (!closeF32(readF32(mem, kHwScore + 4 * p), want))
                return false;
        }
        return true;
    };
    return w;
}

// ---------------------------------------------------------------------
// hotspot: 5-point stencil thermal simulation over independent tiles
// ---------------------------------------------------------------------

constexpr u32 kHsTiles = 48;
constexpr u32 kHsRows = 6;    // per tile, including halo rows
constexpr u32 kHsCols = 32;   // including halo columns
constexpr u32 kHsSteps = 2;
constexpr u32 kHsTileBytes = kHsRows * kHsCols * 4;  // 0x500
constexpr Addr kHsT0 = 0x100000;
constexpr Addr kHsT1 = 0x110000;
constexpr Addr kHsPow = 0x120000;

Workload
makeHotspot()
{
    Workload w;
    w.name = "hotspot";
    w.suite = "rodinia";
    w.data_ranges = {{kHsT0, 0x10000},
                     {kHsT1, 0x10000},
                     {kHsPow, 0x10000}};
    w.description = "5-point stencil thermal simulation, " +
                    std::to_string(kHsTiles) + " tiles of " +
                    std::to_string(kHsRows) + "x" +
                    std::to_string(kHsCols) + ", " +
                    std::to_string(kHsSteps) +
                    " time steps, double buffered";
    w.profile = Profile::Compute;

    // Coefficients: cc = 0.1 (diffusion), cp = 0.05 (power), -4.0.
    const std::string prologue =
        "_start:\n"
        "    li t1, 0x3dcccccd\n"   // 0.1f
        "    fmv.w.x f13, t1\n"
        "    li t1, 0x3d4ccccd\n"   // 0.05f
        "    fmv.w.x f12, t1\n"
        "    li t1, 0xc0800000\n"   // -4.0f
        "    fmv.w.x f11, t1\n" +
        partitionBounds(kHsTiles);

    // Shared per-cell stencil body. Expects t3 = &src[cell],
    // t4 = &dst[cell], t5 = &power[cell]; clobbers ft0..ft5.
    const std::string cell =
        "    flw ft0, 0(t3)\n"                        // t
        "    flw ft1, -128(t3)\n"                     // north (row-32)
        "    flw ft2, 128(t3)\n"                      // south
        "    flw ft3, -4(t3)\n"                       // west
        "    flw ft4, 4(t3)\n"                        // east
        "    fadd.s ft1, ft1, ft2\n"
        "    fadd.s ft1, ft1, ft3\n"
        "    fadd.s ft1, ft1, ft4\n"
        "    fmadd.s ft1, f11, ft0, ft1\n"            // sum - 4t
        "    flw ft5, 0(t5)\n"
        "    fmadd.s ft0, f13, ft1, ft0\n"            // t + cc*sum
        "    fmadd.s ft0, f12, ft5, ft0\n"            // + cp*p
        "    fsw ft0, 0(t4)\n";

    w.asm_serial = prologue + R"(
tile_loop:
    li t0, )" + std::to_string(kHsTileBytes) + R"(
    mul s9, s2, t0
    li s4, )" + std::to_string(kHsT0) + R"(
    add s4, s4, s9         # src tile
    li s5, )" + std::to_string(kHsT1) + R"(
    add s5, s5, s9         # dst tile
    li s6, )" + std::to_string(kHsPow) + R"(
    add s6, s6, s9         # power tile
    li s10, )" + std::to_string(kHsSteps) + R"(
step_loop:
    li s11, 1              # row (interior)
row_loop:
    slli t0, s11, 7        # row * 32 * 4
    addi t0, t0, 4         # first interior column
    add t3, s4, t0
    add t4, s5, t0
    add t5, s6, t0
    li t6, )" + std::to_string(kHsCols - 2) + R"(
col_loop:
)" + cell + R"(
    addi t3, t3, 4
    addi t4, t4, 4
    addi t5, t5, 4
    addi t6, t6, -1
    bnez t6, col_loop
    addi s11, s11, 1
    li t0, )" + std::to_string(kHsRows - 1) + R"(
    bne s11, t0, row_loop
    # swap src/dst
    mv t0, s4
    mv s4, s5
    mv s5, t0
    addi s10, s10, -1
    bnez s10, step_loop
    addi s2, s2, 1
    blt s2, s3, tile_loop
    ebreak
)";

    // SIMT variant: each (tile, step, row) interior column sweep is a
    // simt region; rc walks the column byte offset within the row.
    w.asm_simt = prologue + R"(
tile_loop:
    li t0, )" + std::to_string(kHsTileBytes) + R"(
    mul s9, s2, t0
    li s4, )" + std::to_string(kHsT0) + R"(
    add s4, s4, s9
    li s5, )" + std::to_string(kHsT1) + R"(
    add s5, s5, s9
    li s6, )" + std::to_string(kHsPow) + R"(
    add s6, s6, s9
    li s10, )" + std::to_string(kHsSteps) + R"(
step_loop:
    li s11, 1                  # interior row
row_loop:
    slli t0, s11, 7            # row * 32 cols * 4B
    addi t0, t0, 4             # first interior column
    add a5, s4, t0             # src row
    add a6, s5, t0             # dst row
    add a7, s6, t0             # power row
    li a2, 0                   # rc: column byte offset
    li a3, 4
    li a4, )" + std::to_string((kHsCols - 2) * 4) + R"(
head:
    simt_s a2, a3, a4, 1
    add t3, a5, a2
    add t4, a6, a2
    add t5, a7, a2
)" + cell + R"(
    simt_e a2, a4, head
    addi s11, s11, 1
    li t0, )" + std::to_string(kHsRows - 1) + R"(
    bne s11, t0, row_loop
    mv t0, s4
    mv s4, s5
    mv s5, t0
    addi s10, s10, -1
    bnez s10, step_loop
    addi s2, s2, 1
    blt s2, s3, tile_loop
    ebreak
)";

    w.init = [](SparseMemory &mem) {
        Rng rng(0x407507);
        for (u32 t = 0; t < kHsTiles; ++t) {
            const Addr base = t * kHsTileBytes;
            for (u32 i = 0; i < kHsRows * kHsCols; ++i) {
                writeF32(mem, kHsT0 + base + 4 * i,
                         300.0f + 10.0f * rng.uniform());
                writeF32(mem, kHsT1 + base + 4 * i, 0.0f);
                writeF32(mem, kHsPow + base + 4 * i, rng.uniform());
            }
        }
    };

    w.check = [](const SparseMemory &mem) {
        // Reference: same arithmetic order as the kernel.
        Rng rng(0x407507);
        const u32 cells = kHsRows * kHsCols;
        std::vector<float> src(kHsTiles * cells);
        std::vector<float> pow_in(kHsTiles * cells);
        for (u32 t = 0; t < kHsTiles; ++t) {
            for (u32 i = 0; i < cells; ++i) {
                src[t * cells + i] = 300.0f + 10.0f * rng.uniform();
                pow_in[t * cells + i] = rng.uniform();
            }
        }
        std::vector<float> dst(kHsTiles * cells, 0.0f);
        for (u32 t = 0; t < kHsTiles; ++t) {
            float *s = &src[t * cells];
            float *d = &dst[t * cells];
            const float *p = &pow_in[t * cells];
            for (u32 step = 0; step < kHsSteps; ++step) {
                for (u32 r = 1; r + 1 < kHsRows; ++r) {
                    for (u32 c = 1; c + 1 < kHsCols; ++c) {
                        const u32 i = r * kHsCols + c;
                        float sum = s[i - kHsCols] + s[i + kHsCols];
                        sum += s[i - 1];
                        sum += s[i + 1];
                        sum = std::fmaf(-4.0f, s[i], sum);
                        float v = std::fmaf(0.1f, sum, s[i]);
                        v = std::fmaf(0.05f, p[i], v);
                        d[i] = v;
                    }
                }
                std::swap(s, d);
            }
        }
        // After 3 steps (odd), results live in the T1 buffer... the
        // swapped pointer: s now points at the latest data.
        for (u32 t = 0; t < kHsTiles; ++t) {
            const Addr base =
                (kHsSteps % 2 ? kHsT1 : kHsT0) + t * kHsTileBytes;
            const float *latest =
                (kHsSteps % 2) ? &dst[t * cells] : &src[t * cells];
            // After an odd number of steps the final values are in the
            // dst buffer of the last step. Because of the swap logic,
            // pick whichever holds the freshest interior data.
            for (u32 r = 1; r + 1 < kHsRows; ++r) {
                for (u32 c = 1; c + 1 < kHsCols; ++c) {
                    const u32 i = r * kHsCols + c;
                    if (!closeF32(readF32(mem, base + 4 * i),
                                  latest[i]))
                        return false;
                }
            }
        }
        return true;
    };
    return w;
}

} // namespace diag::workloads
