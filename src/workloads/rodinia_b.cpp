/**
 * @file
 * Rodinia-class workloads, part B: kmeans, lavamd, lud, nn.
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
// kmeans: nearest-centroid assignment (2-D points, 4 centroids)
// ---------------------------------------------------------------------

constexpr u32 kKmPoints = 768;
constexpr u32 kKmK = 4;
constexpr Addr kKmPts = 0x100000;     // x,y float pairs (stride 8)
constexpr Addr kKmCent = 0x104000;    // 4 centroid pairs
constexpr Addr kKmAssign = 0x105000;  // best-centroid index per point

/** Distance + argmin body. Expects point in ft0/ft1; result in t2. */
static std::string
kmeansBody()
{
    std::string s;
    s += "    fsub.s ft2, ft0, f16\n"
         "    fsub.s ft3, ft1, f17\n"
         "    fmul.s fa0, ft2, ft2\n"
         "    fmadd.s fa0, ft3, ft3, fa0\n"
         "    li t2, 0\n";
    for (u32 k = 1; k < kKmK; ++k) {
        const std::string cx = "f" + std::to_string(16 + 2 * k);
        const std::string cy = "f" + std::to_string(17 + 2 * k);
        const std::string skip = "knext" + std::to_string(k);
        s += "    fsub.s ft2, ft0, " + cx + "\n";
        s += "    fsub.s ft3, ft1, " + cy + "\n";
        s += "    fmul.s fa1, ft2, ft2\n";
        s += "    fmadd.s fa1, ft3, ft3, fa1\n";
        s += "    flt.s t3, fa1, fa0\n";
        s += "    beqz t3, " + skip + "\n";
        if (k + 1 < kKmK)  // the last min is never compared again
            s += "    fmv.s fa0, fa1\n";
        s += "    li t2, " + std::to_string(k) + "\n";
        s += skip + ":\n";
    }
    return s;
}

static std::string
kmeansPrologue()
{
    std::string s = "_start:\n";
    s += "    li t0, " + std::to_string(kKmCent) + "\n";
    for (u32 k = 0; k < kKmK; ++k) {
        s += "    flw f" + std::to_string(16 + 2 * k) + ", " +
             std::to_string(8 * k) + "(t0)\n";
        s += "    flw f" + std::to_string(17 + 2 * k) + ", " +
             std::to_string(8 * k + 4) + "(t0)\n";
    }
    s += "    li s4, " + std::to_string(kKmPts) + "\n";
    s += "    li s5, " + std::to_string(kKmAssign) + "\n";
    s += partitionBounds(kKmPoints);
    return s;
}

Workload
makeKmeans()
{
    Workload w;
    w.name = "kmeans";
    w.suite = "rodinia";
    w.data_ranges = {{kKmPts, 0x4000},
                     {kKmCent, 0x1000},
                     {kKmAssign, 0x10000}};
    w.description = "nearest-centroid assignment of 768 2-D points to "
                    "4 centroids (distance + argmin)";
    w.profile = Profile::Compute;

    w.asm_serial = kmeansPrologue() + R"(
    mv s7, s2
ploop:
    slli t0, s7, 3
    add t0, t0, s4
    flw ft0, 0(t0)
    flw ft1, 4(t0)
)" + kmeansBody() + R"(
    slli t0, s7, 2
    add t0, t0, s5
    sw t2, 0(t0)
    addi s7, s7, 1
    bne s7, s3, ploop
    ebreak
)";

    w.asm_simt = kmeansPrologue() + R"(
    slli t4, s2, 2
    slli t6, s3, 2
    li t5, 4
head:
    simt_s t4, t5, t6, 1
    slli t0, t4, 1         # point byte offset = index4 * 2
    add t0, t0, s4
    flw ft0, 0(t0)
    flw ft1, 4(t0)
)" + kmeansBody() + R"(
    add t0, t4, s5
    sw t2, 0(t0)
    simt_e t4, t6, head
    ebreak
)";

    w.init = [](SparseMemory &mem) {
        Rng rng(0x5ee5);
        for (u32 p = 0; p < kKmPoints; ++p) {
            writeF32(mem, kKmPts + 8 * p, rng.uniform() * 10.0f);
            writeF32(mem, kKmPts + 8 * p + 4, rng.uniform() * 10.0f);
        }
        const float cx[kKmK] = {2.0f, 8.0f, 2.5f, 7.5f};
        const float cy[kKmK] = {2.0f, 2.0f, 8.0f, 8.5f};
        for (u32 k = 0; k < kKmK; ++k) {
            writeF32(mem, kKmCent + 8 * k, cx[k]);
            writeF32(mem, kKmCent + 8 * k + 4, cy[k]);
        }
    };

    w.check = [](const SparseMemory &mem) {
        for (u32 p = 0; p < kKmPoints; ++p) {
            const float x = readF32(mem, kKmPts + 8 * p);
            const float y = readF32(mem, kKmPts + 8 * p + 4);
            u32 best = 0;
            float best_d = 1e30f;
            for (u32 k = 0; k < kKmK; ++k) {
                const float dx = x - readF32(mem, kKmCent + 8 * k);
                const float dy = y - readF32(mem, kKmCent + 8 * k + 4);
                const float d = std::fmaf(dy, dy, dx * dx);
                if (d < best_d) {
                    best_d = d;
                    best = k;
                }
            }
            if (mem.read32(kKmAssign + 4 * p) != best)
                return false;
        }
        return true;
    };
    return w;
}

// ---------------------------------------------------------------------
// lavamd: all-pairs particle interactions (cutoff-free N-body step)
// ---------------------------------------------------------------------

constexpr u32 kLmN = 96;
constexpr Addr kLmPart = 0x100000;   // x,y,z,q per particle (stride 16)
constexpr Addr kLmForce = 0x101000;  // fx,fy,fz,pad (stride 16)

Workload
makeLavamd()
{
    Workload w;
    w.name = "lavamd";
    w.suite = "rodinia";
    w.data_ranges = {{kLmPart, 0x1000}, {kLmForce, 0x10000}};
    w.description = "all-pairs particle force accumulation (" +
                    std::to_string(kLmN) +
                    " bodies, inverse-square with softening)";
    w.profile = Profile::Compute;

    w.asm_serial = "_start:\n"
                   "    li s4, " + std::to_string(kLmPart) + "\n" +
                   "    li s5, " + std::to_string(kLmForce) + "\n" +
                   "    li t1, 0x3dcccccd\n"  // softening 0.1f
                   "    fmv.w.x f15, t1\n" +
                   partitionBounds(kLmN) + R"(
    mv s7, s2
iloop:
    slli t0, s7, 4
    add t0, t0, s4
    flw f16, 0(t0)         # xi
    flw f17, 4(t0)         # yi
    flw f18, 8(t0)         # zi
    fmv.w.x fa0, x0        # fx
    fmv.w.x fa1, x0        # fy
    fmv.w.x fa2, x0        # fz
    li s9, 0
jloop:
    slli t0, s9, 4
    add t0, t0, s4
    flw ft0, 0(t0)
    flw ft1, 4(t0)
    flw ft2, 8(t0)
    flw ft3, 12(t0)        # qj
    fsub.s ft0, ft0, f16   # dx
    fsub.s ft1, ft1, f17   # dy
    fsub.s ft2, ft2, f18   # dz
    fmul.s ft4, ft0, ft0
    fmadd.s ft4, ft1, ft1, ft4
    fmadd.s ft4, ft2, ft2, ft4
    fadd.s ft4, ft4, f15   # r2 + eps
    fdiv.s ft4, ft3, ft4   # q / r2
    fmadd.s fa0, ft4, ft0, fa0
    fmadd.s fa1, ft4, ft1, fa1
    fmadd.s fa2, ft4, ft2, fa2
    addi s9, s9, 1
    li t0, )" + std::to_string(kLmN) + R"(
    bne s9, t0, jloop
    slli t0, s7, 4
    add t0, t0, s5
    fsw fa0, 0(t0)
    fsw fa1, 4(t0)
    fsw fa2, 8(t0)
    addi s7, s7, 1
    bne s7, s3, iloop
    ebreak
)";

    w.init = [](SparseMemory &mem) {
        Rng rng(0x1a7a);
        for (u32 p = 0; p < kLmN; ++p) {
            for (u32 d = 0; d < 3; ++d)
                writeF32(mem, kLmPart + 16 * p + 4 * d,
                         rng.uniform() * 4.0f - 2.0f);
            writeF32(mem, kLmPart + 16 * p + 12,
                     rng.uniform() + 0.5f);
        }
    };

    w.check = [](const SparseMemory &mem) {
        for (u32 i = 0; i < kLmN; ++i) {
            const float xi = readF32(mem, kLmPart + 16 * i);
            const float yi = readF32(mem, kLmPart + 16 * i + 4);
            const float zi = readF32(mem, kLmPart + 16 * i + 8);
            float fx = 0.0f;
            float fy = 0.0f;
            float fz = 0.0f;
            for (u32 j = 0; j < kLmN; ++j) {
                const float dx = readF32(mem, kLmPart + 16 * j) - xi;
                const float dy =
                    readF32(mem, kLmPart + 16 * j + 4) - yi;
                const float dz =
                    readF32(mem, kLmPart + 16 * j + 8) - zi;
                const float q = readF32(mem, kLmPart + 16 * j + 12);
                float r2 = dx * dx;
                r2 = std::fmaf(dy, dy, r2);
                r2 = std::fmaf(dz, dz, r2);
                r2 += 0.1f;
                const float s = q / r2;
                fx = std::fmaf(s, dx, fx);
                fy = std::fmaf(s, dy, fy);
                fz = std::fmaf(s, dz, fz);
            }
            if (!closeF32(readF32(mem, kLmForce + 16 * i), fx) ||
                !closeF32(readF32(mem, kLmForce + 16 * i + 4), fy) ||
                !closeF32(readF32(mem, kLmForce + 16 * i + 8), fz))
                return false;
        }
        return true;
    };
    return w;
}

// ---------------------------------------------------------------------
// lud: in-place LU decomposition (Doolittle, no pivoting)
// ---------------------------------------------------------------------

constexpr u32 kLudN = 32;
constexpr Addr kLudA = 0x100000;  // NxN floats, row stride 128B

Workload
makeLud()
{
    Workload w;
    w.name = "lud";
    w.suite = "rodinia";
    w.data_ranges = {{kLudA, 0x10000}};
    w.description = "in-place 32x32 LU decomposition (Doolittle, "
                    "sequential dependences)";
    w.profile = Profile::Compute;
    w.partitionable = false;  // k-loop carries strict dependences

    w.asm_serial = "_start:\n"
                   "    li s4, " + std::to_string(kLudA) + "\n" + R"(
    li s5, 0               # k
kloop:
    # pivot = a[k][k]
    slli t0, s5, 7
    slli t1, s5, 2
    add t0, t0, t1
    add t0, t0, s4
    flw f15, 0(t0)         # pivot
    addi s6, s5, 1         # i = k+1
    li t6, )" + std::to_string(kLudN) + R"(
    bge s6, t6, knext
iloop:
    # a[i][k] /= pivot
    slli t0, s6, 7
    slli t1, s5, 2
    add t0, t0, t1
    add t0, t0, s4         # &a[i][k]
    flw ft0, 0(t0)
    fdiv.s ft0, ft0, f15
    fsw ft0, 0(t0)
    # row update: a[i][j] -= a[i][k] * a[k][j] for j in (k, N)
    addi s7, s5, 1         # j
    slli t2, s6, 7
    add t2, t2, s4         # row i base
    slli t3, s5, 7
    add t3, t3, s4         # row k base
jloop:
    slli t4, s7, 2
    add t5, t2, t4
    add t4, t3, t4
    flw ft1, 0(t5)
    flw ft2, 0(t4)
    fnmsub.s ft1, ft0, ft2, ft1   # ft1 - ft0*ft2
    fsw ft1, 0(t5)
    addi s7, s7, 1
    blt s7, t6, jloop
    addi s6, s6, 1
    blt s6, t6, iloop
knext:
    addi s5, s5, 1
    addi t0, t6, -1
    blt s5, t0, kloop
    ebreak
)";

    w.init = [](SparseMemory &mem) {
        Rng rng(0x10d);
        for (u32 i = 0; i < kLudN; ++i) {
            for (u32 j = 0; j < kLudN; ++j) {
                float v = rng.uniform() * 2.0f - 1.0f;
                if (i == j)
                    v += static_cast<float>(kLudN);  // diag dominance
                writeF32(mem, kLudA + 128 * i + 4 * j, v);
            }
        }
    };

    w.check = [](const SparseMemory &mem) {
        // Recompute the factorization in the same order.
        Rng rng(0x10d);
        float a[kLudN][kLudN];
        for (u32 i = 0; i < kLudN; ++i) {
            for (u32 j = 0; j < kLudN; ++j) {
                a[i][j] = rng.uniform() * 2.0f - 1.0f;
                if (i == j)
                    a[i][j] += static_cast<float>(kLudN);
            }
        }
        for (u32 k = 0; k + 1 < kLudN; ++k) {
            for (u32 i = k + 1; i < kLudN; ++i) {
                a[i][k] /= a[k][k];
                for (u32 j = k + 1; j < kLudN; ++j)
                    a[i][j] = std::fmaf(-a[i][k], a[k][j], a[i][j]);
            }
        }
        for (u32 i = 0; i < kLudN; ++i)
            for (u32 j = 0; j < kLudN; ++j)
                if (!closeF32(readF32(mem, kLudA + 128 * i + 4 * j),
                              a[i][j], 1e-3f))
                    return false;
        return true;
    };
    return w;
}

// ---------------------------------------------------------------------
// nn: nearest-neighbor distance computation + per-thread reduction
// ---------------------------------------------------------------------

constexpr u32 kNnR = 1536;
constexpr Addr kNnRec = 0x100000;   // x,y pairs (stride 8)
constexpr Addr kNnDist = 0x110000;  // one float per record
constexpr Addr kNnMin = 0x118000;   // per-thread (min, index) pairs
constexpr float kNnQx = 4.5f;
constexpr float kNnQy = 5.25f;

static std::string
nnPrologue()
{
    return "_start:\n"
           "    li s4, " + std::to_string(kNnRec) + "\n" +
           "    li s5, " + std::to_string(kNnDist) + "\n" +
           "    li t1, 0x40900000\n"   // 4.5f
           "    fmv.w.x f14, t1\n" +
           "    li t1, 0x40a80000\n"   // 5.25f
           "    fmv.w.x f15, t1\n" +
           partitionBounds(kNnR);
}

static std::string
nnReduce()
{
    return R"(
    # per-thread nearest record over [s2, s3)
    li t1, 0x7f000000      # +huge
    fmv.w.x fa0, t1
    li s9, 0               # best index
    mv s7, s2
mloop:
    slli t0, s7, 2
    add t0, t0, s5
    flw ft0, 0(t0)
    flt.s t3, ft0, fa0
    beqz t3, mnext
    fmv.s fa0, ft0
    mv s9, s7
mnext:
    addi s7, s7, 1
    bne s7, s3, mloop
    li t0, )" + std::to_string(kNnMin) + R"(
    slli t1, a0, 3
    add t0, t0, t1
    fsw fa0, 0(t0)
    sw s9, 4(t0)
    ebreak
)";
}

Workload
makeNn()
{
    Workload w;
    w.name = "nn";
    w.suite = "rodinia";
    w.data_ranges = {{kNnRec, 0x10000},
                     {kNnDist, 0x8000},
                     {kNnMin, 0x8000}};
    w.description = "k-nearest-neighbor distance kernel: euclidean "
                    "distance of 1536 records to a query + min scan";
    w.profile = Profile::Mixed;

    w.asm_serial = nnPrologue() + R"(
    mv s7, s2
dloop:
    slli t0, s7, 3
    add t0, t0, s4
    flw ft0, 0(t0)
    flw ft1, 4(t0)
    fsub.s ft0, ft0, f14
    fsub.s ft1, ft1, f15
    fmul.s ft2, ft0, ft0
    fmadd.s ft2, ft1, ft1, ft2
    fsqrt.s ft2, ft2
    slli t0, s7, 2
    add t0, t0, s5
    fsw ft2, 0(t0)
    addi s7, s7, 1
    bne s7, s3, dloop
)" + nnReduce();

    w.asm_simt = nnPrologue() + R"(
    slli t4, s2, 2
    slli t6, s3, 2
    li t5, 4
head:
    simt_s t4, t5, t6, 1
    slli t0, t4, 1
    add t0, t0, s4
    flw ft0, 0(t0)
    flw ft1, 4(t0)
    fsub.s ft0, ft0, f14
    fsub.s ft1, ft1, f15
    fmul.s ft2, ft0, ft0
    fmadd.s ft2, ft1, ft1, ft2
    fsqrt.s ft2, ft2
    add t0, t4, s5
    fsw ft2, 0(t0)
    simt_e t4, t6, head
)" + nnReduce();

    w.init = [](SparseMemory &mem) {
        Rng rng(0x22aa);
        for (u32 r = 0; r < kNnR; ++r) {
            writeF32(mem, kNnRec + 8 * r, rng.uniform() * 10.0f);
            writeF32(mem, kNnRec + 8 * r + 4, rng.uniform() * 10.0f);
        }
    };

    w.check = [](const SparseMemory &mem) {
        for (u32 r = 0; r < kNnR; ++r) {
            const float dx = readF32(mem, kNnRec + 8 * r) - kNnQx;
            const float dy = readF32(mem, kNnRec + 8 * r + 4) - kNnQy;
            const float want =
                std::sqrt(std::fmaf(dy, dy, dx * dx));
            if (!closeF32(readF32(mem, kNnDist + 4 * r), want))
                return false;
        }
        return true;
    };
    return w;
}

} // namespace diag::workloads
