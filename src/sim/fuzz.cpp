#include "sim/fuzz.hpp"

#include <vector>

#include "common/rng.hpp"

namespace diag::sim
{

namespace
{

/** Registers the generator may freely clobber with data. */
constexpr int kDataRegs[] = {5, 6, 7, 28, 12, 13, 14, 15, 16, 17,
                             18, 19, 20, 21, 22, 23};
constexpr int kNumDataRegs =
    static_cast<int>(sizeof(kDataRegs) / sizeof(kDataRegs[0]));

class Generator
{
  public:
    explicit Generator(const FuzzOptions &opt)
        : opt_(opt), rng_(opt.seed ? opt.seed : 1)
    {}

    FuzzProgram
    run()
    {
        emit(".data");
        emit("buf: .space " + std::to_string(opt_.buffer_words * 4));
        emit(".text");
        emit("_start:");
        emit("    la x29, buf");
        // Seed data registers with deterministic pseudo-random values.
        for (int i = 0; i < kNumDataRegs; ++i)
            emit("    li " + reg(kDataRegs[i]) + ", " +
                 std::to_string(
                     static_cast<i32>(rng_.next32() & 0x7fffffff)));
        if (opt_.use_fp) {
            for (int f = 0; f < 8; ++f)
                emit("    fcvt.s.w f" + std::to_string(f) + ", " +
                     reg(kDataRegs[f]));
        }
        // Interleave simt regions among the scalar segments. Every
        // rng draw below is gated on the option that needs it, so
        // programs generated with the pre-simt options are
        // byte-identical to what this generator always produced.
        for (unsigned s = 0; s < opt_.segments; ++s) {
            if (opt_.use_simt && meta_.regions < opt_.simt_regions &&
                rng_.below(3) == 0)
                simtRegion();
            else
                segment();
        }
        while (opt_.use_simt && meta_.regions < opt_.simt_regions)
            simtRegion();
        if (opt_.hazard_pct > 0 &&
            rng_.below(100) < opt_.hazard_pct)
            scalarHazard();
        emit("    ebreak");
        if (opt_.use_calls)
            helpers();
        meta_.source = std::move(out_);
        return std::move(meta_);
    }

  private:
    void emit(const std::string &line) { out_ += line + "\n"; }

    std::string
    reg(int n)
    {
        return std::string("x").append(std::to_string(n));
    }

    std::string
    dataReg()
    {
        return reg(kDataRegs[rng_.below(kNumDataRegs)]);
    }

    std::string
    freg()
    {
        return std::string("f").append(std::to_string(rng_.below(8)));
    }

    std::string
    label(const char *stem)
    {
        return std::string(stem) + std::to_string(label_counter_++);
    }

    /** One random ALU instruction. */
    void
    aluOp()
    {
        static const char *kRR[] = {"add", "sub", "sll", "slt", "sltu",
                                    "xor", "srl", "sra", "or", "and"};
        static const char *kRI[] = {"addi", "slti", "sltiu", "xori",
                                    "ori", "andi"};
        static const char *kSh[] = {"slli", "srli", "srai"};
        static const char *kMd[] = {"mul", "mulh", "mulhsu", "mulhu",
                                    "div", "divu", "rem", "remu"};
        const unsigned pick = static_cast<unsigned>(rng_.below(10));
        if (pick < 4) {
            emit("    " + std::string(kRR[rng_.below(10)]) + " " +
                 dataReg() + ", " + dataReg() + ", " + dataReg());
        } else if (pick < 7) {
            emit("    " + std::string(kRI[rng_.below(6)]) + " " +
                 dataReg() + ", " + dataReg() + ", " +
                 std::to_string(rng_.range(-2048, 2047)));
        } else if (pick < 9) {
            emit("    " + std::string(kSh[rng_.below(3)]) + " " +
                 dataReg() + ", " + dataReg() + ", " +
                 std::to_string(rng_.below(32)));
        } else if (opt_.use_muldiv) {
            emit("    " + std::string(kMd[rng_.below(8)]) + " " +
                 dataReg() + ", " + dataReg() + ", " + dataReg());
        } else {
            emit("    add " + dataReg() + ", " + dataReg() + ", " +
                 dataReg());
        }
    }

    void
    fpOp()
    {
        static const char *kF2[] = {"fadd.s", "fsub.s", "fmul.s",
                                    "fdiv.s", "fmin.s", "fmax.s",
                                    "fsgnj.s", "fsgnjx.s"};
        const unsigned pick = static_cast<unsigned>(rng_.below(10));
        if (pick < 6) {
            emit("    " + std::string(kF2[rng_.below(8)]) + " " +
                 freg() + ", " + freg() + ", " + freg());
        } else if (pick < 7) {
            emit("    fmadd.s " + freg() + ", " + freg() + ", " +
                 freg() + ", " + freg());
        } else if (pick < 8) {
            emit("    fcvt.s.w " + freg() + ", " + dataReg());
        } else if (pick < 9) {
            emit("    fcvt.w.s " + dataReg() + ", " + freg());
        } else {
            emit("    feq.s " + dataReg() + ", " + freg() + ", " +
                 freg());
        }
    }

    /** A load or store confined to the scratch buffer. */
    void
    memOp()
    {
        const u32 word_off = static_cast<u32>(
            rng_.below(opt_.buffer_words) * 4);
        // Keep offsets encodable in 12 bits.
        const u32 off = word_off & 0x7fc;
        const unsigned pick = static_cast<unsigned>(rng_.below(10));
        const std::string at = std::to_string(off) + "(x29)";
        if (pick < 3) {
            emit("    sw " + dataReg() + ", " + at);
        } else if (pick < 6) {
            emit("    lw " + dataReg() + ", " + at);
        } else if (pick < 7) {
            emit("    sb " + dataReg() + ", " +
                 std::to_string(off + rng_.below(4)) + "(x29)");
        } else if (pick < 8) {
            emit("    lbu " + dataReg() + ", " +
                 std::to_string(off + rng_.below(4)) + "(x29)");
        } else if (pick < 9) {
            emit("    sh " + dataReg() + ", " +
                 std::to_string(off + 2 * rng_.below(2)) + "(x29)");
        } else {
            emit("    lh " + dataReg() + ", " +
                 std::to_string(off + 2 * rng_.below(2)) + "(x29)");
        }
    }

    void
    body(unsigned len, bool allow_branch)
    {
        for (unsigned i = 0; i < len; ++i) {
            const unsigned pick = static_cast<unsigned>(rng_.below(10));
            if (opt_.use_mem && pick < 3) {
                memOp();
            } else if (opt_.use_fp && pick < 5) {
                fpOp();
            } else if (allow_branch && pick == 9) {
                forwardBranch();
            } else {
                aluOp();
            }
        }
    }

    /** A branch over a short always-defined fall-through body. */
    void
    forwardBranch()
    {
        static const char *kBr[] = {"beq", "bne", "blt", "bge", "bltu",
                                    "bgeu"};
        const std::string skip = label("skip");
        emit("    " + std::string(kBr[rng_.below(6)]) + " " +
             dataReg() + ", " + dataReg() + ", " + skip);
        body(1 + static_cast<unsigned>(rng_.below(4)), false);
        emit(skip + ":");
    }

    /** A counted loop (x30 is reserved as the counter). */
    void
    countedLoop()
    {
        const std::string head = label("loop");
        emit("    li x30, " + std::to_string(2 + rng_.below(6)));
        emit(head + ":");
        body(2 + static_cast<unsigned>(rng_.below(8)), true);
        emit("    addi x30, x30, -1");
        emit("    bnez x30, " + head);
    }

    void
    callHelper()
    {
        emit("    call helper" + std::to_string(rng_.below(2)));
    }

    void
    segment()
    {
        const unsigned pick = static_cast<unsigned>(rng_.below(10));
        if (pick < 4) {
            body(4 + static_cast<unsigned>(rng_.below(12)), true);
        } else if (pick < 7) {
            countedLoop();
        } else if (pick < 8 && opt_.use_calls) {
            callHelper();
        } else {
            forwardBranch();
        }
    }

    /**
     * A counted parallel loop over the scratch buffer. rc (x26)
     * counts bytes in stride steps, so each thread owns the
     * [rc, rc+stride) slice and per-thread footprints are disjoint
     * by construction — unless a race is injected, in which case a
     * load reaches into the next thread's slice (or a fixed address
     * is shared), and FuzzProgram::racy records that ground truth.
     * Body temporaries (x8, x24) are always written before read so
     * the region passes the loop-carried-dependence scan.
     */
    void
    simtRegion()
    {
        const unsigned n = 2 + static_cast<unsigned>(rng_.below(15));
        const unsigned stride =
            8 + 4 * static_cast<unsigned>(rng_.below(3));
        const bool inject_race =
            opt_.hazard_pct > 0 &&
            rng_.below(100) < opt_.hazard_pct;
        const std::string head = label("simt");
        emit("    li x26, 0");
        emit("    li x27, " + std::to_string(stride));
        emit("    li x25, " + std::to_string(n * stride));
        emit(head + ":");
        emit("    simt_s x26, x27, x25, " +
             std::to_string(1 + rng_.below(2)));
        emit("    add x8, x29, x26");
        emit("    sw " + dataReg() + ", 0(x8)");
        const unsigned extra = static_cast<unsigned>(rng_.below(3));
        for (unsigned i = 0; i < extra; ++i) {
            const unsigned off =
                4 * (1 + static_cast<unsigned>(
                             rng_.below(stride / 4 - 1)));
            if (rng_.below(2) == 0) {
                emit("    sw " + dataReg() + ", " +
                     std::to_string(off) + "(x8)");
            } else {
                emit("    lw x24, " + std::to_string(off) + "(x8)");
                emit("    add x24, x24, " + dataReg());
                emit("    sw x24, " + std::to_string(off) + "(x8)");
            }
        }
        if (inject_race) {
            if (rng_.below(2) == 0) {
                // Read the next thread's slice: a definite
                // cross-thread RAW on the store at offset 0.
                emit("    addi x24, x26, " + std::to_string(stride));
                emit("    add x24, x24, x29");
                emit("    lw x24, 0(x24)");
            } else {
                // Every thread stores to and loads from buf[0].
                emit("    sw " + dataReg() + ", 0(x29)");
                emit("    lw x24, 0(x29)");
            }
            meta_.racy = true;
            ++meta_.racy_regions;
        }
        emit("    simt_e x26, x25, " + head);
        meta_.has_simt = true;
        ++meta_.regions;
    }

    /** One deliberate scalar trap hazard, recorded in the metadata. */
    void
    scalarHazard()
    {
        const unsigned pick = static_cast<unsigned>(rng_.below(3));
        if (pick == 0 && opt_.use_muldiv) {
            emit("    li x8, 0");
            emit("    div x24, " + dataReg() + ", x8");
            meta_.div0 = true;
        } else if (pick <= 1 && opt_.use_mem) {
            emit("    lw x24, 2(x29)");
            meta_.misaligned = true;
        } else if (opt_.use_mem) {
            emit("    li x8, " +
                 std::to_string(opt_.buffer_words * 4 + 4096));
            emit("    add x8, x8, x29");
            emit("    sw " + dataReg() + ", 0(x8)");
            meta_.oob = true;
        }
    }

    void
    helpers()
    {
        for (int h = 0; h < 2; ++h) {
            emit("helper" + std::to_string(h) + ":");
            for (int i = 0; i < 4; ++i)
                aluOp();
            emit("    ret");
        }
    }

    const FuzzOptions &opt_;
    Rng rng_;
    std::string out_;
    FuzzProgram meta_;
    unsigned label_counter_ = 0;
};

} // namespace

std::string
generateFuzzProgram(const FuzzOptions &opt)
{
    Generator gen(opt);
    return gen.run().source;
}

FuzzProgram
generateFuzzProgramEx(const FuzzOptions &opt)
{
    Generator gen(opt);
    return gen.run();
}

} // namespace diag::sim
