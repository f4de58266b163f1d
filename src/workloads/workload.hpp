/**
 * @file
 * Workload framework. Each workload captures the dominant kernel of one
 * benchmark the paper evaluates (Rodinia / SPEC CPU2017 subsets, §7.1),
 * written in RISC-V assembly for our assembler, with a C++ input
 * initializer and an output check.
 *
 * Conventions shared by all kernels:
 *  - register a0 carries the thread id and a1 the thread count; the
 *    serial variant runs with a0=0, a1=1 (the paper cross-compiles one
 *    source and runs 1..N threads the same way);
 *  - partitionable kernels split their outer loop into contiguous
 *    [tid*N/n, (tid+1)*N/n) blocks with disjoint writes;
 *  - each thread ends with EBREAK; outputs live in named .data symbols.
 */
#ifndef DIAG_WORKLOADS_WORKLOAD_HPP
#define DIAG_WORKLOADS_WORKLOAD_HPP

#include <functional>
#include <string>
#include <vector>

#include "asm/program.hpp"

namespace diag::workloads
{

/** Workload behaviour classes, for reporting. */
enum class Profile : u8
{
    Compute,  //!< FP/ALU dominated, regular loops
    Memory,   //!< cache-miss dominated
    Control,  //!< branchy / irregular
    Mixed,
};

/** One benchmark kernel. */
struct Workload
{
    std::string name;
    std::string suite;        //!< "rodinia" or "spec"
    std::string description;
    Profile profile = Profile::Mixed;

    /** Serial / multithread kernel source (a0=tid, a1=nthreads). */
    std::string asm_serial;
    /** simt_s/simt_e-annotated variant; empty when not pipelineable
     *  (the paper identifies pipelineable regions manually, §5.4). */
    std::string asm_simt;
    /** False for kernels with unbreakable sequential dependences. */
    bool partitionable = true;

    /**
     * Declared data map: (base, bytes) ranges the kernel may touch in
     * addition to the program image chunks. Workload buffers live at
     * fixed addresses materialized with `li` rather than .data symbols,
     * so the verifier (diag-verify) needs this declaration to reason
     * about out-of-bounds accesses; ranges are forwarded into
     * analysis::VerifyOptions::extra_ranges.
     */
    std::vector<std::pair<Addr, u32>> data_ranges;

    /** Write input data into memory (after the program image loads). */
    std::function<void(SparseMemory &)> init;
    /** Validate outputs written by any correct execution. */
    std::function<bool(const SparseMemory &)> check;

    u64 max_insts = 100'000'000;
};

/** Every bundled workload: rodiniaSuite() followed by specSuite(). */
std::vector<Workload> allWorkloads();

/** The Rodinia-class suite (12 kernels, Fig. 9 / Fig. 12). */
std::vector<Workload> rodiniaSuite();

/** The SPEC-CPU2017-class suite (8 kernels, Fig. 10). */
std::vector<Workload> specSuite();

/** Look up one workload by name across both suites. */
Workload findWorkload(const std::string &name);

/**
 * Non-fatal lookup for long-running callers (the service layer) that
 * must classify a bad name as a malformed request instead of exiting:
 * true and *out filled when @p name is bundled, false otherwise.
 */
bool tryFindWorkload(const std::string &name, Workload *out);

} // namespace diag::workloads

#endif // DIAG_WORKLOADS_WORKLOAD_HPP
