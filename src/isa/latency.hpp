/**
 * @file
 * Execution latencies per functional-unit class. Both microarchitectural
 * models use the same table so performance differences come from the
 * architectures, never from inconsistent operation costs (the paper's
 * RTL models FP operations as fixed delays the same way, §7.1).
 */
#ifndef DIAG_ISA_LATENCY_HPP
#define DIAG_ISA_LATENCY_HPP

#include "isa/inst.hpp"

namespace diag::isa
{

namespace latdetail
{

/** Cycles per ExecClass. At namespace scope so every call reads the one
 *  table in read-only data: a table local to the constexpr function was
 *  copied onto the stack at each call site. */
inline constexpr Cycle kLatency[] = {
    1,   // IntAlu
    3,   // IntMul
    12,  // IntDiv
    4,   // FpAdd
    4,   // FpMul
    12,  // FpDiv
    16,  // FpSqrt
    5,   // FpFma
    1,   // FpMisc
    2,   // FpCmp
    2,   // FpCvt
    1,   // Load (address generation only)
    1,   // Store
    1,   // Branch
    1,   // Jump
    1,   // System
    1,   // Simt
    1,   // Invalid
};
static_assert(sizeof(kLatency) / sizeof(kLatency[0]) ==
                  static_cast<unsigned>(ExecClass::Invalid) + 1,
              "latency table out of sync with ExecClass");

} // namespace latdetail

/**
 * Execute-stage latency in cycles for @p cls. Loads return the
 * address-generation latency only; memory time is added by the memory
 * subsystem of each model. Inline and branch-free (a constexpr table)
 * — called once per simulated instruction in every engine.
 */
constexpr Cycle
execLatency(ExecClass cls)
{
    return latdetail::kLatency[static_cast<unsigned>(cls)];
}

/** Convenience overload. */
inline Cycle execLatency(const DecodedInst &di)
{
    return execLatency(di.cls());
}

} // namespace diag::isa

#endif // DIAG_ISA_LATENCY_HPP
