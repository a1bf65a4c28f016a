/**
 * @file
 * Per-core retirement counters: the "core PMU" of the simulated machine.
 *
 * The layout mirrors the x86 events the paper's methodology reads:
 * FP_ARITH_INST_RETIRED.{SCALAR,128B,256B,512B}_PACKED_DOUBLE. Following
 * observed hardware behaviour (verified by the paper lineage with an
 * instruction-level experiment), a retired FMA increments its width's
 * counter by TWO — the measurement layer must not special-case FMA, it
 * just multiplies each counter by its vector width in doubles.
 */

#ifndef RFL_SIM_CORE_HH
#define RFL_SIM_CORE_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace rfl::sim
{

/** Vector width classes for double-precision FP retirement counters. */
enum class VecWidth : int
{
    Scalar = 0, ///< 1 double  (64-bit scalar)
    W2 = 1,     ///< 2 doubles (128-bit, SSE2)
    W4 = 2,     ///< 4 doubles (256-bit, AVX)
    W8 = 3,     ///< 8 doubles (512-bit, AVX-512)
};

/** @return lanes (doubles per operation) for a width class. */
constexpr int
vecLanes(VecWidth w)
{
    switch (w) {
      case VecWidth::Scalar: return 1;
      case VecWidth::W2: return 2;
      case VecWidth::W4: return 4;
      case VecWidth::W8: return 8;
    }
    return 1;
}

/** @return the width class whose lane count is @p lanes (1/2/4/8). */
VecWidth widthForLanes(int lanes);

/** @return printable name such as "scalar" or "256b-packed". */
const char *vecWidthName(VecWidth w);

/**
 * Cumulative per-core counters. All members are monotonically increasing;
 * measurement regions are deltas of two snapshots.
 */
struct CoreCounters
{
    /** FP_ARITH_INST_RETIRED by width class (FMA counts as 2). */
    std::array<uint64_t, 4> fpRetired{};

    /** Execution uops, for the port/issue timing terms. */
    uint64_t fpUops = 0;
    uint64_t loadUops = 0;
    uint64_t storeUops = 0;
    /** Address arithmetic / branches / integer work. */
    uint64_t otherUops = 0;

    /** Demand traffic this core pulled from each beyond-L1 level (bytes).*/
    uint64_t l2FillBytes = 0;   ///< L1 refills serviced by L2 or below
    uint64_t l3FillBytes = 0;   ///< L2 refills serviced by L3 or below
    uint64_t dramFillBytes = 0; ///< refills serviced by DRAM
    /** Bytes this core wrote straight to DRAM with NT stores. */
    uint64_t ntStoreBytes = 0;
    /** Writeback bytes this core's evictions pushed to DRAM. */
    uint64_t dramWritebackBytes = 0;

    /** Sum of demand-miss service latencies (cycles), pre-MLP-division. */
    double latencyCycles = 0;

    /**
     * Retire @p count FP ops of width class @p w. Hardware-faithful: an
     * FMA bumps its width's counter by two, any other op by one; each
     * op is one FP uop either way.
     */
    void
    retireFp(VecWidth w, bool fma, uint64_t count)
    {
        fpRetired[static_cast<std::size_t>(w)] += count * (fma ? 2 : 1);
        fpUops += count;
    }

    /** @return total retired double-precision flops (width-weighted). */
    uint64_t flops() const;

    /** @return all uops (issue-bandwidth term numerator). */
    uint64_t totalUops() const
    {
        return fpUops + loadUops + storeUops + otherUops;
    }

    CoreCounters operator-(const CoreCounters &rhs) const;
    CoreCounters &operator+=(const CoreCounters &rhs);
};

} // namespace rfl::sim

#endif // RFL_SIM_CORE_HH
