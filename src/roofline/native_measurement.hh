/**
 * @file
 * Native (host-CPU) measurement path.
 *
 * On real hardware the methodology runs exactly as in the paper: wall
 * time for T, PMU counters for W and Q where the kernel permits. This
 * measurer runs the instrumented kernels natively:
 *   - T from the steady clock, median over repetitions;
 *   - W from the engines' software retirement counters (instruction-
 *     exact, mirroring FP_ARITH semantics), cross-checked against the
 *     perf_event cycle/instruction counters when the kernel allows
 *     counting;
 *   - Q is not observable without uncore access, so the Measurement
 *     carries the analytic model (trafficSource() tells the consumer);
 *     perf's generic LLC-miss estimate is recorded alongside when live.
 *
 * The cold protocol evicts caches the way user-space must: by streaming
 * a buffer larger than the LLC between repetitions.
 */

#ifndef RFL_ROOFLINE_NATIVE_MEASUREMENT_HH
#define RFL_ROOFLINE_NATIVE_MEASUREMENT_HH

#include <memory>

#include "kernels/kernel.hh"
#include "pmu/perf_backend.hh"
#include "roofline/measurement.hh"
#include "support/aligned_buffer.hh"

namespace rfl::roofline
{

/** Knobs of one native measurement. */
struct NativeMeasureOptions
{
    CacheProtocol protocol = CacheProtocol::Cold;
    /** Wall-clock noise is real here; default to more repetitions. */
    int repetitions = 5;
    int warmupRuns = 1;
    /** Vector lanes for the engine (1/2/4/8). */
    int lanes = 4;
    bool useFma = true;
    /** Host threads to partition the kernel across. */
    int threads = 1;
    uint64_t seed = 42;
    /** Cold protocol: bytes streamed to evict the caches. */
    size_t flushBufferBytes = 64ull << 20;
    /** Assumed LLC capacity for the warm-traffic model. */
    uint64_t llcBytes = 8ull << 20;
    /** Attach perf_event counters when the kernel permits. */
    bool usePerf = true;
};

/** A Measurement plus native-only context. */
struct NativeMeasurement
{
    Measurement base;
    /** "analytic" (always, for Q) — see file comment. */
    std::string trafficSource = "analytic";
    /** perf-estimated traffic (LLC misses x 64), 0 when unavailable. */
    double perfLlcBytes = 0.0;
    /** perf cycle count of the median repetition, 0 when unavailable. */
    uint64_t perfCycles = 0;
    bool perfLive = false;
};

/** Runs kernels on the host per the methodology above. */
class NativeMeasurer
{
  public:
    NativeMeasurer();
    ~NativeMeasurer();

    NativeMeasurer(const NativeMeasurer &) = delete;
    NativeMeasurer &operator=(const NativeMeasurer &) = delete;

    /** Measure @p kernel under @p opts. */
    NativeMeasurement measure(kernels::Kernel &kernel,
                              const NativeMeasureOptions &opts = {});

    /** @return whether perf counters are live on this host. */
    bool perfAvailable() const { return perf_ != nullptr; }

  private:
    /** Stream the eviction buffer (cold protocol). */
    void evictCaches(size_t bytes);

    /** Run the kernel once across opts.threads host threads. */
    void runOnce(kernels::Kernel &kernel, const NativeMeasureOptions &opts,
                 sim::CoreCounters &total);

    std::unique_ptr<pmu::PerfEventBackend> perf_;
    AlignedBuffer<double> evictBuffer_;
};

} // namespace rfl::roofline

#endif // RFL_ROOFLINE_NATIVE_MEASUREMENT_HH
