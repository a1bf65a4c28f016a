/**
 * @file
 * Kernel interface: a measurable workload with analytic work/traffic
 * models.
 *
 * Every kernel:
 *   - owns its operands (cache-line aligned),
 *   - initializes them deterministically from a seed,
 *   - runs on either engine from one template body (see engine.hh),
 *   - can be partitioned across simulated cores (part / nparts),
 *   - provides the analytic expected work W and expected cold-cache DRAM
 *     traffic Q used by the counter-validation experiments (paper's
 *     validation tables), and
 *   - exposes a checksum so tests can prove the native and simulated
 *     executions computed identical results.
 *
 * A kernel is written by deriving from KernelOf<K> (below) and giving
 * it one private member template
 *
 *     template <typename E> void runT(E &e, int part, int nparts);
 *
 * plus `friend KernelOf;`. KernelOf supplies both virtual run()
 * overrides, checks the partition once, and calls runT with the
 * concrete engine, so each body is instantiated for NativeEngine and
 * SimEngine and dispatch costs one virtual call per run. The ops a body
 * calls (load ... vfmadd, vreduce, loop) are defined once, in
 * EngineOps (engine.hh), so both instantiations compute the same
 * results and count the same work.
 */

#ifndef RFL_KERNELS_KERNEL_HH
#define RFL_KERNELS_KERNEL_HH

#include <cmath>
#include <string>
#include <utility>

#include "kernels/engine.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace rfl::kernels
{

/**
 * Split [0, n) into nparts contiguous chunks, aligned to @p align
 * elements so partitions do not share cache lines.
 * @return [lo, hi) for chunk @p part.
 */
std::pair<size_t, size_t> partitionRange(size_t n, int part, int nparts,
                                         size_t align = 8);

/** Abstract measurable workload. */
class Kernel
{
  public:
    virtual ~Kernel() = default;

    /** @return short kernel name, e.g. "daxpy". */
    virtual std::string name() const = 0;

    /** @return size description, e.g. "n=16384". */
    virtual std::string sizeLabel() const = 0;

    /** @return total bytes of all operands. */
    virtual size_t workingSetBytes() const = 0;

    /**
     * @return analytic work W in double-precision flops. Identical for
     * FMA and non-FMA execution (an FMA retires two ops).
     */
    virtual double expectedFlops() const = 0;

    /**
     * @return analytic DRAM traffic in bytes for a cold-cache run with
     * hardware prefetching disabled, including trailing writebacks
     * (i.e. assuming the measured region ends with a cache flush).
     * NaN when no closed-form model exists for this kernel/size.
     */
    virtual double expectedColdTrafficBytes() const = 0;

    /**
     * @return analytic DRAM traffic for a warm-cache run given the
     * last-level capacity @p llc_bytes: 0 when the working set is
     * LLC-resident, otherwise the cold value (streaming kernels get no
     * reuse from warm caches).
     */
    virtual double expectedWarmTrafficBytes(uint64_t llc_bytes) const;

    /** Deterministically (re)initialize operands. */
    virtual void init(uint64_t seed) = 0;

    /** Run partition @p part of @p nparts on the native engine. */
    virtual void run(NativeEngine &e, int part, int nparts) = 0;

    /** Run partition @p part of @p nparts on the simulated engine. */
    virtual void run(SimEngine &e, int part, int nparts) = 0;

    /** @return whether the kernel supports nparts > 1. */
    virtual bool parallelizable() const { return true; }

    /** @return whether accesses form a dependency chain (MLP == 1). */
    virtual bool dependentAccesses() const { return false; }

    /** @return order-insensitive digest of the kernel's current output. */
    virtual double checksum() const = 0;

    /**
     * Tell the analytic traffic model which last-level-cache capacity to
     * assume (kernels whose cold-traffic formula is regime-dependent,
     * e.g. FFT and dgemm, pick the in-cache vs streaming regime by it).
     */
    void setLlcHintBytes(uint64_t bytes) { llcHintBytes_ = bytes; }
    uint64_t llcHintBytes() const { return llcHintBytes_; }

  protected:
    /** Default matches the default simulated platform's 10 MiB L3. */
    uint64_t llcHintBytes_ = 10ull * 1024 * 1024;
};

/**
 * Base of every catalogue kernel K: implements both run() overrides
 * with K's one private `runT` body (see file comment). @p Base is the
 * class K extends, Kernel by default; kernels that share state derive
 * through an intermediate base (e.g. KernelOf<DgemmNaive, DgemmBase>).
 */
template <typename K, typename Base = Kernel>
class KernelOf : public Base
{
  public:
    using Base::Base;

    void
    run(NativeEngine &e, int part, int nparts) final
    {
        body(e, part, nparts);
    }

    void
    run(SimEngine &e, int part, int nparts) final
    {
        body(e, part, nparts);
    }

  private:
    template <typename E>
    void
    body(E &e, int part, int nparts)
    {
        RFL_ASSERT(part >= 0 && part < nparts &&
                   (nparts == 1 || this->parallelizable()));
        static_cast<K *>(this)->runT(e, part, nparts);
    }
};

} // namespace rfl::kernels

#endif // RFL_KERNELS_KERNEL_HH
