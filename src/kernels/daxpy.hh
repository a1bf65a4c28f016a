/**
 * @file
 * daxpy: y = a*x + y — the canonical memory-bound validation kernel.
 *
 * Analytic models (the numbers the paper's validation tables check):
 *   W = 2n flops (n fused multiply-adds)
 *   Q_cold = 24n bytes: read x (8n), write-allocate read y (8n),
 *            write back y (8n)
 *   I_cold = 1/12 flops/byte
 */

#ifndef RFL_KERNELS_DAXPY_HH
#define RFL_KERNELS_DAXPY_HH

#include "kernels/kernel.hh"
#include "support/aligned_buffer.hh"

namespace rfl::kernels
{

/** See file comment. */
class Daxpy : public KernelOf<Daxpy>
{
  public:
    /** @param n vector length in doubles. */
    explicit Daxpy(size_t n);

    std::string name() const override { return "daxpy"; }
    std::string sizeLabel() const override;
    size_t workingSetBytes() const override { return 16 * n_; }
    double expectedFlops() const override
    {
        return 2.0 * static_cast<double>(n_);
    }
    double expectedColdTrafficBytes() const override
    {
        return 24.0 * static_cast<double>(n_);
    }
    void init(uint64_t seed) override;
    double checksum() const override;

  private:
    friend KernelOf;

    template <typename E>
    void
    runT(E &e, int part, int nparts)
    {
        const auto [lo, hi] = partitionRange(n_, part, nparts);
        const double *x = x_.data();
        double *y = y_.data();
        const int w = e.lanes();
        size_t i = lo;
        if (w > 1) {
            const Vec va = e.vbroadcast(a_);
            for (; i + static_cast<size_t>(w) <= hi;
                 i += static_cast<size_t>(w)) {
                const Vec vx = e.vload(x + i);
                const Vec vy = e.vload(y + i);
                e.vstore(y + i, e.vfmadd(va, vx, vy));
            }
        }
        for (; i < hi; ++i) {
            const double xi = e.load(x + i);
            const double yi = e.load(y + i);
            e.store(y + i, e.fmadd(a_, xi, yi));
        }
        e.loop((hi - lo + static_cast<size_t>(w) - 1) /
               static_cast<size_t>(w));
    }

    size_t n_;
    double a_ = 0.0;
    AlignedBuffer<double> x_;
    AlignedBuffer<double> y_;
};

} // namespace rfl::kernels

#endif // RFL_KERNELS_DAXPY_HH
