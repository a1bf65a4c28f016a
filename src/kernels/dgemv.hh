/**
 * @file
 * dgemv: y = A*x + y with row-major A (m rows, n cols).
 *
 * Analytic models (validation regime: x resident in cache, i.e.
 * 8n << LLC):
 *   W = 2mn flops
 *   Q_cold = 8mn (A) + 8n (x) + 16m (y write-allocate + write-back)
 *   I_cold -> 1/4 flops/byte for large m,n
 */

#ifndef RFL_KERNELS_DGEMV_HH
#define RFL_KERNELS_DGEMV_HH

#include "kernels/kernel.hh"
#include "support/aligned_buffer.hh"

namespace rfl::kernels
{

/** See file comment. */
class Dgemv : public KernelOf<Dgemv>
{
  public:
    /** @param m rows, @param n columns of A. */
    Dgemv(size_t m, size_t n);

    std::string name() const override { return "dgemv"; }
    std::string sizeLabel() const override;
    size_t workingSetBytes() const override
    {
        return 8 * (m_ * n_ + n_ + m_);
    }
    double expectedFlops() const override
    {
        return 2.0 * static_cast<double>(m_) * static_cast<double>(n_);
    }
    double expectedColdTrafficBytes() const override
    {
        return 8.0 * static_cast<double>(m_) * static_cast<double>(n_) +
               8.0 * static_cast<double>(n_) +
               16.0 * static_cast<double>(m_);
    }
    void init(uint64_t seed) override;
    double checksum() const override;

  private:
    friend KernelOf;

    template <typename E>
    void
    runT(E &e, int part, int nparts)
    {
        // Partition rows (each row's dot product is independent).
        const auto [rlo, rhi] = partitionRange(m_, part, nparts, 1);
        const double *a = a_.data();
        const double *x = x_.data();
        double *y = y_.data();
        const int w = e.lanes();
        for (size_t r = rlo; r < rhi; ++r) {
            const double *row = a + r * n_;
            double acc = 0.0;
            size_t j = 0;
            if (w > 1) {
                Vec vacc = e.vbroadcast(0.0);
                for (; j + static_cast<size_t>(w) <= n_;
                     j += static_cast<size_t>(w)) {
                    const Vec va = e.vload(row + j);
                    const Vec vx = e.vload(x + j);
                    vacc = e.vfmadd(va, vx, vacc);
                }
                acc = e.vreduce(vacc);
            }
            for (; j < n_; ++j) {
                const double aj = e.load(row + j);
                const double xj = e.load(x + j);
                acc = e.fmadd(aj, xj, acc);
            }
            const double yr = e.load(y + r);
            e.store(y + r, e.add(yr, acc));
            e.loop((n_ + static_cast<size_t>(w) - 1) /
                   static_cast<size_t>(w));
        }
    }

    size_t m_;
    size_t n_;
    AlignedBuffer<double> a_; ///< m x n row-major
    AlignedBuffer<double> x_;
    AlignedBuffer<double> y_;
};

} // namespace rfl::kernels

#endif // RFL_KERNELS_DGEMV_HH
