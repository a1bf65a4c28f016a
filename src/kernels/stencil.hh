/**
 * @file
 * 3-point stencil: b[i] = w0*a[i-1] + w1*a[i] + w2*a[i+1].
 *
 * Analytic models:
 *   W = 5(n-2) flops (2 fmadds + 1 mul per interior point)
 *   Q_cold = 24n bytes: read a (8n), write-allocate b (8n), write back
 *            b (8n) — neighbouring loads hit in L1
 *   I_cold ~ 5/24 flops/byte
 *
 * Used by the prefetcher experiment (F7): a pure unit-stride read stream
 * with moderate intensity, where the streamer's speculative lines show up
 * clearly at the IMC.
 */

#ifndef RFL_KERNELS_STENCIL_HH
#define RFL_KERNELS_STENCIL_HH

#include "kernels/kernel.hh"
#include "support/aligned_buffer.hh"

namespace rfl::kernels
{

/** See file comment. */
class Stencil3 : public KernelOf<Stencil3>
{
  public:
    explicit Stencil3(size_t n);

    std::string name() const override { return "stencil3"; }
    std::string sizeLabel() const override;
    size_t workingSetBytes() const override { return 16 * n_; }
    double expectedFlops() const override
    {
        return 5.0 * static_cast<double>(n_ - 2);
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
        // Interior points only: [1, n-1).
        auto [lo, hi] = partitionRange(n_ - 2, part, nparts);
        lo += 1;
        hi += 1;
        const double *a = a_.data();
        double *b = b_.data();
        const int w = e.lanes();
        size_t i = lo;
        if (w > 1) {
            const Vec vw0 = e.vbroadcast(w0_);
            const Vec vw1 = e.vbroadcast(w1_);
            const Vec vw2 = e.vbroadcast(w2_);
            for (; i + static_cast<size_t>(w) <= hi;
                 i += static_cast<size_t>(w)) {
                const Vec left = e.vload(a + i - 1);
                const Vec mid = e.vload(a + i);
                const Vec right = e.vload(a + i + 1);
                Vec acc = e.vmul(vw1, mid);
                acc = e.vfmadd(vw0, left, acc);
                acc = e.vfmadd(vw2, right, acc);
                e.vstore(b + i, acc);
            }
        }
        for (; i < hi; ++i) {
            const double left = e.load(a + i - 1);
            const double mid = e.load(a + i);
            const double right = e.load(a + i + 1);
            double acc = e.mul(w1_, mid);
            acc = e.fmadd(w0_, left, acc);
            acc = e.fmadd(w2_, right, acc);
            e.store(b + i, acc);
        }
        e.loop((hi - lo + static_cast<size_t>(w) - 1) /
               static_cast<size_t>(w));
    }

    size_t n_;
    double w0_ = 0.25, w1_ = 0.5, w2_ = 0.25;
    AlignedBuffer<double> a_;
    AlignedBuffer<double> b_;
};

} // namespace rfl::kernels

#endif // RFL_KERNELS_STENCIL_HH
