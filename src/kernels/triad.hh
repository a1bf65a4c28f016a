/**
 * @file
 * STREAM triad: a[i] = b[i] + s*c[i] — the paper's bandwidth workhorse.
 *
 * Analytic models:
 *   W = 2n flops
 *   Q_cold (regular stores) = 32n: read b,c (16n), write-allocate a (8n),
 *          write back a (8n)
 *   Q_cold (non-temporal stores) = 24n: the allocate read disappears
 *   I_cold = 1/16 (regular) or 1/12 (NT)
 *
 * The NT variant also demonstrates why the peak-bandwidth probe uses
 * streaming stores (paper §methodology): fewer bytes per useful byte.
 */

#ifndef RFL_KERNELS_TRIAD_HH
#define RFL_KERNELS_TRIAD_HH

#include "kernels/kernel.hh"
#include "support/aligned_buffer.hh"

namespace rfl::kernels
{

/** See file comment. */
class Triad : public KernelOf<Triad>
{
  public:
    /**
     * @param n  vector length
     * @param nt use non-temporal stores for the output array
     */
    explicit Triad(size_t n, bool nt = false);

    std::string name() const override { return nt_ ? "triad-nt" : "triad"; }
    std::string sizeLabel() const override;
    size_t workingSetBytes() const override { return 24 * n_; }
    double expectedFlops() const override
    {
        return 2.0 * static_cast<double>(n_);
    }
    double expectedColdTrafficBytes() const override
    {
        return (nt_ ? 24.0 : 32.0) * static_cast<double>(n_);
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
        double *a = a_.data();
        const double *b = b_.data();
        const double *c = c_.data();
        const int w = e.lanes();
        size_t i = lo;
        if (w > 1) {
            const Vec vs = e.vbroadcast(s_);
            for (; i + static_cast<size_t>(w) <= hi;
                 i += static_cast<size_t>(w)) {
                const Vec vb = e.vload(b + i);
                const Vec vc = e.vload(c + i);
                const Vec va = e.vfmadd(vs, vc, vb);
                if (nt_)
                    e.vstoreNT(a + i, va);
                else
                    e.vstore(a + i, va);
            }
        }
        for (; i < hi; ++i) {
            const double bi = e.load(b + i);
            const double ci = e.load(c + i);
            const double ai = e.fmadd(s_, ci, bi);
            if (nt_)
                e.storeNT(a + i, ai);
            else
                e.store(a + i, ai);
        }
        e.loop((hi - lo + static_cast<size_t>(w) - 1) /
               static_cast<size_t>(w));
    }

    size_t n_;
    bool nt_;
    double s_ = 0.0;
    AlignedBuffer<double> a_;
    AlignedBuffer<double> b_;
    AlignedBuffer<double> c_;
};

} // namespace rfl::kernels

#endif // RFL_KERNELS_TRIAD_HH
