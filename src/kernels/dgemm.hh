/**
 * @file
 * dgemm: C += A*B, square n x n row-major — the compute-bound anchor of
 * the roofline application section.
 *
 * Two implementations show the climb toward the compute roof:
 *   - DgemmNaive:   textbook i-j-k triple loop, scalar inner product;
 *                   B is walked down columns (stride 8n), so beyond the
 *                   cache it thrashes and the point sits deep under the
 *                   roof.
 *   - DgemmBlocked: i-k-j ordering with square tiling; unit-stride inner
 *                   loop over C/B rows, vectorized; approaches peak.
 *
 * Analytic models:
 *   W = 2n^3 flops (both variants)
 *   Q_cold, in-cache regime (3 * 8n^2 <= LLC): 32n^2
 *     (A, B read; C write-allocate + write-back)
 *   Q_cold beyond cache: no closed form for the naive variant (NaN);
 *     the blocked variant is approximately 16n^3/b + 32n^2 for tile b.
 */

#ifndef RFL_KERNELS_DGEMM_HH
#define RFL_KERNELS_DGEMM_HH

#include "kernels/kernel.hh"
#include "support/aligned_buffer.hh"

namespace rfl::kernels
{

/** Shared state/model of the two dgemm variants. */
class DgemmBase : public Kernel
{
  public:
    explicit DgemmBase(size_t n);

    std::string sizeLabel() const override;
    size_t workingSetBytes() const override { return 24 * n_ * n_; }
    double expectedFlops() const override
    {
        const double n = static_cast<double>(n_);
        return 2.0 * n * n * n;
    }
    void init(uint64_t seed) override;
    double checksum() const override;

  protected:
    /** @return true when all three matrices fit the hinted LLC. */
    bool fitsLlc() const { return workingSetBytes() <= llcHintBytes(); }

    size_t n_;
    AlignedBuffer<double> a_;
    AlignedBuffer<double> b_;
    AlignedBuffer<double> c_;
};

/** Textbook triple loop (see file comment). */
class DgemmNaive : public KernelOf<DgemmNaive, DgemmBase>
{
  public:
    explicit DgemmNaive(size_t n) : KernelOf(n) {}

    std::string name() const override { return "dgemm-naive"; }
    double expectedColdTrafficBytes() const override;

  private:
    friend KernelOf;

    template <typename E>
    void
    runT(E &e, int part, int nparts)
    {
        const auto [ilo, ihi] = partitionRange(n_, part, nparts, 1);
        const double *a = a_.data();
        const double *b = b_.data();
        double *c = c_.data();
        for (size_t i = ilo; i < ihi; ++i) {
            for (size_t j = 0; j < n_; ++j) {
                double acc = e.load(c + i * n_ + j);
                for (size_t k = 0; k < n_; ++k) {
                    const double aik = e.load(a + i * n_ + k);
                    const double bkj = e.load(b + k * n_ + j);
                    acc = e.fmadd(aik, bkj, acc);
                }
                e.store(c + i * n_ + j, acc);
                e.loop(n_);
            }
        }
    }
};

/** Tiled i-k-j with vectorized row updates (see file comment). */
class DgemmBlocked : public KernelOf<DgemmBlocked, DgemmBase>
{
  public:
    /**
     * @param n     matrix dimension
     * @param block tile size (0 = pick ~sqrt(L1/3) automatically)
     */
    explicit DgemmBlocked(size_t n, size_t block = 0);

    std::string name() const override { return "dgemm-blocked"; }
    double expectedColdTrafficBytes() const override;

  private:
    friend KernelOf;

    template <typename E>
    void
    runT(E &e, int part, int nparts)
    {
        const auto [ilo, ihi] = partitionRange(n_, part, nparts, 1);
        const double *a = a_.data();
        const double *b = b_.data();
        double *c = c_.data();
        const size_t bs = block_;
        const int w = e.lanes();
        for (size_t ii = ilo; ii < ihi; ii += bs) {
            const size_t imax = std::min(ii + bs, ihi);
            for (size_t kk = 0; kk < n_; kk += bs) {
                const size_t kmax = std::min(kk + bs, n_);
                for (size_t jj = 0; jj < n_; jj += bs) {
                    const size_t jmax = std::min(jj + bs, n_);
                    for (size_t i = ii; i < imax; ++i) {
                        for (size_t k = kk; k < kmax; ++k) {
                            const double aik = e.load(a + i * n_ + k);
                            size_t j = jj;
                            if (w > 1) {
                                const Vec va = e.vbroadcast(aik);
                                for (; j + static_cast<size_t>(w) <= jmax;
                                     j += static_cast<size_t>(w)) {
                                    const Vec vb =
                                        e.vload(b + k * n_ + j);
                                    const Vec vc =
                                        e.vload(c + i * n_ + j);
                                    e.vstore(c + i * n_ + j,
                                             e.vfmadd(va, vb, vc));
                                }
                            }
                            for (; j < jmax; ++j) {
                                const double bkj = e.load(b + k * n_ + j);
                                const double cij = e.load(c + i * n_ + j);
                                e.store(c + i * n_ + j,
                                        e.fmadd(aik, bkj, cij));
                            }
                            e.loop((jmax - jj + static_cast<size_t>(w) -
                                    1) /
                                   static_cast<size_t>(w));
                        }
                    }
                }
            }
        }
    }

    size_t block_;
};

/**
 * Register-blocked dgemm with B-panel packing (the BLIS/GotoBLAS recipe):
 * for each tile of NR vectors of C columns, the B panel is first packed
 * into a contiguous scratch buffer — B's natural column stride of 8n
 * bytes is a power of two for typical n and would alias a handful of L1
 * sets — then each C row tile lives in accumulator registers across the
 * whole k loop (one C load + one C store per tile instead of one per k
 * iteration). The packing copies are issued through the engine, so their
 * work/traffic are measured like everything else.
 *
 * This is the variant that approaches the compute roof; the step
 * naive -> blocked -> register-blocked reproduces the paper's picture of
 * an implementation climbing toward peak at fixed intensity.
 */
class DgemmRegBlocked : public KernelOf<DgemmRegBlocked, DgemmBase>
{
  public:
    /** Accumulator tile width in vectors of the engine's lane count. */
    static constexpr size_t tileVecs = 6;
    /**
     * k-block size: the packed panel (kBlock x tile doubles) must stay
     * L1-resident; 64 x 24 x 8 B = 12 KiB against a 32 KiB L1.
     */
    static constexpr size_t kBlock = 64;

    explicit DgemmRegBlocked(size_t n) : KernelOf(n) {}

    std::string name() const override { return "dgemm-opt"; }
    double expectedColdTrafficBytes() const override;

  private:
    friend KernelOf;

    template <typename E>
    void
    runT(E &e, int part, int nparts)
    {
        const auto [ilo, ihi] = partitionRange(n_, part, nparts, 1);
        const double *a = a_.data();
        const double *b = b_.data();
        double *c = c_.data();
        const size_t w = static_cast<size_t>(e.lanes());
        const size_t tile = tileVecs * w;
        AlignedBuffer<double> packed(tile * kBlock); // per-call scratch

        for (size_t jj = 0; jj < n_; jj += tile) {
            const size_t cols = std::min(tile, n_ - jj);
            const size_t nv = cols / w;   // full vectors per row
            const size_t rest = cols % w; // trailing scalar columns

            for (size_t kk = 0; kk < n_; kk += kBlock) {
                const size_t kmax = std::min(kk + kBlock, n_);

                // Pack this k-block of the B panel so the micro-kernel
                // streams it from a contiguous, L1-resident buffer:
                // packed[(k-kk)*cols + t] = B[k][jj + t].
                for (size_t k = kk; k < kmax; ++k) {
                    const double *brow = b + k * n_ + jj;
                    double *prow = packed.data() + (k - kk) * cols;
                    size_t t = 0;
                    for (; t + w <= cols; t += w)
                        e.vstore(prow + t, e.vload(brow + t));
                    for (; t < cols; ++t)
                        e.store(prow + t, e.load(brow + t));
                }
                e.loop(kmax - kk);

                for (size_t i = ilo; i < ihi; ++i) {
                    Vec acc[tileVecs];
                    double sacc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
                    for (size_t t = 0; t < nv; ++t)
                        acc[t] = e.vload(c + i * n_ + jj + t * w);
                    for (size_t r = 0; r < rest; ++r)
                        sacc[r] = e.load(c + i * n_ + jj + nv * w + r);

                    for (size_t k = kk; k < kmax; ++k) {
                        const double aik = e.load(a + i * n_ + k);
                        const Vec va = e.vbroadcast(aik);
                        const double *prow =
                            packed.data() + (k - kk) * cols;
                        for (size_t t = 0; t < nv; ++t)
                            acc[t] = e.vfmadd(va, e.vload(prow + t * w),
                                              acc[t]);
                        for (size_t r = 0; r < rest; ++r) {
                            const double bv = e.load(prow + nv * w + r);
                            sacc[r] = e.fmadd(aik, bv, sacc[r]);
                        }
                    }

                    for (size_t t = 0; t < nv; ++t)
                        e.vstore(c + i * n_ + jj + t * w, acc[t]);
                    for (size_t r = 0; r < rest; ++r)
                        e.store(c + i * n_ + jj + nv * w + r, sacc[r]);
                    e.loop(kmax - kk);
                }
            }
        }
    }
};

} // namespace rfl::kernels

#endif // RFL_KERNELS_DGEMM_HH
