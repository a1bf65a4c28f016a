/**
 * @file
 * Sparse matrix-vector product, CSR format: y = A*x.
 *
 * An irregular-access kernel: the column-index gather into x defeats both
 * the analytic traffic model (only bounds exist) and the hardware
 * prefetcher, which is exactly why the paper's *measured* roofline is
 * valuable for kernels like this.
 *
 * Analytic models (nnz nonzeros, nr rows, nc cols):
 *   W = 2 nnz flops
 *   Q_cold ~ 8 nnz (vals) + 4 nnz (colidx) + 4 nr (rowptr)
 *            + 8 nc (x, if every line is eventually touched once)
 *            + 16 nr (y write-allocate + write-back)
 *   The x term is a lower bound; gathers can re-fetch lines.
 */

#ifndef RFL_KERNELS_SPMV_HH
#define RFL_KERNELS_SPMV_HH

#include <cstdint>
#include <vector>

#include "kernels/kernel.hh"
#include "support/aligned_buffer.hh"

namespace rfl::kernels
{

/** See file comment. */
class SpmvCsr : public KernelOf<SpmvCsr>
{
  public:
    /**
     * @param rows        number of rows (and columns; square matrix)
     * @param nnz_per_row nonzeros per row, at uniformly random columns
     */
    SpmvCsr(size_t rows, size_t nnz_per_row);

    std::string name() const override { return "spmv-csr"; }
    std::string sizeLabel() const override;
    size_t workingSetBytes() const override;
    double expectedFlops() const override
    {
        return 2.0 * static_cast<double>(nnz());
    }
    double expectedColdTrafficBytes() const override;
    void init(uint64_t seed) override;
    double checksum() const override;

    size_t nnz() const { return rows_ * nnzPerRow_; }

  private:
    friend KernelOf;

    template <typename E>
    void
    runT(E &e, int part, int nparts)
    {
        const auto [rlo, rhi] = partitionRange(rows_, part, nparts, 1);
        const double *vals = vals_.data();
        const int32_t *cols = cols_.data();
        const int32_t *rowptr = rowptr_.data();
        const double *x = x_.data();
        double *y = y_.data();
        for (size_t r = rlo; r < rhi; ++r) {
            e.loadRaw(rowptr + r, 8); // rowptr[r] and rowptr[r+1]
            const int32_t lo = rowptr[r];
            const int32_t hi = rowptr[r + 1];
            double acc = 0.0;
            for (int32_t idx = lo; idx < hi; ++idx) {
                e.loadRaw(cols + idx, 4);
                const int32_t col = cols[idx];
                const double v = e.load(vals + idx);
                const double xv = e.load(x + col);
                acc = e.fmadd(v, xv, acc);
            }
            e.store(y + r, acc);
            e.loop(static_cast<uint64_t>(hi - lo), 3);
        }
    }

    size_t rows_;
    size_t nnzPerRow_;
    AlignedBuffer<double> vals_;
    AlignedBuffer<int32_t> cols_;
    AlignedBuffer<int32_t> rowptr_;
    AlignedBuffer<double> x_;
    AlignedBuffer<double> y_;
};

} // namespace rfl::kernels

#endif // RFL_KERNELS_SPMV_HH
