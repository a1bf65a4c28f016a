#include "kernels/spmv.hh"

#include <algorithm>

#include "support/logging.hh"

namespace rfl::kernels
{

SpmvCsr::SpmvCsr(size_t rows, size_t nnz_per_row)
    : rows_(rows), nnzPerRow_(nnz_per_row),
      vals_(rows * nnz_per_row, uninitialized),
      cols_(rows * nnz_per_row, uninitialized),
      rowptr_(rows + 1, uninitialized), x_(rows, uninitialized),
      y_(rows, uninitialized)
{
    RFL_ASSERT(rows > 0 && nnz_per_row > 0 && nnz_per_row <= rows);
}

std::string
SpmvCsr::sizeLabel() const
{
    return "rows=" + std::to_string(rows_) +
           ",nnz/row=" + std::to_string(nnzPerRow_);
}

size_t
SpmvCsr::workingSetBytes() const
{
    return 8 * nnz() + 4 * nnz() + 4 * (rows_ + 1) + 16 * rows_;
}

double
SpmvCsr::expectedColdTrafficBytes() const
{
    const double nr = static_cast<double>(rows_);
    const double nz = static_cast<double>(nnz());
    return 8.0 * nz + 4.0 * nz + 4.0 * nr + 8.0 * nr + 16.0 * nr;
}

void
SpmvCsr::init(uint64_t seed)
{
    Rng rng(seed);
    rowptr_[0] = 0;
    for (size_t r = 0; r < rows_; ++r)
        rowptr_[r + 1] =
            static_cast<int32_t>((r + 1) * nnzPerRow_);
    std::vector<int32_t> row_cols(nnzPerRow_);
    for (size_t r = 0; r < rows_; ++r) {
        for (size_t k = 0; k < nnzPerRow_; ++k)
            row_cols[k] = static_cast<int32_t>(rng.nextBounded(rows_));
        std::sort(row_cols.begin(), row_cols.end());
        for (size_t k = 0; k < nnzPerRow_; ++k) {
            const size_t idx = r * nnzPerRow_ + k;
            cols_[idx] = row_cols[k];
            vals_[idx] = rng.nextDouble(-1.0, 1.0);
        }
    }
    for (size_t i = 0; i < rows_; ++i) {
        x_[i] = rng.nextDouble(-1.0, 1.0);
        y_[i] = 0.0;
    }
}

double
SpmvCsr::checksum() const
{
    double s = 0.0;
    for (size_t i = 0; i < rows_; ++i)
        s += y_[i];
    return s;
}

} // namespace rfl::kernels
