#include "kernels/strided.hh"

#include "support/logging.hh"

namespace rfl::kernels
{

StridedSum::StridedSum(size_t n, size_t stride)
    : n_(n), stride_(stride), x_(n * stride, uninitialized)
{
    RFL_ASSERT(n > 0 && stride > 0);
}

std::string
StridedSum::sizeLabel() const
{
    return "n=" + std::to_string(n_) +
           ",stride=" + std::to_string(stride_);
}

double
StridedSum::expectedColdTrafficBytes() const
{
    const double n = static_cast<double>(n_);
    if (stride_ >= 8)
        return 64.0 * n; // one distinct line per touch
    const double lines =
        std::ceil(n * static_cast<double>(stride_) / 8.0);
    return 64.0 * lines;
}

void
StridedSum::init(uint64_t seed)
{
    // Only the n touched elements are written: the buffer spans
    // n*stride doubles for its address layout, and host pages between
    // touches are never faulted in.
    Rng rng(seed);
    result_ = 0.0;
    for (size_t i = 0; i < n_; ++i)
        x_[i * stride_] = rng.nextDouble(-1.0, 1.0);
}

} // namespace rfl::kernels
