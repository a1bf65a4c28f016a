#include "kernels/strided.hh"

#include "support/logging.hh"

namespace rfl::kernels
{

StridedSum::StridedSum(size_t n, size_t stride)
    : n_(n), stride_(stride), x_(n * stride)
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
    Rng rng(seed);
    result_ = 0.0;
    for (size_t i = 0; i < x_.size(); ++i)
        x_[i] = rng.nextDouble(-1.0, 1.0);
}

} // namespace rfl::kernels
