#include "kernels/dgemv.hh"

#include "support/logging.hh"

namespace rfl::kernels
{

Dgemv::Dgemv(size_t m, size_t n)
    : m_(m), n_(n), a_(m * n, uninitialized), x_(n, uninitialized),
      y_(m, uninitialized)
{
    RFL_ASSERT(m > 0 && n > 0);
}

std::string
Dgemv::sizeLabel() const
{
    return "m=" + std::to_string(m_) + ",n=" + std::to_string(n_);
}

void
Dgemv::init(uint64_t seed)
{
    Rng rng(seed);
    for (size_t i = 0; i < m_ * n_; ++i)
        a_[i] = rng.nextDouble(-1.0, 1.0);
    for (size_t i = 0; i < n_; ++i)
        x_[i] = rng.nextDouble(-1.0, 1.0);
    for (size_t i = 0; i < m_; ++i)
        y_[i] = rng.nextDouble(-1.0, 1.0);
}

double
Dgemv::checksum() const
{
    double s = 0.0;
    for (size_t i = 0; i < m_; ++i)
        s += y_[i];
    return s;
}

} // namespace rfl::kernels
