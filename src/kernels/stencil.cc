#include "kernels/stencil.hh"

#include "support/logging.hh"

namespace rfl::kernels
{

Stencil3::Stencil3(size_t n)
    : n_(n), a_(n, uninitialized), b_(n, uninitialized)
{
    RFL_ASSERT(n >= 16);
}

std::string
Stencil3::sizeLabel() const
{
    return "n=" + std::to_string(n_);
}

void
Stencil3::init(uint64_t seed)
{
    Rng rng(seed);
    for (size_t i = 0; i < n_; ++i) {
        a_[i] = rng.nextDouble(-1.0, 1.0);
        b_[i] = 0.0;
    }
}

double
Stencil3::checksum() const
{
    double s = 0.0;
    for (size_t i = 0; i < n_; ++i)
        s += b_[i];
    return s;
}

} // namespace rfl::kernels
