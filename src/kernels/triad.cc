#include "kernels/triad.hh"

#include "support/logging.hh"

namespace rfl::kernels
{

Triad::Triad(size_t n, bool nt)
    : n_(n), nt_(nt), a_(n, uninitialized), b_(n, uninitialized),
      c_(n, uninitialized)
{
    RFL_ASSERT(n > 0);
}

std::string
Triad::sizeLabel() const
{
    return "n=" + std::to_string(n_);
}

void
Triad::init(uint64_t seed)
{
    Rng rng(seed);
    s_ = rng.nextDouble(0.5, 2.0);
    for (size_t i = 0; i < n_; ++i) {
        a_[i] = 0.0;
        b_[i] = rng.nextDouble(-1.0, 1.0);
        c_[i] = rng.nextDouble(-1.0, 1.0);
    }
}

double
Triad::checksum() const
{
    double s = 0.0;
    for (size_t i = 0; i < n_; ++i)
        s += a_[i];
    return s;
}

} // namespace rfl::kernels
