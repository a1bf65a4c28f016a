#include "kernels/dot.hh"

#include "support/logging.hh"

namespace rfl::kernels
{

Dot::Dot(size_t n)
    : n_(n), x_(n, uninitialized), y_(n, uninitialized)
{
    RFL_ASSERT(n > 0);
}

std::string
Dot::sizeLabel() const
{
    return "n=" + std::to_string(n_);
}

void
Dot::init(uint64_t seed)
{
    Rng rng(seed);
    result_ = 0.0;
    for (size_t i = 0; i < n_; ++i) {
        x_[i] = rng.nextDouble(-1.0, 1.0);
        y_[i] = rng.nextDouble(-1.0, 1.0);
    }
}

} // namespace rfl::kernels
