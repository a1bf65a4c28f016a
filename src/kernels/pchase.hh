/**
 * @file
 * Pointer chase: follow a random cyclic permutation of cache-line-sized
 * nodes. Every load depends on the previous one, so the machine's
 * memory-level parallelism collapses to 1 — the latency-bound extreme
 * the roofline's pure-bandwidth roof cannot describe.
 *
 * Not a roofline point (W = 0); used by tests and the latency ablation.
 *
 * Analytic model: Q_cold = 64 * hops bytes (one line per hop, no reuse
 * within a cycle shorter than the chase length).
 */

#ifndef RFL_KERNELS_PCHASE_HH
#define RFL_KERNELS_PCHASE_HH

#include <cstdint>

#include "kernels/kernel.hh"
#include "support/aligned_buffer.hh"

namespace rfl::kernels
{

/** See file comment. */
class PointerChase : public KernelOf<PointerChase>
{
  public:
    /**
     * @param nodes number of 64-byte nodes in the permutation cycle
     * @param hops  loads to perform (defaults to one full cycle)
     */
    explicit PointerChase(size_t nodes, size_t hops = 0);

    std::string name() const override { return "pointer-chase"; }
    std::string sizeLabel() const override;
    size_t workingSetBytes() const override { return 64 * nodes_; }
    double expectedFlops() const override { return 0.0; }
    double expectedColdTrafficBytes() const override
    {
        const double unique =
            static_cast<double>(std::min(hops_, nodes_));
        return 64.0 * unique;
    }
    void init(uint64_t seed) override;
    bool parallelizable() const override { return false; }
    bool dependentAccesses() const override { return true; }
    double checksum() const override
    {
        return static_cast<double>(lastVisited_);
    }

  private:
    friend KernelOf;

    template <typename E>
    void
    runT(E &e, int /*part*/, int /*nparts*/)
    {
        // Node i's "next" pointer is next_[8*i] (nodes are 64 B apart so
        // consecutive hops never share a line).
        const uint64_t *next = next_.data();
        uint64_t cur = 0;
        for (size_t h = 0; h < hops_; ++h) {
            e.loadRaw(next + 8 * cur, 8);
            cur = next[8 * cur];
        }
        e.loop(hops_);
        lastVisited_ = cur;
    }

    size_t nodes_;
    size_t hops_;
    uint64_t lastVisited_ = 0;
    AlignedBuffer<uint64_t> next_; ///< 8 u64 per node (64 B stride)
};

} // namespace rfl::kernels

#endif // RFL_KERNELS_PCHASE_HH
