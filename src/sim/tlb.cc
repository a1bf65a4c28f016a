#include "sim/tlb.hh"

#include <algorithm>
#include <bit>

namespace rfl::sim
{

namespace
{

bool
isPow2(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

void
TlbConfig::validate() const
{
    if (!isPow2(pageBytes))
        fatal("tlb: page size must be a power of two");
    if (l1Assoc == 0 || l1Entries % l1Assoc != 0)
        fatal("tlb: bad L1 geometry");
    if (l2Assoc == 0 || l2Entries % l2Assoc != 0)
        fatal("tlb: bad L2 geometry");
}

TlbStats
TlbStats::operator-(const TlbStats &rhs) const
{
    TlbStats d;
    d.accesses = accesses - rhs.accesses;
    d.l1Misses = l1Misses - rhs.l1Misses;
    d.walks = walks - rhs.walks;
    return d;
}

Tlb::Tlb(const TlbConfig &config)
    : config_(config),
      pageShift_(static_cast<uint32_t>(std::countr_zero(config.pageBytes))),
      l1Sets_(config.l1Entries / config.l1Assoc),
      l2Sets_(config.l2Entries / config.l2Assoc),
      l1Pow2_(std::has_single_bit(l1Sets_)), l1Mask_(l1Sets_ - 1),
      l1_(config.l1Entries), l2_(config.l2Entries),
      l1Mru_(l1Sets_, kInvalidVpn)
{
    config_.validate();
}

bool
Tlb::lookupLevel(Level &level, uint32_t sets, uint32_t assoc,
                 uint64_t vpn, uint64_t tick)
{
    const size_t base =
        static_cast<size_t>(static_cast<uint32_t>(vpn % sets)) * assoc;
    for (uint32_t w = 0; w < assoc; ++w) {
        if (level.vpns[base + w] == vpn) {
            level.stamps[base + w] = tick;
            return true;
        }
    }
    return false;
}

void
Tlb::fillLevel(Level &level, uint32_t sets, uint32_t assoc, uint64_t vpn,
               uint64_t tick)
{
    const size_t base =
        static_cast<size_t>(static_cast<uint32_t>(vpn % sets)) * assoc;
    size_t victim = base;
    uint64_t victim_stamp = ~0ull;
    for (uint32_t w = 0; w < assoc; ++w) {
        if (level.vpns[base + w] == kInvalidVpn) {
            victim = base + w;
            break;
        }
        if (level.stamps[base + w] < victim_stamp) {
            victim = base + w;
            victim_stamp = level.stamps[base + w];
        }
    }
    level.vpns[victim] = vpn;
    level.stamps[victim] = tick;
}

double
Tlb::translateL1Miss(uint64_t vpn, uint32_t set)
{
    ++stats_.l1Misses;
    // Either way the page is filled into the L1 DTLB with the newest
    // stamp of its set.
    l1Mru_[set] = vpn;

    if (lookupLevel(l2_, l2Sets_, config_.l2Assoc, vpn, tick_)) {
        fillLevel(l1_, l1Sets_, config_.l1Assoc, vpn, tick_);
        return config_.l2LatencyCycles;
    }
    ++stats_.walks;
    fillLevel(l2_, l2Sets_, config_.l2Assoc, vpn, tick_);
    fillLevel(l1_, l1Sets_, config_.l1Assoc, vpn, tick_);
    return config_.walkLatencyCycles;
}

void
Tlb::flush()
{
    std::fill(l1_.vpns.begin(), l1_.vpns.end(), kInvalidVpn);
    std::fill(l2_.vpns.begin(), l2_.vpns.end(), kInvalidVpn);
    std::fill(l1Mru_.begin(), l1Mru_.end(), kInvalidVpn);
}

} // namespace rfl::sim
