/**
 * @file
 * Two-level data-TLB model.
 *
 * Large-stride access patterns on paper-era Xeons are co-limited by the
 * hardware prefetcher giving up and by DTLB misses; a roofline
 * methodology that wants to explain *why* a point sits under the roof
 * needs both effects. The model is a standard two-level TLB: a small
 * set-associative L1 DTLB backed by a larger STLB; a miss in both costs
 * a fixed page-walk latency (walks usually hit the paging-structure
 * caches, so they add latency but no modeled DRAM traffic).
 */

#ifndef RFL_SIM_TLB_HH
#define RFL_SIM_TLB_HH

#include <cstdint>
#include <vector>

#include "support/logging.hh"

namespace rfl::sim
{

/** Geometry/penalty of the two-level DTLB. */
struct TlbConfig
{
    bool enabled = true;
    uint32_t pageBytes = 4096;
    /** L1 DTLB entries and associativity (64 x 4-way is typical). */
    uint32_t l1Entries = 64;
    uint32_t l1Assoc = 4;
    /** Second-level TLB entries and associativity. */
    uint32_t l2Entries = 1536;
    uint32_t l2Assoc = 8;
    /** STLB hit penalty in cycles. */
    double l2LatencyCycles = 7.0;
    /** Full page-walk penalty in cycles. */
    double walkLatencyCycles = 35.0;

    void validate() const;

    bool operator==(const TlbConfig &rhs) const = default;
};

/** Per-core TLB statistics. */
struct TlbStats
{
    uint64_t accesses = 0;
    uint64_t l1Misses = 0;
    uint64_t walks = 0; ///< missed both levels

    double
    missRate() const
    {
        return accesses ? static_cast<double>(l1Misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }

    TlbStats operator-(const TlbStats &rhs) const;
};

/**
 * Two-level TLB (one per core). translate() returns the added latency
 * in cycles for the translation of one page access.
 */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &config);

    /**
     * Translate the page containing byte address @p addr.
     * @return extra latency cycles (0 on an L1 DTLB hit).
     *
     * The L1-DTLB-hit path is inline: translate() runs for every
     * simulated line touch whose page is not its set's MRU (see
     * isSetMru()), and the overwhelming majority of those hit the
     * first-level TLB.
     */
    double
    translate(uint64_t addr)
    {
        if (!config_.enabled)
            return 0.0;
        ++tick_;
        ++stats_.accesses;
        const uint64_t vpn = addr >> pageShift_;
        const uint32_t set = l1SetOf(vpn);
        const size_t base = static_cast<size_t>(set) * config_.l1Assoc;
        const uint64_t *vpns = l1_.vpns.data() + base;
        for (uint32_t w = 0; w < config_.l1Assoc; ++w) {
            if (vpns[w] == vpn) {
                l1_.stamps[base + w] = tick_;
                l1Mru_[set] = vpn;
                return 0.0;
            }
        }
        return translateL1Miss(vpn, set);
    }

    /**
     * @return whether the page of @p addr is the most recently used
     * entry of its L1 DTLB set: written on every L1 hit and every fill,
     * cleared by flush(), so a match proves the translation hits the L1
     * DTLB with zero latency and that the page's entry already holds
     * the newest stamp of its set. Never true while the TLB is
     * disabled.
     */
    bool
    isSetMru(uint64_t addr) const
    {
        const uint64_t vpn = addr >> pageShift_;
        return l1Mru_[l1SetOf(vpn)] == vpn;
    }

    /**
     * Account one translation of a page that isSetMru(): it hits the
     * L1 DTLB with zero latency. Only the access counter moves; the
     * stamp update and the tick are skipped. That is exact because
     * replacement compares stamps only within one set and the set's
     * MRU already holds the newest of them, so every comparison comes
     * out the same (each set has at most one such frozen stamp). See
     * DESIGN.md §7.
     */
    void countStreakAccess() { ++stats_.accesses; }

    /** Bulk form of countStreakAccess() for a coalesced same-line run. */
    void countStreakAccesses(uint64_t count) { stats_.accesses += count; }

    /** Drop all translations (context switch / explicit flush). */
    void flush();

    const TlbConfig &config() const { return config_; }
    const TlbStats &stats() const { return stats_; }
    void clearStats() { stats_ = TlbStats{}; }

  private:
    /**
     * Invalid-entry sentinel, the same trick as the cache's tag array:
     * no reachable address produces this vpn, so the lookup loop needs
     * no separate valid flag.
     */
    static constexpr uint64_t kInvalidVpn = ~0ull;

    /** One TLB level as flat set-major arrays (vpns scanned, stamps
     *  touched on hit/fill). */
    struct Level
    {
        std::vector<uint64_t> vpns;
        std::vector<uint64_t> stamps;

        explicit Level(uint32_t entries)
            : vpns(entries, kInvalidVpn), stamps(entries, 0)
        {
        }
    };

    /** Lookup and LRU-touch @p vpn in a level. */
    static bool lookupLevel(Level &level, uint32_t sets, uint32_t assoc,
                            uint64_t vpn, uint64_t tick);
    /** Insert @p vpn (LRU victim) into a level. */
    static void fillLevel(Level &level, uint32_t sets, uint32_t assoc,
                          uint64_t vpn, uint64_t tick);

    /** Continue a translation that missed L1 DTLB set @p set (STLB,
     *  walk). */
    double translateL1Miss(uint64_t vpn, uint32_t set);

    /** L1 DTLB set of @p vpn. */
    uint32_t
    l1SetOf(uint64_t vpn) const
    {
        return l1Pow2_ ? static_cast<uint32_t>(vpn & l1Mask_)
                       : static_cast<uint32_t>(vpn % l1Sets_);
    }

    TlbConfig config_;
    uint32_t pageShift_;
    uint32_t l1Sets_;
    uint32_t l2Sets_;
    bool l1Pow2_;
    uint64_t l1Mask_;
    Level l1_;
    Level l2_;
    /** Per L1 DTLB set: the vpn holding the set's newest stamp, or
     *  kInvalidVpn (see isSetMru()). */
    std::vector<uint64_t> l1Mru_;
    TlbStats stats_;
    uint64_t tick_ = 0;
};

} // namespace rfl::sim

#endif // RFL_SIM_TLB_HH
