/**
 * @file
 * Set-associative cache model (one level).
 *
 * Write-back, write-allocate, with pluggable replacement (LRU/FIFO/random).
 * The cache operates on line addresses (byte address >> log2(lineBytes));
 * splitting requests into lines is the memory system's job.
 *
 * Storage is optimized for the simulator's hot path: tags live in a flat
 * set-major array (one 64-bit word per way, invalid ways hold a sentinel
 * tag that can never match), so a lookup is a branch-light tag-compare
 * loop over one cache line of host memory. Replacement metadata
 * (stamp/dirty/prefetched) lives in a parallel array touched only on
 * hits and fills. Set index and tag are mask/shift when the set count is
 * a power of two (the common case; real sliced LLCs may be modulo).
 */

#ifndef RFL_SIM_CACHE_HH
#define RFL_SIM_CACHE_HH

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/config.hh"
#include "support/rng.hh"

namespace rfl::sim
{

/** Per-level hit/miss/writeback statistics. */
struct CacheStats
{
    uint64_t readHits = 0;
    uint64_t readMisses = 0;
    uint64_t writeHits = 0;
    uint64_t writeMisses = 0;
    /** Dirty lines pushed to the next level on eviction. */
    uint64_t writebacks = 0;
    /** Lines installed on behalf of the prefetcher. */
    uint64_t prefetchFills = 0;
    /** Demand hits on lines that were installed by the prefetcher. */
    uint64_t prefetchHits = 0;

    uint64_t hits() const { return readHits + writeHits; }
    uint64_t misses() const { return readMisses + writeMisses; }
    uint64_t accesses() const { return hits() + misses(); }

    CacheStats operator-(const CacheStats &rhs) const;
    CacheStats &operator+=(const CacheStats &rhs);
};

/**
 * One cache level.
 *
 * Usage protocol (driven by the Machine):
 *   1. lookup(line, write) — probe; on hit the line is touched and, for
 *      writes, dirtied.
 *   2. on miss, after the next level supplied the line, fill(line, ...)
 *      installs it and reports an eviction victim if one was displaced.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /** Result of installing a line: whether a victim was displaced. */
    struct Eviction
    {
        bool valid = false;   ///< a line was displaced
        bool dirty = false;   ///< ... and it was dirty (needs writeback)
        uint64_t lineAddr = 0;
    };

    /**
     * Probe for @p line_addr. On a hit the replacement state is updated
     * and the line is dirtied when @p write.
     * @return true on hit.
     */
    bool
    lookup(uint64_t line_addr, bool write)
    {
        ++tick_;
        const size_t idx = findWayIdx(line_addr);
        if (idx == kNoWay) {
            if (write)
                ++stats_.writeMisses;
            else
                ++stats_.readMisses;
            return false;
        }
        if (flags_[idx] & kPrefetched) {
            ++stats_.prefetchHits;
            flags_[idx] = static_cast<uint8_t>(
                flags_[idx] & ~kPrefetched); // first demand touch only
        }
        if (config_.repl == ReplPolicy::LRU)
            stamps_[idx] = tick_;
        if (write) {
            flags_[idx] |= kDirty;
            ++stats_.writeHits;
        } else {
            ++stats_.readHits;
        }
        return true;
    }

    /**
     * Install @p line_addr (after a miss was serviced below).
     * @param write     whether the triggering access was a store
     * @param prefetch  whether the fill was initiated by the prefetcher
     * @return eviction record for the displaced victim, if any.
     */
    Eviction fill(uint64_t line_addr, bool write, bool prefetch);

    /** @return true when the line is present (no state update). */
    bool
    contains(uint64_t line_addr) const
    {
        return findWayIdx(line_addr) != kNoWay;
    }

    /** @return true when present and dirty (no state update). */
    bool
    isDirty(uint64_t line_addr) const
    {
        const size_t idx = findWayIdx(line_addr);
        return idx != kNoWay && (flags_[idx] & kDirty);
    }

    /**
     * Mark the line dirty without touching replacement state or stats.
     * Used for writebacks arriving from the level above.
     * @return true when the line was present.
     */
    bool
    setDirty(uint64_t line_addr)
    {
        const size_t idx = findWayIdx(line_addr);
        if (idx == kNoWay)
            return false;
        flags_[idx] |= kDirty;
        return true;
    }

    /**
     * Remove the line if present.
     * @return true when the removed line was dirty.
     */
    bool invalidate(uint64_t line_addr);

    /**
     * Drop all lines, collecting the addresses of dirty ones into
     * @p dirty_out (for write-back to memory). Used by the cold-cache
     * protocol's flush.
     */
    void flushAll(std::vector<uint64_t> &dirty_out);

    /** Drop all lines without writeback bookkeeping (machine reset). */
    void invalidateAll();

    /** @return number of valid lines currently resident. */
    uint64_t residentLines() const;

    const CacheConfig &config() const { return config_; }
    const CacheStats &stats() const { return stats_; }
    void clearStats() { stats_ = CacheStats{}; }

    /**
     * Enable/disable the MRU way memo (default: on). The memo is a pure
     * lookup accelerator — behaviour is identical either way — but the
     * machine's reference mode (Machine::setFastPath(false)) turns it
     * off so differential tests and the throughput benchmark baseline
     * run the plain set-scan path.
     */
    void
    setMruMemoEnabled(bool enabled)
    {
        mruEnabled_ = enabled;
        if (!enabled)
            mruWay_ = kNoWay;
    }

    /**
     * @return flat way slot of the line the last lookup() hit or fill()
     * installed. Only meaningful directly after such a call and while
     * the MRU memo is enabled; the Machine's fast path captures it to
     * address later touchRepeat() calls without a tag scan.
     */
    size_t lastTouchedWay() const { return mruWay_; }

    /**
     * Repeated demand touch of way slot @p idx, whose line the caller
     * proved resident and already demand-touched (so its prefetched
     * bit is clear). Performs exactly the state updates a lookup() hit
     * would — tick, LRU stamp, hit counters, dirty on write — without
     * the set scan.
     */
    void
    touchRepeat(size_t idx, bool write)
    {
        assert(!(flags_[idx] & kPrefetched)); // demand-touched before
        ++tick_;
        if (config_.repl == ReplPolicy::LRU)
            stamps_[idx] = tick_;
        if (write) {
            flags_[idx] |= kDirty;
            ++stats_.writeHits;
        } else {
            ++stats_.readHits;
        }
    }

    /**
     * Bulk form of touchRepeat(): the state after @p reads read touches
     * and @p writes write touches of way slot @p idx, in any order, is
     * identical to the corresponding touchRepeat() sequence — the tick
     * advances once per touch, only the final LRU stamp survives, the
     * dirty bit is sticky, and the hit counters are additive. The
     * batched consume loop uses this to collapse a same-line run into
     * O(1) updates (see DESIGN.md §8).
     */
    void
    touchRepeatN(size_t idx, uint64_t writes, uint64_t reads)
    {
        assert(!(flags_[idx] & kPrefetched));
        tick_ += writes + reads;
        if (config_.repl == ReplPolicy::LRU)
            stamps_[idx] = tick_;
        if (writes) {
            flags_[idx] |= kDirty;
            stats_.writeHits += writes;
        }
        stats_.readHits += reads;
    }

  private:
    /** Per-way flag bits. */
    static constexpr uint8_t kDirty = 1;
    static constexpr uint8_t kPrefetched = 2;
    /** Tag stored for invalid ways. The sentinel works because tagOf()
     * of any reachable line is < 2^58 (line addresses are byte addresses
     * >> 6), so it can never match a real tag and validity needs no
     * separate flag on the lookup path. */
    static constexpr uint64_t kInvalidTag = ~0ull;
    /** Sentinel for "no way found" / "no memoized way". */
    static constexpr size_t kNoWay = static_cast<size_t>(-1);

    uint32_t
    setIndex(uint64_t line_addr) const
    {
        if (pow2Sets_)
            return static_cast<uint32_t>(line_addr & setMask_);
        return static_cast<uint32_t>(line_addr % numSets_);
    }

    uint64_t
    tagOf(uint64_t line_addr) const
    {
        if (pow2Sets_)
            return line_addr >> setShift_;
        return line_addr / numSets_;
    }

    /** @return line address mapped by way slot @p idx. */
    uint64_t
    lineOf(size_t idx) const
    {
        const uint64_t set = static_cast<uint64_t>(idx) / config_.assoc;
        if (pow2Sets_)
            return (tags_[idx] << setShift_) | set;
        return tags_[idx] * numSets_ + set;
    }

    /**
     * Locate @p line_addr.
     * @return flat way index, or kNoWay. Maintains the MRU memo
     * (mutable members; pure acceleration, hence usable from const).
     */
    size_t
    findWayIdx(uint64_t line_addr) const
    {
        if (mruWay_ != kNoWay && mruLine_ == line_addr)
            return mruWay_;
        const size_t base =
            static_cast<size_t>(setIndex(line_addr)) * config_.assoc;
        const uint64_t tag = tagOf(line_addr);
        const uint64_t *tags = tags_.data() + base;
        for (uint32_t w = 0; w < config_.assoc; ++w) {
            if (tags[w] == tag) {
                if (mruEnabled_) {
                    mruWay_ = base + w;
                    mruLine_ = line_addr;
                }
                return base + w;
            }
        }
        return kNoWay;
    }

    uint32_t pickVictim(uint32_t set);

    CacheConfig config_;
    uint32_t numSets_;
    /** Power-of-two set count: index by mask/shift instead of %-and-/. */
    bool pow2Sets_;
    uint32_t setShift_;
    uint64_t setMask_;
    /**
     * Way state as parallel flat arrays (all set-major, numSets_*assoc):
     * the lookup path scans tags_ only (8 B/way, one host line per set),
     * the victim scan reads stamps_ only, and the dirty/prefetched bits
     * are a byte each touched on hits and fills.
     */
    std::vector<uint64_t> tags_;
    std::vector<uint64_t> stamps_; ///< LRU: last touch; FIFO: insertion
    std::vector<uint8_t> flags_;   ///< kDirty | kPrefetched
    CacheStats stats_;
    uint64_t tick_ = 0;     ///< monotonic access counter for LRU/FIFO
    Rng rng_;               ///< for ReplPolicy::Random

    /**
     * One-entry MRU memo: slot/line of the way the last lookup() hit or
     * fill() installed. Streaks of touches to one resident line resolve
     * with a single compare instead of a set scan. Invariant: when
     * mruWay_ != kNoWay, tags_[mruWay_] maps mruLine_; every operation
     * that could break that (invalidate, flushAll, invalidateAll)
     * clears or retargets the memo.
     */
    mutable size_t mruWay_ = kNoWay;
    mutable uint64_t mruLine_ = 0;
    bool mruEnabled_ = true;
};

} // namespace rfl::sim

#endif // RFL_SIM_CACHE_HH
