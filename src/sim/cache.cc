#include "sim/cache.hh"

#include <algorithm>
#include <bit>
#include <cassert>

#include "support/logging.hh"

namespace rfl::sim
{

CacheStats
CacheStats::operator-(const CacheStats &rhs) const
{
    CacheStats d;
    d.readHits = readHits - rhs.readHits;
    d.readMisses = readMisses - rhs.readMisses;
    d.writeHits = writeHits - rhs.writeHits;
    d.writeMisses = writeMisses - rhs.writeMisses;
    d.writebacks = writebacks - rhs.writebacks;
    d.prefetchFills = prefetchFills - rhs.prefetchFills;
    d.prefetchHits = prefetchHits - rhs.prefetchHits;
    return d;
}

CacheStats &
CacheStats::operator+=(const CacheStats &rhs)
{
    readHits += rhs.readHits;
    readMisses += rhs.readMisses;
    writeHits += rhs.writeHits;
    writeMisses += rhs.writeMisses;
    writebacks += rhs.writebacks;
    prefetchFills += rhs.prefetchFills;
    prefetchHits += rhs.prefetchHits;
    return *this;
}

Cache::Cache(const CacheConfig &config)
    : config_(config), numSets_(config.numSets()),
      pow2Sets_(std::has_single_bit(numSets_)),
      setShift_(static_cast<uint32_t>(std::countr_zero(numSets_))),
      setMask_(numSets_ - 1),
      tags_(static_cast<size_t>(numSets_) * config.assoc, kInvalidTag),
      stamps_(static_cast<size_t>(numSets_) * config.assoc, 0),
      flags_(static_cast<size_t>(numSets_) * config.assoc, 0),
      rng_(0xcafef00d + config.sizeBytes)
{
}

uint32_t
Cache::pickVictim(uint32_t set)
{
    // Single pass: take the first invalid way if there is one, else the
    // smallest stamp (LRU refreshes stamps on touch, FIFO does not).
    const size_t base = static_cast<size_t>(set) * config_.assoc;
    uint32_t victim = 0;
    uint64_t victim_stamp = ~0ull;
    for (uint32_t w = 0; w < config_.assoc; ++w) {
        if (tags_[base + w] == kInvalidTag)
            return w;
        if (stamps_[base + w] < victim_stamp) {
            victim = w;
            victim_stamp = stamps_[base + w];
        }
    }
    if (config_.repl == ReplPolicy::Random)
        return static_cast<uint32_t>(rng_.nextBounded(config_.assoc));
    return victim;
}

Cache::Eviction
Cache::fill(uint64_t line_addr, bool write, bool prefetch)
{
    // Interior invariant (the Machine only fills after a miss); checked
    // in debug builds — an always-on scan here would double the cost of
    // the simulator's fill path.
    assert(!contains(line_addr));
    ++tick_;
    const uint32_t set = setIndex(line_addr);
    const uint32_t victim = pickVictim(set);
    const size_t idx =
        static_cast<size_t>(set) * config_.assoc + victim;

    Eviction ev;
    if (tags_[idx] != kInvalidTag) {
        ev.valid = true;
        ev.dirty = (flags_[idx] & kDirty) != 0;
        ev.lineAddr = pow2Sets_ ? ((tags_[idx] << setShift_) | set)
                                : (tags_[idx] * numSets_ + set);
        if (ev.dirty)
            ++stats_.writebacks;
    }

    tags_[idx] = tagOf(line_addr);
    flags_[idx] = static_cast<uint8_t>((write ? kDirty : 0) |
                                       (prefetch ? kPrefetched : 0));
    stamps_[idx] = tick_;
    // Retarget the MRU memo at the installed line. This also repairs the
    // memo when the victim way was the memoized one.
    if (mruEnabled_) {
        mruWay_ = idx;
        mruLine_ = line_addr;
    } else if (mruWay_ == idx) {
        mruWay_ = kNoWay;
    }
    if (prefetch)
        ++stats_.prefetchFills;
    return ev;
}

bool
Cache::invalidate(uint64_t line_addr)
{
    const size_t idx = findWay(line_addr);
    if (idx == kNoWay)
        return false;
    const bool was_dirty = (flags_[idx] & kDirty) != 0;
    tags_[idx] = kInvalidTag;
    flags_[idx] = 0;
    if (mruWay_ == idx)
        mruWay_ = kNoWay;
    return was_dirty;
}

void
Cache::flushAll(std::vector<uint64_t> &dirty_out)
{
    for (size_t idx = 0; idx < tags_.size(); ++idx) {
        if (tags_[idx] != kInvalidTag && (flags_[idx] & kDirty))
            dirty_out.push_back(lineOf(idx));
        tags_[idx] = kInvalidTag;
        flags_[idx] = 0;
    }
    mruWay_ = kNoWay;
}

void
Cache::invalidateAll()
{
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(flags_.begin(), flags_.end(), 0);
    mruWay_ = kNoWay;
}

uint64_t
Cache::residentLines() const
{
    uint64_t n = 0;
    for (uint64_t tag : tags_)
        if (tag != kInvalidTag)
            ++n;
    return n;
}

} // namespace rfl::sim
