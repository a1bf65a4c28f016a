#include "support/address_arena.hh"

#include <atomic>

namespace rfl
{

namespace
{
/**
 * Process-global epoch source. Every arena construction and region
 * registration draws a fresh value, so no two (arena, epoch) memo keys
 * ever repeat — even when a new Scope's arena lands on the stack slot
 * of a destroyed one. Atomic only for the counter itself; the rule
 * that registerRegion() must not race translation on other threads is
 * unchanged.
 */
std::atomic<uint64_t> g_nextEpoch{1};

uint64_t
freshEpoch()
{
    return g_nextEpoch.fetch_add(1, std::memory_order_relaxed);
}
} // namespace

thread_local AddressArena *AddressArena::tlsCurrent_ = nullptr;
thread_local AddressArena::Memo AddressArena::tlsMemo_;

AddressArena::AddressArena() : epoch_(freshEpoch()) {}

uint64_t
AddressArena::reserveRegion(size_t bytes)
{
    const uint64_t sim = next_;
    next_ += (bytes + regionAlign - 1) / regionAlign * regionAlign;
    return sim;
}

uint64_t
AddressArena::registerRegion(const void *host, size_t bytes)
{
    const uint64_t sim = reserveRegion(bytes);
    regions_.push_back(
        {reinterpret_cast<uintptr_t>(host), bytes, sim});
    // The new region may shadow the host range of a freed-and-
    // reallocated buffer; drawing a fresh global epoch invalidates
    // every thread's memo so a stale entry into the old region can
    // never win the fast path. NOT safe concurrently with translation
    // on other threads — register everything before entering a
    // parallel section.
    epoch_ = freshEpoch();
    return sim;
}

void
AddressArena::rebindMemo(Memo &m) const
{
    m.arena = this;
    m.epoch = epoch_;
    // Seed every slot with the newest region: it is the one the next
    // translations are most likely to hit right after a registration.
    MemoEntry e;
    if (!regions_.empty()) {
        const Region &r = regions_.back();
        e = MemoEntry{r.host, r.bytes, r.sim - r.host};
    }
    for (MemoEntry &slot : m.recent)
        slot = e;
    m.at = 0;
}

uint64_t
AddressArena::translateScan(uintptr_t addr, Memo &m) const
{
    // Newest region first: a freed-and-reallocated host address must
    // resolve to its latest registration.
    for (size_t i = regions_.size(); i-- > 0;) {
        const Region &r = regions_[i];
        if (addr >= r.host && addr < r.host + r.bytes) {
            m.recent[m.at] = MemoEntry{r.host, r.bytes, r.sim - r.host};
            m.at = (m.at + 1) & 3u;
            return r.sim + (addr - r.host);
        }
    }
    return addr; // unregistered (stack scalar, pre-scope allocation)
}

AddressArena::Scope::Scope() : prev_(tlsCurrent_)
{
    tlsCurrent_ = &arena_;
}

AddressArena::Scope::~Scope()
{
    tlsCurrent_ = prev_;
}

} // namespace rfl
