/**
 * @file
 * Deterministic simulated-address assignment for kernel operands.
 *
 * The simulated machine indexes caches, TLBs and NUMA pages by the
 * addresses the engines present. Using raw host pointers makes the
 * simulation depend on heap layout — allocation order, malloc reuse and
 * ASLR would all perturb conflict misses and page placement, so two runs
 * of the *same* experiment could disagree. That breaks both campaign
 * determinism (N-thread == 1-thread) and content-addressed result
 * caching across processes.
 *
 * An AddressArena fixes the simulated address space instead: while a
 * Scope is active on the current thread, every AlignedBuffer allocation
 * registers itself and receives a canonical base address — sequential
 * 2 MiB-aligned regions starting at 4 GiB — and SimEngine translates
 * host pointers through the active arena before touching the machine.
 * The address trace of a measurement then depends only on the kernel and
 * its allocation sequence, never on the host.
 *
 * Without an active scope, translation is the identity (host addresses
 * pass through, the pre-campaign behaviour).
 *
 * A region can also be reserved without host backing (reserveRegion):
 * it takes its place in the canonical sequence like any allocation, but
 * the code using it emits simulated addresses itself and never touches
 * host memory.
 */

#ifndef RFL_SUPPORT_ADDRESS_ARENA_HH
#define RFL_SUPPORT_ADDRESS_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rfl
{

/** See file comment. */
class AddressArena
{
  public:
    /** First canonical base: clear of the identity-mapped low range. */
    static constexpr uint64_t baseAddress = 1ull << 32;
    /** Region alignment: buffers never share a page or cache set tail. */
    static constexpr uint64_t regionAlign = 2ull << 20;

    AddressArena(); // defined in the .cc: draws a globally unique epoch

    /**
     * Record a host allocation and @return its canonical simulated base.
     * Called by AlignedBuffer::reset() when a scope is active.
     */
    uint64_t registerRegion(const void *host, size_t bytes);

    /**
     * Reserve @p bytes of simulated address space with no host backing
     * and @return its canonical base: the cursor advances exactly as
     * registerRegion() would, but no host range is recorded, so no
     * pointer ever translates into it. Callers that only need an
     * address stream (the bandwidth probes) emit simulated addresses
     * in the region directly, e.g. through SimEngine::loadAt().
     */
    uint64_t reserveRegion(size_t bytes);

    /**
     * @return the simulated address of @p p: its offset within the most
     * recently registered region containing it, rebased to that region's
     * canonical base; identity for unregistered pointers.
     *
     * Inline fast path: translate() runs for every simulated load and
     * store, and streaming kernels overwhelmingly stay inside the last
     * region hit, so the memo check must not cost a function call.
     *
     * Thread safety: the memo lives in thread-local storage (keyed by
     * arena identity + registration epoch), so translation is a const
     * read with no shared mutable state: any number of threads may
     * translate through the same arena concurrently, and campaign
     * executor threads, each inside its own Scope, never contend on a
     * memo. Concurrent registerRegion() calls are NOT allowed.
     */
    uint64_t
    translatePointer(const void *p) const
    {
        const uintptr_t addr = reinterpret_cast<uintptr_t>(p);
        Memo &m = tlsMemo_;
        if (m.arena != this || m.epoch != epoch_) [[unlikely]]
            rebindMemo(m);
        // The memo can never point at a shadowed (freed-then-reused)
        // host range: the epoch check above rebinds it whenever a new
        // region appears. Entries hold the resolved (host, bytes, delta)
        // triple, so a hit is one subtract and compare with no region-
        // table indirection. Four entries so kernels cycling through up
        // to four operand buffers (triad's a/b/c) stay on the fast path.
        for (const MemoEntry &e : m.recent) {
            if (addr - e.host < e.bytes) // unsigned: rejects < host
                return addr + e.delta;
        }
        return translateScan(addr, m);
    }

    /** Arena active on this thread, or nullptr. */
    static AddressArena *current() { return tlsCurrent_; }

    /** translatePointer() through current(); identity without a scope. */
    static uint64_t
    translate(const void *p)
    {
        const AddressArena *arena = tlsCurrent_;
        if (!arena)
            return reinterpret_cast<uintptr_t>(p);
        return arena->translatePointer(p);
    }

    /**
     * RAII activation: installs a fresh arena as the current thread's
     * translation context, restoring the previous one on destruction
     * (scopes nest; the innermost wins). Defined after the class body —
     * it holds an arena by value.
     */
    class Scope;

  private:
    struct Region
    {
        uintptr_t host;
        size_t bytes;
        uint64_t sim;
    };

    /**
     * Per-thread translation memo: round-robin cache of the region
     * indices recent translations hit. Streaming kernels cycle through
     * a handful of operand buffers, so almost every translation
     * resolves against one of these with a couple of range compares
     * (translate is called for every simulated load/store). Keyed by
     * (arena, epoch): a registerRegion() bumps the epoch, invalidating
     * every thread's memo so it can never point at a shadowed
     * (freed-then-reallocated) host range.
     */
    /** One resolved region: sim = host address + delta (mod 2^64). An
     *  empty slot has bytes == 0 and can never match. */
    struct MemoEntry
    {
        uintptr_t host = 0;
        size_t bytes = 0;
        uint64_t delta = 0;
    };

    struct Memo
    {
        const AddressArena *arena = nullptr;
        uint64_t epoch = 0;
        MemoEntry recent[4];
        uint32_t at = 0;
    };

    /** Memo-miss path: scan regions newest-first; identity on no match.*/
    uint64_t translateScan(uintptr_t addr, Memo &m) const;

    /** Point @p m at this arena's newest region (cold path). */
    void rebindMemo(Memo &m) const;

    static thread_local AddressArena *tlsCurrent_;
    static thread_local Memo tlsMemo_;

    std::vector<Region> regions_;
    uint64_t next_ = baseAddress;
    /**
     * Drawn from a process-global monotonic counter at construction and
     * on every registerRegion(), so it invalidates every thread's memo —
     * including memos left by a DIFFERENT arena that happened to occupy
     * the same address (Scope holds the arena by value, so consecutive
     * scopes reuse a stack slot; a per-arena counter would repeat and
     * let a stale memo resolve a reused host range with the old
     * arena's delta).
     */
    uint64_t epoch_;
};

/** See the declaration inside AddressArena. */
class AddressArena::Scope
{
  public:
    Scope();
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    AddressArena &arena() { return arena_; }

  private:
    AddressArena arena_;
    AddressArena *prev_;
};

} // namespace rfl

#endif // RFL_SUPPORT_ADDRESS_ARENA_HH
