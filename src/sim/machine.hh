/**
 * @file
 * The simulated platform: sockets x cores, private L1/L2, shared L3 per
 * socket, IMC with CAS counters, hardware prefetchers, NUMA placement,
 * and an analytic in-order timing model.
 *
 * The machine is a *counting* simulator: the data path records exactly the
 * observables the paper's methodology needs (FP retirement by SIMD width,
 * per-level cache hits/misses, IMC CAS reads/writes) as cumulative
 * counters. Runtime for a measured region is derived from counter deltas
 * with a bandwidth/issue-bound max model plus an exposed-latency term, so
 * roofline behaviour emerges from machine structure, not from the plot.
 *
 * Threading model: simulated cores execute their work partitions
 * sequentially (the host has however many cores it has; simulated timing
 * is independent of host time). Shared-L3 interleaving between co-running
 * cores is therefore approximated; see DESIGN.md §5.
 */

#ifndef RFL_SIM_MACHINE_HH
#define RFL_SIM_MACHINE_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "sim/cache.hh"
#include "sim/config.hh"
#include "sim/core.hh"
#include "sim/imc.hh"
#include "sim/prefetcher.hh"
#include "sim/tlb.hh"
#include "trace/access_batch.hh"

namespace rfl::sim
{

/** Placement policy for the simulated physical memory (NUMA). */
enum class MemPolicy
{
    /** Every page lives on socket 0 (no binding; worst case remote). */
    Socket0,
    /** Pages live on the accessing core's socket (ideal numactl bind). */
    LocalToAccessor,
    /** Pages round-robin across sockets at 4 KiB granularity. */
    Interleave,
};

/** @return printable policy name: "socket0", "local" or "interleave",
 *  also the `numa=` spelling of campaign specs and their cache keys. */
const char *memPolicyName(MemPolicy policy);

/**
 * Simulated multi-socket machine. See file comment for the model.
 */
class Machine
{
  public:
    /**
     * A producer of buffered access-stream batches (in practice a
     * batched SimEngine). Attached sources are drained — forced to
     * flushPendingBatch() — before every machine observation or
     * control-state change (snapshot, flushes, resets, knob setters,
     * component accessors), so buffering is architecturally invisible:
     * no caller can ever observe counters that are missing buffered
     * accesses. Data-path entries (load/store/simulateBatch) do NOT
     * drain; they are what a drain calls into.
     */
    class BatchSource
    {
      public:
        virtual ~BatchSource() = default;
        /** Simulate (and forget) every buffered record, in order. */
        virtual void flushPendingBatch() = 0;
    };

    explicit Machine(const MachineConfig &cfg);

    const MachineConfig &config() const { return cfg_; }
    int numCores() const { return numCores_; }
    int numSockets() const { return cfg_.sockets; }
    /** @return socket that owns core @p core. */
    int socketOf(int core) const { return core / cfg_.coresPerSocket; }

    /** Enable/disable all hardware prefetchers (the MSR 0x1A4 knob). */
    void
    setPrefetchEnabled(bool enabled)
    {
        drainBatchSources(); // buffered accesses ran under the old knob
        prefetchEnabled_ = enabled;
    }
    bool prefetchEnabled() const { return prefetchEnabled_; }

    /** Select the NUMA page-placement policy. */
    void
    setMemPolicy(MemPolicy policy)
    {
        drainBatchSources();
        memPolicy_ = policy;
    }
    MemPolicy memPolicy() const { return memPolicy_; }

    /**
     * Model a dependent-access workload (pointer chasing): the exposed
     * latency term uses MLP = 1 instead of the configured line-fill
     * parallelism.
     */
    void
    setDependentAccesses(bool dependent)
    {
        drainBatchSources();
        dependent_ = dependent;
    }
    bool dependentAccesses() const { return dependent_; }

    /** @name Batched access-stream consumption (see trace/). */
    ///@{
    /** Attach @p source for draining at observation points. */
    void attachBatchSource(BatchSource &source);
    /** Detach @p source (no-op when not attached). */
    void detachBatchSource(BatchSource &source);
    /**
     * Force every attached source to flush its buffered records now, in
     * attachment order. Called by every observation/control entry point;
     * cheap when nothing is attached (the common case is one source).
     */
    void drainBatchSources() const;

    /**
     * Consume one IR batch: every record produces exactly the state and
     * counter updates the equivalent load()/store()/storeNT()/
     * retireFp()/retireOther() call sequence would, in order. On top of
     * the per-access fast path, runs of single-line demand accesses to
     * the same resident line on a translated page are coalesced into
     * O(1) bulk counter updates (bit-identical by construction; the
     * golden equivalence test enforces it).
     *
     * @param core_override when >= 0, every record is executed as this
     * core regardless of its core plane (trace replay remaps a recorded
     * stream onto the replaying engine's core).
     */
    void simulateBatch(const trace::AccessBatch &batch,
                       int core_override = -1);
    ///@}

    /**
     * Enable/disable the demand-access fast path (default: enabled).
     *
     * The fast path memoizes the last-translated page and the most
     * recently hit L1 lines per core so streaks of accesses skip the
     * TLB arrays and the cache-miss machinery. Every architectural
     * observable (Snapshot counters, cache/TLB content, replacement
     * decisions, prefetcher training) is identical with the fast path
     * on or off — the golden equivalence test enforces this for every
     * registered kernel. Disabling selects the straight-line reference
     * path; useful for differential testing and as the baseline of
     * bench/sim_throughput. See DESIGN.md §7.
     */
    void setFastPath(bool enabled);
    bool fastPathEnabled() const { return fastPath_; }

    /** @name Data path (byte addresses; split into lines internally). */
    ///@{
    /**
     * The bodies are inline (see below): the engines call these on every
     * simulated memory operation, and a vector access that stays inside
     * one line must cost one direct call into accessLine, not a
     * cross-object dispatch per element.
     */
    void load(int core, uint64_t addr, uint32_t bytes);
    void store(int core, uint64_t addr, uint32_t bytes);
    /** Non-temporal (streaming) store: bypasses the cache hierarchy. */
    void storeNT(int core, uint64_t addr, uint32_t bytes);
    ///@}

    /** @name Instruction retirement. */
    ///@{
    /**
     * Retire @p count FP operations of width @p w on @p core. An FMA
     * bumps the retirement counter by 2 per operation (hardware-faithful;
     * see core.hh).
     */
    void retireFp(int core, VecWidth w, bool fma, uint64_t count = 1);
    /** Retire non-FP/non-memory uops (index arithmetic, branches). */
    void retireOther(int core, uint64_t uops);
    ///@}

    /** @name Cache control. */
    ///@{
    /**
     * Write back all dirty lines and invalidate every cache (the
     * cold-cache protocol's flush). Writebacks count at the IMCs.
     *
     * @param attribute_cores when non-empty, the writeback bytes are
     * charged round-robin to these cores' timing counters so a flush
     * inside a measured region costs time consistent with the traffic it
     * generates. Empty = no core attribution (flushes between regions).
     */
    void flushAllCaches(const std::vector<int> &attribute_cores = {});
    /** Invalidate everything without writebacks and clear prefetchers. */
    void invalidateAllCaches();
    ///@}

    /** Zero every statistic (caches, IMCs, cores, prefetchers). */
    void resetStats();
    /** Full reset: invalidate caches + clear stats + retrain prefetchers.*/
    void reset();

    /** Complete counter image for delta-based measurement. */
    struct Snapshot
    {
        std::vector<CoreCounters> cores;    // per core
        std::vector<CacheStats> l1;         // per core
        std::vector<CacheStats> l2;         // per core
        std::vector<CacheStats> l3;         // per socket
        std::vector<ImcStats> imcs;         // per socket
        std::vector<TlbStats> tlbs;         // per core
        std::vector<PrefetcherStats> l1pf;  // per core
        std::vector<PrefetcherStats> l2pf;  // per core

        /** Component-wise difference (this - rhs). */
        Snapshot operator-(const Snapshot &rhs) const;

        /** Sum of IMC counters over all sockets. */
        ImcStats totalImc() const;
        /** Sum of core flops over all cores. */
        uint64_t totalFlops() const;
    };

    /** @return current cumulative counters. */
    Snapshot snapshot() const;

    /** @name Interval counter sampling (phase-resolved analyses). */
    ///@{
    /**
     * Record a full counter Snapshot every @p accesses demand
     * load/store uops. The check runs at batch-drain boundaries — each
     * simulateBatch() consumption — so sample positions quantize to
     * batch flushes and the per-access hot loop is untouched (the
     * per-access Direct dispatch never samples). Sampling only *reads*
     * counters: every architectural observable is bit-identical with
     * sampling on or off at any period (tests/sim/test_sampling.cc
     * enforces this for all registered kernels). 0 disables sampling.
     * The interval count restarts from the current access total.
     */
    void setSamplePeriod(uint64_t accesses);
    uint64_t samplePeriod() const { return samplePeriod_; }

    /**
     * Snapshots recorded so far, in capture order. Each is cumulative
     * (like snapshot()); consumers difference consecutive entries for
     * per-interval deltas. Entries survive resetStats()/reset() —
     * pre-reset samples cannot be differenced against post-reset ones,
     * so callers bracketing a region call clearSamples() first.
     */
    const std::vector<Snapshot> &
    samples() const
    {
        drainBatchSources();
        return samples_;
    }

    /** Drop recorded samples and restart the interval count. */
    void clearSamples();
    ///@}

    /**
     * Modeled execution time (cycles) of the region described by counter
     * delta @p delta: max over cores of per-core issue/port/bandwidth
     * bounds plus the exposed-latency term, then max with per-socket DRAM
     * bandwidth bounds.
     */
    double regionCycles(const Snapshot &delta) const;

    /** regionCycles converted to seconds at the core frequency. */
    double regionSeconds(const Snapshot &delta) const;

    /**
     * Dump a gem5-style statistics report of all current cumulative
     * counters (per-core caches/TLB/retirement, per-socket L3/IMC).
     */
    void printStats(std::ostream &os) const;

    /**
     * @name Component access (tests, PMU backend).
     * Observation points: each drains attached batch sources first so
     * the returned state includes every buffered access.
     */
    ///@{
    const Cache &
    l1(int core) const
    {
        drainBatchSources();
        return *l1_[core];
    }
    const Cache &
    l2(int core) const
    {
        drainBatchSources();
        return *l2_[core];
    }
    const Cache &
    l3(int socket) const
    {
        drainBatchSources();
        return *l3_[socket];
    }
    const Imc &
    imc(int socket) const
    {
        drainBatchSources();
        return imcs_[socket];
    }
    const CoreCounters &
    coreCounters(int core) const
    {
        drainBatchSources();
        return cores_[core];
    }
    const Prefetcher &
    l1Prefetcher(int core) const
    {
        drainBatchSources();
        return *l1pf_[core];
    }
    const Prefetcher &
    l2Prefetcher(int core) const
    {
        drainBatchSources();
        return *l2pf_[core];
    }
    const Tlb &
    tlb(int core) const
    {
        drainBatchSources();
        return tlbs_[core];
    }
    ///@}

  private:
    /** Deepest level that serviced a demand access. */
    enum class ServiceLevel { L1, L2, L3, Dram };

    /** Snapshot capture without draining (snapshot()'s shared body;
     *  also the sampler's, which runs *inside* a drain). */
    Snapshot captureSnapshot() const;

    /** Total demand load+store uops over all cores (sampling clock). */
    uint64_t totalAccessUops() const;

    /**
     * Interval-sampling check, run at every batch-drain boundary (end
     * of simulateBatch). Reads counters only — never mutates machine
     * state — so enabling it cannot perturb a single counter.
     */
    void
    maybeSample()
    {
        const uint64_t accesses = totalAccessUops();
        if (samplePeriod_ == 0 ||
            accesses - sampleLastAccesses_ < samplePeriod_)
            return;
        samples_.push_back(captureSnapshot());
        sampleLastAccesses_ = accesses;
    }

    /** @return socket owning the page of @p addr under the policy. */
    int homeSocket(uint64_t addr, int accessor_socket) const;

    /**
     * One demand line access for @p core. Updates caches, IMC, counters
     * and latency; triggers prefetchers. Dispatches to the resident-line
     * fast path when possible (see CoreFast), else to accessLineFull.
     */
    void accessLine(int core, uint64_t line_addr, bool write);

    /** The full (reference) demand-access path. */
    void accessLineFull(int core, uint64_t line_addr, bool write);

    /**
     * Consume records [begin, end) of @p batch, all executing as
     * @p core: the single-core inner loop of simulateBatch() with every
     * per-core indirection hoisted.
     */
    void simulateBatchSpan(const trace::AccessBatch &batch,
                           uint32_t begin, uint32_t end, int core);

    /**
     * observe() on @p pf with a direct (devirtualized) call: @p kind is
     * the configured flavor, the model classes are final, and observe
     * runs for every demand access a level sees.
     */
    static void
    observePf(Prefetcher &pf, PrefetcherKind kind, uint64_t line_addr,
              bool miss, PfList &out)
    {
        switch (kind) {
          case PrefetcherKind::None:
            static_cast<NonePrefetcher &>(pf).observe(line_addr, miss,
                                                      out);
            return;
          case PrefetcherKind::NextLine:
            static_cast<NextLinePrefetcher &>(pf).observe(line_addr,
                                                          miss, out);
            return;
          case PrefetcherKind::Stream:
            static_cast<StreamPrefetcher &>(pf).observe(line_addr, miss,
                                                        out);
            return;
        }
    }

    /**
     * Fetch @p line_addr into the hierarchy on behalf of the prefetcher
     * attached at @p level (1 = fill L1+L2+L3, 2 = fill L2+L3).
     */
    void prefetchLine(int core, uint64_t line_addr, int level);

    /** Handle an eviction from L1 (cascade into L2, maybe deeper). */
    void writebackToL2(int core, uint64_t line_addr);
    /** Handle an eviction from L2 (cascade into L3, maybe DRAM). */
    void writebackToL3(int core, uint64_t line_addr);
    /** Handle a dirty eviction from L3 (goes to the owning IMC). */
    void writebackToDram(int core, uint64_t line_addr);

    /** Install into L3 handling the victim; counts DRAM wb if dirty. */
    void fillL3(int core, uint64_t line_addr, bool write, bool prefetch);
    /** Install into L2 handling the victim. */
    void fillL2(int core, uint64_t line_addr, bool write, bool prefetch);
    /** Install into L1 handling the victim. */
    void fillL1(int core, uint64_t line_addr, bool write, bool prefetch);

    MachineConfig cfg_;
    uint32_t lineBytes_;
    uint32_t lineShift_;        ///< log2(lineBytes_); lines are pow2
    uint32_t pageShift_;        ///< log2(TLB page size)
    int numCores_;              ///< cfg_.totalCores(), hoisted
    bool tlbEnabled_;           ///< cfg_.tlb.enabled, hoisted
    bool prefetchEnabled_ = true;
    bool dependent_ = false;
    bool fastPath_ = true;
    /**
     * Whether the L1 prefetcher's reaction to a repeated hit is a bare
     * observation count (None/NextLine ignore hits). The streamer trains
     * on hits too, so it must run its full observe() on the fast path.
     */
    bool l1pfCheapRepeat_;
    MemPolicy memPolicy_ = MemPolicy::LocalToAccessor;

    /** Interval sampling (see setSamplePeriod): 0 = off. */
    uint64_t samplePeriod_ = 0;
    /** Access total at the last recorded sample. */
    uint64_t sampleLastAccesses_ = 0;
    std::vector<Snapshot> samples_;

    std::vector<std::unique_ptr<Cache>> l1_;  // per core
    std::vector<std::unique_ptr<Cache>> l2_;  // per core
    std::vector<std::unique_ptr<Cache>> l3_;  // per socket
    std::vector<Imc> imcs_;                   // per socket
    std::vector<std::unique_ptr<Prefetcher>> l1pf_; // per core
    std::vector<std::unique_ptr<Prefetcher>> l2pf_; // per core
    std::vector<Tlb> tlbs_;                   // per core
    std::vector<CoreCounters> cores_;         // per core

    /**
     * Write-combining state: last line each core NT-stored to. Partial
     * NT stores to the same line merge in the fill buffers and cost one
     * CAS write, like real streaming stores.
     */
    std::vector<uint64_t> ntCombine_;

    /**
     * Per-core fast-path memos (active only while fastPath_ is set).
     *
     * lastVpn is the page of this core's most recent TLB translation;
     * it is updated on every translate() and cleared whenever the TLB
     * is flushed, so "vpn == lastVpn" proves the translation would hit
     * the L1 DTLB with zero latency (countStreakAccess()).
     *
     * hitLine[] holds recent lines whose demand access hit this core's
     * L1. Entries are dropped whenever anything fills or invalidates a
     * line of that L1 (fillL1, storeNT, flush), so a match proves
     * residency: the access is a hit by construction and the whole miss
     * path can be skipped. Four entries (round-robin replacement, no
     * ordering — residency is all a match asserts), because kernels
     * interleave up to three operand streams (triad's a, b and c) plus
     * a spilled accumulator or index line.
     */
    struct CoreFast
    {
        static constexpr uint64_t none = ~0ull;
        uint64_t lastVpn = none;
        uint64_t hitLine[4] = {none, none, none, none};
        /** L1 way slot of each hitLine entry. A resident line never
         * changes ways, so the slot stays valid exactly as long as the
         * entry itself (both die on eviction/invalidation). */
        size_t wayIdx[4] = {};
        uint32_t insertAt = 0;
        /** Slot of the last match: streaks re-hit it on one compare. */
        uint32_t lastSlot = 0;

        int
        find(uint64_t line_addr)
        {
            if (hitLine[lastSlot] == line_addr)
                return static_cast<int>(lastSlot);
            for (uint32_t i = 0; i < 4; ++i) {
                if (hitLine[i] == line_addr) {
                    lastSlot = i;
                    return static_cast<int>(i);
                }
            }
            return -1;
        }

        void
        noteHit(uint64_t line_addr, size_t way_idx)
        {
            if (find(line_addr) >= 0)
                return;
            hitLine[insertAt] = line_addr;
            wayIdx[insertAt] = way_idx;
            insertAt = (insertAt + 1) & 3u;
        }

        void
        dropLine(uint64_t line_addr)
        {
            for (uint64_t &h : hitLine) {
                if (h == line_addr)
                    h = none;
            }
        }

        void
        dropAllLines()
        {
            for (uint64_t &h : hitLine)
                h = none;
        }
    };
    std::vector<CoreFast> fast_;

    /**
     * Translate the page of @p byte_addr for @p core, charging latency
     * to its counters — skipping the TLB arrays on a same-page streak
     * (fast path only; see CoreFast::lastVpn). The single definition
     * keeps the fast and full access paths bit-identical by
     * construction. Defined inline below the class.
     */
    void translatePage(int core, CoreFast &fs, uint64_t byte_addr);

    /**
     * Fixed-capacity scratch buffers for prefetch candidates, one per
     * observing level so the L1 and L2 candidate lists can never alias
     * (the old single shared vector forced a per-access copy to avoid
     * exactly that).
     */
    struct CoreScratch
    {
        PfList l1;
        PfList l2;
    };
    std::vector<CoreScratch> scratch_; // per core

    /**
     * Attached batch sources, drained (in order) by every observation
     * point. Mutable because draining is a pure materialization of
     * already-issued accesses: logically-const entry points like
     * snapshot() must be able to force it.
     */
    mutable std::vector<BatchSource *> batchSources_;

    /**
     * True while drainBatchSources() is flushing: lets simulateBatch()
     * classify the batch it consumes by flush cause (observation-point
     * drain vs producer-buffer capacity). Telemetry-only; never read by
     * simulation logic.
     */
    mutable bool telemDraining_ = false;
};

// The data-path entry points and the resident-line fast path are inline:
// SimEngine calls one of these per simulated memory operation, and the
// common case (repeated touch of a resident line on a translated page)
// must compile down to a handful of compares and counter increments at
// the call site, with no function-call round trip.

inline void
Machine::translatePage(int core, CoreFast &fs, uint64_t byte_addr)
{
    const uint64_t vpn = byte_addr >> pageShift_;
    if (fastPath_ && vpn == fs.lastVpn) {
        if (tlbEnabled_)
            tlbs_[core].countStreakAccess();
    } else {
        const double walk = tlbs_[core].translate(byte_addr);
        fs.lastVpn = vpn;
        cores_[core].latencyCycles += walk;
    }
}

inline void
Machine::accessLine(int core, uint64_t line_addr, bool write)
{
    RFL_ASSERT(core >= 0 && core < numCores_);
    CoreFast &fs = fast_[static_cast<size_t>(core)];

    const int slot = fastPath_ ? fs.find(line_addr) : -1;
    if (slot >= 0) {
        // Resident-line fast path. A filter match proves the line is
        // still in this core's L1 (entries are dropped on every fill or
        // invalidation), so this access is a hit and the whole miss
        // machinery can be skipped. Every counter the full path would
        // touch is updated identically; see DESIGN.md §7.
        translatePage(core, fs, line_addr << lineShift_);
        l1_[core]->touchRepeat(fs.wayIdx[slot], write);
        if (prefetchEnabled_) {
            if (l1pfCheapRepeat_) {
                // None/NextLine ignore hits: counting the observation is
                // all the full observe() would have done.
                l1pf_[core]->countObserved();
            } else {
                // A streamer trains on hits: run the full model.
                PfList &scratch = scratch_[core].l1;
                scratch.clear();
                static_cast<StreamPrefetcher &>(*l1pf_[core])
                    .observe(line_addr, false, scratch);
                for (uint64_t pf_line : scratch)
                    prefetchLine(core, pf_line, 1);
            }
        }
        return;
    }
    accessLineFull(core, line_addr, write);
}

inline void
Machine::load(int core, uint64_t addr, uint32_t bytes)
{
    RFL_ASSERT(bytes > 0);
    cores_[core].loadUops += 1;
    const uint64_t first = addr >> lineShift_;
    const uint64_t last = (addr + bytes - 1) >> lineShift_;
    accessLine(core, first, false);
    for (uint64_t line = first + 1; line <= last; ++line)
        accessLine(core, line, false);
}

inline void
Machine::store(int core, uint64_t addr, uint32_t bytes)
{
    RFL_ASSERT(bytes > 0);
    cores_[core].storeUops += 1;
    const uint64_t first = addr >> lineShift_;
    const uint64_t last = (addr + bytes - 1) >> lineShift_;
    accessLine(core, first, true);
    for (uint64_t line = first + 1; line <= last; ++line)
        accessLine(core, line, true);
}

inline void
Machine::retireFp(int core, VecWidth w, bool fma, uint64_t count)
{
    const int lanes = vecLanes(w);
    if (lanes > cfg_.core.maxVectorDoubles) {
        panic("core %d retiring %s ops but machine supports width %d",
              core, vecWidthName(w), cfg_.core.maxVectorDoubles);
    }
    if (fma && !cfg_.core.hasFma)
        panic("core %d retiring FMA on a machine without FMA", core);
    cores_[core].retireFp(w, fma, count);
}

inline void
Machine::retireOther(int core, uint64_t uops)
{
    cores_[core].otherUops += uops;
}

} // namespace rfl::sim

#endif // RFL_SIM_MACHINE_HH
