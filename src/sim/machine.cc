#include "sim/machine.hh"

#include <algorithm>
#include <bit>
#include <ostream>

#include "support/cancel.hh"
#include "support/logging.hh"
#include "telemetry/sim_counters.hh"

namespace rfl::sim
{

const char *
memPolicyName(MemPolicy policy)
{
    switch (policy) {
      case MemPolicy::Socket0: return "socket0";
      case MemPolicy::LocalToAccessor: return "local";
      case MemPolicy::Interleave: return "interleave";
    }
    return "?";
}

Machine::Machine(const MachineConfig &cfg)
    : cfg_(cfg), lineBytes_(cfg.l1.lineBytes),
      lineShift_(static_cast<uint32_t>(std::countr_zero(cfg.l1.lineBytes))),
      pageShift_(static_cast<uint32_t>(std::countr_zero(
          static_cast<uint32_t>(cfg.tlb.pageBytes)))),
      numCores_(cfg.totalCores()), tlbEnabled_(cfg.tlb.enabled),
      l1pfCheapRepeat_(cfg.l1Prefetcher.kind != PrefetcherKind::Stream)
{
    cfg_.validate();
    const int cores = cfg_.totalCores();
    for (int c = 0; c < cores; ++c) {
        l1_.push_back(std::make_unique<Cache>(cfg_.l1));
        l2_.push_back(std::make_unique<Cache>(cfg_.l2));
        l1pf_.push_back(Prefetcher::create(cfg_.l1Prefetcher));
        l2pf_.push_back(Prefetcher::create(cfg_.l2Prefetcher));
        tlbs_.emplace_back(cfg_.tlb);
    }
    for (int s = 0; s < cfg_.sockets; ++s) {
        l3_.push_back(std::make_unique<Cache>(cfg_.l3));
        imcs_.emplace_back(s);
    }
    cores_.resize(static_cast<size_t>(cores));
    ntCombine_.resize(static_cast<size_t>(cores), ~0ull);
    fast_.resize(static_cast<size_t>(cores));
    scratch_.resize(static_cast<size_t>(cores));
}

void
Machine::attachBatchSource(BatchSource &source)
{
    batchSources_.push_back(&source);
}

void
Machine::detachBatchSource(BatchSource &source)
{
    batchSources_.erase(std::remove(batchSources_.begin(),
                                    batchSources_.end(), &source),
                        batchSources_.end());
}

void
Machine::drainBatchSources() const
{
    // flushPendingBatch() re-enters the machine only through data-path
    // calls (simulateBatch and below), which never drain, so this loop
    // cannot recurse.
    RFL_TELEM(if (!batchSources_.empty()) {
        telemetry::simCounters().drains.fetch_add(
            1, std::memory_order_relaxed);
        telemDraining_ = true;
    });
    for (BatchSource *source : batchSources_)
        source->flushPendingBatch();
    RFL_TELEM(telemDraining_ = false);
}

void
Machine::setFastPath(bool enabled)
{
    drainBatchSources(); // buffered accesses ran under the old mode
    fastPath_ = enabled;
    // Reference mode also runs the caches without their MRU memo so
    // the baseline is the plain set-scan lookup throughout.
    for (auto &c : l1_)
        c->setMruMemoEnabled(enabled);
    for (auto &c : l2_)
        c->setMruMemoEnabled(enabled);
    for (auto &c : l3_)
        c->setMruMemoEnabled(enabled);
    if (!enabled) {
        for (CoreFast &fs : fast_)
            fs = CoreFast{};
    }
}

int
Machine::homeSocket(uint64_t addr, int accessor_socket) const
{
    switch (memPolicy_) {
      case MemPolicy::Socket0:
        return 0;
      case MemPolicy::LocalToAccessor:
        return accessor_socket;
      case MemPolicy::Interleave:
        return static_cast<int>((addr >> 12) %
                                static_cast<uint64_t>(cfg_.sockets));
    }
    return 0;
}

void
Machine::accessLineFull(int core, uint64_t line_addr, bool write)
{
    RFL_ASSERT(core >= 0 && core < numCores());
    const int socket = socketOf(core);
    CoreCounters &cc = cores_[core];
    CoreFast &fs = fast_[static_cast<size_t>(core)];
    // The line's byte address: computed once, reused by the TLB, the
    // NUMA home lookup and the DRAM path.
    const uint64_t byte_addr = line_addr << lineShift_;

    // A demand touch on the write-combining line drains the WC buffer:
    // the next NT store to it is a fresh transaction.
    if (line_addr == ntCombine_[static_cast<size_t>(core)])
        ntCombine_[static_cast<size_t>(core)] = ~0ull;

    // Address translation first; a DTLB miss serializes before the
    // cache access can begin. Same-page streaks skip the TLB arrays:
    // the page was translated by this core's previous translation, so
    // the L1 DTLB hit (zero latency) is guaranteed.
    translatePage(core, fs, byte_addr);

    // L1 probe.
    const bool l1_hit = l1_[core]->lookup(line_addr, write);

    // The DCU (L1) prefetcher observes the L1 access stream. Separate
    // per-level scratch buffers: the L1 candidate list stays intact
    // while the L2 observer runs (the old shared vector forced a copy
    // here to avoid aliasing).
    CoreScratch &scratch = scratch_[static_cast<size_t>(core)];
    scratch.l1.clear();
    if (prefetchEnabled_)
        observePf(*l1pf_[core], cfg_.l1Prefetcher.kind, line_addr,
                  !l1_hit, scratch.l1);

    scratch.l2.clear();
    double latency = 0.0;

    if (!l1_hit) {
        cc.l2FillBytes += lineBytes_;
        const bool l2_hit = l2_[core]->lookup(line_addr, false);

        // The MLC streamer observes the L2 access stream (= L1 misses).
        if (prefetchEnabled_)
            observePf(*l2pf_[core], cfg_.l2Prefetcher.kind, line_addr,
                      !l2_hit, scratch.l2);

        if (l2_hit) {
            latency = cfg_.l2.latencyCycles;
            fillL1(core, line_addr, write, false);
        } else {
            cc.l3FillBytes += lineBytes_;
            const bool l3_hit = l3_[socket]->lookup(line_addr, false);
            if (l3_hit) {
                latency = cfg_.l3.latencyCycles;
            } else {
                const int owner = homeSocket(byte_addr, socket);
                imcs_[owner].read(false);
                const bool remote = owner != socket;
                latency = cfg_.dramLatencyCycles() *
                          (remote ? cfg_.remoteNumaLatencyFactor : 1.0);
                double bytes = lineBytes_;
                if (remote)
                    bytes /= cfg_.remoteNumaBandwidthFactor;
                cc.dramFillBytes += static_cast<uint64_t>(bytes);
                fillL3(core, line_addr, false, false);
            }
            fillL2(core, line_addr, false, false);
            fillL1(core, line_addr, write, false);
        }
    }
    cc.latencyCycles += latency;

    // The accessed line is resident now (hit, or just filled): admit it
    // to the resident-line filter, remembering its L1 way (the last L1
    // operation above — demand lookup or demand fill — touched exactly
    // this line). Prefetch fills below may displace L1 lines and drop
    // it again — serviced after the demand access completed, exactly as
    // before.
    if (fastPath_)
        fs.noteHit(line_addr, l1_[core]->lastTouchedWay());
    for (uint64_t pf_line : scratch.l1)
        prefetchLine(core, pf_line, 1);
    for (uint64_t pf_line : scratch.l2)
        prefetchLine(core, pf_line, 2);
}

void
Machine::prefetchLine(int core, uint64_t line_addr, int level)
{
    const int socket = socketOf(core);
    CoreCounters &cc = cores_[core];

    if (level <= 1 && l1_[core]->contains(line_addr))
        return;
    if (level == 2 && l2_[core]->contains(line_addr))
        return;

    // Locate the closest copy without disturbing demand statistics.
    bool from_dram = false;
    const bool in_l2 = level <= 1 && l2_[core]->contains(line_addr);
    if (!in_l2) {
        if (!l3_[socket]->contains(line_addr)) {
            const uint64_t byte_addr = line_addr << lineShift_;
            const int owner = homeSocket(byte_addr, socket);
            imcs_[owner].read(true);
            double bytes = lineBytes_;
            if (owner != socket)
                bytes /= cfg_.remoteNumaBandwidthFactor;
            cc.dramFillBytes += static_cast<uint64_t>(bytes);
            fillL3(core, line_addr, false, true);
            from_dram = true;
        }
    }

    if (level <= 1) {
        if (!in_l2)
            fillL2(core, line_addr, false, true);
        cc.l2FillBytes += lineBytes_;
        if (!in_l2 || from_dram)
            cc.l3FillBytes += lineBytes_;
        fillL1(core, line_addr, false, true);
    } else {
        cc.l3FillBytes += lineBytes_;
        fillL2(core, line_addr, false, true);
    }
}

void
Machine::fillL1(int core, uint64_t line_addr, bool write, bool prefetch)
{
    const Cache::Eviction ev = l1_[core]->fill(line_addr, write, prefetch);
    if (ev.valid) {
        // The fill displaced exactly this one line: evict it from the
        // resident-line filter too (the other entries stay resident, so
        // their filter invariant is untouched).
        fast_[static_cast<size_t>(core)].dropLine(ev.lineAddr);
        if (ev.dirty)
            writebackToL2(core, ev.lineAddr);
    }
}

void
Machine::fillL2(int core, uint64_t line_addr, bool write, bool prefetch)
{
    const Cache::Eviction ev = l2_[core]->fill(line_addr, write, prefetch);
    if (ev.valid && ev.dirty)
        writebackToL3(core, ev.lineAddr);
}

void
Machine::fillL3(int core, uint64_t line_addr, bool write, bool prefetch)
{
    const int socket = socketOf(core);
    const Cache::Eviction ev = l3_[socket]->fill(line_addr, write, prefetch);
    if (ev.valid && ev.dirty)
        writebackToDram(core, ev.lineAddr);
}

void
Machine::writebackToL2(int core, uint64_t line_addr)
{
    if (l2_[core]->setDirty(line_addr))
        return;
    const Cache::Eviction ev = l2_[core]->fill(line_addr, true, false);
    if (ev.valid && ev.dirty)
        writebackToL3(core, ev.lineAddr);
}

void
Machine::writebackToL3(int core, uint64_t line_addr)
{
    const int socket = socketOf(core);
    if (l3_[socket]->setDirty(line_addr))
        return;
    const Cache::Eviction ev = l3_[socket]->fill(line_addr, true, false);
    if (ev.valid && ev.dirty)
        writebackToDram(core, ev.lineAddr);
}

void
Machine::writebackToDram(int core, uint64_t line_addr)
{
    const int socket = socketOf(core);
    const uint64_t byte_addr = line_addr << lineShift_;
    const int owner = homeSocket(byte_addr, socket);
    imcs_[owner].write(false);
    CoreCounters &cc = cores_[core];
    double bytes = lineBytes_;
    if (owner != socket)
        bytes /= cfg_.remoteNumaBandwidthFactor;
    cc.dramWritebackBytes += static_cast<uint64_t>(bytes);
}

void
Machine::storeNT(int core, uint64_t addr, uint32_t bytes)
{
    RFL_ASSERT(bytes > 0);
    const int socket = socketOf(core);
    CoreCounters &cc = cores_[core];
    CoreFast &fs = fast_[static_cast<size_t>(core)];
    cc.storeUops += 1;
    const uint64_t first = addr >> lineShift_;
    const uint64_t last = (addr + bytes - 1) >> lineShift_;
    for (uint64_t line = first; line <= last; ++line) {
        // NT stores combine in the fill buffers and go straight to DRAM;
        // any cached copy is invalidated (its dirty data is overwritten).
        // Consecutive partial stores to one line merge into one CAS
        // write (write-combining buffers).
        if (line == ntCombine_[static_cast<size_t>(core)])
            continue;
        ntCombine_[static_cast<size_t>(core)] = line;
        fs.dropLine(line);
        l1_[core]->invalidate(line);
        l2_[core]->invalidate(line);
        const int owner = homeSocket(line << lineShift_, socket);
        l3_[socket]->invalidate(line);
        imcs_[owner].write(true);
        double wbytes = lineBytes_;
        if (owner != socket)
            wbytes /= cfg_.remoteNumaBandwidthFactor;
        cc.ntStoreBytes += static_cast<uint64_t>(wbytes);
    }
}

void
Machine::simulateBatch(const trace::AccessBatch &b, int core_override)
{
    RFL_TELEM({
        using telemetry::simCounters;
        (telemDraining_ ? simCounters().drainFlushBatches
                        : simCounters().capacityFlushBatches)
            .fetch_add(1, std::memory_order_relaxed);
        simCounters().records.fetch_add(b.n, std::memory_order_relaxed);
    });
    if (core_override >= 0) {
        simulateBatchSpan(b, 0, b.n, core_override);
    } else {
        // Split the batch into maximal same-core spans so the span loop
        // can hoist every per-core indirection. Engine-produced batches
        // are single-core by construction (one engine = one core), so
        // this scan normally finds exactly one span; it only does real
        // work for multi-core traces replayed without a core override.
        uint32_t i = 0;
        while (i < b.n) {
            const uint16_t core = b.core[i];
            uint32_t j = i + 1;
            while (j < b.n && b.core[j] == core)
                ++j;
            simulateBatchSpan(b, i, j, core);
            i = j;
        }
    }
    // Batch-drain boundary: the interval sampler's only check point,
    // and the simulator's only cancellation point. With no deadline
    // bound to the thread this is one thread-local load (cancel.hh);
    // batches are hundreds of accesses, so it is far below the
    // sim-throughput noise floor either way.
    if (samplePeriod_)
        maybeSample();
    checkCancelled("simulate");
}

void
Machine::simulateBatchSpan(const trace::AccessBatch &b, uint32_t begin,
                           uint32_t end, int core)
{
    using trace::AccessBatch;
    using trace::AccessKind;

    RFL_ASSERT(core >= 0 && core < numCores_);
    // Coalescing applies when the fast path is on and the L1 prefetcher
    // reacts to a repeated hit with a bare observation count (the
    // streamer must run its full observe() per access). A dependent
    // chain (machine knob or batch hint) never coalesces — each access
    // is its own line by construction, so mining runs is pure overhead
    // — and takes the direct loop below with coalesce off.
    const bool coalesce = fastPath_ &&
                          (l1pfCheapRepeat_ || !prefetchEnabled_) &&
                          !dependent_ && !b.dependent;

    // Hoisted per-core state: the consume loop must not chase the
    // unique_ptr/vector indirections per record.
    CoreFast &fs = fast_[static_cast<size_t>(core)];
    CoreCounters &cc = cores_[static_cast<size_t>(core)];
    Cache *const l1 = l1_[static_cast<size_t>(core)].get();
    Tlb &tlb = tlbs_[static_cast<size_t>(core)];
    Prefetcher *const l1pf = l1pf_[static_cast<size_t>(core)].get();
    const uint32_t line_shift = lineShift_;

    // Hoist the runtime gate out of the consume loop and accumulate in
    // locals; publish once at span end. The hot loop never touches an
    // atomic, and pays nothing beyond this one load when disabled.
    const bool telem_on = telemetry::simTelemetryEnabled();
    uint64_t telem_runs = 0;
    uint64_t telem_run_records = 0;

    // retireFp() with the core lookup hoisted into cc.
    auto retire_fp = [&](uint8_t width_byte, uint64_t count) {
        const auto w = static_cast<VecWidth>(
            width_byte & trace::AccessBatch::fpWidthMask);
        const bool fma =
            (width_byte & trace::AccessBatch::fpFmaFlag) != 0;
        if (vecLanes(w) > cfg_.core.maxVectorDoubles) {
            panic("core %d retiring %s ops but machine supports width "
                  "%d",
                  core, vecWidthName(w), cfg_.core.maxVectorDoubles);
        }
        if (fma && !cfg_.core.hasFma)
            panic("core %d retiring FMA on a machine without FMA", core);
        cc.retireFp(w, fma, count);
    };

    uint32_t i = begin;
    while (i < end) {
        const auto kind = static_cast<AccessKind>(b.kind[i] &
                                                  trace::kindValueMask);
        switch (kind) {
          case AccessKind::Load:
          case AccessKind::Store: {
            const uint64_t addr = b.addr[i];
            const uint32_t bytes = b.size[i];
            RFL_ASSERT(bytes > 0);
            const uint64_t line = addr >> line_shift;
            const uint64_t last = (addr + bytes - 1) >> line_shift;
            // Run coalescing: a single-line access whose line is in the
            // resident-line filter on an already-translated page is the
            // per-access fast path's streak case. A run of records
            // repeating it would each perform the identical set of
            // counter updates, all of which are additive or
            // last-write-wins, so the whole run collapses into bulk
            // updates. Interleaved Fp/Other records commute with the
            // memory updates (they touch disjoint per-core counters and
            // never read cache state), so the scan retires them inline
            // instead of breaking the run — the load/FP alternation of
            // a reduction kernel stays one run per line. Bit-identical
            // to the per-access sequence by construction; the batched
            // golden test enforces it across batch limits.
            //
            // The scan is one byte compare per record: by the kind
            // encoding (access_batch.hh), exactly the records that may
            // extend a run — same-line-flagged Load/Store, Fp, Other —
            // have kind-plane values >= Fp. A flagged record is
            // same-line with its predecessor, hence transitively with
            // the run base; traces without flags (decoded replays)
            // lose runs, never correctness.
            if (coalesce && last == line) {
                const int slot = fs.find(line);
                if (slot >= 0) {
                    // Resident single-line access: translate the base
                    // exactly as the per-access fast path would (page
                    // streak or full walk, updating lastVpn); every
                    // same-line follower is then a guaranteed streak.
                    translatePage(core, fs, addr);
                    uint64_t reads = 0, writes = 0;
                    uint32_t j = i;
                    do {
                        // Values reaching here: Load/Store (flagged or
                        // run base), Fp, Other. Bit 0 is the write bit
                        // of both plain and flagged memory kinds.
                        const uint8_t k = b.kind[j];
                        if (k == static_cast<uint8_t>(AccessKind::Fp)) {
                            retire_fp(b.width[j], b.addr[j]);
                        } else if (k ==
                                   static_cast<uint8_t>(
                                       AccessKind::Other)) {
                            cc.otherUops += b.addr[j];
                        } else if (k & 1) {
                            ++writes;
                        } else {
                            ++reads;
                        }
                        ++j;
                    } while (j < end &&
                             b.kind[j] >=
                                 static_cast<uint8_t>(AccessKind::Fp));
                    cc.loadUops += reads;
                    cc.storeUops += writes;
                    if (tlbEnabled_)
                        tlb.countStreakAccesses(reads + writes - 1);
                    l1->touchRepeatN(fs.wayIdx[static_cast<size_t>(slot)],
                                     writes, reads);
                    if (prefetchEnabled_)
                        l1pf->countObservedN(reads + writes);
                    if (telem_on) {
                        ++telem_runs;
                        telem_run_records += j - i;
                    }
                    i = j;
                    continue;
                }
                // Single-line but not in the resident filter: the
                // per-access path's find() would fail identically, so
                // go straight to the full (miss) path.
                const bool write = kind == AccessKind::Store;
                if (write)
                    cc.storeUops += 1;
                else
                    cc.loadUops += 1;
                accessLineFull(core, line, write);
                ++i;
                break;
            }
            // Generic delivery, line split precomputed (the body of
            // Machine::load/store with first/last already in hand).
            const bool write = kind == AccessKind::Store;
            if (write)
                cc.storeUops += 1;
            else
                cc.loadUops += 1;
            accessLine(core, line, write);
            for (uint64_t l = line + 1; l <= last; ++l)
                accessLine(core, l, write);
            ++i;
            break;
          }
          case AccessKind::StoreNT:
            storeNT(core, b.addr[i], b.size[i]);
            ++i;
            break;
          case AccessKind::Fp:
            retire_fp(b.width[i], b.addr[i]);
            ++i;
            break;
          case AccessKind::Other:
            cc.otherUops += b.addr[i];
            ++i;
            break;
        }
    }

    if (telem_on && telem_runs) {
        using telemetry::simCounters;
        simCounters().coalescedRuns.fetch_add(telem_runs,
                                              std::memory_order_relaxed);
        simCounters().coalescedRecords.fetch_add(
            telem_run_records, std::memory_order_relaxed);
    }
}

void
Machine::flushAllCaches(const std::vector<int> &attribute_cores)
{
    // Buffered accesses precede the flush in program order.
    drainBatchSources();
    // Collect dirty lines per owning socket, deduplicated so a line dirty
    // in several levels is written back exactly once (as the hardware
    // would: there is one most-recent copy).
    std::vector<std::vector<uint64_t>> dirty(
        static_cast<size_t>(cfg_.sockets));

    auto route = [&](uint64_t line, int socket) {
        const int owner = homeSocket(line << lineShift_, socket);
        dirty[static_cast<size_t>(owner)].push_back(line);
    };

    std::vector<uint64_t> lines;
    for (int c = 0; c < numCores(); ++c) {
        lines.clear();
        l1_[c]->flushAll(lines);
        for (uint64_t line : lines)
            route(line, socketOf(c));
        lines.clear();
        l2_[c]->flushAll(lines);
        for (uint64_t line : lines)
            route(line, socketOf(c));
    }
    for (int s = 0; s < cfg_.sockets; ++s) {
        lines.clear();
        l3_[s]->flushAll(lines);
        for (uint64_t line : lines)
            route(line, s);
    }

    size_t rr = 0;
    for (int s = 0; s < cfg_.sockets; ++s) {
        auto &v = dirty[static_cast<size_t>(s)];
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
        for (size_t i = 0; i < v.size(); ++i) {
            imcs_[s].write(false);
            if (!attribute_cores.empty()) {
                const int core =
                    attribute_cores[rr++ % attribute_cores.size()];
                cores_[core].dramWritebackBytes += lineBytes_;
            }
        }
    }

    for (auto &pf : l1pf_)
        pf->reset();
    for (auto &pf : l2pf_)
        pf->reset();
    std::fill(ntCombine_.begin(), ntCombine_.end(), ~0ull);
    // Caches are empty now; TLB content survives a flush, so the page
    // memo stays valid.
    for (CoreFast &fs : fast_)
        fs.dropAllLines();
}

void
Machine::invalidateAllCaches()
{
    drainBatchSources();
    for (auto &c : l1_)
        c->invalidateAll();
    for (auto &c : l2_)
        c->invalidateAll();
    for (auto &c : l3_)
        c->invalidateAll();
    for (auto &pf : l1pf_)
        pf->reset();
    for (auto &pf : l2pf_)
        pf->reset();
    std::fill(ntCombine_.begin(), ntCombine_.end(), ~0ull);
    for (CoreFast &fs : fast_)
        fs.dropAllLines();
}

void
Machine::resetStats()
{
    drainBatchSources();
    for (auto &c : l1_)
        c->clearStats();
    for (auto &c : l2_)
        c->clearStats();
    for (auto &c : l3_)
        c->clearStats();
    for (auto &i : imcs_)
        i.clearStats();
    for (auto &pf : l1pf_)
        pf->clearStats();
    for (auto &pf : l2pf_)
        pf->clearStats();
    for (auto &tlb : tlbs_)
        tlb.clearStats();
    for (auto &cc : cores_)
        cc = CoreCounters{};
    // Counters restarted from zero: so does the sampling clock (recorded
    // samples stay; see samples()).
    sampleLastAccesses_ = 0;
}

void
Machine::reset()
{
    invalidateAllCaches();
    for (auto &tlb : tlbs_)
        tlb.flush();
    // The TLBs just dropped every translation: the page memo is stale.
    for (CoreFast &fs : fast_)
        fs = CoreFast{};
    resetStats();
}

void
Machine::setSamplePeriod(uint64_t accesses)
{
    drainBatchSources(); // buffered accesses belong to the old period
    samplePeriod_ = accesses;
    sampleLastAccesses_ = totalAccessUops();
}

void
Machine::clearSamples()
{
    drainBatchSources();
    samples_.clear();
    sampleLastAccesses_ = totalAccessUops();
}

uint64_t
Machine::totalAccessUops() const
{
    uint64_t n = 0;
    for (const CoreCounters &cc : cores_)
        n += cc.loadUops + cc.storeUops;
    return n;
}

Machine::Snapshot
Machine::snapshot() const
{
    drainBatchSources();
    return captureSnapshot();
}

Machine::Snapshot
Machine::captureSnapshot() const
{
    Snapshot s;
    s.cores = cores_;
    for (int c = 0; c < numCores(); ++c) {
        s.l1.push_back(l1_[c]->stats());
        s.l2.push_back(l2_[c]->stats());
        s.tlbs.push_back(tlbs_[c].stats());
        s.l1pf.push_back(l1pf_[c]->stats());
        s.l2pf.push_back(l2pf_[c]->stats());
    }
    for (int sk = 0; sk < cfg_.sockets; ++sk) {
        s.l3.push_back(l3_[sk]->stats());
        s.imcs.push_back(imcs_[sk].stats());
    }
    return s;
}

Machine::Snapshot
Machine::Snapshot::operator-(const Snapshot &rhs) const
{
    RFL_ASSERT(cores.size() == rhs.cores.size());
    RFL_ASSERT(imcs.size() == rhs.imcs.size());
    Snapshot d;
    for (size_t i = 0; i < cores.size(); ++i) {
        d.cores.push_back(cores[i] - rhs.cores[i]);
        d.l1.push_back(l1[i] - rhs.l1[i]);
        d.l2.push_back(l2[i] - rhs.l2[i]);
        d.tlbs.push_back(tlbs[i] - rhs.tlbs[i]);
        d.l1pf.push_back(l1pf[i] - rhs.l1pf[i]);
        d.l2pf.push_back(l2pf[i] - rhs.l2pf[i]);
    }
    for (size_t i = 0; i < imcs.size(); ++i) {
        d.l3.push_back(l3[i] - rhs.l3[i]);
        d.imcs.push_back(imcs[i] - rhs.imcs[i]);
    }
    return d;
}

ImcStats
Machine::Snapshot::totalImc() const
{
    ImcStats total;
    for (const ImcStats &s : imcs)
        total += s;
    return total;
}

uint64_t
Machine::Snapshot::totalFlops() const
{
    uint64_t total = 0;
    for (const CoreCounters &cc : cores)
        total += cc.flops();
    return total;
}

double
Machine::regionCycles(const Snapshot &delta) const
{
    const CoreConfig &core = cfg_.core;
    const double mlp = dependent_ ? 1.0 : static_cast<double>(core.mlp);

    double machine_cycles = 0.0;
    for (const CoreCounters &cc : delta.cores) {
        const double issue = static_cast<double>(cc.totalUops()) /
                             core.issueWidth;
        const double fp = static_cast<double>(cc.fpUops) / core.fpUnits;
        const double ld = static_cast<double>(cc.loadUops) / core.loadPorts;
        const double st = static_cast<double>(cc.storeUops) /
                          core.storePorts;
        const double l2bw = static_cast<double>(cc.l2FillBytes) /
                            cfg_.l2.bytesPerCycle;
        const double l3bw = static_cast<double>(cc.l3FillBytes) /
                            cfg_.l3.bytesPerCycle;
        const double dram_bytes =
            static_cast<double>(cc.dramFillBytes + cc.ntStoreBytes +
                                cc.dramWritebackBytes);
        const double dram = dram_bytes / cfg_.perCoreDramBytesPerCycle();
        const double bound = std::max({issue, fp, ld, st, l2bw, l3bw,
                                       dram});
        const double cycles = bound + cc.latencyCycles / mlp;
        machine_cycles = std::max(machine_cycles, cycles);
    }

    // Per-socket DRAM bandwidth is shared among the socket's cores.
    for (const ImcStats &imc : delta.imcs) {
        const double socket_bytes =
            static_cast<double>(imc.totalBytes(lineBytes_));
        const double socket_cycles =
            socket_bytes / cfg_.socketDramBytesPerCycle();
        machine_cycles = std::max(machine_cycles, socket_cycles);
    }
    return machine_cycles;
}

double
Machine::regionSeconds(const Snapshot &delta) const
{
    return regionCycles(delta) / (cfg_.core.freqGHz * 1e9);
}

void
Machine::printStats(std::ostream &os) const
{
    drainBatchSources();
    os << "machine." << cfg_.name << "\n";
    auto cache_stats = [&](const std::string &prefix,
                           const CacheStats &s) {
        os << prefix << ".read_hits " << s.readHits << "\n";
        os << prefix << ".read_misses " << s.readMisses << "\n";
        os << prefix << ".write_hits " << s.writeHits << "\n";
        os << prefix << ".write_misses " << s.writeMisses << "\n";
        os << prefix << ".writebacks " << s.writebacks << "\n";
        os << prefix << ".prefetch_fills " << s.prefetchFills << "\n";
        os << prefix << ".prefetch_hits " << s.prefetchHits << "\n";
    };
    for (int c = 0; c < numCores(); ++c) {
        const std::string core = "core" + std::to_string(c);
        const CoreCounters &cc = cores_[c];
        os << core << ".fp_scalar " << cc.fpRetired[0] << "\n";
        os << core << ".fp_128b " << cc.fpRetired[1] << "\n";
        os << core << ".fp_256b " << cc.fpRetired[2] << "\n";
        os << core << ".fp_512b " << cc.fpRetired[3] << "\n";
        os << core << ".flops " << cc.flops() << "\n";
        os << core << ".load_uops " << cc.loadUops << "\n";
        os << core << ".store_uops " << cc.storeUops << "\n";
        os << core << ".other_uops " << cc.otherUops << "\n";
        os << core << ".latency_cycles " << cc.latencyCycles << "\n";
        cache_stats(core + ".l1d", l1_[c]->stats());
        cache_stats(core + ".l2", l2_[c]->stats());
        const TlbStats &t = tlbs_[c].stats();
        os << core << ".dtlb.accesses " << t.accesses << "\n";
        os << core << ".dtlb.misses " << t.l1Misses << "\n";
        os << core << ".dtlb.walks " << t.walks << "\n";
    }
    for (int s = 0; s < cfg_.sockets; ++s) {
        const std::string sock = "socket" + std::to_string(s);
        cache_stats(sock + ".l3", l3_[s]->stats());
        const ImcStats &i = imcs_[s].stats();
        os << sock << ".imc.cas_reads " << i.casReads << "\n";
        os << sock << ".imc.cas_writes " << i.casWrites << "\n";
        os << sock << ".imc.prefetch_reads " << i.prefetchReads << "\n";
        os << sock << ".imc.nt_writes " << i.ntWrites << "\n";
    }
}

} // namespace rfl::sim
