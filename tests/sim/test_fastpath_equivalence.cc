/**
 * @file
 * Golden counter-equivalence test for the simulator's accelerated
 * demand-access paths.
 *
 * Three paths produce the same architectural history and must be
 * mutually indistinguishable in every counter of a Machine::Snapshot —
 * core retirement, per-level cache stats, TLB stats, prefetcher stats,
 * IMC CAS counters:
 *
 *   - Reference: per-access engine dispatch, fast path off
 *     (setFastPath(false)): plain set-scan lookups, no memos.
 *   - FastDirect: per-access dispatch with the PR 2 memos (resident-line
 *     filter, page streaks; DESIGN.md §7).
 *   - Batched: the access-stream IR — the engine buffers records into
 *     AccessBatches that Machine::simulateBatch() consumes, coalescing
 *     same-line runs into bulk counter updates (DESIGN.md §8).
 *
 * Every registered kernel is driven through SimEngine on the default
 * platform and compared field-by-field against the reference. Variants
 * cover the regimes the memos and the coalescer interact with: scalar
 * vs vector width, prefetchers on vs off, multi-core partitions,
 * non-temporal stores, dependent (pointer-chasing) accesses — and, for
 * the batched path, batch limits {1, 7, 256, capacity} so that flush
 * boundaries land mid-streak (a limit of 7 splits every prefetch streak
 * of a streaming kernel) without perturbing a single counter.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "kernels/engine.hh"
#include "kernels/registry.hh"
#include "sim/machine.hh"
#include "support/address_arena.hh"
#include "trace/access_batch.hh"

namespace
{

using namespace rfl;
using namespace rfl::sim;

/** Small-size spec per kernel: big enough to leave L1, quick to run. */
const std::map<std::string, std::string> &
smallSpecs()
{
    static const std::map<std::string, std::string> specs = {
        {"daxpy", "daxpy:n=4096"},
        {"dot", "dot:n=4096"},
        {"triad", "triad:n=4096"},
        {"triad-nt", "triad-nt:n=4096"},
        {"sum", "sum:n=4096"},
        {"stencil3", "stencil3:n=4096"},
        {"dgemv", "dgemv:m=96,n=96"},
        {"dgemm-naive", "dgemm-naive:n=40"},
        {"dgemm-blocked", "dgemm-blocked:n=40,block=16"},
        {"dgemm-opt", "dgemm-opt:n=40"},
        {"fft", "fft:n=1024"},
        {"spmv-csr", "spmv-csr:rows=512,nnz=8"},
        {"strided-sum", "strided-sum:n=8192,stride=16"},
        {"pointer-chase", "pointer-chase:nodes=1024,hops=4096"},
    };
    return specs;
}

/** Which accelerated path a run exercises (see file comment). */
enum class PathMode
{
    Reference,  ///< per-access dispatch, memos off
    FastDirect, ///< per-access dispatch, PR 2 memos on
    Batched,    ///< IR batches through Machine::simulateBatch
};

struct RunOpts
{
    int lanes = 4;
    int cores = 1;
    bool prefetch = true;
    bool flush = true; ///< end with flushAllCaches (writeback coverage)
    /** Records buffered per flush (Batched mode only). */
    uint32_t batchLimit = rfl::trace::AccessBatch::capacity;
};

Machine::Snapshot
runKernel(const std::string &spec, PathMode mode, const RunOpts &opts)
{
    Machine machine(MachineConfig::defaultPlatform());
    machine.setFastPath(mode != PathMode::Reference);
    machine.setPrefetchEnabled(opts.prefetch);

    AddressArena::Scope scope;
    auto kernel = kernels::createKernel(spec);
    kernel->init(42);
    machine.setDependentAccesses(kernel->dependentAccesses());

    const auto dispatch = mode == PathMode::Batched
                              ? kernels::SimEngine::Dispatch::Batched
                              : kernels::SimEngine::Dispatch::Direct;
    const Machine::Snapshot before = machine.snapshot();
    const int parts = kernel->parallelizable() ? opts.cores : 1;
    for (int c = 0; c < parts; ++c) {
        kernels::SimEngine engine(machine, c, opts.lanes, true,
                                  dispatch);
        if (mode == PathMode::Batched)
            engine.setBatchLimit(opts.batchLimit);
        kernel->run(engine, c, parts);
    }
    if (opts.flush)
        machine.flushAllCaches();
    return machine.snapshot() - before;
}

void
expectEqual(const Machine::Snapshot &ref, const Machine::Snapshot &fast,
            const std::string &ctx)
{
    ASSERT_EQ(ref.cores.size(), fast.cores.size()) << ctx;
    for (size_t c = 0; c < ref.cores.size(); ++c) {
        const CoreCounters &a = ref.cores[c];
        const CoreCounters &b = fast.cores[c];
        const std::string at = ctx + " core" + std::to_string(c);
        for (size_t w = 0; w < 4; ++w)
            EXPECT_EQ(a.fpRetired[w], b.fpRetired[w])
                << at << " fpRetired[" << w << "]";
        EXPECT_EQ(a.fpUops, b.fpUops) << at << " fpUops";
        EXPECT_EQ(a.loadUops, b.loadUops) << at << " loadUops";
        EXPECT_EQ(a.storeUops, b.storeUops) << at << " storeUops";
        EXPECT_EQ(a.otherUops, b.otherUops) << at << " otherUops";
        EXPECT_EQ(a.l2FillBytes, b.l2FillBytes) << at << " l2FillBytes";
        EXPECT_EQ(a.l3FillBytes, b.l3FillBytes) << at << " l3FillBytes";
        EXPECT_EQ(a.dramFillBytes, b.dramFillBytes)
            << at << " dramFillBytes";
        EXPECT_EQ(a.ntStoreBytes, b.ntStoreBytes) << at << " ntStoreBytes";
        EXPECT_EQ(a.dramWritebackBytes, b.dramWritebackBytes)
            << at << " dramWritebackBytes";
        EXPECT_EQ(a.latencyCycles, b.latencyCycles)
            << at << " latencyCycles";
    }

    auto expect_cache = [&](const std::vector<CacheStats> &ra,
                            const std::vector<CacheStats> &rb,
                            const char *level) {
        ASSERT_EQ(ra.size(), rb.size()) << ctx << " " << level;
        for (size_t i = 0; i < ra.size(); ++i) {
            const CacheStats &a = ra[i];
            const CacheStats &b = rb[i];
            const std::string at =
                ctx + " " + level + "[" + std::to_string(i) + "]";
            EXPECT_EQ(a.readHits, b.readHits) << at << " readHits";
            EXPECT_EQ(a.readMisses, b.readMisses) << at << " readMisses";
            EXPECT_EQ(a.writeHits, b.writeHits) << at << " writeHits";
            EXPECT_EQ(a.writeMisses, b.writeMisses) << at << " writeMisses";
            EXPECT_EQ(a.writebacks, b.writebacks) << at << " writebacks";
            EXPECT_EQ(a.prefetchFills, b.prefetchFills)
                << at << " prefetchFills";
            EXPECT_EQ(a.prefetchHits, b.prefetchHits)
                << at << " prefetchHits";
        }
    };
    expect_cache(ref.l1, fast.l1, "l1");
    expect_cache(ref.l2, fast.l2, "l2");
    expect_cache(ref.l3, fast.l3, "l3");

    ASSERT_EQ(ref.imcs.size(), fast.imcs.size()) << ctx;
    for (size_t i = 0; i < ref.imcs.size(); ++i) {
        const ImcStats &a = ref.imcs[i];
        const ImcStats &b = fast.imcs[i];
        const std::string at = ctx + " imc[" + std::to_string(i) + "]";
        EXPECT_EQ(a.casReads, b.casReads) << at << " casReads";
        EXPECT_EQ(a.casWrites, b.casWrites) << at << " casWrites";
        EXPECT_EQ(a.prefetchReads, b.prefetchReads)
            << at << " prefetchReads";
        EXPECT_EQ(a.ntWrites, b.ntWrites) << at << " ntWrites";
    }

    ASSERT_EQ(ref.tlbs.size(), fast.tlbs.size()) << ctx;
    for (size_t i = 0; i < ref.tlbs.size(); ++i) {
        const TlbStats &a = ref.tlbs[i];
        const TlbStats &b = fast.tlbs[i];
        const std::string at = ctx + " tlb[" + std::to_string(i) + "]";
        EXPECT_EQ(a.accesses, b.accesses) << at << " accesses";
        EXPECT_EQ(a.l1Misses, b.l1Misses) << at << " l1Misses";
        EXPECT_EQ(a.walks, b.walks) << at << " walks";
    }

    auto expect_pf = [&](const std::vector<PrefetcherStats> &ra,
                         const std::vector<PrefetcherStats> &rb,
                         const char *level) {
        ASSERT_EQ(ra.size(), rb.size()) << ctx << " " << level;
        for (size_t i = 0; i < ra.size(); ++i) {
            const std::string at =
                ctx + " " + level + "pf[" + std::to_string(i) + "]";
            EXPECT_EQ(ra[i].observed, rb[i].observed) << at << " observed";
            EXPECT_EQ(ra[i].issued, rb[i].issued) << at << " issued";
            EXPECT_EQ(ra[i].streamsAllocated, rb[i].streamsAllocated)
                << at << " streamsAllocated";
        }
    };
    expect_pf(ref.l1pf, fast.l1pf, "l1");
    expect_pf(ref.l2pf, fast.l2pf, "l2");
}

void
compareModes(const std::string &spec, const RunOpts &opts,
             const std::string &ctx)
{
    const Machine::Snapshot ref =
        runKernel(spec, PathMode::Reference, opts);
    const Machine::Snapshot fast =
        runKernel(spec, PathMode::FastDirect, opts);
    expectEqual(ref, fast, ctx + " [fast-direct]");
}

/** Batch limits that exercise flush boundaries: every record alone,
 *  boundaries splitting prefetch streaks (7 is coprime to the 8-access
 *  line streak of a scalar streaming kernel), a mid-size batch, and the
 *  production capacity. */
const uint32_t kBatchLimits[] = {1, 7, 256,
                                 rfl::trace::AccessBatch::capacity};

void
compareBatched(const std::string &spec, const RunOpts &opts,
               const std::string &ctx)
{
    const Machine::Snapshot ref =
        runKernel(spec, PathMode::Reference, opts);
    for (uint32_t limit : kBatchLimits) {
        RunOpts bopts = opts;
        bopts.batchLimit = limit;
        const Machine::Snapshot batched =
            runKernel(spec, PathMode::Batched, bopts);
        expectEqual(ref, batched,
                    ctx + " [batched limit=" + std::to_string(limit) +
                        "]");
    }
}

/** The spec table must cover every registered kernel. */
TEST(FastPathEquivalence, SpecTableCoversRegistry)
{
    for (const std::string &name : kernels::kernelNames())
        EXPECT_TRUE(smallSpecs().count(name))
            << "no equivalence spec for kernel '" << name
            << "' — add one to smallSpecs()";
}

TEST(FastPathEquivalence, EveryKernelVectorPrefetchOn)
{
    for (const auto &[name, spec] : smallSpecs())
        compareModes(spec, RunOpts{}, name + " lanes=4 pf=on");
}

TEST(FastPathEquivalence, EveryKernelScalarPrefetchOff)
{
    RunOpts opts;
    opts.lanes = 1;
    opts.prefetch = false;
    for (const auto &[name, spec] : smallSpecs())
        compareModes(spec, opts, name + " lanes=1 pf=off");
}

TEST(FastPathEquivalence, StreamingKernelsMultiCore)
{
    RunOpts opts;
    opts.cores = 4; // spans both sockets' cores on the default platform
    for (const char *name : {"daxpy", "triad", "triad-nt", "dot"})
        compareModes(smallSpecs().at(name), opts,
                     std::string(name) + " cores=4");
}

TEST(FastPathEquivalence, Sse2Width)
{
    RunOpts opts;
    opts.lanes = 2;
    for (const char *name : {"daxpy", "fft", "stencil3"})
        compareModes(smallSpecs().at(name), opts,
                     std::string(name) + " lanes=2");
}

TEST(FastPathEquivalence, WithoutTrailingFlush)
{
    RunOpts opts;
    opts.flush = false;
    for (const char *name : {"daxpy", "triad-nt", "pointer-chase"})
        compareModes(smallSpecs().at(name), opts,
                     std::string(name) + " no-flush");
}

/** Back-to-back regions on one machine (memos survive resetStats; a
 *  batched engine is drained by every snapshot and mid-region flush). */
TEST(FastPathEquivalence, RepeatedRegionsOnOneMachine)
{
    auto run = [](PathMode mode) {
        Machine machine(MachineConfig::defaultPlatform());
        machine.setFastPath(mode != PathMode::Reference);
        AddressArena::Scope scope;
        auto kernel = kernels::createKernel("daxpy:n=4096");
        kernel->init(7);
        const auto dispatch =
            mode == PathMode::Batched
                ? kernels::SimEngine::Dispatch::Batched
                : kernels::SimEngine::Dispatch::Direct;
        Machine::Snapshot acc{};
        for (int rep = 0; rep < 3; ++rep) {
            const Machine::Snapshot before = machine.snapshot();
            kernels::SimEngine engine(machine, 0, 4, true, dispatch);
            kernel->run(engine, 0, 1);
            // Cold-cache protocol mid-way: the engine still holds
            // buffered records here in batched mode; the flush and the
            // snapshot below must drain them in program order.
            if (rep == 1)
                machine.flushAllCaches();
            acc = machine.snapshot() - before; // keep last region
        }
        return acc;
    };
    expectEqual(run(PathMode::Reference), run(PathMode::FastDirect),
                "daxpy repeated regions [fast-direct]");
    expectEqual(run(PathMode::Reference), run(PathMode::Batched),
                "daxpy repeated regions [batched]");
}

// ---------------------------------------------------------------------
// Batched (access-stream IR) golden tests: reference vs simulateBatch.
// ---------------------------------------------------------------------

/** Every registered kernel, every Snapshot counter, across batch
 *  limits {1, 7, 256, capacity} — boundaries must be invisible even
 *  when they split a prefetch streak. */
TEST(BatchedEquivalence, EveryKernelVectorPrefetchOnAcrossBatchLimits)
{
    for (const auto &[name, spec] : smallSpecs())
        compareBatched(spec, RunOpts{}, name + " lanes=4 pf=on");
}

TEST(BatchedEquivalence, EveryKernelScalarPrefetchOff)
{
    RunOpts opts;
    opts.lanes = 1;
    opts.prefetch = false;
    for (const auto &[name, spec] : smallSpecs())
        compareBatched(spec, opts, name + " lanes=1 pf=off");
}

TEST(BatchedEquivalence, StreamingKernelsMultiCore)
{
    RunOpts opts;
    opts.cores = 4; // spans both sockets' cores on the default platform
    for (const char *name : {"daxpy", "triad", "triad-nt", "dot"})
        compareBatched(smallSpecs().at(name), opts,
                       std::string(name) + " cores=4");
}

TEST(BatchedEquivalence, WithoutTrailingFlush)
{
    RunOpts opts;
    opts.flush = false;
    for (const char *name : {"daxpy", "triad-nt", "pointer-chase"})
        compareBatched(smallSpecs().at(name), opts,
                       std::string(name) + " no-flush");
}

/** A batch interleaving records of several cores, consumed without a
 *  core override, must split into same-core spans and match the
 *  per-access call sequence (the path multi-core trace replays use). */
TEST(BatchedEquivalence, MultiCoreBatchSegmentation)
{
    auto access = [](Machine &, auto &&touch) {
        // Interleaved per-core streams: same-line streaks, a line
        // shared between cores, and a page change.
        for (uint64_t i = 0; i < 512; ++i) {
            const int core = static_cast<int>(i & 3);
            const uint64_t addr =
                (1ull << 32) + (i & 3) * 8192 + (i / 4) * 8;
            touch(core, addr);
            if ((i & 7) == 7)
                touch(core, (1ull << 32) + 4 * 8192); // shared line
        }
    };

    Machine direct(MachineConfig::defaultPlatform());
    access(direct, [&](int core, uint64_t addr) {
        direct.load(core, addr, 8);
    });

    Machine batched(MachineConfig::defaultPlatform());
    rfl::trace::AccessBatch batch;
    access(batched, [&](int core, uint64_t addr) {
        if (batch.full()) {
            batched.simulateBatch(batch);
            batch.clear();
        }
        batch.pushMem(rfl::trace::AccessKind::Load, core, addr, 8);
    });
    batched.simulateBatch(batch);

    expectEqual(direct.snapshot(), batched.snapshot(),
                "multi-core segmentation");
}

} // namespace
