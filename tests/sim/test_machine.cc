/** @file Integration tests of the machine's data path and counters. */

#include <gtest/gtest.h>

#include <memory>

#include "sim/machine.hh"
#include "snapshot_text.hh"
#include "trace/access_batch.hh"

namespace
{

using namespace rfl::sim;
using rfl::sim::testing::expectMatchesReference;
using rfl::trace::AccessBatch;
using rfl::trace::AccessKind;

/** Machine with prefetchers off so traffic is exactly predictable. */
MachineConfig
quietConfig()
{
    MachineConfig cfg = MachineConfig::smallTestMachine();
    cfg.l1Prefetcher.kind = PrefetcherKind::None;
    cfg.l2Prefetcher.kind = PrefetcherKind::None;
    return cfg;
}

TEST(Machine, ColdLoadReachesDram)
{
    Machine m(quietConfig());
    m.load(0, 0x10000, 8);
    EXPECT_EQ(m.l1(0).stats().readMisses, 1u);
    EXPECT_EQ(m.l2(0).stats().readMisses, 1u);
    EXPECT_EQ(m.l3(0).stats().readMisses, 1u);
    EXPECT_EQ(m.imc(0).stats().casReads, 1u);
    EXPECT_EQ(m.imc(0).stats().casWrites, 0u);
}

TEST(Machine, SecondLoadHitsL1)
{
    Machine m(quietConfig());
    m.load(0, 0x10000, 8);
    m.load(0, 0x10008, 8); // same line
    EXPECT_EQ(m.l1(0).stats().readHits, 1u);
    EXPECT_EQ(m.imc(0).stats().casReads, 1u);
}

TEST(Machine, LoadSpanningTwoLines)
{
    Machine m(quietConfig());
    m.load(0, 0x10000 + 60, 8); // crosses a 64 B boundary
    EXPECT_EQ(m.imc(0).stats().casReads, 2u);
    EXPECT_EQ(m.coreCounters(0).loadUops, 1u); // one instruction
}

TEST(Machine, StoreWriteAllocatesAndWritesBackOnFlush)
{
    Machine m(quietConfig());
    m.store(0, 0x20000, 8);
    // Write-allocate: the line is read from DRAM first.
    EXPECT_EQ(m.imc(0).stats().casReads, 1u);
    EXPECT_EQ(m.imc(0).stats().casWrites, 0u);
    m.flushAllCaches();
    EXPECT_EQ(m.imc(0).stats().casWrites, 1u);
}

TEST(Machine, CleanLinesDoNotWriteBack)
{
    Machine m(quietConfig());
    m.load(0, 0x30000, 8);
    m.flushAllCaches();
    EXPECT_EQ(m.imc(0).stats().casWrites, 0u);
}

TEST(Machine, DirtyLineWrittenBackOnceDespiteMultipleLevels)
{
    Machine m(quietConfig());
    m.store(0, 0x40000, 8);
    m.store(0, 0x40008, 8); // same line, still one dirty line
    m.flushAllCaches();
    EXPECT_EQ(m.imc(0).stats().casWrites, 1u);
}

TEST(Machine, NtStoreBypassesCaches)
{
    Machine m(quietConfig());
    m.storeNT(0, 0x50000, 64);
    EXPECT_EQ(m.imc(0).stats().casWrites, 1u);
    EXPECT_EQ(m.imc(0).stats().ntWrites, 1u);
    EXPECT_EQ(m.imc(0).stats().casReads, 0u); // no write-allocate
    EXPECT_EQ(m.l1(0).residentLines(), 0u);
    // A later load of the line must come from DRAM.
    m.load(0, 0x50000, 8);
    EXPECT_EQ(m.imc(0).stats().casReads, 1u);
}

TEST(Machine, NtStoreInvalidatesCachedCopy)
{
    Machine m(quietConfig());
    m.store(0, 0x60000, 8); // dirty in L1
    m.storeNT(0, 0x60000, 64);
    m.flushAllCaches();
    // The dirty copy was dropped (overwritten): only the NT write hits
    // the IMC, no flush writeback.
    EXPECT_EQ(m.imc(0).stats().casWrites, 1u);
}

TEST(Machine, FpRetirementByWidthAndFmaDoubleCount)
{
    Machine m(quietConfig());
    m.retireFp(0, VecWidth::Scalar, false, 10);
    m.retireFp(0, VecWidth::W4, false, 5);
    m.retireFp(0, VecWidth::W4, true, 3); // FMA: counter +2 each
    const CoreCounters &cc = m.coreCounters(0);
    EXPECT_EQ(cc.fpRetired[0], 10u);
    EXPECT_EQ(cc.fpRetired[2], 5u + 6u);
    // flops: 10*1 + 11*4 = 54.
    EXPECT_EQ(cc.flops(), 54u);
    // uops: one per instruction, FMA included.
    EXPECT_EQ(cc.fpUops, 18u);
}

TEST(MachineDeath, RetiringWiderThanMachinePanics)
{
    MachineConfig cfg = quietConfig();
    cfg.core.maxVectorDoubles = 2;
    Machine m(cfg);
    EXPECT_DEATH(m.retireFp(0, VecWidth::W4, false, 1), "panic");
}

TEST(MachineDeath, FmaOnNonFmaMachinePanics)
{
    MachineConfig cfg = quietConfig();
    cfg.core.hasFma = false;
    Machine m(cfg);
    EXPECT_DEATH(m.retireFp(0, VecWidth::Scalar, true, 1), "panic");
}

TEST(Machine, SnapshotDeltaIsolatesRegion)
{
    Machine m(quietConfig());
    m.load(0, 0x1000, 8);
    const Machine::Snapshot before = m.snapshot();
    m.load(0, 0x2000, 8);
    m.retireFp(0, VecWidth::Scalar, false, 4);
    const Machine::Snapshot delta = m.snapshot() - before;
    EXPECT_EQ(delta.totalImc().casReads, 1u);
    EXPECT_EQ(delta.totalFlops(), 4u);
    EXPECT_EQ(delta.cores[0].loadUops, 1u);
}

TEST(Machine, PrefetcherGeneratesImcTrafficWithoutDemandMisses)
{
    MachineConfig cfg = MachineConfig::smallTestMachine(); // streamers on
    Machine m(cfg);
    // Stream enough lines to train and run ahead.
    for (uint64_t i = 0; i < 64; ++i)
        m.load(0, 0x100000 + i * 64, 8);
    const ImcStats &imc = m.imc(0).stats();
    EXPECT_GT(imc.prefetchReads, 0u);
    // Prefetched lines arrive before demand: fewer L2 demand misses than
    // lines touched.
    EXPECT_LT(m.l2(0).stats().readMisses + m.l2(0).stats().writeMisses,
              64u);
}

TEST(Machine, PrefetchDisableRestoresExactTraffic)
{
    MachineConfig cfg = MachineConfig::smallTestMachine();
    Machine m(cfg);
    m.setPrefetchEnabled(false);
    for (uint64_t i = 0; i < 64; ++i)
        m.load(0, 0x200000 + i * 64, 8);
    EXPECT_EQ(m.imc(0).stats().casReads, 64u);
    EXPECT_EQ(m.imc(0).stats().prefetchReads, 0u);
}

TEST(Machine, SocketAffinity)
{
    MachineConfig cfg = quietConfig();
    cfg.coresPerSocket = 2;
    cfg.sockets = 2;
    Machine m(cfg);
    EXPECT_EQ(m.socketOf(0), 0);
    EXPECT_EQ(m.socketOf(1), 0);
    EXPECT_EQ(m.socketOf(2), 1);
    EXPECT_EQ(m.socketOf(3), 1);
    // LocalToAccessor: core 2's traffic hits socket 1's IMC.
    m.setMemPolicy(MemPolicy::LocalToAccessor);
    m.load(2, 0x70000, 8);
    EXPECT_EQ(m.imc(1).stats().casReads, 1u);
    EXPECT_EQ(m.imc(0).stats().casReads, 0u);
}

TEST(Machine, Socket0PolicyRoutesEverythingToSocket0)
{
    MachineConfig cfg = quietConfig();
    cfg.coresPerSocket = 2;
    cfg.sockets = 2;
    Machine m(cfg);
    m.setMemPolicy(MemPolicy::Socket0);
    m.load(3, 0x80000, 8);
    EXPECT_EQ(m.imc(0).stats().casReads, 1u);
    EXPECT_EQ(m.imc(1).stats().casReads, 0u);
}

TEST(Machine, InterleavePolicySplitsPages)
{
    MachineConfig cfg = quietConfig();
    cfg.coresPerSocket = 2;
    cfg.sockets = 2;
    Machine m(cfg);
    m.setMemPolicy(MemPolicy::Interleave);
    // Two addresses on adjacent 4 KiB pages.
    m.load(0, 0x0, 8);
    m.load(0, 0x1000, 8);
    EXPECT_EQ(m.imc(0).stats().casReads, 1u);
    EXPECT_EQ(m.imc(1).stats().casReads, 1u);
}

TEST(Machine, ResetClearsEverything)
{
    Machine m(quietConfig());
    m.store(0, 0x1000, 8);
    m.retireFp(0, VecWidth::Scalar, false, 5);
    m.reset();
    EXPECT_EQ(m.imc(0).stats().casReads, 0u);
    EXPECT_EQ(m.coreCounters(0).flops(), 0u);
    EXPECT_EQ(m.l1(0).residentLines(), 0u);
    // No writeback on the next flush: dirty state was discarded.
    m.flushAllCaches();
    EXPECT_EQ(m.imc(0).stats().casWrites, 0u);
}

TEST(Machine, EvictionCascadeWritesBackThroughHierarchy)
{
    // Working set > L1+L2 but < L3 with dirty lines: dirty L1 victims
    // land in L2, dirty L2 victims in L3; DRAM sees no writes until the
    // final flush.
    MachineConfig cfg = quietConfig();
    Machine m(cfg);
    const uint64_t lines =
        2 * cfg.l2.sizeBytes / 64; // 2x L2 capacity, fits 16 KiB L3
    for (uint64_t i = 0; i < lines; ++i)
        m.store(0, 0x100000 + i * 64, 8);
    EXPECT_EQ(m.imc(0).stats().casWrites, 0u);
    m.flushAllCaches();
    EXPECT_EQ(m.imc(0).stats().casWrites, lines);
}

TEST(Machine, FlushAttributionChargesCores)
{
    Machine m(quietConfig());
    m.store(0, 0x1000, 8);
    const Machine::Snapshot before = m.snapshot();
    m.flushAllCaches({0});
    const Machine::Snapshot delta = m.snapshot() - before;
    EXPECT_EQ(delta.cores[0].dramWritebackBytes, 64u);
}

// --- fast-path (resident-line filter / page memo) regressions ---

TEST(MachineFastPath, SameLineStreakCountsEveryAccess)
{
    Machine m(quietConfig());
    for (int i = 0; i < 10; ++i)
        m.load(0, 0x10000, 8); // one line, repeated
    EXPECT_EQ(m.l1(0).stats().readMisses, 1u);
    EXPECT_EQ(m.l1(0).stats().readHits, 9u);
    EXPECT_EQ(m.tlb(0).stats().accesses, 10u);
    EXPECT_EQ(m.coreCounters(0).loadUops, 10u);
}

TEST(MachineFastPath, StoreThroughFilterDirtiesLine)
{
    Machine m(quietConfig());
    m.load(0, 0x10000, 8);
    m.load(0, 0x10000, 8);  // admits the line to the filter
    m.store(0, 0x10000, 8); // fast-path write must set the dirty bit
    m.flushAllCaches();
    EXPECT_EQ(m.imc(0).stats().casWrites, 1u);
}

TEST(MachineFastPath, NtStoreEvictsFilteredLine)
{
    Machine m(quietConfig());
    m.load(0, 0x10000, 8);
    m.load(0, 0x10000, 8);    // line is in the filter now
    m.storeNT(0, 0x10000, 8); // invalidates the cached copy
    m.load(0, 0x10000, 8);    // must MISS again, not fast-path "hit"
    EXPECT_EQ(m.l1(0).stats().readMisses, 2u);
    EXPECT_EQ(m.imc(0).stats().casReads, 2u);
    EXPECT_EQ(m.imc(0).stats().ntWrites, 1u);
}

TEST(MachineFastPath, TwoStreamInterleaveStaysExact)
{
    // daxpy-style alternation between two lines: both fit the 4-entry
    // filter; hits/misses must match the analytic count.
    Machine m(quietConfig());
    for (int i = 0; i < 8; ++i) {
        m.load(0, 0x10000 + static_cast<uint64_t>(i) * 8, 8);  // line A
        m.load(0, 0x40000 + static_cast<uint64_t>(i) * 8, 8);  // line B
        m.store(0, 0x40000 + static_cast<uint64_t>(i) * 8, 8); // line B
    }
    EXPECT_EQ(m.l1(0).stats().readMisses, 2u);
    EXPECT_EQ(m.l1(0).stats().readHits, 14u);
    EXPECT_EQ(m.l1(0).stats().writeHits, 8u);
    EXPECT_EQ(m.tlb(0).stats().accesses, 24u);
}

TEST(MachineFastPath, ResetClearsMemos)
{
    Machine m(quietConfig());
    m.load(0, 0x10000, 8);
    m.load(0, 0x10000, 8);
    m.reset();
    m.load(0, 0x10000, 8); // cold again: full path, TLB walk and all
    EXPECT_EQ(m.l1(0).stats().readMisses, 1u);
    EXPECT_EQ(m.l1(0).stats().readHits, 0u);
    EXPECT_EQ(m.tlb(0).stats().accesses, 1u);
    EXPECT_EQ(m.tlb(0).stats().walks, 1u);
}

TEST(MachineFastPath, ToggleSelectsReferencePath)
{
    Machine fast(quietConfig());
    Machine ref(quietConfig());
    ref.setFastPath(false);
    EXPECT_TRUE(fast.fastPathEnabled());
    EXPECT_FALSE(ref.fastPathEnabled());
    for (Machine *m : {&fast, &ref}) {
        for (int i = 0; i < 16; ++i)
            m->load(0, 0x8000 + static_cast<uint64_t>(i) * 8, 8);
    }
    EXPECT_EQ(fast.l1(0).stats().readHits, ref.l1(0).stats().readHits);
    EXPECT_EQ(fast.l1(0).stats().readMisses,
              ref.l1(0).stats().readMisses);
    EXPECT_EQ(fast.tlb(0).stats().accesses, ref.tlb(0).stats().accesses);
}

// --- batched consume: the L1 tag check behind the filter ---

/** One 8-byte access of a batch: (byte address, store?). */
struct Access
{
    uint64_t addr;
    bool store;
};

/** Deliver @p accesses to core 0 as one batch, same-line hints set the
 *  way the engine sets them. */
void
simulateAccesses(Machine &m, const std::vector<Access> &accesses)
{
    auto batch = std::make_unique<AccessBatch>();
    uint64_t prev_line = ~0ull;
    for (const Access &a : accesses) {
        if (batch->full()) {
            m.simulateBatch(*batch);
            batch->clear();
        }
        const uint64_t line = a.addr >> 6;
        batch->pushMem(a.store ? AccessKind::Store : AccessKind::Load, 0,
                       a.addr, 8, line == prev_line);
        prev_line = line;
    }
    m.simulateBatch(*batch);
}

TEST(MachineFastPath, RotationOverMoreLinesThanTheFilterMatchesReference)
{
    // Six L1-resident lines in rotation overflow the four-entry filter
    // on every access; each filter miss must find the line by its tag
    // check and retire it as a hit, exactly as the reference does.
    const Machine::Snapshot s =
        expectMatchesReference(quietConfig(), [](Machine &m) {
            std::vector<Access> accesses;
            for (int round = 0; round < 20; ++round) {
                for (uint64_t l = 0; l < 6; ++l) {
                    const uint64_t base = 0x10000 + l * 64;
                    accesses.push_back({base, false});
                    accesses.push_back({base + 8, round % 3 == 0});
                }
            }
            simulateAccesses(m, accesses);
        });
    EXPECT_EQ(s.l1[0].readMisses, 6u);
    EXPECT_EQ(s.l1[0].writeMisses, 0u);
    EXPECT_EQ(s.l1[0].hits(), 20u * 12 - 6);
    EXPECT_EQ(s.tlbs[0].accesses, 20u * 12);
}

TEST(MachineFastPath, PrefetchedLineFirstTouchTakesTheFullPath)
{
    // The adjacent-line prefetcher installs line 1 when line 0 misses.
    // Line 1 is resident but still marked prefetched, so its first
    // demand touch must count one prefetch hit (the full path); the
    // touches after it are plain hits.
    MachineConfig cfg = quietConfig();
    cfg.l1Prefetcher.kind = PrefetcherKind::NextLine;
    const Machine::Snapshot s = expectMatchesReference(cfg, [](Machine &m) {
        simulateAccesses(m, {{0x10000, false},
                             {0x10040, false},
                             {0x10048, true},
                             {0x10000, false},
                             {0x10040, false}});
    });
    EXPECT_EQ(s.l1[0].prefetchFills, 1u);
    EXPECT_EQ(s.l1[0].prefetchHits, 1u);
    EXPECT_EQ(s.l1[0].readMisses, 1u);
    EXPECT_EQ(s.l1[0].hits(), 4u);
}

TEST(MachineFastPath, NtStoredLineRefetchedByPrefetchMatchesReference)
{
    // An NT store leaves its line as the write-combining line. The
    // prefetcher may bring that line back into L1; the next demand
    // touch drains the combining buffer, so a later NT store to the
    // line is a fresh CAS write.
    MachineConfig cfg = quietConfig();
    cfg.l1Prefetcher.kind = PrefetcherKind::NextLine;
    const Machine::Snapshot s = expectMatchesReference(cfg, [](Machine &m) {
        m.storeNT(0, 0x10040, 8);
        simulateAccesses(m, {{0x10000, false}, // prefetches 0x10040
                             {0x10040, false},
                             {0x10040, false}});
        m.storeNT(0, 0x10040, 8);
    });
    EXPECT_EQ(s.imcs[0].ntWrites, 2u);
}

TEST(Machine, RegionSecondsPositiveAndFrequencyScaled)
{
    Machine m(quietConfig());
    const Machine::Snapshot before = m.snapshot();
    for (int i = 0; i < 100; ++i)
        m.retireFp(0, VecWidth::Scalar, false, 1);
    const Machine::Snapshot delta = m.snapshot() - before;
    const double cycles = m.regionCycles(delta);
    EXPECT_GT(cycles, 0.0);
    EXPECT_NEAR(m.regionSeconds(delta),
                cycles / (m.config().core.freqGHz * 1e9), 1e-18);
}

} // namespace
