/** @file Unit tests for the two-level DTLB model. */

#include <gtest/gtest.h>

#include "sim/machine.hh"
#include "sim/tlb.hh"
#include "snapshot_text.hh"

namespace
{

using namespace rfl::sim;
using rfl::sim::testing::expectMatchesReference;

TlbConfig
tinyTlb()
{
    TlbConfig cfg;
    cfg.l1Entries = 8;
    cfg.l1Assoc = 2;
    cfg.l2Entries = 32;
    cfg.l2Assoc = 4;
    return cfg;
}

TEST(Tlb, FirstTouchWalksThenHits)
{
    Tlb tlb(tinyTlb());
    const double first = tlb.translate(0x10000);
    EXPECT_DOUBLE_EQ(first, tlb.config().walkLatencyCycles);
    const double second = tlb.translate(0x10008); // same page
    EXPECT_DOUBLE_EQ(second, 0.0);
    EXPECT_EQ(tlb.stats().walks, 1u);
    EXPECT_EQ(tlb.stats().accesses, 2u);
}

TEST(Tlb, StlbHitCostsLessThanWalk)
{
    const TlbConfig cfg = tinyTlb();
    Tlb tlb(cfg);
    // Touch enough pages to evict page 0 from the 8-entry L1 but keep
    // it in the 32-entry L2 (all map across sets).
    tlb.translate(0);
    for (uint64_t p = 1; p <= 12; ++p)
        tlb.translate(p * cfg.pageBytes);
    const double lat = tlb.translate(0);
    EXPECT_DOUBLE_EQ(lat, cfg.l2LatencyCycles);
}

TEST(Tlb, CapacityThrashWalksEveryTime)
{
    const TlbConfig cfg = tinyTlb();
    Tlb tlb(cfg);
    // Cycle through 3x the STLB capacity twice: second pass still walks
    // (LRU streaming pattern).
    const uint64_t pages = 3 * cfg.l2Entries;
    for (int pass = 0; pass < 2; ++pass)
        for (uint64_t p = 0; p < pages; ++p)
            tlb.translate(p * cfg.pageBytes);
    EXPECT_EQ(tlb.stats().walks, 2 * pages);
}

TEST(Tlb, FlushForgetsTranslations)
{
    Tlb tlb(tinyTlb());
    tlb.translate(0x5000);
    tlb.flush();
    const double lat = tlb.translate(0x5000);
    EXPECT_DOUBLE_EQ(lat, tlb.config().walkLatencyCycles);
}

TEST(Tlb, DisabledTlbIsFree)
{
    TlbConfig cfg = tinyTlb();
    cfg.enabled = false;
    Tlb tlb(cfg);
    EXPECT_DOUBLE_EQ(tlb.translate(0x123456), 0.0);
    EXPECT_EQ(tlb.stats().accesses, 0u);
}

TEST(TlbDeath, BadGeometryIsFatal)
{
    TlbConfig cfg;
    cfg.pageBytes = 5000;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "fatal");
    TlbConfig cfg2;
    cfg2.l1Entries = 7;
    cfg2.l1Assoc = 2;
    EXPECT_EXIT(cfg2.validate(), ::testing::ExitedWithCode(1), "fatal");
}

// --- per-set MRU page memo (Tlb::isSetMru) ---

/** tinyTlb() has 4 L1 DTLB sets of 2 ways: pages p and p + 4 share a
 *  set, pages p and p + 1 do not. */
constexpr uint64_t kPage = 4096;

TEST(TlbMemo, EachSetRemembersItsNewestPage)
{
    Tlb tlb(tinyTlb());
    EXPECT_FALSE(tlb.isSetMru(0));
    tlb.translate(0 * kPage); // set 0: walk + fill
    tlb.translate(1 * kPage); // set 1
    EXPECT_TRUE(tlb.isSetMru(0 * kPage + 8));
    EXPECT_TRUE(tlb.isSetMru(1 * kPage));
    tlb.translate(4 * kPage); // set 0 again: page 4 is its newest now
    EXPECT_FALSE(tlb.isSetMru(0));
    EXPECT_TRUE(tlb.isSetMru(4 * kPage));
    tlb.translate(0); // an L1 hit moves the memo back
    EXPECT_TRUE(tlb.isSetMru(0));
    EXPECT_TRUE(tlb.isSetMru(1 * kPage));
    EXPECT_EQ(tlb.stats().l1Misses, 3u);
}

TEST(TlbMemo, FlushClearsTheMemo)
{
    Tlb tlb(tinyTlb());
    tlb.translate(0x5000);
    ASSERT_TRUE(tlb.isSetMru(0x5000));
    tlb.flush();
    EXPECT_FALSE(tlb.isSetMru(0x5000));

    // On a machine a reset flushes the TLB: the next touch walks again,
    // exactly as in the reference path.
    MachineConfig cfg = MachineConfig::smallTestMachine();
    cfg.tlb = tinyTlb();
    const Machine::Snapshot s = expectMatchesReference(cfg, [](Machine &m) {
        m.load(0, 0x5000, 8);
        m.load(0, 0x5008, 8);
        m.reset();
        m.load(0, 0x5000, 8);
    });
    EXPECT_EQ(s.tlbs[0].walks, 1u);
}

TEST(TlbMemo, DisabledTlbNeverMatches)
{
    TlbConfig cfg = tinyTlb();
    cfg.enabled = false;
    Tlb tlb(cfg);
    tlb.translate(0x5000);
    EXPECT_FALSE(tlb.isSetMru(0x5000));
}

TEST(TlbMemo, PagesAlternatingAcrossTwoSetsMatchReference)
{
    // The blocked-kernel pattern: an operand page and a packed-panel
    // page alternate. In different sets both stay their set's MRU.
    MachineConfig cfg = MachineConfig::smallTestMachine();
    cfg.tlb = tinyTlb();
    const Machine::Snapshot s = expectMatchesReference(cfg, [](Machine &m) {
        for (uint64_t i = 0; i < 64; ++i) {
            m.load(0, 0 * kPage + i * 64, 8);
            m.load(0, 1 * kPage + i * 64, 8);
        }
    });
    EXPECT_EQ(s.tlbs[0].accesses, 128u);
    EXPECT_EQ(s.tlbs[0].l1Misses, 2u);
}

TEST(TlbMemo, PagesAlternatingWithinOneSetMatchReference)
{
    // Pages 0 and 4 share a 2-way set: each access finds the other page
    // as the set's MRU and takes the full translation. Page 8 then
    // evicts the set's LRU page, which must be the one touched first,
    // so a stale stamp on either page would evict the wrong one and
    // make the last loop miss where the reference hits.
    MachineConfig cfg = MachineConfig::smallTestMachine();
    cfg.tlb = tinyTlb();
    const Machine::Snapshot s = expectMatchesReference(cfg, [](Machine &m) {
        for (int round = 0; round < 3; ++round) {
            for (uint64_t i = 0; i < 16; ++i) {
                m.load(0, 0 * kPage + i * 64, 8);
                m.load(0, 4 * kPage + i * 64, 8);
                m.load(0, 0 * kPage + i * 64 + 8, 8);
            }
            m.load(0, 8 * kPage, 8); // evicts page 4 (LRU)
            for (uint64_t i = 0; i < 4; ++i)
                m.load(0, 0 * kPage + i * 64, 8);
        }
    });
    // Three rounds of {0, 4, 8} in a 2-way set: pages 4 and 8 miss on
    // each return, page 0 never after its first touch.
    EXPECT_EQ(s.tlbs[0].l1Misses, 7u);
}

TEST(MachineTlb, PageStridedAccessesPayWalks)
{
    MachineConfig cfg = MachineConfig::defaultPlatform();
    cfg.l1Prefetcher.kind = PrefetcherKind::None;
    cfg.l2Prefetcher.kind = PrefetcherKind::None;
    Machine m(cfg);
    // Touch 8192 distinct pages: far beyond the 1536-entry STLB.
    const Machine::Snapshot before = m.snapshot();
    for (uint64_t p = 0; p < 8192; ++p)
        m.load(0, p * 4096, 8);
    const Machine::Snapshot delta = m.snapshot() - before;
    EXPECT_GT(delta.tlbs[0].walks, 8000u);

    // The same byte count touched densely costs far fewer walks.
    m.reset();
    const Machine::Snapshot b2 = m.snapshot();
    for (uint64_t i = 0; i < 8192; ++i)
        m.load(0, i * 64, 8);
    const Machine::Snapshot d2 = m.snapshot() - b2;
    EXPECT_LT(d2.tlbs[0].walks, 200u);
    // And runs measurably faster despite identical DRAM line counts.
    EXPECT_LT(m.regionCycles(d2), m.regionCycles(delta));
}

TEST(MachineTlb, TlbCanBeDisabledInConfig)
{
    MachineConfig cfg = MachineConfig::defaultPlatform();
    cfg.tlb.enabled = false;
    Machine m(cfg);
    for (uint64_t p = 0; p < 100; ++p)
        m.load(0, p * 4096, 8);
    EXPECT_EQ(m.tlb(0).stats().accesses, 0u);
}

} // namespace
