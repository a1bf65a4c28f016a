/** @file Unit tests of the engine instrumentation seam. */

#include <gtest/gtest.h>

#include "kernels/engine.hh"
#include "sim/machine.hh"

namespace
{

using namespace rfl;
using namespace rfl::kernels;

TEST(NativeEngine, ScalarOpsComputeAndCount)
{
    NativeEngine e(1, true);
    EXPECT_DOUBLE_EQ(e.add(2.0, 3.0), 5.0);
    EXPECT_DOUBLE_EQ(e.sub(2.0, 3.0), -1.0);
    EXPECT_DOUBLE_EQ(e.mul(2.0, 3.0), 6.0);
    EXPECT_DOUBLE_EQ(e.div(6.0, 3.0), 2.0);
    EXPECT_DOUBLE_EQ(e.fmadd(2.0, 3.0, 1.0), 7.0);
    // 4 plain ops + 1 FMA (counts 2): 6 scalar retirements = 6 flops.
    EXPECT_EQ(e.counters().fpRetired[0], 6u);
    EXPECT_EQ(e.counters().flops(), 6u);
}

TEST(NativeEngine, FmaOffSplitsIntoTwoOps)
{
    NativeEngine e(1, false);
    EXPECT_DOUBLE_EQ(e.fmadd(2.0, 3.0, 1.0), 7.0);
    EXPECT_EQ(e.counters().fpRetired[0], 2u); // mul + add
    EXPECT_EQ(e.counters().flops(), 2u);      // same flops either way
}

TEST(NativeEngine, VectorOpsComputeLanewise)
{
    NativeEngine e(4, true);
    double data[4] = {1.0, 2.0, 3.0, 4.0};
    const Vec v = e.vload(data);
    const Vec s = e.vbroadcast(10.0);
    const Vec sum = e.vadd(v, s);
    for (int i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(sum[i], data[i] + 10.0);
    const Vec prod = e.vmul(v, v);
    EXPECT_DOUBLE_EQ(prod[3], 16.0);
    const Vec fma = e.vfmadd(v, v, s);
    EXPECT_DOUBLE_EQ(fma[2], 19.0);
    EXPECT_DOUBLE_EQ(e.vreduce(v), 10.0);
}

TEST(NativeEngine, VectorCountsByWidthClass)
{
    NativeEngine e(4, true);
    double data[4] = {1, 2, 3, 4};
    const Vec v = e.vload(data);
    e.vadd(v, v);           // 1x 256b
    e.vfmadd(v, v, v);      // 2x 256b (FMA)
    e.vreduce(v);           // 3 scalar adds
    const sim::CoreCounters &c = e.counters();
    EXPECT_EQ(c.fpRetired[2], 3u);
    EXPECT_EQ(c.fpRetired[0], 3u);
    // flops = 3*4 + 3*1 = 15.
    EXPECT_EQ(c.flops(), 15u);
    EXPECT_EQ(c.loadUops, 1u);
}

TEST(NativeEngine, StoresWriteThrough)
{
    NativeEngine e(2, true);
    double out[2] = {0, 0};
    Vec v = e.vbroadcast(7.0);
    e.vstore(out, v);
    EXPECT_DOUBLE_EQ(out[0], 7.0);
    EXPECT_DOUBLE_EQ(out[1], 7.0);
    EXPECT_EQ(e.counters().storeUops, 1u);
}

TEST(NativeEngine, LoopAndRawLoadCounting)
{
    NativeEngine e(1, true);
    int idx = 3;
    e.loadRaw(&idx, 4);
    e.loop(10, 2);
    EXPECT_EQ(e.counters().loadUops, 1u);
    EXPECT_EQ(e.counters().otherUops, 20u);
}

class SimEngineTest : public ::testing::Test
{
  protected:
    SimEngineTest() : machine_(quiet()) {}

    static sim::MachineConfig
    quiet()
    {
        sim::MachineConfig cfg = sim::MachineConfig::smallTestMachine();
        cfg.l1Prefetcher.kind = sim::PrefetcherKind::None;
        cfg.l2Prefetcher.kind = sim::PrefetcherKind::None;
        return cfg;
    }

    sim::Machine machine_;
};

TEST_F(SimEngineTest, LoadsRouteThroughHierarchyAndReturnData)
{
    SimEngine e(machine_, 0, 1, true);
    double x = 2.5;
    EXPECT_DOUBLE_EQ(e.load(&x), 2.5);
    EXPECT_EQ(machine_.imc(0).stats().casReads, 1u);
}

TEST_F(SimEngineTest, StoresWriteDataAndDirtyLines)
{
    SimEngine e(machine_, 0, 1, true);
    double x = 0.0;
    e.store(&x, 9.0);
    EXPECT_DOUBLE_EQ(x, 9.0);
    machine_.flushAllCaches();
    EXPECT_EQ(machine_.imc(0).stats().casWrites, 1u);
}

TEST_F(SimEngineTest, FpRetirementMatchesNativeConvention)
{
    SimEngine e(machine_, 0, 4, true);
    const Vec a = e.vbroadcast(1.0);
    e.vfmadd(a, a, a); // FMA: +2 on 256b counter
    e.vadd(a, a);      // +1
    const sim::CoreCounters &cc = machine_.coreCounters(0);
    EXPECT_EQ(cc.fpRetired[2], 3u);
    EXPECT_EQ(cc.flops(), 12u);
}

TEST_F(SimEngineTest, FmaFallsBackWhenDisabled)
{
    SimEngine e(machine_, 0, 1, /*use_fma=*/false);
    EXPECT_FALSE(e.fmaEnabled());
    EXPECT_DOUBLE_EQ(e.fmadd(2.0, 3.0, 4.0), 10.0);
    EXPECT_EQ(machine_.coreCounters(0).fpRetired[0], 2u); // mul + add
}

TEST_F(SimEngineTest, VectorLoadTouchesWholeWidth)
{
    SimEngine e(machine_, 0, 4, true);
    alignas(64) double data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    const Vec v = e.vload(data);
    EXPECT_DOUBLE_EQ(v[3], 4.0);
    // One load uop, one line touched.
    EXPECT_EQ(machine_.coreCounters(0).loadUops, 1u);
    EXPECT_EQ(machine_.imc(0).stats().casReads, 1u);
}

TEST_F(SimEngineTest, NtStoreCountsAtImc)
{
    SimEngine e(machine_, 0, 4, true);
    alignas(64) double out[4];
    e.vstoreNT(out, e.vbroadcast(1.0));
    EXPECT_EQ(machine_.imc(0).stats().ntWrites, 1u);
    EXPECT_DOUBLE_EQ(out[2], 1.0);
}

TEST_F(SimEngineTest, RejectsLanesBeyondMachineWidth)
{
    EXPECT_EXIT((SimEngine{machine_, 0, 8, true}),
                ::testing::ExitedWithCode(1), "lanes");
}

TEST(EngineParity, SameArithmeticOnBothEngines)
{
    sim::MachineConfig cfg = sim::MachineConfig::smallTestMachine();
    sim::Machine machine(cfg);
    NativeEngine ne(4, true);
    SimEngine se(machine, 0, 4, true);

    alignas(64) double a[4] = {1.5, -2.0, 0.25, 8.0};
    alignas(64) double b[4] = {2.0, 3.0, -1.0, 0.5};
    const Vec na = ne.vload(a), nb = ne.vload(b);
    const Vec sa = se.vload(a), sb = se.vload(b);
    const Vec nr = ne.vfmadd(na, nb, na);
    const Vec sr = se.vfmadd(sa, sb, sa);
    for (int i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(nr[i], sr[i]);
    EXPECT_DOUBLE_EQ(ne.vreduce(nr), se.vreduce(sr));
}

} // namespace
