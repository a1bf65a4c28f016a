/** @file Tests for the Experiment driver. */

#include <gtest/gtest.h>

#include "roofline/experiment.hh"

namespace
{

using namespace rfl;
using namespace rfl::roofline;

TEST(Experiment, ModelCacheReturnsSameObject)
{
    Experiment exp;
    const RooflineModel &a = exp.modelFor({0});
    const RooflineModel &b = exp.modelFor({0});
    EXPECT_EQ(&a, &b); // characterized once, cached
    const RooflineModel &c = exp.modelFor({0, 1});
    EXPECT_NE(&a, &c);
    EXPECT_GT(c.peakCompute(), a.peakCompute());
}

TEST(Experiment, MeasureSpecParsesAndMeasures)
{
    Experiment exp;
    MeasureOptions opts;
    opts.repetitions = 1;
    const Measurement m = exp.measureSpec("daxpy:n=8192", opts);
    EXPECT_EQ(m.kernel, "daxpy");
    EXPECT_DOUBLE_EQ(m.flops, 2.0 * 8192);
}

TEST(Experiment, CustomMachineConfigHonored)
{
    Experiment exp(sim::MachineConfig::scalarMachine());
    EXPECT_EQ(exp.machine().numCores(), 1);
    const RooflineModel &model = exp.modelFor({0});
    // No SIMD, no FMA: peak is fpUnits * freq = 5 Gflop/s.
    EXPECT_NEAR(model.peakCompute(), 5e9, 0.1e9);
}

TEST(ExperimentDeath, BadSpecIsFatal)
{
    Experiment exp;
    EXPECT_EXIT(exp.measureSpec("nonsense"),
                ::testing::ExitedWithCode(1), "unknown kernel");
}

} // namespace
