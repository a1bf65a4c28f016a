/** @file Tests for platform probing and roofline plotting. */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>

#include <gtest/gtest.h>

#include "campaign/serialize.hh"
#include "roofline/platform.hh"
#include "roofline/plot.hh"
#include "sim/machine.hh"
#include "support/thread_pool.hh"

namespace
{

using namespace rfl;
using namespace rfl::roofline;

class PlatformTest : public ::testing::Test
{
  protected:
    PlatformTest()
        : machine_(sim::MachineConfig::defaultPlatform()),
          probe_(machine_)
    {
    }

    sim::Machine machine_;
    PlatformProbe probe_;
};

TEST_F(PlatformTest, ComputePeakMatchesConfiguredPeak)
{
    const double peak = probe_.computePeak({0}, 4, true);
    EXPECT_NEAR(peak, machine_.config().core.peakFlopsPerSec(4),
                0.02 * peak);
}

TEST_F(PlatformTest, ComputePeakScalesWithWidthAndFma)
{
    const double scalar_nofma = probe_.computePeak({0}, 1, false);
    const double scalar_fma = probe_.computePeak({0}, 1, true);
    const double avx_fma = probe_.computePeak({0}, 4, true);
    EXPECT_NEAR(scalar_fma / scalar_nofma, 2.0, 0.05);
    EXPECT_NEAR(avx_fma / scalar_fma, 4.0, 0.1);
}

TEST_F(PlatformTest, ComputePeakScalesWithCores)
{
    const double one = probe_.computePeak({0}, 4, true);
    const double four = probe_.computePeak({0, 1, 2, 3}, 4, true);
    EXPECT_NEAR(four / one, 4.0, 0.1);
}

TEST_F(PlatformTest, SingleCoreBandwidthBelowPerCoreCap)
{
    const BandwidthResult r = probe_.bandwidthPeak({0}, BwProbe::NtSet);
    EXPECT_LE(r.bytesPerSec,
              machine_.config().perCoreDramGBs * 1e9 * 1.01);
    EXPECT_GT(r.bytesPerSec,
              machine_.config().perCoreDramGBs * 1e9 * 0.5);
}

TEST_F(PlatformTest, SocketBandwidthExceedsSingleCore)
{
    const BandwidthResult one = probe_.bandwidthPeak({0}, BwProbe::Triad);
    const BandwidthResult four =
        probe_.bandwidthPeak({0, 1, 2, 3}, BwProbe::Triad);
    EXPECT_GT(four.bytesPerSec, 1.5 * one.bytesPerSec);
    EXPECT_LE(four.bytesPerSec,
              machine_.config().socketDramGBs * 1e9 * 1.02);
}

TEST_F(PlatformTest, NtSetMovesFewerBytesPerUsefulByte)
{
    // Regular stores triple the traffic of the useful bytes (allocate
    // read + writeback); NT stores are 1:1.
    const BandwidthResult nt = probe_.bandwidthPeak({0}, BwProbe::NtSet);
    EXPECT_NEAR(nt.bytesPerSec, nt.usefulBytesPerSec,
                0.02 * nt.bytesPerSec);
    const BandwidthResult copy = probe_.bandwidthPeak({0}, BwProbe::Copy);
    EXPECT_GT(copy.bytesPerSec, 1.3 * copy.usefulBytesPerSec);
}

TEST_F(PlatformTest, CharacterizeProducesOrderedCeilings)
{
    const RooflineModel model = probe_.characterize({0});
    EXPECT_GE(model.computeCeilings().size(), 3u);
    EXPECT_GE(model.bandwidthCeilings().size(), 1u);
    EXPECT_LT(model.computeCeiling("scalar"),
              model.computeCeiling("AVX+FMA"));
    EXPECT_GT(model.ridgePoint(), 0.5);
    EXPECT_LT(model.ridgePoint(), 20.0);
}

TEST(PlatformScenarios, CoreSetHelpers)
{
    sim::Machine machine(sim::MachineConfig::defaultPlatform());
    EXPECT_EQ(singleThreadCores(machine), std::vector<int>{0});
    EXPECT_EQ(oneSocketCores(machine).size(), 4u);
    EXPECT_EQ(allCores(machine).size(), 8u);
    EXPECT_EQ(scenarioName(machine, {0}), "single core");
    EXPECT_EQ(scenarioName(machine, oneSocketCores(machine)),
              "single socket");
    EXPECT_EQ(scenarioName(machine, allCores(machine)), "2 sockets");
    EXPECT_EQ(scenarioName(machine, {0, 1}), "2 cores");
}

TEST(PlatformParts, ShuffledPartsAssembleToCharacterize)
{
    // Every part measured on its own freshly built machine, in a
    // shuffled order, must merge into the model serial characterize()
    // builds on one machine, byte for byte. The cases are independent,
    // so they share a pool to keep the test's wall time down.
    struct Case
    {
        sim::MachineConfig config;
        const char *scenario;
        bool oneSocket;
        bool prefetch;
        std::string expected;
        std::string assembled;
    };
    std::vector<Case> cases;
    for (const sim::MachineConfig &config :
         {sim::MachineConfig::defaultPlatform(),
          sim::MachineConfig::smallTestMachine(),
          sim::MachineConfig::scalarMachine()}) {
        cases.push_back({config, "1 core", false, true, "", ""});
        cases.push_back({config, "one socket numa=local", true, true, "",
                         ""});
        cases.push_back({config, "1 core prefetch off", false, false, "",
                         ""});
    }

    ThreadPool pool(4);
    pool.parallelFor(cases.size(), [&cases](size_t c) {
        Case &tc = cases[c];
        const auto build = [&tc] {
            auto m = std::make_unique<sim::Machine>(tc.config);
            m->setMemPolicy(sim::MemPolicy::LocalToAccessor);
            m->setPrefetchEnabled(tc.prefetch);
            return m;
        };
        const auto serial = build();
        const std::vector<int> cores = tc.oneSocket
                                           ? oneSocketCores(*serial)
                                           : singleThreadCores(*serial);
        tc.expected = campaign::encodeModel(
            PlatformProbe(*serial).characterize(cores));

        const std::vector<CeilingPart> parts =
            ceilingParts(tc.config.core);
        std::vector<size_t> order(parts.size());
        std::iota(order.begin(), order.end(), size_t{0});
        std::shuffle(order.begin(), order.end(), std::mt19937(13 + c));
        std::vector<double> values(parts.size());
        for (size_t i : order)
            values[i] =
                PlatformProbe(*build()).measurePart(cores, parts[i]);
        tc.assembled =
            campaign::encodeModel(assembleCeilings(parts, values));
    });
    for (const Case &tc : cases) {
        EXPECT_FALSE(tc.expected.empty());
        EXPECT_EQ(tc.assembled, tc.expected)
            << tc.config.name << " / " << tc.scenario;
    }
}

TEST(PlatformParts, AssembleKeepsReadAndTheFirstBestProbe)
{
    sim::CoreConfig core;
    core.maxVectorDoubles = 1;
    core.hasFma = false;
    const std::vector<CeilingPart> parts = ceilingParts(core);
    ASSERT_EQ(parts.size(), 6u); // scalar + five bandwidth probes
    EXPECT_EQ(parts[0].name, "scalar");

    // read, copy, scale, triad, nt-set: copy and triad tie for best.
    RooflineModel model =
        assembleCeilings(parts, {1e9, 5e9, 8e9, 6e9, 8e9, 7e9});
    ASSERT_EQ(model.bandwidthCeilings().size(), 2u);
    EXPECT_EQ(model.bandwidthCeilings()[0].name, "read");
    EXPECT_EQ(model.bandwidthCeilings()[1].name, "copy");

    // Read is the best: it appears once.
    model = assembleCeilings(parts, {1e9, 9e9, 8e9, 6e9, 8e9, 7e9});
    ASSERT_EQ(model.bandwidthCeilings().size(), 1u);
    EXPECT_EQ(model.bandwidthCeilings()[0].name, "read");
}

RooflineModel
toyModel()
{
    RooflineModel m;
    m.addComputeCeiling("scalar", 5e9);
    m.addComputeCeiling("AVX+FMA", 40e9);
    m.addBandwidthCeiling("stream", 14e9);
    return m;
}

TEST(Plot, PointsAndTable)
{
    RooflinePlot plot("test", toyModel());
    plot.addPoint("mem-bound", 0.1, 1.2e9);
    plot.addPoint("comp-bound", 10.0, 30e9);
    EXPECT_EQ(plot.points().size(), 2u);

    const rfl::Table table = plot.pointTable();
    const std::string text = table.toString();
    EXPECT_NE(text.find("mem-bound"), std::string::npos);
    EXPECT_NE(text.find("comp-bound"), std::string::npos);
}

TEST(Plot, RejectsDegeneratePoints)
{
    RooflinePlot plot("test", toyModel());
    plot.addPoint("inf", std::numeric_limits<double>::infinity(), 1e9);
    plot.addPoint("zero-oi", 0.0, 1e9);
    plot.addPoint("zero-perf", 1.0, 0.0);
    EXPECT_TRUE(plot.points().empty());
}

TEST(Plot, AsciiRenderContainsRoofAndPoints)
{
    RooflinePlot plot("ascii-test", toyModel());
    plot.addPoint("k1", 0.1, 1.0e9);
    const std::string art = plot.renderAscii();
    EXPECT_NE(art.find('='), std::string::npos);  // roof
    EXPECT_NE(art.find('/'), std::string::npos);  // bandwidth ceiling
    EXPECT_NE(art.find("point 'a'"), std::string::npos);
    EXPECT_NE(art.find("ridge"), std::string::npos);
}

TEST(Plot, GnuplotFilesWritten)
{
    const std::string dir = "/tmp/rfl_plot_test";
    std::filesystem::remove_all(dir);
    RooflinePlot plot("gp-test", toyModel());
    plot.addPoint("k", 1.0, 5e9);
    const std::string gp = plot.writeGnuplot(dir, "fig_test");
    EXPECT_TRUE(std::filesystem::exists(gp));
    EXPECT_TRUE(std::filesystem::exists(dir + "/fig_test.dat"));
    std::ifstream in(dir + "/fig_test.dat");
    std::string all((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    EXPECT_NE(all.find("# series"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Plot, MeasurementIntegration)
{
    RooflinePlot plot("m", toyModel());
    Measurement m;
    m.kernel = "daxpy";
    m.sizeLabel = "n=8";
    m.protocol = "cold";
    m.flops = 1000;
    m.trafficBytes = 10000;
    m.seconds = 1e-6;
    plot.addMeasurement(m);
    ASSERT_EQ(plot.points().size(), 1u);
    EXPECT_DOUBLE_EQ(plot.points()[0].oi, 0.1);
    EXPECT_NE(plot.points()[0].label.find("daxpy"), std::string::npos);
}

} // namespace
