/**
 * @file
 * Report emitters and the analysis.json codec: artifact set existence,
 * SVG/HTML structure, schema round-trip fidelity.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "analysis/analysis.hh"
#include "analysis/diff.hh"
#include "analysis/report.hh"
#include "analysis/svg.hh"

namespace
{

using namespace rfl;
using namespace rfl::analysis;

std::string
outDir()
{
    const char *dir = std::getenv("RFL_OUT_DIR");
    return dir != nullptr ? dir : "test-out";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

CampaignAnalysis
sampleDoc()
{
    CampaignAnalysis doc;
    doc.campaign = "sample";
    Scenario s;
    s.machine = "box";
    s.variant = "cold-1c";
    s.model.addComputeCeiling("scalar", 10e9);
    s.model.addComputeCeiling("vector", 40e9);
    s.model.addBandwidthCeiling("stream", 10e9);
    doc.scenarios.push_back(s);

    roofline::Measurement m;
    m.kernel = "triad";
    m.sizeLabel = "n=4096";
    m.protocol = "cold";
    m.flops = 8192;
    m.trafficBytes = 98304;
    m.seconds = 1e-5;
    doc.kernels.push_back(
        makeKernelRow("box", "cold-1c", m, s.model));

    // Warm resident: zero traffic, I = inf (the null-encoding case).
    roofline::Measurement warm = m;
    warm.protocol = "warm";
    warm.trafficBytes = 0.0;
    doc.kernels.push_back(
        makeKernelRow("box", "cold-1c", warm, s.model));

    PhaseRow phase;
    phase.machine = "box";
    phase.variant = "cold-1c";
    phase.trajectory.kernel = "triad";
    phase.trajectory.sizeLabel = "n=4096";
    phase.trajectory.protocol = "cold";
    phase.trajectory.period = 512;
    phase.trajectory.points = {
        {0.05, 1.0e9, 5e4, 1e6, 5e-5},
        {0.0625, 1.2e9, 6e4, 9.6e5, 5e-5},
    };
    phase.trajectory.totalFlops = 1.1e5;
    phase.trajectory.totalTrafficBytes = 1.96e6;
    phase.trajectory.totalSeconds = 1e-4;
    doc.phases.push_back(phase);
    return doc;
}

TEST(AnalysisJson, RoundTrip)
{
    const CampaignAnalysis doc = sampleDoc();
    const std::string text = encodeAnalysis(doc);
    const CampaignAnalysis back = decodeAnalysis(text);

    EXPECT_EQ(back.campaign, doc.campaign);
    ASSERT_EQ(back.scenarios.size(), 1u);
    EXPECT_EQ(back.scenarios[0].machine, "box");
    EXPECT_DOUBLE_EQ(back.scenarios[0].model.peakCompute(), 40e9);
    EXPECT_DOUBLE_EQ(back.scenarios[0].model.peakBandwidth(), 10e9);
    EXPECT_DOUBLE_EQ(
        back.scenarios[0].model.computeCeiling("scalar"), 10e9);

    ASSERT_EQ(back.kernels.size(), 2u);
    const KernelRow &a = back.kernels[0];
    EXPECT_EQ(a.kernel, "triad");
    EXPECT_DOUBLE_EQ(a.flops, 8192);
    EXPECT_DOUBLE_EQ(a.metrics.oi, doc.kernels[0].metrics.oi);
    EXPECT_DOUBLE_EQ(a.metrics.pctRoof, doc.kernels[0].metrics.pctRoof);
    EXPECT_EQ(a.metrics.bound, BoundClass::MemoryBound);

    // inf OI round-trips through the null encoding.
    EXPECT_TRUE(std::isinf(back.kernels[1].metrics.oi));
    EXPECT_EQ(back.kernels[1].metrics.bound, BoundClass::ComputeBound);

    ASSERT_EQ(back.phases.size(), 1u);
    EXPECT_EQ(back.phases[0].trajectory.period, 512u);
    ASSERT_EQ(back.phases[0].trajectory.points.size(), 2u);
    EXPECT_DOUBLE_EQ(back.phases[0].trajectory.points[1].perf, 1.2e9);

    // An encode-decode-encode cycle is a fixed point (stable bytes).
    EXPECT_EQ(encodeAnalysis(back), text);
}

TEST(AnalysisJson, StrictJsonHasNoBareInfTokens)
{
    const std::string text = encodeAnalysis(sampleDoc());
    // The inf-OI row must encode as null, not the cache format's bare
    // inf token (python/jq reject that).
    EXPECT_EQ(text.find(":inf"), std::string::npos);
    EXPECT_EQ(text.find(":nan"), std::string::npos);
    EXPECT_NE(text.find("\"oi\":null"), std::string::npos);
    EXPECT_NE(text.find("\"schema_version\":4"), std::string::npos);
    EXPECT_NE(text.find("\"backend\":\"sim\""), std::string::npos);
    EXPECT_NE(text.find("\"kind\":\"rfl-analysis\""),
              std::string::npos);
}

TEST(AnalysisJson, ProvenanceFieldsRoundTrip)
{
    CampaignAnalysis doc = sampleDoc();
    doc.kernels[0].backend = "perf";
    doc.kernels[0].quality = 0.75;
    doc.kernels[1].backend = "perf";
    doc.kernels[1].available = false;
    doc.kernels[1].quality = 0.0;

    const CampaignAnalysis back = decodeAnalysis(encodeAnalysis(doc));
    ASSERT_EQ(back.kernels.size(), 2u);
    EXPECT_EQ(back.kernels[0].backend, "perf");
    EXPECT_DOUBLE_EQ(back.kernels[0].quality, 0.75);
    EXPECT_TRUE(back.kernels[0].available);
    EXPECT_FALSE(back.kernels[1].available);
    EXPECT_DOUBLE_EQ(back.kernels[1].quality, 0.0);
}

TEST(AnalysisJson, DecodesV3DocumentsWithSimDefaults)
{
    // Committed baselines (bench/analysis_baseline.json) predate the
    // provenance fields; a v3 document must decode with every row an
    // available simulated one so old baselines keep diffing cleanly.
    std::string text = encodeAnalysis(sampleDoc());
    const auto strip = [&text](const std::string &needle) {
        for (size_t pos; (pos = text.find(needle)) != std::string::npos;)
            text.erase(pos, needle.size());
    };
    strip("\"backend\":\"sim\",\"quality\":1,\"available\":true,");
    const size_t v = text.find("\"schema_version\":4");
    ASSERT_NE(v, std::string::npos);
    text[v + std::string("\"schema_version\":").size()] = '3';
    ASSERT_EQ(text.find("backend"), std::string::npos);

    const CampaignAnalysis back = decodeAnalysis(text);
    ASSERT_EQ(back.kernels.size(), 2u);
    for (const KernelRow &r : back.kernels) {
        EXPECT_EQ(r.backend, "sim");
        EXPECT_DOUBLE_EQ(r.quality, 1.0);
        EXPECT_TRUE(r.available);
    }
}

TEST(AnalysisJson, MalformedMembersExitWithAMessage)
{
    // A wrong-kind or missing member is a user error (bad file), not a
    // crash: exit 1 with an analysis.json message, never abort.
    std::string mistyped = encodeAnalysis(sampleDoc());
    const size_t at = mistyped.find("\"campaign\":\"sample\"");
    ASSERT_NE(at, std::string::npos);
    std::string missing = mistyped;
    mistyped.replace(at, std::string("\"campaign\":\"sample\"").size(),
                     "\"campaign\":5");
    missing.erase(at, std::string("\"campaign\":\"sample\",").size());

    EXPECT_EXIT(decodeAnalysis(mistyped), ::testing::ExitedWithCode(1),
                "analysis.json: expected string, got number");
    EXPECT_EXIT(decodeAnalysis(missing), ::testing::ExitedWithCode(1),
                "analysis.json: missing member 'campaign'");
}

TEST(AnalysisJson, DiffAfterRoundTripIsClean)
{
    const CampaignAnalysis doc = sampleDoc();
    const CampaignAnalysis back = decodeAnalysis(encodeAnalysis(doc));
    EXPECT_FALSE(diffAnalyses(doc, back).hasRegressions());
}

TEST(AnalysisReport, WritesFullArtifactSet)
{
    const CampaignAnalysis doc = sampleDoc();
    const ReportPaths paths =
        writeAnalysisReport(doc, outDir(), "sample");

    const std::string html = readFile(paths.html);
    EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
    EXPECT_NE(html.find("<svg"), std::string::npos); // inline plot
    EXPECT_NE(html.find("triad n=4096 (cold)"), std::string::npos);
    EXPECT_NE(html.find("Phase trajectories"), std::string::npos);
    EXPECT_NE(html.find("binding ceiling"), std::string::npos);

    ASSERT_EQ(paths.svgs.size(), 1u);
    const std::string svg = readFile(paths.svgs[0]);
    EXPECT_NE(svg.find("<svg xmlns"), std::string::npos);
    EXPECT_NE(svg.find("triad n=4096 (cold)"), std::string::npos);
    EXPECT_NE(svg.find("ridge"), std::string::npos);
    EXPECT_NE(svg.find("(phases)"), std::string::npos);

    const CampaignAnalysis loaded = loadAnalysisFile(paths.json);
    EXPECT_EQ(loaded.kernels.size(), doc.kernels.size());
}

TEST(AnalysisReport, EmitPrintsAsciiAndTable)
{
    std::ostringstream os;
    emitAnalysis(sampleDoc(), outDir(), "sample_emit", os);
    const std::string text = os.str();
    EXPECT_NE(text.find("roof '='"), std::string::npos); // ASCII plot
    EXPECT_NE(text.find("binding ceiling"), std::string::npos);
    EXPECT_NE(text.find("wrote "), std::string::npos);
}

TEST(AnalysisSvg, SkipsUnplottablePoints)
{
    roofline::RooflineModel model;
    model.addComputeCeiling("peak", 10e9);
    model.addBandwidthCeiling("stream", 10e9);
    roofline::RooflinePlot plot("edge", model);
    plot.addPoint("good", 1.0, 1e9);

    std::vector<PhasePath> phases(1);
    phases[0].label = "path";
    phases[0].points = {
        {std::numeric_limits<double>::infinity(), 1e9, 1, 0, 1},
        {1.0, 2e9, 1, 1, 1},
        {2.0, 0.0, 0, 1, 0}, // zero perf: unplottable
        {4.0, 3e9, 1, 1, 1},
    };
    const std::string svg = renderRooflineSvg(plot, phases);
    EXPECT_NE(svg.find("good"), std::string::npos);
    EXPECT_NE(svg.find("path (phases)"), std::string::npos);
    // Only the two plottable phase points produce markers (r='3').
    size_t markers = 0, pos = 0;
    while ((pos = svg.find("r='3'", pos)) != std::string::npos) {
        ++markers;
        pos += 5;
    }
    EXPECT_EQ(markers, 2u);
}

TEST(AnalysisSvg, HardwarePointsRenderAsDiamonds)
{
    roofline::RooflineModel model;
    model.addComputeCeiling("peak", 10e9);
    model.addBandwidthCeiling("stream", 10e9);
    roofline::RooflinePlot plot("hw", model);
    plot.addPoint("triad n=4096 (cold)", 1.0, 1e9);
    plot.addPoint("triad n=4096 (cold) [hw]", 1.0, 8e8,
                  /*hardware=*/true);
    const std::string svg = renderRooflineSvg(plot, {});
    // The sim row keeps its circle glyph; the silicon row draws as a
    // diamond path in the hardware color so mixed plots read at a
    // glance.
    EXPECT_NE(svg.find("r='4.5'"), std::string::npos);
    EXPECT_NE(svg.find("#7b4bd6"), std::string::npos);
    EXPECT_NE(svg.find("[hw]"), std::string::npos);
    size_t circles = 0, pos = 0;
    while ((pos = svg.find("r='4.5'", pos)) != std::string::npos) {
        ++circles;
        pos += 7;
    }
    EXPECT_EQ(circles, 1u);
}

} // namespace
