/**
 * @file
 * Golden tests for RooflinePlot's emitters.
 *
 * The .dat/.gp pair and the point table are consumed downstream (plot
 * regeneration scripts, the analysis HTML report, humans reading the
 * terminal); their exact bytes are contract. The fixture is a small
 * hand-checkable model — peak 40 Gflop/s, 10 GB/s, ridge 4 flops/byte —
 * with one memory-bound and one compute-bound point, so every derived
 * cell (attainable P(I), runtime-compute %, bandwidth %) is verifiable
 * by eye: min(40, 0.5*10) = 5 Gflop/s, 4/5 = 80 %, and so on.
 *
 * Also covers the point-glyph alphabet: 62 distinct glyphs (a-z, A-Z,
 * 0-9) before wrapping, where the old emitter silently aliased at 26.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "roofline/plot.hh"
#include "support/hash.hh"

namespace
{

using namespace rfl;
using namespace rfl::roofline;

std::string
outDir()
{
    const char *dir = std::getenv("RFL_OUT_DIR");
    return dir != nullptr ? dir : "test-out";
}

RooflinePlot
goldenPlot()
{
    RooflineModel model;
    model.addComputeCeiling("scalar", 10e9);
    model.addComputeCeiling("SIMD", 40e9);
    model.addBandwidthCeiling("stream", 10e9);
    RooflinePlot plot("golden", model);
    plot.addPoint("memory-kernel", 0.5, 4.0e9);
    plot.addPoint("compute-kernel", 16.0, 30.0e9);
    return plot;
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

TEST(PlotGolden, PointTable)
{
    const char *const expected =
        "| point          | I [flop/B] | P [Gflop/s] | "
        "roof(I) [Gflop/s] | RC % | BW % |\n"
        "|----------------|------------|-------------|"
        "-------------------|------|------|\n"
        "| memory-kernel  |        0.5 |           4 |"
        "                 5 |   80 |   80 |\n"
        "| compute-kernel |         16 |          30 |"
        "                40 |   75 | 18.8 |\n";
    EXPECT_EQ(goldenPlot().pointTable().toString(), expected);
}

TEST(PlotGolden, GnuplotScript)
{
    const std::string gp_path =
        goldenPlot().writeGnuplot(outDir(), "golden");
    const char *const expected =
        "# Auto-generated roofline figure script\n"
        "set terminal pngcairo size 900,650\n"
        "set output 'golden.png'\n"
        "set title \"golden\"\n"
        "set xlabel \"Operational intensity [flops/byte]\"\n"
        "set ylabel \"Performance [flops/s]\"\n"
        "set logscale xy\n"
        "set key left top\n"
        "set grid\n"
        "plot \\\n"
        "  'golden.dat' index 0 using 1:2 with lines lw 2 "
        "title \"roof\", \\\n"
        "  'golden.dat' index 1 using 1:2 with lines lw 2 "
        "title \"ceiling: scalar\", \\\n"
        "  'golden.dat' index 2 using 1:2 with lines lw 2 "
        "title \"ceiling: SIMD\", \\\n"
        "  'golden.dat' index 3 using 1:2 with lines lw 2 "
        "title \"bandwidth: stream\", \\\n"
        "  'golden.dat' index 4 using 1:2 with points pt 7 ps 1.2 "
        "title \"memory-kernel\", \\\n"
        "  'golden.dat' index 5 using 1:2 with points pt 7 ps 1.2 "
        "title \"compute-kernel\"\n";
    EXPECT_EQ(readFile(gp_path), expected);
}

TEST(PlotGolden, GnuplotData)
{
    goldenPlot().writeGnuplot(outDir(), "golden");
    const std::string dat = readFile(outDir() + "/golden.dat");

    // Any byte change (re-sampling, formatting, series order) moves
    // the content hash; the spot checks below localize a failure.
    EXPECT_EQ(hashToHex(Fnv1a().mix(dat).value()), "5dede3d869655ac2");

    std::istringstream lines(dat);
    std::string line, first, last;
    size_t count = 0;
    while (std::getline(lines, line)) {
        if (count == 0)
            first = line;
        if (!line.empty())
            last = line;
        ++count;
    }
    EXPECT_EQ(count, 244u);
    EXPECT_EQ(first, "# series 0: roof");
    // Final series: the compute-bound point at (16, 30 Gflop/s).
    EXPECT_EQ(last, "16 30000000000");
}

TEST(PlotGolden, GlyphAlphabetCovers62Points)
{
    RooflineModel model;
    model.addComputeCeiling("peak", 10e9);
    model.addBandwidthCeiling("stream", 10e9);
    RooflinePlot plot("glyphs", model);
    for (int i = 0; i < 63; ++i) {
        std::string label = "p";
        label += std::to_string(i);
        plot.addPoint(label, 0.25 * (1.0 + i * 0.1),
                      1e9 * (1.0 + i * 0.1));
    }
    const std::string ascii = plot.renderAscii();
    // The legend assigns one distinct glyph per point up to 62: the
    // 27th point gets 'A' (the old alphabet aliased it to 'a'), the
    // 53rd '0', and only the 63rd wraps back to 'a'.
    EXPECT_NE(ascii.find("point 'a': p0 "), std::string::npos);
    EXPECT_NE(ascii.find("point 'z': p25 "), std::string::npos);
    EXPECT_NE(ascii.find("point 'A': p26 "), std::string::npos);
    EXPECT_NE(ascii.find("point 'Z': p51 "), std::string::npos);
    EXPECT_NE(ascii.find("point '0': p52 "), std::string::npos);
    EXPECT_NE(ascii.find("point '9': p61 "), std::string::npos);
    EXPECT_NE(ascii.find("point 'a': p62 "), std::string::npos);
}

} // namespace
