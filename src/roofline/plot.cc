#include "roofline/plot.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "support/gnuplot.hh"
#include "support/logging.hh"
#include "support/units.hh"

namespace rfl::roofline
{

namespace
{

/**
 * Point-glyph alphabet for the ASCII rendering: a-z, A-Z, 0-9. Plots
 * with more points than glyphs wrap (renderAscii warns once); the old
 * 26-letter alphabet silently aliased 'a' onto points 0, 26, 52, ...
 */
constexpr char kPointGlyphs[] =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
constexpr size_t kNumPointGlyphs = sizeof(kPointGlyphs) - 1;

char
pointGlyph(size_t index)
{
    return kPointGlyphs[index % kNumPointGlyphs];
}

} // namespace

RooflinePlot::RooflinePlot(std::string title, RooflineModel model)
    : title_(std::move(title)), model_(std::move(model))
{
    RFL_ASSERT(model_.peakCompute() > 0);
    RFL_ASSERT(model_.peakBandwidth() > 0);
}

bool
RooflinePlot::plottable(double oi, double perf)
{
    return std::isfinite(oi) && oi > 0 && perf > 0;
}

void
RooflinePlot::addPoint(const std::string &label, double oi, double perf,
                       bool hardware)
{
    if (!plottable(oi, perf)) {
        warn("roofline plot '%s': skipping point '%s' with I=%g P=%g",
             title_.c_str(), label.c_str(), oi, perf);
        return;
    }
    points_.push_back({label, oi, perf, hardware});
}

void
RooflinePlot::addMeasurement(const Measurement &m)
{
    addPoint(m.label(), m.oi(), m.perf());
}

void
RooflinePlot::xRange(double &lo, double &hi) const
{
    const double ridge = model_.ridgePoint();
    lo = ridge / 32.0;
    hi = ridge * 32.0;
    for (const PlotPoint &p : points_) {
        lo = std::min(lo, p.oi / 2.0);
        hi = std::max(hi, p.oi * 2.0);
    }
}

void
RooflinePlot::yRange(double x_lo, double x_hi, double &lo,
                     double &hi) const
{
    (void)x_hi;
    hi = model_.peakCompute() * 2.0;
    lo = model_.attainable(x_lo) / 4.0;
    for (const PlotPoint &p : points_) {
        lo = std::min(lo, p.perf / 2.0);
        hi = std::max(hi, p.perf * 2.0);
    }
}

std::string
RooflinePlot::renderAscii(int width, int height) const
{
    RFL_ASSERT(width >= 40 && height >= 10);
    const int margin = 11; // left margin for y labels
    const int plot_w = width - margin;

    double x_lo, x_hi, y_lo, y_hi;
    xRange(x_lo, x_hi);
    yRange(x_lo, x_hi, y_lo, y_hi);
    const double lx_lo = std::log10(x_lo), lx_hi = std::log10(x_hi);
    const double ly_lo = std::log10(y_lo), ly_hi = std::log10(y_hi);

    std::vector<std::string> grid(static_cast<size_t>(height),
                                  std::string(static_cast<size_t>(width),
                                              ' '));

    auto col_of = [&](double x) {
        const double f = (std::log10(x) - lx_lo) / (lx_hi - lx_lo);
        return margin + static_cast<int>(f * (plot_w - 1) + 0.5);
    };
    auto row_of = [&](double y) {
        const double f = (std::log10(y) - ly_lo) / (ly_hi - ly_lo);
        return (height - 1) - static_cast<int>(f * (height - 1) + 0.5);
    };
    auto put = [&](int row, int col, char ch) {
        if (row >= 0 && row < height && col >= margin && col < width)
            grid[static_cast<size_t>(row)][static_cast<size_t>(col)] = ch;
    };

    // Inner ceilings first, outer roof last so it stays visible.
    for (const Ceiling &c : model_.computeCeilings()) {
        for (int col = margin; col < width; ++col) {
            const double f = static_cast<double>(col - margin) /
                             (plot_w - 1);
            const double x = std::pow(10.0, lx_lo + f * (lx_hi - lx_lo));
            const double y =
                std::min(c.value, x * model_.peakBandwidth());
            put(row_of(y), col, '-');
        }
    }
    for (const Ceiling &b : model_.bandwidthCeilings()) {
        for (int col = margin; col < width; ++col) {
            const double f = static_cast<double>(col - margin) /
                             (plot_w - 1);
            const double x = std::pow(10.0, lx_lo + f * (lx_hi - lx_lo));
            const double y = x * b.value;
            if (y <= model_.peakCompute() * 1.05)
                put(row_of(y), col, '/');
        }
    }
    for (int col = margin; col < width; ++col) {
        const double f = static_cast<double>(col - margin) / (plot_w - 1);
        const double x = std::pow(10.0, lx_lo + f * (lx_hi - lx_lo));
        put(row_of(model_.attainable(x)), col, '=');
    }

    // Kernel points: glyphs a..z, A..Z, 0..9.
    if (points_.size() > kNumPointGlyphs) {
        warn("roofline plot '%s': %zu points exceed the %zu-glyph "
             "alphabet; glyphs repeat",
             title_.c_str(), points_.size(), kNumPointGlyphs);
    }
    for (size_t i = 0; i < points_.size(); ++i) {
        const PlotPoint &p = points_[i];
        put(row_of(p.perf), col_of(p.oi), pointGlyph(i));
    }

    // Y-axis labels on a few rows.
    auto ylabel = [&](int row) {
        const double f = static_cast<double>((height - 1) - row) /
                         (height - 1);
        const double y = std::pow(10.0, ly_lo + f * (ly_hi - ly_lo));
        char buf[16];
        std::snprintf(buf, sizeof(buf), "%9.3g |", y / 1e9);
        for (int i = 0; i < margin && buf[i]; ++i)
            grid[static_cast<size_t>(row)][static_cast<size_t>(i)] =
                buf[i];
    };
    ylabel(0);
    ylabel(height / 2);
    ylabel(height - 1);
    for (int row = 0; row < height; ++row) {
        if (grid[static_cast<size_t>(row)][static_cast<size_t>(
                margin - 1)] == ' ')
            grid[static_cast<size_t>(row)][static_cast<size_t>(
                margin - 1)] = '|';
    }

    std::ostringstream oss;
    oss << title_ << "  [y: Gflop/s, x: flops/byte, log-log]\n";
    for (const std::string &line : grid)
        oss << line << "\n";
    char xbuf[128];
    std::snprintf(xbuf, sizeof(xbuf),
                  "%*s%-.3g%*s%.3g\n", margin, "", x_lo,
                  plot_w - 8 > 0 ? plot_w - 8 : 1, "", x_hi);
    oss << xbuf;

    oss << "  roof '=': peak " << formatFlopRate(model_.peakCompute())
        << ", " << formatByteRate(model_.peakBandwidth())
        << ", ridge at " << formatSig(model_.ridgePoint(), 3)
        << " flops/byte\n";
    for (const Ceiling &c : model_.computeCeilings()) {
        oss << "  ceiling '-': " << c.name << " = "
            << formatFlopRate(c.value) << "\n";
    }
    for (const Ceiling &b : model_.bandwidthCeilings()) {
        oss << "  ceiling '/': " << b.name << " = "
            << formatByteRate(b.value) << "\n";
    }
    for (size_t i = 0; i < points_.size(); ++i) {
        const PlotPoint &p = points_[i];
        const double rc = 100.0 * p.perf / model_.attainable(p.oi);
        oss << "  point '" << pointGlyph(i)
            << "': " << p.label << "  I=" << formatSig(p.oi, 3)
            << " P=" << formatFlopRate(p.perf) << " RC=" << formatSig(rc, 3)
            << "%\n";
    }
    return oss.str();
}

Table
RooflinePlot::pointTable() const
{
    Table t({"point", "I [flop/B]", "P [Gflop/s]", "roof(I) [Gflop/s]",
             "RC %", "BW %"});
    for (const PlotPoint &p : points_) {
        const double att = model_.attainable(p.oi);
        const double rc = 100.0 * p.perf / att;
        const double bw =
            100.0 * (p.perf / p.oi) / model_.peakBandwidth();
        t.addRow({p.label, formatSig(p.oi, 4), formatSig(p.perf / 1e9, 4),
                  formatSig(att / 1e9, 4), formatSig(rc, 3),
                  formatSig(bw, 3)});
    }
    return t;
}

std::string
RooflinePlot::writeGnuplot(const std::string &directory,
                           const std::string &name) const
{
    GnuplotWriter gp(directory, name, title_);
    gp.setAxes("Operational intensity [flops/byte]",
               "Performance [flops/s]", true);

    double x_lo, x_hi;
    xRange(x_lo, x_hi);
    auto sample_xs = [&]() {
        std::vector<double> xs;
        const int n = 64;
        for (int i = 0; i < n; ++i) {
            const double f = static_cast<double>(i) / (n - 1);
            xs.push_back(std::pow(
                10.0, std::log10(x_lo) +
                          f * (std::log10(x_hi) - std::log10(x_lo))));
        }
        return xs;
    };

    {
        const std::vector<double> xs = sample_xs();
        std::vector<double> ys;
        for (double x : xs)
            ys.push_back(model_.attainable(x));
        gp.addLineSeries("roof", xs, ys);
    }
    for (const Ceiling &c : model_.computeCeilings()) {
        const std::vector<double> xs = sample_xs();
        std::vector<double> ys;
        for (double x : xs)
            ys.push_back(std::min(c.value, x * model_.peakBandwidth()));
        gp.addLineSeries("ceiling: " + c.name, xs, ys);
    }
    for (const Ceiling &b : model_.bandwidthCeilings()) {
        std::vector<double> xs, ys;
        for (double x : sample_xs()) {
            const double y = x * b.value;
            if (y <= model_.peakCompute() * 1.05) {
                xs.push_back(x);
                ys.push_back(y);
            }
        }
        gp.addLineSeries("bandwidth: " + b.name, xs, ys);
    }
    for (const PlotPoint &p : points_)
        gp.addPointSeries(p.label, {p.oi}, {p.perf});
    return gp.write();
}

} // namespace rfl::roofline
