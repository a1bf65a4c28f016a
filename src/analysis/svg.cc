#include "analysis/svg.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <limits>

#include "support/csv.hh"
#include "support/escape.hh"
#include "support/logging.hh"
#include "support/number_format.hh"
#include "support/units.hh"

namespace rfl::analysis
{

namespace
{

// Palette (validated light-mode steps): chart surface, ink, recessive
// grid, then the three leading categorical slots — roof (blue), kernel
// points (orange), phase paths (aqua). Identity is carried by direct
// text labels, never by color alone.
constexpr const char *kSurface = "#fcfcfb";
constexpr const char *kTextPrimary = "#0b0b0b";
constexpr const char *kTextSecondary = "#52514e";
constexpr const char *kGrid = "#f0efec";
constexpr const char *kRoof = "#2a78d6";
constexpr const char *kPoint = "#eb6834";
constexpr const char *kPhase = "#1baf7a";
constexpr const char *kHardware = "#7b4bd6"; ///< silicon-row diamonds

/** Every pixel coordinate prints with two decimals ("%.2f"). */
std::string
fmt(double v)
{
    return fixedText(v, 2);
}

/** Append "x,y " of one polyline vertex. */
void
appendVertex(std::string &pts, double x, double y)
{
    appendFixed(pts, x, 2);
    pts += ',';
    appendFixed(pts, y, 2);
    pts += ' ';
}

/** Log-log viewport: data ranges plus the pixel mapping. */
struct Viewport
{
    double lxLo = 0, lxHi = 0, lyLo = 0, lyHi = 0; // log10 ranges
    double x0 = 0, y0 = 0, w = 0, h = 0;           // plot area px

    double
    px(double x) const
    {
        return x0 + (std::log10(x) - lxLo) / (lxHi - lxLo) * w;
    }
    double
    py(double y) const
    {
        return pyLog(std::log10(y));
    }
    /** py() of a y whose log10 is @p ly. */
    double
    pyLog(double ly) const
    {
        return y0 + (lyHi - ly) / (lyHi - lyLo) * h;
    }
    bool
    contains(double x, double y) const
    {
        const double lx = std::log10(x), ly = std::log10(y);
        return lx >= lxLo && lx <= lxHi && ly >= lyLo && ly <= lyHi;
    }
};

/** Usable (finite, positive) plot coordinates? */
bool
plottable(double oi, double perf)
{
    return std::isfinite(oi) && oi > 0 && std::isfinite(perf) &&
           perf > 0;
}

Viewport
makeViewport(const roofline::RooflinePlot &plot,
             const std::vector<PhasePath> &phases,
             const SvgOptions &opts)
{
    const roofline::RooflineModel &model = plot.model();
    const double ridge = model.ridgePoint();
    double x_lo = ridge / 32.0, x_hi = ridge * 32.0;
    double y_hi = model.peakCompute() * 2.0;
    double y_lo = model.attainable(x_lo) / 4.0;
    auto cover = [&](double oi, double perf) {
        if (!plottable(oi, perf))
            return;
        x_lo = std::min(x_lo, oi / 2.0);
        x_hi = std::max(x_hi, oi * 2.0);
        y_lo = std::min(y_lo, perf / 2.0);
        y_hi = std::max(y_hi, perf * 2.0);
    };
    for (const roofline::PlotPoint &p : plot.points())
        cover(p.oi, p.perf);
    for (const PhasePath &path : phases)
        for (const PhasePoint &p : path.points)
            cover(p.oi, p.perf);

    Viewport v;
    v.lxLo = std::log10(x_lo);
    v.lxHi = std::log10(x_hi);
    v.lyLo = std::log10(y_lo);
    v.lyHi = std::log10(y_hi);
    constexpr double ml = 76, mr = 24, mt = 48, mb = 56;
    v.x0 = ml;
    v.y0 = mt;
    v.w = opts.width - ml - mr;
    v.h = opts.height - mt - mb;
    return v;
}

void
emitGrid(std::string &svg, const Viewport &v)
{
    // Decade gridlines with labels; recessive so marks stay dominant.
    for (int e = static_cast<int>(std::ceil(v.lxLo));
         e <= static_cast<int>(std::floor(v.lxHi)); ++e) {
        const double x = v.px(std::pow(10.0, e));
        svg.append("<line x1='").append(fmt(x))
            .append("' y1='").append(fmt(v.y0))
            .append("' x2='").append(fmt(x))
            .append("' y2='").append(fmt(v.y0 + v.h))
            .append("' stroke='").append(kGrid)
            .append("' stroke-width='1'/>\n");
        svg.append("<text x='").append(fmt(x))
            .append("' y='").append(fmt(v.y0 + v.h + 18))
            .append("' text-anchor='middle' class='tick'>")
            .append(formatSig(std::pow(10.0, e), 3))
            .append("</text>\n");
    }
    for (int e = static_cast<int>(std::ceil(v.lyLo));
         e <= static_cast<int>(std::floor(v.lyHi)); ++e) {
        const double y = v.py(std::pow(10.0, e));
        svg.append("<line x1='").append(fmt(v.x0))
            .append("' y1='").append(fmt(y))
            .append("' x2='").append(fmt(v.x0 + v.w))
            .append("' y2='").append(fmt(y))
            .append("' stroke='").append(kGrid)
            .append("' stroke-width='1'/>\n");
        svg.append("<text x='").append(fmt(v.x0 - 8))
            .append("' y='").append(fmt(y + 4))
            .append("' text-anchor='end' class='tick'>")
            .append(formatSig(std::pow(10.0, e) / 1e9, 3))
            .append("</text>\n");
    }
}

/**
 * The log-uniform x samples every curve of one plot shares, with each
 * sample's printed pixel column ("px,"): the same for every curve, so
 * computed once per plot.
 */
struct CurveGrid
{
    static constexpr int kSamples = 128;
    std::array<double, kSamples> x;
    std::array<std::string, kSamples> column;

    explicit CurveGrid(const Viewport &v)
    {
        for (int i = 0; i < kSamples; ++i) {
            const double f = static_cast<double>(i) / (kSamples - 1);
            x[i] = std::pow(10.0, v.lxLo + f * (v.lxHi - v.lxLo));
            appendFixed(column[i], v.px(x[i]), 2);
            column[i] += ',';
        }
    }
};

/** Polyline through y = @p fy(x) at the grid's samples; splits at
 *  gaps (y <= 0 or outside the viewport). */
template <typename Fy>
void
emitCurve(std::string &svg, const Viewport &v, const CurveGrid &grid,
          Fy fy, const char *color, double width, bool dashed)
{
    bool open = false;
    auto close = [&] {
        if (!open)
            return;
        svg.append("' fill='none' stroke='").append(color)
            .append("' stroke-width='");
        appendSig(svg, width, kStreamDigits);
        svg.append("'")
            .append(dashed ? " stroke-dasharray='5 4'" : "")
            .append("/>\n");
        open = false;
    };
    // A flat roof repeats y sample after sample: test and print each
    // distinct y once. NaN compares unequal, so the first y (and any
    // NaN) is always tested.
    double last_y = std::numeric_limits<double>::quiet_NaN();
    bool visible = false;
    std::string row; // "py " of last_y when visible
    for (int i = 0; i < CurveGrid::kSamples; ++i) {
        const double y = fy(grid.x[i]);
        if (!(y == last_y)) {
            last_y = y;
            const double ly = y > 0 ? std::log10(y) : 0;
            visible = y > 0 && ly >= v.lyLo && ly <= v.lyHi;
            if (visible) {
                row.clear();
                appendFixed(row, v.pyLog(ly), 2);
                row += ' ';
            }
        }
        if (!visible) {
            close();
            continue;
        }
        if (!open) {
            svg.append("<polyline points='");
            open = true;
        }
        svg.append(grid.column[i]).append(row);
    }
    close();
}

} // namespace

std::string
renderRooflineSvg(const roofline::RooflinePlot &plot,
                  const std::vector<PhasePath> &phases,
                  const SvgOptions &opts)
{
    const roofline::RooflineModel &model = plot.model();
    RFL_ASSERT(model.peakCompute() > 0 && model.peakBandwidth() > 0);
    const Viewport v = makeViewport(plot, phases, opts);
    const std::string width = std::to_string(opts.width);
    const std::string height = std::to_string(opts.height);

    std::string svg;
    svg.reserve(16 * 1024); // a roofline is 13-16 KB
    svg.append("<svg xmlns='http://www.w3.org/2000/svg' width='")
        .append(width).append("' height='").append(height)
        .append("' viewBox='0 0 ").append(width).append(" ")
        .append(height).append("'>\n");
    svg.append("<style>\n")
        .append("text{font-family:system-ui,-apple-system,'Segoe UI',"
                "sans-serif;fill:")
        .append(kTextPrimary).append(";font-size:12px}\n")
        .append(".tick{fill:").append(kTextSecondary)
        .append(";font-size:11px}\n")
        .append(".title{font-size:15px;font-weight:600}\n")
        .append(".ceiling{fill:").append(kTextSecondary)
        .append(";font-size:10px}\n")
        .append("</style>\n");
    svg.append("<rect width='").append(width).append("' height='")
        .append(height).append("' fill='").append(kSurface)
        .append("'/>\n");

    svg.append("<text x='").append(fmt(v.x0))
        .append("' y='26' class='title'>")
        .append(escapeXml(plot.title())).append("</text>\n");
    emitGrid(svg, v);

    // Axis labels.
    svg.append("<text x='").append(fmt(v.x0 + v.w / 2))
        .append("' y='").append(fmt(v.y0 + v.h + 40))
        .append("' text-anchor='middle' class='tick'>operational "
                "intensity [flops/byte]</text>\n");
    svg.append("<text x='18' y='").append(fmt(v.y0 + v.h / 2))
        .append("' text-anchor='middle' class='tick' "
                "transform='rotate(-90 18 ")
        .append(fmt(v.y0 + v.h / 2))
        .append(")'>performance [Gflop/s]</text>\n");

    // Inner ceilings first, the outer roof last so it stays on top.
    const CurveGrid grid(v);
    for (const roofline::Ceiling &c : model.computeCeilings()) {
        const double value = c.value;
        emitCurve(
            svg, v, grid,
            [&](double x) {
                return std::min(value, x * model.peakBandwidth());
            },
            kTextSecondary, 1.0, true);
        if (std::log10(value) <= v.lyHi &&
            std::log10(value) >= v.lyLo) {
            svg.append("<text x='").append(fmt(v.x0 + v.w - 4))
                .append("' y='").append(fmt(v.py(value) - 4))
                .append("' text-anchor='end' class='ceiling'>")
                .append(escapeXml(c.name)).append(" (")
                .append(formatFlopRate(value)).append(")</text>\n");
        }
    }
    size_t bw_index = 0;
    for (const roofline::Ceiling &b : model.bandwidthCeilings()) {
        const double value = b.value;
        emitCurve(
            svg, v, grid,
            [&](double x) {
                const double y = x * value;
                return y <= model.peakCompute() * 1.05 ? y : 0.0;
            },
            kTextSecondary, 1.0, true);
        // Label along the diagonal's lower-left end, staggered so
        // near-equal ceilings don't overlap their labels.
        const double x_at = std::pow(
            10.0, v.lxLo + (0.06 + 0.12 * static_cast<double>(
                                       bw_index++)) *
                               (v.lxHi - v.lxLo));
        const double y_at = x_at * value;
        if (std::log10(y_at) >= v.lyLo && std::log10(y_at) <= v.lyHi) {
            svg.append("<text x='").append(fmt(v.px(x_at) + 4))
                .append("' y='").append(fmt(v.py(y_at) - 6))
                .append("' class='ceiling'>").append(escapeXml(b.name))
                .append(" (").append(formatByteRate(value))
                .append(")</text>\n");
        }
    }
    emitCurve(
        svg, v, grid, [&](double x) { return model.attainable(x); },
        kRoof, 2.0, false);
    // Ridge-point annotation on the roof.
    const double ridge = model.ridgePoint();
    if (v.contains(ridge, model.peakCompute())) {
        svg.append("<text x='").append(fmt(v.px(ridge)))
            .append("' y='").append(fmt(v.py(model.peakCompute()) - 8))
            .append("' text-anchor='middle' class='ceiling'>ridge ")
            .append(formatSig(ridge, 3)).append(" f/B</text>\n");
    }

    // Phase trajectories: connected interval paths under the points.
    for (const PhasePath &path : phases) {
        std::string pts;
        double first_x = 0, first_y = 0;
        for (const PhasePoint &p : path.points) {
            if (!plottable(p.oi, p.perf))
                continue;
            if (pts.empty()) {
                first_x = v.px(p.oi);
                first_y = v.py(p.perf);
            }
            appendVertex(pts, v.px(p.oi), v.py(p.perf));
        }
        if (pts.empty())
            continue;
        svg.append("<polyline points='").append(pts)
            .append("' fill='none' stroke='").append(kPhase)
            .append("' stroke-width='1.5' opacity='0.9'/>\n");
        for (const PhasePoint &p : path.points) {
            if (!plottable(p.oi, p.perf))
                continue;
            svg.append("<circle cx='").append(fmt(v.px(p.oi)))
                .append("' cy='").append(fmt(v.py(p.perf)))
                .append("' r='3' fill='").append(kPhase)
                .append("' stroke='").append(kSurface)
                .append("' stroke-width='1'/>\n");
        }
        // Inline style, not a fill attribute: the .ceiling class rule
        // would override a presentation attribute and gray the label.
        svg.append("<text x='").append(fmt(first_x + 6))
            .append("' y='").append(fmt(first_y + 14))
            .append("' class='ceiling' style='fill:").append(kPhase)
            .append("'>").append(escapeXml(path.label))
            .append(" (phases)</text>\n");
    }

    // Kernel points: marker + direct label. Simulated rows stay the
    // circles every existing golden pins; hardware (backend = perf)
    // rows draw as diamonds in their own color so a mixed plot shows
    // at a glance which points came from silicon.
    for (const roofline::PlotPoint &p : plot.points()) {
        if (!plottable(p.oi, p.perf))
            continue;
        const double x = v.px(p.oi), y = v.py(p.perf);
        if (p.hardware) {
            svg.append("<path d='M ").append(fmt(x)).append(" ")
                .append(fmt(y - 6)).append(" L ").append(fmt(x + 6))
                .append(" ").append(fmt(y)).append(" L ")
                .append(fmt(x)).append(" ").append(fmt(y + 6))
                .append(" L ").append(fmt(x - 6)).append(" ")
                .append(fmt(y)).append(" Z' fill='").append(kHardware)
                .append("' stroke='").append(kSurface)
                .append("' stroke-width='2'/>\n");
        } else {
            svg.append("<circle cx='").append(fmt(x))
                .append("' cy='").append(fmt(y))
                .append("' r='4.5' fill='").append(kPoint)
                .append("' stroke='").append(kSurface)
                .append("' stroke-width='2'/>\n");
        }
        svg.append("<text x='").append(fmt(x + 8))
            .append("' y='").append(fmt(y + 4)).append("'>")
            .append(escapeXml(p.label)).append("</text>\n");
    }

    svg.append("</svg>\n");
    return svg;
}

std::string
writeRooflineSvg(const roofline::RooflinePlot &plot,
                 const std::string &dir, const std::string &name,
                 const std::vector<PhasePath> &phases,
                 const SvgOptions &opts)
{
    ensureDirectory(dir);
    const std::string path = dir + "/" + name + ".svg";
    std::ofstream out(path);
    if (!out)
        fatal("cannot write SVG '%s'", path.c_str());
    out << renderRooflineSvg(plot, phases, opts);
    return path;
}

} // namespace rfl::analysis
