#include "analysis/svg.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>

#include "support/csv.hh"
#include "support/escape.hh"
#include "support/logging.hh"
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

std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return buf;
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
        return y0 + (lyHi - std::log10(y)) / (lyHi - lyLo) * h;
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
emitGrid(std::ostringstream &svg, const Viewport &v)
{
    // Decade gridlines with labels; recessive so marks stay dominant.
    for (int e = static_cast<int>(std::ceil(v.lxLo));
         e <= static_cast<int>(std::floor(v.lxHi)); ++e) {
        const double x = v.px(std::pow(10.0, e));
        svg << "<line x1='" << fmt(x) << "' y1='" << fmt(v.y0)
            << "' x2='" << fmt(x) << "' y2='" << fmt(v.y0 + v.h)
            << "' stroke='" << kGrid << "' stroke-width='1'/>\n";
        svg << "<text x='" << fmt(x) << "' y='"
            << fmt(v.y0 + v.h + 18)
            << "' text-anchor='middle' class='tick'>"
            << formatSig(std::pow(10.0, e), 3) << "</text>\n";
    }
    for (int e = static_cast<int>(std::ceil(v.lyLo));
         e <= static_cast<int>(std::floor(v.lyHi)); ++e) {
        const double y = v.py(std::pow(10.0, e));
        svg << "<line x1='" << fmt(v.x0) << "' y1='" << fmt(y)
            << "' x2='" << fmt(v.x0 + v.w) << "' y2='" << fmt(y)
            << "' stroke='" << kGrid << "' stroke-width='1'/>\n";
        svg << "<text x='" << fmt(v.x0 - 8) << "' y='" << fmt(y + 4)
            << "' text-anchor='end' class='tick'>"
            << formatSig(std::pow(10.0, e) / 1e9, 3) << "</text>\n";
    }
}

/** Polyline through y(x) sampled log-uniformly; splits at gaps. */
void
emitCurve(std::ostringstream &svg, const Viewport &v,
          const std::function<double(double)> &fy, const char *color,
          double width, bool dashed)
{
    constexpr int n = 128;
    std::ostringstream pts;
    bool any = false;
    for (int i = 0; i < n; ++i) {
        const double f = static_cast<double>(i) / (n - 1);
        const double x =
            std::pow(10.0, v.lxLo + f * (v.lxHi - v.lxLo));
        const double y = fy(x);
        if (!(y > 0) || std::log10(y) > v.lyHi ||
            std::log10(y) < v.lyLo) {
            if (any) {
                svg << "<polyline points='" << pts.str()
                    << "' fill='none' stroke='" << color
                    << "' stroke-width='" << width << "'"
                    << (dashed ? " stroke-dasharray='5 4'" : "")
                    << "/>\n";
                pts.str("");
                any = false;
            }
            continue;
        }
        pts << fmt(v.px(x)) << "," << fmt(v.py(y)) << " ";
        any = true;
    }
    if (any) {
        svg << "<polyline points='" << pts.str()
            << "' fill='none' stroke='" << color << "' stroke-width='"
            << width << "'"
            << (dashed ? " stroke-dasharray='5 4'" : "") << "/>\n";
    }
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

    std::ostringstream svg;
    svg << "<svg xmlns='http://www.w3.org/2000/svg' width='"
        << opts.width << "' height='" << opts.height << "' viewBox='0 0 "
        << opts.width << " " << opts.height << "'>\n";
    svg << "<style>\n"
        << "text{font-family:system-ui,-apple-system,'Segoe UI',"
           "sans-serif;fill:" << kTextPrimary << ";font-size:12px}\n"
        << ".tick{fill:" << kTextSecondary << ";font-size:11px}\n"
        << ".title{font-size:15px;font-weight:600}\n"
        << ".ceiling{fill:" << kTextSecondary << ";font-size:10px}\n"
        << "</style>\n";
    svg << "<rect width='" << opts.width << "' height='" << opts.height
        << "' fill='" << kSurface << "'/>\n";

    svg << "<text x='" << fmt(v.x0) << "' y='26' class='title'>"
        << escapeXml(plot.title()) << "</text>\n";
    emitGrid(svg, v);

    // Axis labels.
    svg << "<text x='" << fmt(v.x0 + v.w / 2) << "' y='"
        << fmt(v.y0 + v.h + 40)
        << "' text-anchor='middle' class='tick'>operational intensity "
           "[flops/byte]</text>\n";
    svg << "<text x='18' y='" << fmt(v.y0 + v.h / 2)
        << "' text-anchor='middle' class='tick' transform='rotate(-90 "
           "18 "
        << fmt(v.y0 + v.h / 2)
        << ")'>performance [Gflop/s]</text>\n";

    // Inner ceilings first, the outer roof last so it stays on top.
    for (const roofline::Ceiling &c : model.computeCeilings()) {
        const double value = c.value;
        emitCurve(
            svg, v,
            [&](double x) {
                return std::min(value, x * model.peakBandwidth());
            },
            kTextSecondary, 1.0, true);
        if (std::log10(value) <= v.lyHi &&
            std::log10(value) >= v.lyLo) {
            svg << "<text x='" << fmt(v.x0 + v.w - 4) << "' y='"
                << fmt(v.py(value) - 4)
                << "' text-anchor='end' class='ceiling'>"
                << escapeXml(c.name) << " ("
                << formatFlopRate(value) << ")</text>\n";
        }
    }
    size_t bw_index = 0;
    for (const roofline::Ceiling &b : model.bandwidthCeilings()) {
        const double value = b.value;
        emitCurve(
            svg, v,
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
            svg << "<text x='" << fmt(v.px(x_at) + 4) << "' y='"
                << fmt(v.py(y_at) - 6) << "' class='ceiling'>"
                << escapeXml(b.name) << " (" << formatByteRate(value)
                << ")</text>\n";
        }
    }
    emitCurve(
        svg, v, [&](double x) { return model.attainable(x); }, kRoof,
        2.0, false);
    // Ridge-point annotation on the roof.
    const double ridge = model.ridgePoint();
    if (v.contains(ridge, model.peakCompute())) {
        svg << "<text x='" << fmt(v.px(ridge)) << "' y='"
            << fmt(v.py(model.peakCompute()) - 8)
            << "' text-anchor='middle' class='ceiling'>ridge "
            << formatSig(ridge, 3) << " f/B</text>\n";
    }

    // Phase trajectories: connected interval paths under the points.
    for (const PhasePath &path : phases) {
        std::ostringstream pts;
        size_t drawn = 0;
        double first_x = 0, first_y = 0;
        for (const PhasePoint &p : path.points) {
            if (!plottable(p.oi, p.perf))
                continue;
            if (drawn == 0) {
                first_x = v.px(p.oi);
                first_y = v.py(p.perf);
            }
            pts << fmt(v.px(p.oi)) << "," << fmt(v.py(p.perf)) << " ";
            ++drawn;
        }
        if (drawn == 0)
            continue;
        svg << "<polyline points='" << pts.str()
            << "' fill='none' stroke='" << kPhase
            << "' stroke-width='1.5' opacity='0.9'/>\n";
        for (const PhasePoint &p : path.points) {
            if (!plottable(p.oi, p.perf))
                continue;
            svg << "<circle cx='" << fmt(v.px(p.oi)) << "' cy='"
                << fmt(v.py(p.perf)) << "' r='3' fill='" << kPhase
                << "' stroke='" << kSurface << "' stroke-width='1'/>\n";
        }
        // Inline style, not a fill attribute: the .ceiling class rule
        // would override a presentation attribute and gray the label.
        svg << "<text x='" << fmt(first_x + 6) << "' y='"
            << fmt(first_y + 14) << "' class='ceiling' style='fill:"
            << kPhase << "'>" << escapeXml(path.label)
            << " (phases)</text>\n";
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
            svg << "<path d='M " << fmt(x) << " " << fmt(y - 6) << " L "
                << fmt(x + 6) << " " << fmt(y) << " L " << fmt(x) << " "
                << fmt(y + 6) << " L " << fmt(x - 6) << " " << fmt(y)
                << " Z' fill='" << kHardware << "' stroke='" << kSurface
                << "' stroke-width='2'/>\n";
        } else {
            svg << "<circle cx='" << fmt(x) << "' cy='" << fmt(y)
                << "' r='4.5' fill='" << kPoint << "' stroke='"
                << kSurface << "' stroke-width='2'/>\n";
        }
        svg << "<text x='" << fmt(x + 8) << "' y='" << fmt(y + 4)
            << "'>" << escapeXml(p.label) << "</text>\n";
    }

    svg << "</svg>\n";
    return svg.str();
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
