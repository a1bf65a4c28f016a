/**
 * @file
 * Roofline plot assembly and rendering.
 *
 * A plot is a RooflineModel (the ceilings) plus measured kernel points
 * (operational intensity, performance). It renders three ways:
 *   - ASCII art (log-log), so every bench binary shows the figure in the
 *     terminal the way the paper shows it on the page;
 *   - gnuplot .dat/.gp pair for offline figure regeneration;
 *   - a point table with the paper's derived metrics (attainable
 *     performance at each point's intensity and the runtime-compute
 *     percentage P / attainable).
 */

#ifndef RFL_ROOFLINE_PLOT_HH
#define RFL_ROOFLINE_PLOT_HH

#include <string>
#include <vector>

#include "roofline/measurement.hh"
#include "roofline/model.hh"
#include "support/table.hh"

namespace rfl::roofline
{

/** One kernel point on a roofline plot. */
struct PlotPoint
{
    std::string label;
    double oi = 0.0;   ///< flops/byte
    double perf = 0.0; ///< flops/s
    /** True for silicon (backend = perf) rows; renderers draw these
     *  with a distinct glyph so sim and hardware are tellable apart. */
    bool hardware = false;
};

/** See file comment. */
class RooflinePlot
{
  public:
    RooflinePlot(std::string title, RooflineModel model);

    /** Whether a point at (@p oi, @p perf) can sit on a log-log plot:
     *  finite, positive intensity and positive performance. */
    static bool plottable(double oi, double perf);

    /** Add a point directly; an unplottable one is skipped with a
     *  warning. */
    void addPoint(const std::string &label, double oi, double perf,
                  bool hardware = false);

    /** Add a measurement (skipped with a warning when oi is inf/0). */
    void addMeasurement(const Measurement &m);

    const std::string &title() const { return title_; }
    const RooflineModel &model() const { return model_; }
    const std::vector<PlotPoint> &points() const { return points_; }

    /**
     * Render as ASCII art, log-log, ~@p width x @p height characters.
     * Points are letters (a, b, c ...) with a legend underneath.
     */
    std::string renderAscii(int width = 72, int height = 20) const;

    /**
     * Point table: label, I, P, attainable P(I), runtime-compute % and
     * % of peak bandwidth.
     */
    Table pointTable() const;

    /** Write <name>.dat/.gp under @p directory; @return .gp path. */
    std::string writeGnuplot(const std::string &directory,
                             const std::string &name) const;

  private:
    /** X range covering ceilings' ridge points and all points. */
    void xRange(double &lo, double &hi) const;
    /** Y range covering roofs and all points. */
    void yRange(double x_lo, double x_hi, double &lo, double &hi) const;

    std::string title_;
    RooflineModel model_;
    std::vector<PlotPoint> points_;
};

} // namespace rfl::roofline

#endif // RFL_ROOFLINE_PLOT_HH
