#include "analysis/report.hh"

#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>

#include "support/csv.hh"
#include "support/escape.hh"
#include "support/logging.hh"
#include "support/units.hh"
#include "telemetry/metrics.hh"
#include "telemetry/span.hh"

namespace rfl::analysis
{

namespace
{

/** Label -> filesystem-safe artifact stem fragment. '_' maps to '-'
 *  like every other excluded character: the stem joiner is '_', so a
 *  slug that passed it through could collide two distinct
 *  (machine, variant) pairs onto one filename. */
std::string
slug(const std::string &label)
{
    std::string out;
    for (char c : label) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '.';
        out += ok ? c : '-';
    }
    return out;
}

/** One scenario's rebuilt plot + phase overlays (built exactly once
 *  per emission; ASCII and SVG render from the same instance). */
struct ScenarioPlotSet
{
    roofline::RooflinePlot plot;
    std::vector<PhasePath> phases;
};

std::vector<ScenarioPlotSet>
buildScenarioPlots(const CampaignAnalysis &doc)
{
    std::vector<ScenarioPlotSet> sets;
    for (const Scenario &s : doc.scenarios) {
        std::vector<PhasePath> phases;
        roofline::RooflinePlot plot = scenarioPlot(doc, s, &phases);
        sets.push_back({std::move(plot), std::move(phases)});
    }
    return sets;
}

std::string
oiText(double oi)
{
    return std::isinf(oi) ? "inf" : formatSig(oi, 4);
}

void
htmlKernelTable(std::ostringstream &html, const CampaignAnalysis &doc,
                const Scenario &s)
{
    html << "<table>\n<tr><th>point</th><th>backend</th>"
            "<th>I [flop/B]</th>"
            "<th>P [Gflop/s]</th><th>roof(I) [Gflop/s]</th>"
            "<th>%roof</th><th>%peak</th><th>%bw</th><th>bound</th>"
            "<th>binding ceiling</th><th>quality</th></tr>\n";
    for (const KernelRow &r : doc.kernels) {
        if (r.machine != s.machine || r.variant != s.variant)
            continue;
        if (!r.available) {
            // Hardware placeholder: name the gap instead of a row of
            // zeros pretending the host measured something.
            html << "<tr><td>" << escapeXml(r.label()) << "</td><td>"
                 << escapeXml(r.backend)
                 << "</td><td colspan='9'>unavailable (perf_event "
                    "denied on measurement host)</td></tr>\n";
            continue;
        }
        const DerivedMetrics &d = r.metrics;
        html << "<tr><td>" << escapeXml(r.label()) << "</td><td>"
             << escapeXml(r.backend) << "</td><td>"
             << oiText(d.oi) << "</td><td>"
             << formatSig(d.perf / 1e9, 4) << "</td><td>"
             << formatSig(d.attainable / 1e9, 4) << "</td><td>"
             << formatSig(d.pctRoof, 3) << "</td><td>"
             << formatSig(d.pctPeak, 3) << "</td><td>"
             << formatSig(d.pctPeakBandwidth, 3) << "</td><td>"
             << boundClassName(d.bound) << "</td><td>"
             << escapeXml(d.bindingCeiling) << "</td><td>"
             << formatSig(r.quality, 3) << "</td></tr>\n";
    }
    html << "</table>\n";
}

void
htmlPhaseTable(std::ostringstream &html, const CampaignAnalysis &doc,
               const Scenario &s)
{
    bool any = false;
    for (const PhaseRow &r : doc.phases)
        any = any || (r.machine == s.machine && r.variant == s.variant);
    if (!any)
        return;
    html << "<h3>Phase trajectories</h3>\n"
         << "<table>\n<tr><th>kernel</th><th>period [accesses]</th>"
            "<th>phases</th><th>I (total)</th><th>P (total) "
            "[Gflop/s]</th></tr>\n";
    for (const PhaseRow &r : doc.phases) {
        if (r.machine != s.machine || r.variant != s.variant)
            continue;
        const PhaseTrajectory &t = r.trajectory;
        html << "<tr><td>"
             << escapeXml(t.kernel + " " + t.sizeLabel + " (" +
                           t.protocol + ")")
             << "</td><td>" << t.period << "</td><td>"
             << t.points.size() << "</td><td>" << oiText(t.oi())
             << "</td><td>" << formatSig(t.perf() / 1e9, 4)
             << "</td></tr>\n";
    }
    html << "</table>\n";
}

} // namespace

roofline::RooflinePlot
scenarioPlot(const CampaignAnalysis &doc, const Scenario &scenario,
             std::vector<PhasePath> *phases)
{
    roofline::RooflinePlot plot(doc.campaign + ": " + scenario.machine +
                                    ", " + scenario.variant,
                                scenario.model);
    for (const KernelRow &r : doc.kernels) {
        if (r.machine != scenario.machine ||
            r.variant != scenario.variant)
            continue;
        // Unavailable hardware placeholders (perf_event denied) carry
        // no point; skipping here keeps addPoint's zero-value warning
        // for rows that should have plotted but didn't.
        if (!r.available)
            continue;
        const bool hw = r.backend == "perf";
        plot.addPoint(hw ? r.label() + " [hw]" : r.label(),
                      r.metrics.oi, r.metrics.perf, hw);
    }
    if (phases != nullptr) {
        for (const PhaseRow &r : doc.phases) {
            if (r.machine != scenario.machine ||
                r.variant != scenario.variant)
                continue;
            PhasePath path;
            path.label =
                r.trajectory.kernel + " " + r.trajectory.sizeLabel;
            path.points = r.trajectory.points;
            phases->push_back(std::move(path));
        }
    }
    return plot;
}

namespace
{

/** Render every artifact to memory; the single source of truth the
 *  disk writer and the service's in-RAM store both consume, so the
 *  bytes cannot diverge between the two paths. */
ReportArtifacts
renderFromPlots(const CampaignAnalysis &doc,
                const std::vector<ScenarioPlotSet> &plots,
                const std::string &name)
{
    ReportArtifacts artifacts;
    // Matches writeAnalysisJson's framing (trailing newline).
    artifacts.json = encodeAnalysis(doc) + "\n";

    std::ostringstream html;
    html << "<!DOCTYPE html>\n<html lang='en'>\n<head>\n"
         << "<meta charset='utf-8'>\n<title>"
         << escapeXml(doc.campaign) << " — roofline analysis</title>\n"
         << "<style>\n"
         << "body{font-family:system-ui,-apple-system,'Segoe UI',"
            "sans-serif;background:#fcfcfb;color:#0b0b0b;margin:2rem "
            "auto;max-width:960px;padding:0 1rem}\n"
         << "h1{font-size:1.5rem}h2{font-size:1.15rem;margin-top:2rem}"
            "h3{font-size:1rem}\n"
         << "table{border-collapse:collapse;margin:0.75rem 0;"
            "font-size:0.85rem}\n"
         << "th,td{border:1px solid #e5e4e0;padding:0.3rem 0.6rem;"
            "text-align:right}\n"
         << "th{background:#f0efec}td:first-child,th:first-child"
            "{text-align:left}\n"
         << "svg{max-width:100%;height:auto}\n"
         << ".meta{color:#52514e;font-size:0.85rem}\n"
         << "</style>\n</head>\n<body>\n";
    html << "<h1>" << escapeXml(doc.campaign)
         << " — roofline analysis</h1>\n";
    html << "<p class='meta'>" << doc.scenarios.size()
         << " scenario(s), " << doc.kernels.size()
         << " measurement(s), " << doc.phases.size()
         << " phase trajectorie(s). Generated by roofline_report "
            "(analysis.json schema v4).</p>\n";

    for (size_t si = 0; si < doc.scenarios.size(); ++si) {
        const Scenario &s = doc.scenarios[si];
        const roofline::RooflinePlot &plot = plots[si].plot;
        const std::vector<PhasePath> &phases = plots[si].phases;
        const std::string stem =
            name + "_" + slug(s.machine) + "_" + slug(s.variant);
        artifacts.svgs.emplace_back(stem + ".svg",
                                    renderRooflineSvg(plot, phases));

        html << "<h2>" << escapeXml(s.machine) << ", "
             << escapeXml(s.variant) << "</h2>\n";
        html << "<p class='meta'>peak "
             << formatFlopRate(s.model.peakCompute()) << ", "
             << formatByteRate(s.model.peakBandwidth()) << ", ridge "
             << formatSig(s.model.ridgePoint(), 3)
             << " flops/byte</p>\n";
        html << artifacts.svgs.back().second;
        htmlKernelTable(html, doc, s);
        htmlPhaseTable(html, doc, s);
    }
    html << "</body>\n</html>\n";
    artifacts.html = html.str();
    return artifacts;
}

/** Write one in-memory artifact to @p dir/@p file. */
std::string
writeArtifact(const std::string &dir, const std::string &file,
              const std::string &content)
{
    const std::string path = dir + "/" + file;
    std::ofstream out(path);
    if (!out)
        fatal("cannot write report artifact '%s'", path.c_str());
    out << content;
    return path;
}

ReportPaths
writeReportFromPlots(const CampaignAnalysis &doc,
                     const std::vector<ScenarioPlotSet> &plots,
                     const std::string &dir, const std::string &name)
{
    ensureDirectory(dir);
    const ReportArtifacts artifacts =
        renderFromPlots(doc, plots, name);
    ReportPaths paths;
    paths.json = writeArtifact(dir, name + ".json", artifacts.json);
    for (const auto &[file, content] : artifacts.svgs)
        paths.svgs.push_back(writeArtifact(dir, file, content));
    paths.html = writeArtifact(dir, name + ".html", artifacts.html);
    return paths;
}

} // namespace

ReportArtifacts
renderAnalysisReport(const CampaignAnalysis &doc,
                     const std::string &name)
{
    telemetry::Span span("analysis-render");
    span.attr("campaign", name);
    return renderFromPlots(doc, buildScenarioPlots(doc), name);
}

ReportPaths
writeAnalysisReport(const CampaignAnalysis &doc, const std::string &dir,
                    const std::string &name)
{
    telemetry::Span span("analysis-report");
    span.attr("campaign", name);
    telemetry::Registry::global()
        .counter("rfl_analysis_reports_total",
                 "analysis report bundles written to disk")
        .inc();
    return writeReportFromPlots(doc, buildScenarioPlots(doc), dir,
                                name);
}

ReportPaths
emitAnalysis(const CampaignAnalysis &doc, const std::string &dir,
             const std::string &name, std::ostream &os)
{
    // Build each scenario's plot once; ASCII and the artifact set
    // render from the same instances (duplicate building also meant
    // duplicate skipped-point warnings).
    const std::vector<ScenarioPlotSet> plots = buildScenarioPlots(doc);
    for (const ScenarioPlotSet &set : plots)
        os << set.plot.renderAscii() << "\n";
    if (!doc.kernels.empty()) {
        analysisTable(doc).print(os);
        os << "\n";
    }
    const ReportPaths paths =
        writeReportFromPlots(doc, plots, dir, name);
    os << "wrote " << paths.html << ", " << paths.json << " (+ "
       << paths.svgs.size() << " SVG roofline(s))\n";
    return paths;
}

} // namespace rfl::analysis
