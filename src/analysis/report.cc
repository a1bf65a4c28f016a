#include "analysis/report.hh"

#include <cmath>
#include <fstream>

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

std::string
oiText(double oi)
{
    return std::isinf(oi) ? "inf" : formatSig(oi, 4);
}

void
htmlKernelTable(std::string &html, const CampaignAnalysis &doc,
                const Scenario &s)
{
    html.append("<table>\n<tr><th>point</th><th>backend</th>"
                "<th>I [flop/B]</th>"
                "<th>P [Gflop/s]</th><th>roof(I) [Gflop/s]</th>"
                "<th>%roof</th><th>%peak</th><th>%bw</th><th>bound</th>"
                "<th>binding ceiling</th><th>quality</th></tr>\n");
    for (const KernelRow &r : doc.kernels) {
        if (r.machine != s.machine || r.variant != s.variant)
            continue;
        if (!r.available) {
            // Hardware placeholder: name the gap instead of a row of
            // zeros pretending the host measured something.
            html.append("<tr><td>").append(escapeXml(r.label()))
                .append("</td><td>").append(escapeXml(r.backend))
                .append("</td><td colspan='9'>unavailable (perf_event "
                        "denied on measurement host)</td></tr>\n");
            continue;
        }
        const DerivedMetrics &d = r.metrics;
        html.append("<tr><td>").append(escapeXml(r.label()))
            .append("</td><td>").append(escapeXml(r.backend))
            .append("</td><td>").append(oiText(d.oi))
            .append("</td><td>").append(formatSig(d.perf / 1e9, 4))
            .append("</td><td>").append(formatSig(d.attainable / 1e9, 4))
            .append("</td><td>").append(formatSig(d.pctRoof, 3))
            .append("</td><td>").append(formatSig(d.pctPeak, 3))
            .append("</td><td>").append(formatSig(d.pctPeakBandwidth, 3))
            .append("</td><td>").append(boundClassName(d.bound))
            .append("</td><td>").append(escapeXml(d.bindingCeiling))
            .append("</td><td>").append(formatSig(r.quality, 3))
            .append("</td></tr>\n");
    }
    html.append("</table>\n");
}

void
htmlPhaseTable(std::string &html, const CampaignAnalysis &doc,
               const Scenario &s)
{
    bool any = false;
    for (const PhaseRow &r : doc.phases)
        any = any || (r.machine == s.machine && r.variant == s.variant);
    if (!any)
        return;
    html.append("<h3>Phase trajectories</h3>\n"
                "<table>\n<tr><th>kernel</th><th>period [accesses]</th>"
                "<th>phases</th><th>I (total)</th><th>P (total) "
                "[Gflop/s]</th></tr>\n");
    for (const PhaseRow &r : doc.phases) {
        if (r.machine != s.machine || r.variant != s.variant)
            continue;
        const PhaseTrajectory &t = r.trajectory;
        html.append("<tr><td>")
            .append(escapeXml(t.kernel + " " + t.sizeLabel + " (" +
                              t.protocol + ")"))
            .append("</td><td>").append(std::to_string(t.period))
            .append("</td><td>").append(std::to_string(t.points.size()))
            .append("</td><td>").append(oiText(t.oi()))
            .append("</td><td>").append(formatSig(t.perf() / 1e9, 4))
            .append("</td></tr>\n");
    }
    html.append("</table>\n");
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
        // no point. Unplottable rows (I=inf) are left off quietly: the
        // campaign executor warns about each once per run, and this
        // plot is rebuilt by every sink and service render.
        if (!r.available ||
            !roofline::RooflinePlot::plottable(r.metrics.oi,
                                               r.metrics.perf))
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
render(const CampaignAnalysis &doc, const std::string &name)
{
    ReportArtifacts artifacts;
    // The file ends in a newline after the document.
    artifacts.json = encodeAnalysis(doc);
    artifacts.json += '\n';

    std::string &html = artifacts.html;
    html.append("<!DOCTYPE html>\n<html lang='en'>\n<head>\n"
                "<meta charset='utf-8'>\n<title>")
        .append(escapeXml(doc.campaign))
        .append(" — roofline analysis</title>\n"
                "<style>\n"
                "body{font-family:system-ui,-apple-system,'Segoe UI',"
                "sans-serif;background:#fcfcfb;color:#0b0b0b;margin:2rem "
                "auto;max-width:960px;padding:0 1rem}\n"
                "h1{font-size:1.5rem}h2{font-size:1.15rem;margin-top:2rem}"
                "h3{font-size:1rem}\n"
                "table{border-collapse:collapse;margin:0.75rem 0;"
                "font-size:0.85rem}\n"
                "th,td{border:1px solid #e5e4e0;padding:0.3rem 0.6rem;"
                "text-align:right}\n"
                "th{background:#f0efec}td:first-child,th:first-child"
                "{text-align:left}\n"
                "svg{max-width:100%;height:auto}\n"
                ".meta{color:#52514e;font-size:0.85rem}\n"
                "</style>\n</head>\n<body>\n");
    html.append("<h1>").append(escapeXml(doc.campaign))
        .append(" — roofline analysis</h1>\n");
    html.append("<p class='meta'>")
        .append(std::to_string(doc.scenarios.size()))
        .append(" scenario(s), ").append(std::to_string(doc.kernels.size()))
        .append(" measurement(s), ").append(std::to_string(doc.phases.size()))
        .append(" phase trajectorie(s). Generated by roofline_report "
                "(analysis.json schema v4).</p>\n");

    for (size_t si = 0; si < doc.scenarios.size(); ++si) {
        const Scenario &s = doc.scenarios[si];
        std::vector<PhasePath> phases;
        const roofline::RooflinePlot plot = scenarioPlot(doc, s, &phases);
        const std::string stem =
            name + "_" + slug(s.machine) + "_" + slug(s.variant);
        artifacts.svgs.emplace_back(stem + ".svg",
                                    renderRooflineSvg(plot, phases));

        html.append("<h2>").append(escapeXml(s.machine)).append(", ")
            .append(escapeXml(s.variant)).append("</h2>\n");
        html.append("<p class='meta'>peak ")
            .append(formatFlopRate(s.model.peakCompute())).append(", ")
            .append(formatByteRate(s.model.peakBandwidth()))
            .append(", ridge ").append(formatSig(s.model.ridgePoint(), 3))
            .append(" flops/byte</p>\n");
        html.append(artifacts.svgs.back().second);
        htmlKernelTable(html, doc, s);
        htmlPhaseTable(html, doc, s);
    }
    html.append("</body>\n</html>\n");
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

} // namespace

ReportArtifacts
renderAnalysisReport(const CampaignAnalysis &doc,
                     const std::string &name)
{
    telemetry::Span span("analysis-render");
    span.attr("campaign", name);
    return render(doc, name);
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
    ensureDirectory(dir);
    const ReportArtifacts artifacts = render(doc, name);
    ReportPaths paths;
    paths.json = writeArtifact(dir, name + ".json", artifacts.json);
    for (const auto &[file, content] : artifacts.svgs)
        paths.svgs.push_back(writeArtifact(dir, file, content));
    paths.html = writeArtifact(dir, name + ".html", artifacts.html);
    return paths;
}

} // namespace rfl::analysis
