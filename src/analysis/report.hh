/**
 * @file
 * Report emitters: the human-facing end of the analysis pipeline.
 *
 * writeAnalysisReport() turns one CampaignAnalysis into the standard
 * artifact set under a directory:
 *   - <name>_<machine>_<variant>.svg  one roofline per scenario, with
 *     kernel points and phase trajectories (svg.hh);
 *   - <name>.html                     a self-contained report bundling
 *     every SVG inline with the derived-metrics tables;
 *   - <name>.json                     the machine-readable document
 *     (analysis.hh, schema v4) the regression gate consumes.
 *
 * renderAnalysisReport() builds the same set in memory for the service.
 */

#ifndef RFL_ANALYSIS_REPORT_HH
#define RFL_ANALYSIS_REPORT_HH

#include <string>
#include <vector>

#include "analysis/analysis.hh"
#include "analysis/svg.hh"

namespace rfl::analysis
{

/** Artifact paths written by writeAnalysisReport. */
struct ReportPaths
{
    std::string html;
    std::string json;
    std::vector<std::string> svgs;
};

/**
 * The full artifact set rendered to memory buffers: what
 * writeAnalysisReport puts on disk, byte-identical, but addressable
 * without a filesystem. The service layer builds one of these per
 * finished campaign and streams the members from RAM; offline tools
 * and tests compare them against the written files.
 */
struct ReportArtifacts
{
    std::string html; ///< <name>.html content
    std::string json; ///< <name>.json content (trailing newline incl.)
    /** One (filename, content) pair per scenario SVG, in scenario
     *  order; filenames match writeAnalysisReport's basenames. */
    std::vector<std::pair<std::string, std::string>> svgs;
};

/**
 * Rebuild the plot of one scenario: its model plus every matching
 * kernel row as a point. @p phases receives the scenario's phase
 * trajectories (ready for renderRooflineSvg).
 */
roofline::RooflinePlot scenarioPlot(const CampaignAnalysis &doc,
                                    const Scenario &scenario,
                                    std::vector<PhasePath> *phases);

/** Render the full artifact set to memory (see ReportArtifacts). */
ReportArtifacts renderAnalysisReport(const CampaignAnalysis &doc,
                                     const std::string &name);

/** Write the full artifact set under @p dir (see file comment). */
ReportPaths writeAnalysisReport(const CampaignAnalysis &doc,
                                const std::string &dir,
                                const std::string &name);

} // namespace rfl::analysis

#endif // RFL_ANALYSIS_REPORT_HH
