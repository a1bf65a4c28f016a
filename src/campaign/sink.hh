/**
 * @file
 * Aggregation sinks: merge per-job campaign results into the standard
 * artifact set (CSV, gnuplot rooflines, summary tables, stdout report).
 *
 * Workers never print or write files — all artifact generation happens
 * here, on the caller's thread, iterating jobs in deterministic spec
 * order. A campaign run therefore produces byte-identical artifacts for
 * any host thread count and for cached vs simulated results.
 */

#ifndef RFL_CAMPAIGN_SINK_HH
#define RFL_CAMPAIGN_SINK_HH

#include <iosfwd>
#include <string>

#include "analysis/analysis.hh"
#include "campaign/executor.hh"
#include "support/table.hh"

namespace rfl::campaign
{

/**
 * Write every measurement (grid order) as one merged CSV under
 * @p dir/@p name.csv with the standard measurement columns plus the
 * campaign grid columns (machine, variant). @return the path written.
 */
std::string writeCampaignCsv(const CampaignRun &run,
                             const std::string &dir,
                             const std::string &name);

/** One row per measurement: grid cell, W, Q, T, I, P. */
Table summaryTable(const CampaignRun &run);

/**
 * One-line scheduling/caching summary: job counts, simulated vs cached,
 * threads, wall time. Shared by emitCampaign and the bench binaries.
 */
void printCampaignStats(const CampaignRun &run, std::ostream &os);

/**
 * Full artifact set under @p dir: merged CSV, one .dat/.gp roofline per
 * (machine, variant) scenario — analysis::scenarioPlot, the plot the
 * analysis report's SVGs show — and a summary report (tables, cache
 * statistics, wall time) to @p os.
 */
void emitCampaign(const CampaignRun &run, const std::string &dir,
                  std::ostream &os);

/**
 * Analysis artifact set (see analysis/report.hh) under @p dir: derives
 * the CampaignAnalysis document from @p run and writes one SVG roofline
 * per scenario, an HTML report, and <campaign>.json (analysis.json
 * schema v4 — the file the regression gate diffs). @return the derived
 * document so callers can diff it in-process.
 */
analysis::CampaignAnalysis writeCampaignReport(const CampaignRun &run,
                                               const std::string &dir,
                                               std::ostream &os);

} // namespace rfl::campaign

#endif // RFL_CAMPAIGN_SINK_HH
