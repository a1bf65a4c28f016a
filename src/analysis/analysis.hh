/**
 * @file
 * The analysis document: the machine-readable product of a campaign.
 *
 * ingest -> derive -> emit -> diff (DESIGN.md §9): analyzeCampaign()
 * ingests a CampaignRun (measurements, ceiling models, phase
 * trajectories) and derives a CampaignAnalysis — per-scenario roofline
 * models plus one row of derived metrics per measurement and one phase
 * trajectory per phase job. The document serializes to `analysis.json`
 * (schema v4, validated by tools/check_bench_schema.py) and round-trips
 * losslessly, so the diff/regression engine (diff.hh) can compare a
 * fresh run against a committed baseline without re-simulating either.
 *
 * Schema v4 adds per-row provenance: `backend` ("sim" — simulated or
 * trace-replayed — vs "perf" — measured on host silicon through the
 * PMU), the multiplex `quality` fraction of the worst contributing
 * hardware counter, and an `available` flag for hardware rows that
 * could not be collected (perf_event_open denied). decodeAnalysis
 * still accepts v3 documents — committed baselines predate the fields
 * and default to backend="sim", quality=1, available=true.
 *
 * analysis.json is strict JSON (non-finite numbers are emitted as null
 * and reconstructed on decode), so standard tooling — python, jq, CI —
 * can consume it, unlike the cache spill format's bare nan/inf tokens.
 */

#ifndef RFL_ANALYSIS_ANALYSIS_HH
#define RFL_ANALYSIS_ANALYSIS_HH

#include <string>
#include <vector>

#include "analysis/metrics.hh"
#include "analysis/phase.hh"
#include "campaign/executor.hh"
#include "roofline/model.hh"
#include "support/table.hh"

namespace rfl::analysis
{

/** One (machine, variant) scenario: the roofline its points plot on. */
struct Scenario
{
    std::string machine;
    std::string variant;
    roofline::RooflineModel model;
};

/** One measurement with its derived metrics. */
struct KernelRow
{
    std::string machine;
    std::string variant;
    std::string kernel;
    std::string sizeLabel;
    std::string protocol;
    int cores = 1;
    int lanes = 1;
    double flops = 0.0;
    double trafficBytes = 0.0;
    double seconds = 0.0;
    /** Row provenance: "sim" or "perf" (see Measurement::backend). */
    std::string backend = "sim";
    /** Worst multiplex quality of any contributing counter [0, 1]. */
    double quality = 1.0;
    /** False for hardware rows the host refused to collect. */
    bool available = true;
    DerivedMetrics metrics;

    /** The row's plot label (see roofline::pointLabel). */
    std::string label() const;
};

/** One phase trajectory, placed on its scenario's roofline. */
struct PhaseRow
{
    std::string machine;
    std::string variant;
    PhaseTrajectory trajectory;
};

/** See file comment. */
struct CampaignAnalysis
{
    std::string campaign;
    std::vector<Scenario> scenarios;
    std::vector<KernelRow> kernels; ///< deterministic grid order
    std::vector<PhaseRow> phases;

    /** @return scenario of (machine, variant), or nullptr. */
    const Scenario *findScenario(const std::string &machine,
                                 const std::string &variant) const;
};

/** Derive the full analysis document from a finished campaign run. */
CampaignAnalysis analyzeCampaign(const campaign::CampaignRun &run);

/**
 * Build one KernelRow from a measurement against @p model (the path
 * bench binaries use when composing documents without a campaign).
 */
KernelRow makeKernelRow(const std::string &machine,
                        const std::string &variant,
                        const roofline::Measurement &m,
                        const roofline::RooflineModel &model);

/** Standard derived-metrics table (one row per KernelRow). */
Table analysisTable(const CampaignAnalysis &doc);

/** Encode as schema-v4 analysis.json text (strict JSON; see above). */
std::string encodeAnalysis(const CampaignAnalysis &doc);

/** Decode analysis.json text (schema v3 or v4); fatal() on
 *  malformed/wrong-schema input. */
CampaignAnalysis decodeAnalysis(const std::string &text);

/** Load and decode an analysis.json file; fatal() on errors. */
CampaignAnalysis loadAnalysisFile(const std::string &path);

} // namespace rfl::analysis

#endif // RFL_ANALYSIS_ANALYSIS_HH
