/**
 * @file
 * JSON (de)serialization of campaign results for the JSONL spill store.
 *
 * Each result is stored as a one-line payload in the JSON format of
 * support/json.hh. Every decoder throws JsonError on a payload of the
 * wrong shape (a hand-edited spill, another writer), so the executor
 * can re-simulate instead of dying.
 */

#ifndef RFL_CAMPAIGN_SERIALIZE_HH
#define RFL_CAMPAIGN_SERIALIZE_HH

#include <string>
#include <vector>

#include "analysis/phase.hh"
#include "roofline/measurement.hh"
#include "roofline/model.hh"
#include "support/json.hh"
#include "trace/trace_file.hh"

namespace rfl::campaign
{

/** perfbench/ names the value type cp::Json. */
using rfl::Json;
using rfl::JsonWriter;

/** Write ceilings as [{"name":…,"value":…},…], the shape the spill
 *  and analysis.json share. */
void writeCeilings(JsonWriter &w,
                   const std::vector<roofline::Ceiling> &ceilings);

/** A model from its two writeCeilings lists; JsonError on a malformed
 *  entry or a value that is not positive. */
roofline::RooflineModel modelFromJson(const Json &compute,
                                      const Json &bandwidth);

/** Encode a measurement as a one-line JSON object. */
std::string encodeMeasurement(const roofline::Measurement &m);

/** Decode a measurement; JsonError on a malformed payload. */
roofline::Measurement decodeMeasurement(const std::string &payload);

/** Encode a roofline model (its named ceilings) as one-line JSON. */
std::string encodeModel(const roofline::RooflineModel &model);

/** Decode a roofline model; JsonError on a malformed payload. */
roofline::RooflineModel decodeModel(const std::string &payload);

/** Outcome of a trace-record job (persisted in the result cache). */
struct TraceInfo
{
    std::string path; ///< content-addressed trace file location
    trace::TraceSummary summary;
};

/**
 * Encode a trace recording's outcome. The 64-bit summary fields are
 * emitted as decimal strings (the JSON number path is double-based and
 * would round the content hash).
 */
std::string encodeTraceInfo(const TraceInfo &info);

/** Decode a trace recording's outcome; JsonError on a malformed payload. */
TraceInfo decodeTraceInfo(const std::string &payload);

/** Encode a phase-sample trajectory as one-line JSON. */
std::string encodePhaseTrajectory(const analysis::PhaseTrajectory &t);

/** Decode a phase-sample trajectory; JsonError on a malformed payload. */
analysis::PhaseTrajectory
decodePhaseTrajectory(const std::string &payload);

} // namespace rfl::campaign

#endif // RFL_CAMPAIGN_SERIALIZE_HH
