#include "analysis/analysis.hh"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "campaign/serialize.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/units.hh"

namespace rfl::analysis
{

namespace
{

void
writeScenario(JsonWriter &w, const Scenario &s)
{
    w.beginObject();
    w.key("machine").string(s.machine);
    w.key("variant").string(s.variant);
    w.key("peak_flops").number(s.model.peakCompute());
    w.key("peak_bandwidth").number(s.model.peakBandwidth());
    w.key("ridge").number(s.model.ridgePoint());
    w.key("compute_ceilings");
    campaign::writeCeilings(w, s.model.computeCeilings());
    w.key("bandwidth_ceilings");
    campaign::writeCeilings(w, s.model.bandwidthCeilings());
    w.endObject();
}

void
writeKernelRow(JsonWriter &w, const KernelRow &r)
{
    const DerivedMetrics &d = r.metrics;
    w.beginObject();
    w.key("machine").string(r.machine);
    w.key("variant").string(r.variant);
    w.key("kernel").string(r.kernel);
    w.key("size").string(r.sizeLabel);
    w.key("protocol").string(r.protocol);
    w.key("cores").number(r.cores);
    w.key("lanes").number(r.lanes);
    w.key("flops").number(r.flops);
    w.key("traffic_bytes").number(r.trafficBytes);
    w.key("seconds").number(r.seconds);
    w.key("backend").string(r.backend);
    w.key("quality").number(r.quality);
    w.key("available").boolean(r.available);
    w.key("oi").strictNumber(d.oi);
    w.key("perf").number(d.perf);
    w.key("attainable").number(d.attainable);
    w.key("pct_roof").number(d.pctRoof);
    w.key("pct_peak").number(d.pctPeak);
    w.key("achieved_bandwidth").number(d.achievedBandwidth);
    w.key("pct_peak_bw").number(d.pctPeakBandwidth);
    w.key("bound").string(boundClassName(d.bound));
    w.key("binding_ceiling").string(d.bindingCeiling);
    w.endObject();
}

void
writePhaseRow(JsonWriter &w, const PhaseRow &r)
{
    const PhaseTrajectory &t = r.trajectory;
    w.beginObject();
    w.key("machine").string(r.machine);
    w.key("variant").string(r.variant);
    w.key("kernel").string(t.kernel);
    w.key("size").string(t.sizeLabel);
    w.key("protocol").string(t.protocol);
    w.key("period").number(static_cast<double>(t.period));
    w.key("total_flops").number(t.totalFlops);
    w.key("total_traffic_bytes").number(t.totalTrafficBytes);
    w.key("total_seconds").number(t.totalSeconds);
    w.key("points").beginArray();
    for (const PhasePoint &p : t.points)
        w.beginObject().key("oi").strictNumber(p.oi)
            .key("perf").number(p.perf)
            .key("flops").number(p.flops)
            .key("traffic_bytes").number(p.trafficBytes)
            .key("seconds").number(p.seconds).endObject();
    w.endArray().endObject();
}

/** Inverse of JsonWriter::strictNumber for oi: null decodes to +inf
 *  (only I can be inf). */
double
numberField(const Json &j)
{
    if (j.kind() == Json::Kind::Null)
        return std::numeric_limits<double>::infinity();
    return j.asNumber();
}

Scenario
scenarioFromJson(const Json &j)
{
    Scenario s;
    s.machine = j.at("machine").asString();
    s.variant = j.at("variant").asString();
    s.model = campaign::modelFromJson(j.at("compute_ceilings"),
                                      j.at("bandwidth_ceilings"));
    return s;
}

KernelRow
kernelRowFromJson(const Json &j)
{
    KernelRow r;
    r.machine = j.at("machine").asString();
    r.variant = j.at("variant").asString();
    r.kernel = j.at("kernel").asString();
    r.sizeLabel = j.at("size").asString();
    r.protocol = j.at("protocol").asString();
    r.cores = static_cast<int>(j.at("cores").asNumber());
    r.lanes = static_cast<int>(j.at("lanes").asNumber());
    r.flops = j.at("flops").asNumber();
    r.trafficBytes = j.at("traffic_bytes").asNumber();
    r.seconds = j.at("seconds").asNumber();
    // v3 rows predate provenance; every v3 row was simulated.
    if (j.has("backend"))
        r.backend = j.at("backend").asString();
    if (j.has("quality"))
        r.quality = j.at("quality").asNumber();
    if (j.has("available"))
        r.available = j.at("available").asBool();
    r.metrics.oi = numberField(j.at("oi"));
    r.metrics.perf = j.at("perf").asNumber();
    r.metrics.attainable = j.at("attainable").asNumber();
    r.metrics.pctRoof = j.at("pct_roof").asNumber();
    r.metrics.pctPeak = j.at("pct_peak").asNumber();
    r.metrics.achievedBandwidth =
        j.at("achieved_bandwidth").asNumber();
    r.metrics.pctPeakBandwidth = j.at("pct_peak_bw").asNumber();
    const std::string bound = j.at("bound").asString();
    if (bound != "memory" && bound != "compute")
        fatal("analysis.json: bad bound class '%s'", bound.c_str());
    r.metrics.bound = bound == "memory" ? BoundClass::MemoryBound
                                        : BoundClass::ComputeBound;
    r.metrics.bindingCeiling = j.at("binding_ceiling").asString();
    return r;
}

PhaseRow
phaseRowFromJson(const Json &j)
{
    PhaseRow r;
    r.machine = j.at("machine").asString();
    r.variant = j.at("variant").asString();
    PhaseTrajectory &t = r.trajectory;
    t.kernel = j.at("kernel").asString();
    t.sizeLabel = j.at("size").asString();
    t.protocol = j.at("protocol").asString();
    t.period = static_cast<uint64_t>(j.at("period").asNumber());
    t.totalFlops = j.at("total_flops").asNumber();
    t.totalTrafficBytes = j.at("total_traffic_bytes").asNumber();
    t.totalSeconds = j.at("total_seconds").asNumber();
    for (const Json &pj : j.at("points").asArray()) {
        PhasePoint p;
        p.oi = numberField(pj.at("oi"));
        p.perf = pj.at("perf").asNumber();
        p.flops = pj.at("flops").asNumber();
        p.trafficBytes = pj.at("traffic_bytes").asNumber();
        p.seconds = pj.at("seconds").asNumber();
        t.points.push_back(p);
    }
    return r;
}

} // namespace

std::string
KernelRow::label() const
{
    return roofline::pointLabel(kernel, sizeLabel, protocol);
}

const Scenario *
CampaignAnalysis::findScenario(const std::string &machine,
                               const std::string &variant) const
{
    for (const Scenario &s : scenarios)
        if (s.machine == machine && s.variant == variant)
            return &s;
    return nullptr;
}

KernelRow
makeKernelRow(const std::string &machine, const std::string &variant,
              const roofline::Measurement &m,
              const roofline::RooflineModel &model)
{
    KernelRow r;
    r.machine = machine;
    r.variant = variant;
    r.kernel = m.kernel;
    r.sizeLabel = m.sizeLabel;
    r.protocol = m.protocol;
    r.cores = m.cores;
    r.lanes = m.lanes;
    r.flops = m.flops;
    r.trafficBytes = m.trafficBytes;
    r.seconds = m.seconds;
    r.backend = m.backend;
    r.quality = m.quality;
    r.available = m.available;
    r.metrics = deriveMetrics(m, model);
    return r;
}

CampaignAnalysis
analyzeCampaign(const campaign::CampaignRun &run)
{
    using campaign::Job;
    using campaign::JobKind;

    CampaignAnalysis doc;
    doc.campaign = run.spec.name();

    // Scenarios in grid (machine, variant) order.
    for (size_t mi = 0; mi < run.spec.machines().size(); ++mi)
        for (size_t vi = 0; vi < run.spec.variants().size(); ++vi)
            doc.scenarios.push_back({run.spec.machines()[mi].label,
                                     run.spec.variants()[vi].label,
                                     run.modelFor(mi, vi)});

    for (const Job &job : run.jobs) {
        const std::string &machine =
            run.spec.machines()[job.machineIndex].label;
        const std::string &variant =
            run.spec.variants()[job.variantIndex].label;
        // Hardware rows flow into the same kernel table; unavailable
        // placeholders are kept (available=false) so the delta table
        // can name the missing cell instead of silently dropping it.
        if (campaign::yieldsMeasurement(job.kind))
            doc.kernels.push_back(makeKernelRow(
                machine, variant, run.results[job.id].measurement,
                run.results[job.deps.front()].model));
        else if (job.kind == JobKind::PhaseSample)
            doc.phases.push_back(
                {machine, variant, run.results[job.id].phases});
    }
    return doc;
}

Table
analysisTable(const CampaignAnalysis &doc)
{
    Table t({"machine", "variant", "point", "backend", "I [f/B]",
             "P [GF/s]", "roof(I) [GF/s]", "%roof", "%peak", "%bw",
             "bound", "binding ceiling"});
    for (const KernelRow &r : doc.kernels) {
        if (!r.available) {
            // Hardware placeholder: zeros would derive a nonsense
            // "compute bound at 0 GF/s" row — name the gap instead.
            t.addRow({r.machine, r.variant, r.label(), r.backend, "-",
                      "unavailable", "-", "-", "-", "-", "-", "-"});
            continue;
        }
        const DerivedMetrics &d = r.metrics;
        t.addRow({r.machine, r.variant, r.label(), r.backend,
                  std::isinf(d.oi) ? "inf" : formatSig(d.oi, 4),
                  formatSig(d.perf / 1e9, 4),
                  formatSig(d.attainable / 1e9, 4),
                  formatSig(d.pctRoof, 3), formatSig(d.pctPeak, 3),
                  formatSig(d.pctPeakBandwidth, 3),
                  boundClassName(d.bound), d.bindingCeiling});
    }
    return t;
}

std::string
encodeAnalysis(const CampaignAnalysis &doc)
{
    std::string out;
    out.reserve(1024 * (1 + doc.scenarios.size() + doc.phases.size()) +
                512 * doc.kernels.size());
    JsonWriter w(out);
    w.beginObject();
    w.key("kind").string("rfl-analysis");
    w.key("schema_version").integer(4);
    w.key("campaign").string(doc.campaign);
    w.key("scenarios").beginArray();
    for (const Scenario &s : doc.scenarios)
        writeScenario(w, s);
    w.endArray().key("kernels").beginArray();
    for (const KernelRow &r : doc.kernels)
        writeKernelRow(w, r);
    w.endArray().key("phases").beginArray();
    for (const PhaseRow &r : doc.phases)
        writePhaseRow(w, r);
    w.endArray().endObject();
    return out;
}

CampaignAnalysis
decodeAnalysis(const std::string &text)
try {
    const Json j = Json::parse(text);
    if (!j.has("kind") || j.at("kind").asString() != "rfl-analysis")
        fatal("analysis.json: missing kind 'rfl-analysis'");
    // v3 is still accepted: committed baselines predate the v4
    // provenance fields, which all default on decode.
    const double version = j.at("schema_version").asNumber();
    if (version != 3 && version != 4)
        fatal("analysis.json: unsupported schema_version %g "
              "(expected 3 or 4)",
              version);

    CampaignAnalysis doc;
    doc.campaign = j.at("campaign").asString();
    for (const Json &s : j.at("scenarios").asArray())
        doc.scenarios.push_back(scenarioFromJson(s));
    for (const Json &r : j.at("kernels").asArray())
        doc.kernels.push_back(kernelRowFromJson(r));
    for (const Json &r : j.at("phases").asArray())
        doc.phases.push_back(phaseRowFromJson(r));
    return doc;
} catch (const JsonError &e) {
    // A malformed file is the user's to fix: a message, not a crash.
    fatal("analysis.json: %s", e.what());
}

CampaignAnalysis
loadAnalysisFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open analysis file '%s'", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    return decodeAnalysis(text.str());
}

} // namespace rfl::analysis
