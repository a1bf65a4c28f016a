#include "analysis/analysis.hh"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "campaign/serialize.hh"
#include "support/csv.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/units.hh"

namespace rfl::analysis
{

namespace
{

/** Strict-JSON number: non-finite values are emitted as null. */
Json
jsonNumber(double v)
{
    return std::isfinite(v) ? Json::makeNumber(v) : Json();
}

/** Inverse of jsonNumber: null decodes to +inf (only I can be inf). */
double
numberField(const Json &j)
{
    if (j.kind() == Json::Kind::Null)
        return std::numeric_limits<double>::infinity();
    return j.asNumber();
}

Json
scenarioToJson(const Scenario &s)
{
    Json j = Json::makeObject();
    j.set("machine", Json::makeString(s.machine));
    j.set("variant", Json::makeString(s.variant));
    j.set("peak_flops", Json::makeNumber(s.model.peakCompute()));
    j.set("peak_bandwidth", Json::makeNumber(s.model.peakBandwidth()));
    j.set("ridge", Json::makeNumber(s.model.ridgePoint()));
    j.set("compute_ceilings",
          campaign::ceilingsToJson(s.model.computeCeilings()));
    j.set("bandwidth_ceilings",
          campaign::ceilingsToJson(s.model.bandwidthCeilings()));
    return j;
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

Json
kernelRowToJson(const KernelRow &r)
{
    Json j = Json::makeObject();
    j.set("machine", Json::makeString(r.machine));
    j.set("variant", Json::makeString(r.variant));
    j.set("kernel", Json::makeString(r.kernel));
    j.set("size", Json::makeString(r.sizeLabel));
    j.set("protocol", Json::makeString(r.protocol));
    j.set("cores", Json::makeNumber(r.cores));
    j.set("lanes", Json::makeNumber(r.lanes));
    j.set("flops", Json::makeNumber(r.flops));
    j.set("traffic_bytes", Json::makeNumber(r.trafficBytes));
    j.set("seconds", Json::makeNumber(r.seconds));
    j.set("backend", Json::makeString(r.backend));
    j.set("quality", Json::makeNumber(r.quality));
    j.set("available", Json::makeBool(r.available));
    j.set("oi", jsonNumber(r.metrics.oi));
    j.set("perf", Json::makeNumber(r.metrics.perf));
    j.set("attainable", Json::makeNumber(r.metrics.attainable));
    j.set("pct_roof", Json::makeNumber(r.metrics.pctRoof));
    j.set("pct_peak", Json::makeNumber(r.metrics.pctPeak));
    j.set("achieved_bandwidth",
          Json::makeNumber(r.metrics.achievedBandwidth));
    j.set("pct_peak_bw", Json::makeNumber(r.metrics.pctPeakBandwidth));
    j.set("bound",
          Json::makeString(boundClassName(r.metrics.bound)));
    j.set("binding_ceiling", Json::makeString(r.metrics.bindingCeiling));
    return j;
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

Json
phaseRowToJson(const PhaseRow &r)
{
    const PhaseTrajectory &t = r.trajectory;
    Json j = Json::makeObject();
    j.set("machine", Json::makeString(r.machine));
    j.set("variant", Json::makeString(r.variant));
    j.set("kernel", Json::makeString(t.kernel));
    j.set("size", Json::makeString(t.sizeLabel));
    j.set("protocol", Json::makeString(t.protocol));
    j.set("period", Json::makeNumber(static_cast<double>(t.period)));
    j.set("total_flops", Json::makeNumber(t.totalFlops));
    j.set("total_traffic_bytes", Json::makeNumber(t.totalTrafficBytes));
    j.set("total_seconds", Json::makeNumber(t.totalSeconds));
    Json points = Json::makeArray();
    for (const PhasePoint &p : t.points) {
        Json pj = Json::makeObject();
        pj.set("oi", jsonNumber(p.oi));
        pj.set("perf", Json::makeNumber(p.perf));
        pj.set("flops", Json::makeNumber(p.flops));
        pj.set("traffic_bytes", Json::makeNumber(p.trafficBytes));
        pj.set("seconds", Json::makeNumber(p.seconds));
        points.push(std::move(pj));
    }
    j.set("points", std::move(points));
    return j;
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
    return kernel + " " + sizeLabel + " (" + protocol + ")";
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

    // Scenarios in grid (machine, variant) order: the model is the
    // ceiling dependency of any non-ceiling job of the cell.
    for (size_t mi = 0; mi < run.spec.machines().size(); ++mi) {
        for (size_t vi = 0; vi < run.spec.variants().size(); ++vi) {
            for (const Job &job : run.jobs) {
                if (job.kind == JobKind::Ceiling ||
                    job.kind == JobKind::TraceRecord ||
                    job.machineIndex != mi || job.variantIndex != vi)
                    continue;
                doc.scenarios.push_back(
                    {run.spec.machines()[mi].label,
                     run.spec.variants()[vi].label,
                     run.results[job.deps.front()].model});
                break;
            }
        }
    }

    for (const Job &job : run.jobs) {
        const std::string &machine =
            run.spec.machines()[job.machineIndex].label;
        switch (job.kind) {
          case JobKind::Measure:
          case JobKind::TraceReplay:
          // Hardware rows flow into the same kernel table; unavailable
          // placeholders are kept (available=false) so the delta table
          // can name the missing cell instead of silently dropping it.
          case JobKind::NativeMeasure:
            doc.kernels.push_back(makeKernelRow(
                machine, run.spec.variants()[job.variantIndex].label,
                run.results[job.id].measurement,
                run.results[job.deps.front()].model));
            break;
          case JobKind::PhaseSample:
            doc.phases.push_back(
                {machine, run.spec.variants()[job.variantIndex].label,
                 run.results[job.id].phases});
            break;
          case JobKind::Ceiling:
          case JobKind::TraceRecord:
            break;
        }
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
    Json j = Json::makeObject();
    j.set("kind", Json::makeString("rfl-analysis"));
    j.set("schema_version", Json::makeNumber(4));
    j.set("campaign", Json::makeString(doc.campaign));

    Json scenarios = Json::makeArray();
    for (const Scenario &s : doc.scenarios)
        scenarios.push(scenarioToJson(s));
    j.set("scenarios", std::move(scenarios));

    Json kernels = Json::makeArray();
    for (const KernelRow &r : doc.kernels)
        kernels.push(kernelRowToJson(r));
    j.set("kernels", std::move(kernels));

    Json phases = Json::makeArray();
    for (const PhaseRow &r : doc.phases)
        phases.push(phaseRowToJson(r));
    j.set("phases", std::move(phases));
    return j.dump();
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

std::string
writeAnalysisJson(const CampaignAnalysis &doc, const std::string &dir,
                  const std::string &name)
{
    ensureDirectory(dir);
    const std::string path = dir + "/" + name + ".json";
    std::ofstream out(path);
    if (!out)
        fatal("cannot write analysis file '%s'", path.c_str());
    out << encodeAnalysis(doc) << "\n";
    return path;
}

} // namespace rfl::analysis
