#include "campaign/serialize.hh"

#include <cstdlib>
#include <limits>

namespace rfl::campaign
{

namespace
{

void
writeSample(JsonWriter &w, const char *key, const Sample &s)
{
    w.key(key).beginArray();
    for (double v : s.values())
        w.number(v);
    w.endArray();
}

Sample
sampleFromJson(const Json &j)
{
    Sample s;
    for (const Json &v : j.asArray())
        s.add(v.asNumber());
    return s;
}

} // namespace

std::string
encodeMeasurement(const roofline::Measurement &m)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject();
    w.key("kernel").string(m.kernel);
    w.key("size").string(m.sizeLabel);
    w.key("protocol").string(m.protocol);
    w.key("cores").number(m.cores);
    w.key("lanes").number(m.lanes);
    w.key("flops").number(m.flops);
    w.key("traffic_bytes").number(m.trafficBytes);
    w.key("seconds").number(m.seconds);
    w.key("expected_flops").number(m.expectedFlops);
    w.key("expected_traffic_bytes").number(m.expectedTrafficBytes);
    writeSample(w, "flops_sample", m.flopsSample);
    writeSample(w, "traffic_sample", m.trafficSample);
    writeSample(w, "seconds_sample", m.secondsSample);
    // Appended after every pre-existing key so older payloads decode
    // with defaults and sim payload prefixes are unchanged.
    w.key("backend").string(m.backend);
    w.key("quality").number(m.quality);
    w.key("available").boolean(m.available);
    w.endObject();
    return out;
}

roofline::Measurement
decodeMeasurement(const std::string &payload)
{
    const Json j = Json::parse(payload);
    roofline::Measurement m;
    m.kernel = j.at("kernel").asString();
    m.sizeLabel = j.at("size").asString();
    m.protocol = j.at("protocol").asString();
    m.cores = static_cast<int>(j.at("cores").asNumber());
    m.lanes = static_cast<int>(j.at("lanes").asNumber());
    m.flops = j.at("flops").asNumber();
    m.trafficBytes = j.at("traffic_bytes").asNumber();
    m.seconds = j.at("seconds").asNumber();
    m.expectedFlops = j.at("expected_flops").asNumber();
    m.expectedTrafficBytes = j.at("expected_traffic_bytes").asNumber();
    m.flopsSample = sampleFromJson(j.at("flops_sample"));
    m.trafficSample = sampleFromJson(j.at("traffic_sample"));
    m.secondsSample = sampleFromJson(j.at("seconds_sample"));
    // Pre-backend cache entries (all sim) lack these keys.
    if (j.has("backend"))
        m.backend = j.at("backend").asString();
    if (j.has("quality"))
        m.quality = j.at("quality").asNumber();
    if (j.has("available"))
        m.available = j.at("available").asBool();
    return m;
}

void
writeCeilings(JsonWriter &w, const std::vector<roofline::Ceiling> &ceilings)
{
    w.beginArray();
    for (const roofline::Ceiling &c : ceilings)
        w.beginObject().key("name").string(c.name)
            .key("value").number(c.value).endObject();
    w.endArray();
}

roofline::RooflineModel
modelFromJson(const Json &compute, const Json &bandwidth)
{
    const auto value = [](const Json &c) {
        const double v = c.at("value").asNumber();
        if (!(v > 0))
            throw JsonError("ceiling value is not positive");
        return v;
    };
    roofline::RooflineModel model;
    for (const Json &c : compute.asArray())
        model.addComputeCeiling(c.at("name").asString(), value(c));
    for (const Json &c : bandwidth.asArray())
        model.addBandwidthCeiling(c.at("name").asString(), value(c));
    return model;
}

std::string
encodeModel(const roofline::RooflineModel &model)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject().key("compute");
    writeCeilings(w, model.computeCeilings());
    w.key("bandwidth");
    writeCeilings(w, model.bandwidthCeilings());
    w.endObject();
    return out;
}

roofline::RooflineModel
decodeModel(const std::string &payload)
{
    const Json j = Json::parse(payload);
    return modelFromJson(j.at("compute"), j.at("bandwidth"));
}

namespace
{

/** u64 as a decimal string: JSON numbers are doubles here and would
 *  round counters and the content hash above 2^53. */
void
u64Member(JsonWriter &w, const char *key, uint64_t v)
{
    w.key(key).string(std::to_string(v));
}

uint64_t
u64FromField(const Json &j)
{
    return std::strtoull(j.asString().c_str(), nullptr, 10);
}

} // namespace

std::string
encodeTraceInfo(const TraceInfo &info)
{
    const trace::TraceSummary &s = info.summary;
    std::string out;
    JsonWriter w(out);
    w.beginObject().key("path").string(info.path);
    u64Member(w, "records", s.records);
    u64Member(w, "loads", s.loads);
    u64Member(w, "stores", s.stores);
    u64Member(w, "nt_stores", s.ntStores);
    u64Member(w, "fp_ops", s.fpOps);
    u64Member(w, "other_uops", s.otherUops);
    u64Member(w, "flops", s.flops);
    u64Member(w, "mem_bytes", s.memBytes);
    u64Member(w, "min_addr", s.minAddr);
    u64Member(w, "max_addr", s.maxAddr);
    u64Member(w, "flags", s.flags);
    u64Member(w, "hash", s.hash);
    w.endObject();
    return out;
}

TraceInfo
decodeTraceInfo(const std::string &payload)
{
    const Json j = Json::parse(payload);
    TraceInfo info;
    info.path = j.at("path").asString();
    trace::TraceSummary &s = info.summary;
    s.records = u64FromField(j.at("records"));
    s.loads = u64FromField(j.at("loads"));
    s.stores = u64FromField(j.at("stores"));
    s.ntStores = u64FromField(j.at("nt_stores"));
    s.fpOps = u64FromField(j.at("fp_ops"));
    s.otherUops = u64FromField(j.at("other_uops"));
    s.flops = u64FromField(j.at("flops"));
    s.memBytes = u64FromField(j.at("mem_bytes"));
    s.minAddr = u64FromField(j.at("min_addr"));
    s.maxAddr = u64FromField(j.at("max_addr"));
    s.flags = u64FromField(j.at("flags"));
    s.hash = u64FromField(j.at("hash"));
    return info;
}

std::string
encodePhaseTrajectory(const analysis::PhaseTrajectory &t)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject();
    w.key("kernel").string(t.kernel);
    w.key("size").string(t.sizeLabel);
    w.key("protocol").string(t.protocol);
    u64Member(w, "period", t.period);
    w.key("total_flops").number(t.totalFlops);
    w.key("total_traffic_bytes").number(t.totalTrafficBytes);
    w.key("total_seconds").number(t.totalSeconds);
    w.key("points").beginArray();
    // oi/perf are derived from the stored deltas on decode; the spill
    // line stays minimal.
    for (const analysis::PhasePoint &p : t.points)
        w.beginObject().key("flops").number(p.flops)
            .key("traffic_bytes").number(p.trafficBytes)
            .key("seconds").number(p.seconds).endObject();
    w.endArray().endObject();
    return out;
}

analysis::PhaseTrajectory
decodePhaseTrajectory(const std::string &payload)
{
    const Json j = Json::parse(payload);
    analysis::PhaseTrajectory t;
    t.kernel = j.at("kernel").asString();
    t.sizeLabel = j.at("size").asString();
    t.protocol = j.at("protocol").asString();
    t.period = u64FromField(j.at("period"));
    t.totalFlops = j.at("total_flops").asNumber();
    t.totalTrafficBytes = j.at("total_traffic_bytes").asNumber();
    t.totalSeconds = j.at("total_seconds").asNumber();
    for (const Json &pj : j.at("points").asArray()) {
        analysis::PhasePoint p;
        p.flops = pj.at("flops").asNumber();
        p.trafficBytes = pj.at("traffic_bytes").asNumber();
        p.seconds = pj.at("seconds").asNumber();
        p.oi = p.trafficBytes > 0
                   ? p.flops / p.trafficBytes
                   : std::numeric_limits<double>::infinity();
        p.perf = p.seconds > 0 ? p.flops / p.seconds : 0.0;
        t.points.push_back(p);
    }
    return t;
}

} // namespace rfl::campaign
