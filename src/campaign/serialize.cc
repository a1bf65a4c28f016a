#include "campaign/serialize.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "support/logging.hh"

namespace rfl::campaign
{

namespace
{

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
numberToText(double v)
{
    if (std::isnan(v))
        return "nan";
    if (std::isinf(v))
        return v > 0 ? "inf" : "-inf";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Thrown by Parser on malformed input; never escapes this file. */
struct ParseError
{
    const char *what;
    size_t pos;
};

/**
 * Nesting bound of the parser. Every document this program writes nests
 * a few levels deep; the bound keeps a hostile body (e.g. an HTTP POST of
 * nested brackets) from recursing off the end of the stack.
 */
constexpr int kMaxJsonDepth = 256;

/** Recursive-descent parser over @p text; pos advances past the value. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Json parseValue()
    {
        skipWs();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        const char c = text_[pos_];
        if (c == '{' || c == '[') {
            if (++depth_ > kMaxJsonDepth)
                fail("nesting too deep");
            Json v = c == '{' ? parseObject() : parseArray();
            --depth_;
            return v;
        }
        if (c == '"')
            return Json::makeString(parseString());
        if (text_.compare(pos_, 4, "true") == 0) {
            pos_ += 4;
            return Json::makeBool(true);
        }
        if (text_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
            return Json::makeBool(false);
        }
        if (text_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
            return Json();
        }
        return parseNumber();
    }

    void expectEnd()
    {
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters");
    }

  private:
    [[noreturn]] void fail(const char *what)
    {
        throw ParseError{what, pos_};
    }

    void skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    void expect(char c)
    {
        skipWs();
        if (pos_ >= text_.size() || text_[pos_] != c)
            fail("unexpected character");
        ++pos_;
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size())
                    fail("bad escape");
                const char e = text_[pos_++];
                switch (e) {
                  case '"': c = '"'; break;
                  case '\\': c = '\\'; break;
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  case 'r': c = '\r'; break;
                  case 'u': {
                    // escape() writes control bytes as \u00XX; the
                    // ASCII range decodes to that one byte.
                    const std::string hex = text_.substr(pos_, 4);
                    if (hex.size() != 4 ||
                        hex.find_first_not_of("0123456789abcdefABCDEF") !=
                            std::string::npos)
                        fail("bad escape");
                    const unsigned long cp = std::stoul(hex, nullptr, 16);
                    if (cp >= 0x80)
                        fail("unsupported escape");
                    pos_ += 4;
                    c = static_cast<char>(cp);
                    break;
                  }
                  default: fail("unsupported escape");
                }
            }
            out += c;
        }
        if (pos_ >= text_.size())
            fail("unterminated string");
        ++pos_; // closing quote
        return out;
    }

    Json parseNumber()
    {
        // Accept the nan/inf extension (see file comment of the header).
        if (text_.compare(pos_, 3, "nan") == 0) {
            pos_ += 3;
            return Json::makeNumber(std::nan(""));
        }
        if (text_.compare(pos_, 3, "inf") == 0) {
            pos_ += 3;
            return Json::makeNumber(HUGE_VAL);
        }
        if (text_.compare(pos_, 4, "-inf") == 0) {
            pos_ += 4;
            return Json::makeNumber(-HUGE_VAL);
        }
        char *end = nullptr;
        const double v = std::strtod(text_.c_str() + pos_, &end);
        if (end == text_.c_str() + pos_)
            fail("bad number");
        pos_ = static_cast<size_t>(end - text_.c_str());
        return Json::makeNumber(v);
    }

    Json parseArray()
    {
        expect('[');
        Json arr = Json::makeArray();
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return arr;
        }
        for (;;) {
            arr.push(parseValue());
            skipWs();
            if (pos_ >= text_.size())
                fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return arr;
            }
            fail("expected , or ]");
        }
    }

    Json parseObject()
    {
        expect('{');
        Json obj = Json::makeObject();
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return obj;
        }
        for (;;) {
            skipWs();
            const std::string key = parseString();
            expect(':');
            obj.set(key, parseValue());
            skipWs();
            if (pos_ >= text_.size())
                fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return obj;
            }
            fail("expected , or }");
        }
    }

    const std::string &text_;
    size_t pos_ = 0;
    int depth_ = 0;
};

Json
sampleToJson(const Sample &s)
{
    Json arr = Json::makeArray();
    for (double v : s.values())
        arr.push(Json::makeNumber(v));
    return arr;
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

Json
Json::makeBool(bool v)
{
    Json j;
    j.kind_ = Kind::Bool;
    j.bool_ = v;
    return j;
}

Json
Json::makeNumber(double v)
{
    Json j;
    j.kind_ = Kind::Number;
    j.num_ = v;
    return j;
}

Json
Json::makeString(std::string v)
{
    Json j;
    j.kind_ = Kind::String;
    j.str_ = std::move(v);
    return j;
}

Json
Json::makeArray()
{
    Json j;
    j.kind_ = Kind::Array;
    return j;
}

Json
Json::makeObject()
{
    Json j;
    j.kind_ = Kind::Object;
    return j;
}

bool
Json::asBool() const
{
    RFL_ASSERT(kind_ == Kind::Bool);
    return bool_;
}

double
Json::asNumber() const
{
    RFL_ASSERT(kind_ == Kind::Number);
    return num_;
}

const std::string &
Json::asString() const
{
    RFL_ASSERT(kind_ == Kind::String);
    return str_;
}

const std::vector<Json> &
Json::asArray() const
{
    RFL_ASSERT(kind_ == Kind::Array);
    return arr_;
}

void
Json::push(Json v)
{
    RFL_ASSERT(kind_ == Kind::Array);
    arr_.push_back(std::move(v));
}

void
Json::set(const std::string &key, Json v)
{
    RFL_ASSERT(kind_ == Kind::Object);
    for (auto &member : obj_) {
        if (member.first == key) {
            member.second = std::move(v);
            return;
        }
    }
    obj_.emplace_back(key, std::move(v));
}

const Json &
Json::at(const std::string &key) const
{
    RFL_ASSERT(kind_ == Kind::Object);
    for (const auto &member : obj_)
        if (member.first == key)
            return member.second;
    fatal("json: missing member '%s'", key.c_str());
}

bool
Json::has(const std::string &key) const
{
    RFL_ASSERT(kind_ == Kind::Object);
    for (const auto &member : obj_)
        if (member.first == key)
            return true;
    return false;
}

std::string
Json::dump() const
{
    std::ostringstream out;
    switch (kind_) {
      case Kind::Null:
        out << "null";
        break;
      case Kind::Bool:
        out << (bool_ ? "true" : "false");
        break;
      case Kind::Number:
        out << numberToText(num_);
        break;
      case Kind::String:
        out << '"' << escape(str_) << '"';
        break;
      case Kind::Array:
        out << '[';
        for (size_t i = 0; i < arr_.size(); ++i) {
            if (i)
                out << ',';
            out << arr_[i].dump();
        }
        out << ']';
        break;
      case Kind::Object:
        out << '{';
        for (size_t i = 0; i < obj_.size(); ++i) {
            if (i)
                out << ',';
            out << '"' << escape(obj_[i].first)
                << "\":" << obj_[i].second.dump();
        }
        out << '}';
        break;
    }
    return out.str();
}

Json
Json::parse(const std::string &text)
{
    try {
        Parser p(text);
        Json v = p.parseValue();
        p.expectEnd();
        return v;
    } catch (const ParseError &e) {
        fatal("json: %s at offset %zu", e.what, e.pos);
    }
}

bool
Json::tryParse(const std::string &text, Json *out)
{
    RFL_ASSERT(out != nullptr);
    try {
        Parser p(text);
        *out = p.parseValue();
        p.expectEnd();
        return true;
    } catch (const ParseError &) {
        return false;
    }
}

std::string
encodeMeasurement(const roofline::Measurement &m)
{
    Json j = Json::makeObject();
    j.set("kernel", Json::makeString(m.kernel));
    j.set("size", Json::makeString(m.sizeLabel));
    j.set("protocol", Json::makeString(m.protocol));
    j.set("cores", Json::makeNumber(m.cores));
    j.set("lanes", Json::makeNumber(m.lanes));
    j.set("flops", Json::makeNumber(m.flops));
    j.set("traffic_bytes", Json::makeNumber(m.trafficBytes));
    j.set("seconds", Json::makeNumber(m.seconds));
    j.set("expected_flops", Json::makeNumber(m.expectedFlops));
    j.set("expected_traffic_bytes",
          Json::makeNumber(m.expectedTrafficBytes));
    j.set("flops_sample", sampleToJson(m.flopsSample));
    j.set("traffic_sample", sampleToJson(m.trafficSample));
    j.set("seconds_sample", sampleToJson(m.secondsSample));
    // Appended after every pre-existing key so older payloads decode
    // with defaults and sim payload prefixes are unchanged.
    j.set("backend", Json::makeString(m.backend));
    j.set("quality", Json::makeNumber(m.quality));
    j.set("available", Json::makeBool(m.available));
    return j.dump();
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

std::string
encodeModel(const roofline::RooflineModel &model)
{
    auto ceilings = [](const std::vector<roofline::Ceiling> &cs) {
        Json arr = Json::makeArray();
        for (const roofline::Ceiling &c : cs) {
            Json obj = Json::makeObject();
            obj.set("name", Json::makeString(c.name));
            obj.set("value", Json::makeNumber(c.value));
            arr.push(std::move(obj));
        }
        return arr;
    };
    Json j = Json::makeObject();
    j.set("compute", ceilings(model.computeCeilings()));
    j.set("bandwidth", ceilings(model.bandwidthCeilings()));
    return j.dump();
}

roofline::RooflineModel
decodeModel(const std::string &payload)
{
    const Json j = Json::parse(payload);
    roofline::RooflineModel model;
    for (const Json &c : j.at("compute").asArray())
        model.addComputeCeiling(c.at("name").asString(),
                                c.at("value").asNumber());
    for (const Json &c : j.at("bandwidth").asArray())
        model.addBandwidthCeiling(c.at("name").asString(),
                                  c.at("value").asNumber());
    return model;
}

namespace
{

/** u64 as a decimal string: JSON numbers are doubles here and would
 *  round counters and the content hash above 2^53. */
Json
u64Field(uint64_t v)
{
    return Json::makeString(std::to_string(v));
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
    Json j = Json::makeObject();
    j.set("path", Json::makeString(info.path));
    j.set("records", u64Field(s.records));
    j.set("loads", u64Field(s.loads));
    j.set("stores", u64Field(s.stores));
    j.set("nt_stores", u64Field(s.ntStores));
    j.set("fp_ops", u64Field(s.fpOps));
    j.set("other_uops", u64Field(s.otherUops));
    j.set("flops", u64Field(s.flops));
    j.set("mem_bytes", u64Field(s.memBytes));
    j.set("min_addr", u64Field(s.minAddr));
    j.set("max_addr", u64Field(s.maxAddr));
    j.set("flags", u64Field(s.flags));
    j.set("hash", u64Field(s.hash));
    return j.dump();
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
    Json j = Json::makeObject();
    j.set("kernel", Json::makeString(t.kernel));
    j.set("size", Json::makeString(t.sizeLabel));
    j.set("protocol", Json::makeString(t.protocol));
    j.set("period", u64Field(t.period));
    j.set("total_flops", Json::makeNumber(t.totalFlops));
    j.set("total_traffic_bytes", Json::makeNumber(t.totalTrafficBytes));
    j.set("total_seconds", Json::makeNumber(t.totalSeconds));
    Json points = Json::makeArray();
    for (const analysis::PhasePoint &p : t.points) {
        // oi/perf are derived from the stored deltas on decode; the
        // spill line stays minimal.
        Json pj = Json::makeObject();
        pj.set("flops", Json::makeNumber(p.flops));
        pj.set("traffic_bytes", Json::makeNumber(p.trafficBytes));
        pj.set("seconds", Json::makeNumber(p.seconds));
        points.push(std::move(pj));
    }
    j.set("points", std::move(points));
    return j.dump();
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
