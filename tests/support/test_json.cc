/**
 * @file
 * Tests for the one JSON module (support/json) and the shared text
 * escapers (support/escape): byte-exact escaping, the parser's depth
 * bound, the JsonError channel, and a deterministic mutation fuzz of
 * every decoder that reads JSON from outside the program.
 */

#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analysis.hh"
#include "campaign/serialize.hh"
#include "support/escape.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace
{

using rfl::Json;
using rfl::JsonError;

/** escapeJson's output for one byte, spelled out without snprintf. */
std::string
expectedJsonEscape(unsigned char b)
{
    switch (b) {
      case '"': return "\\\"";
      case '\\': return "\\\\";
      case '\n': return "\\n";
      case '\t': return "\\t";
      case '\r': return "\\r";
    }
    if (b < 0x20) {
        const char *hex = "0123456789abcdef";
        return std::string("\\u00") + hex[b >> 4] + hex[b & 0xf];
    }
    return std::string(1, static_cast<char>(b));
}

std::string
expectedXmlEscape(unsigned char b)
{
    switch (b) {
      case '&': return "&amp;";
      case '<': return "&lt;";
      case '>': return "&gt;";
      case '"': return "&quot;";
    }
    return std::string(1, static_cast<char>(b));
}

TEST(Escape, EveryByteEscapesAsBefore)
{
    std::string all;
    for (int b = 0; b < 256; ++b) {
        const std::string one(1, static_cast<char>(b));
        EXPECT_EQ(rfl::escapeJson(one),
                  expectedJsonEscape(static_cast<unsigned char>(b)))
            << "byte " << b;
        EXPECT_EQ(rfl::escapeXml(one),
                  expectedXmlEscape(static_cast<unsigned char>(b)))
            << "byte " << b;
        all += one;
    }
    EXPECT_EQ(rfl::escapeJson("\x01 a\"b\\\x1f"),
              "\\u0001 a\\\"b\\\\\\u001f");
    EXPECT_EQ(rfl::escapeXml("<a href=\"x\">&</a>"),
              "&lt;a href=&quot;x&quot;&gt;&amp;&lt;/a&gt;");

    // Every byte survives a dump/parse round trip as a string value.
    const std::string doc = Json::makeString(all).dump();
    for (char c : doc)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
    EXPECT_EQ(Json::parse(doc).asString(), all);
}

TEST(Json, TryParseRejectsDeepNesting)
{
    // Deep enough to overflow the stack without the parser's depth
    // bound; it must fail cleanly instead.
    Json out;
    EXPECT_FALSE(Json::tryParse(std::string(100000, '['), &out));
    EXPECT_FALSE(Json::tryParse(std::string(100000, '[') +
                                    std::string(100000, ']'),
                                &out));
    // Shallow nesting still parses.
    ASSERT_TRUE(Json::tryParse("[[[{\"a\":[1]}]]]", &out));
    EXPECT_EQ(out.dump(), "[[[{\"a\":[1]}]]]");
}

TEST(Json, ReadErrorsThrowJsonError)
{
    EXPECT_THROW(Json::parse("{\"a\":"), JsonError);
    EXPECT_THROW(Json::parse("[1] x"), JsonError);
    EXPECT_THROW(Json::parse("\"\\u0100\""), JsonError);

    const Json doc = Json::parse("{\"s\":\"x\",\"n\":1,\"a\":[true]}");
    EXPECT_THROW(doc.at("missing"), JsonError);
    EXPECT_THROW(doc.at("s").asNumber(), JsonError);
    EXPECT_THROW(doc.at("n").asString(), JsonError);
    EXPECT_THROW(doc.at("n").asArray(), JsonError);
    EXPECT_THROW(doc.at("a").asBool(), JsonError);
    EXPECT_THROW(doc.at("a").at("x"), JsonError);
    EXPECT_THROW(doc.at("n").has("x"), JsonError);
    EXPECT_TRUE(doc.at("a").asArray()[0].asBool());

    try {
        doc.at("s").asNumber();
        FAIL() << "no JsonError";
    } catch (const JsonError &e) {
        EXPECT_STREQ(e.what(), "expected number, got string");
    }
}

/** One fuzz target: a valid document and the decoder that reads it. */
struct FuzzTarget
{
    std::string name;
    std::string seed;
    std::function<void(const std::string &)> decode;
};

std::vector<FuzzTarget>
fuzzTargets()
{
    namespace cp = rfl::campaign;
    namespace an = rfl::analysis;

    rfl::roofline::RooflineModel model;
    model.addComputeCeiling("scalar", 4e9);
    model.addComputeCeiling("vector fma", 3.2e10);
    model.addBandwidthCeiling("read", 1.6e10);

    rfl::roofline::Measurement m;
    m.kernel = "daxpy";
    m.sizeLabel = "n=256";
    m.protocol = "cold";
    m.cores = 1;
    m.lanes = 4;
    m.flops = 512;
    m.trafficBytes = 6144;
    m.seconds = 1.25e-7;
    m.expectedFlops = 512;
    m.expectedTrafficBytes = 6144;
    m.flopsSample.add(512);
    m.trafficSample.add(6144);
    m.secondsSample.add(1.25e-7);

    cp::TraceInfo trace;
    trace.path = "rfl-traces/0123abcd.rfltrace";
    trace.summary.records = 1000;
    trace.summary.loads = 600;
    trace.summary.stores = 300;
    trace.summary.flops = 800;
    trace.summary.memBytes = 7200;
    trace.summary.minAddr = 4096;
    trace.summary.maxAddr = 1 << 20;

    rfl::analysis::PhaseTrajectory phases;
    phases.kernel = "triad";
    phases.sizeLabel = "n=4096";
    phases.protocol = "cold";
    phases.period = 512;
    phases.points = {{0, 0, 5e4, 1e6, 5e-5}, {0, 0, 6e4, 9.6e5, 5e-5}};
    phases.totalFlops = 1.1e5;
    phases.totalTrafficBytes = 1.96e6;
    phases.totalSeconds = 1e-4;

    an::CampaignAnalysis doc;
    doc.campaign = "fuzz";
    an::Scenario scenario;
    scenario.machine = "box";
    scenario.variant = "cold-1c";
    scenario.model = model;
    doc.scenarios.push_back(scenario);
    doc.kernels.push_back(an::makeKernelRow("box", "cold-1c", m, model));
    an::PhaseRow row;
    row.machine = "box";
    row.variant = "cold-1c";
    row.trajectory = phases;
    doc.phases.push_back(row);

    return {
        {"model", cp::encodeModel(model),
         [](const std::string &t) { cp::decodeModel(t); }},
        {"measurement", cp::encodeMeasurement(m),
         [](const std::string &t) { cp::decodeMeasurement(t); }},
        {"trace", cp::encodeTraceInfo(trace),
         [](const std::string &t) { cp::decodeTraceInfo(t); }},
        {"phases", cp::encodePhaseTrajectory(phases),
         [](const std::string &t) { cp::decodePhaseTrajectory(t); }},
        {"analysis", an::encodeAnalysis(doc),
         [](const std::string &t) { an::decodeAnalysis(t); }},
    };
}

/** Apply 1-3 random edits: byte overwrites, token inserts, erases,
 *  duplicated ranges and member values swapped for another kind. */
std::string
mutate(std::string s, rfl::Rng &rng)
{
    static const char *const kTokens[] = {
        "{", "}", "[", "]", "\"", ",", ":", "\\", "\\u00", "-", "0",
        "1e999", "nan", "null", "true", "{}", "[]", "\"\"",
    };
    static const char *const kValues[] = {
        "0", "-1", "nan", "-inf", "1e400", "null", "false", "\"x\"",
        "[]", "{}", "[1]", "[{}]", "{\"name\":1}",
        "\"18446744073709551616\"",
    };
    const uint64_t edits = 1 + rng.nextBounded(3);
    for (uint64_t e = 0; e < edits; ++e) {
        const size_t pos = rng.nextBounded(s.size() + 1);
        switch (rng.nextBounded(5)) {
          case 0:
            if (pos < s.size())
                s[pos] = static_cast<char>(rng.nextBounded(256));
            break;
          case 1:
            s.insert(pos, kTokens[rng.nextBounded(std::size(kTokens))]);
            break;
          case 2:
            s.erase(pos, 1 + rng.nextBounded(8));
            break;
          case 3:
            s.insert(pos, s.substr(pos, 1 + rng.nextBounded(16)));
            break;
          default: {
            // Replace the value after the next ':' with another kind.
            const size_t colon = s.find(':', pos);
            if (colon == std::string::npos)
                break;
            const size_t end = s.find_first_of(",}]", colon + 1);
            if (end == std::string::npos)
                break;
            s.replace(colon + 1, end - colon - 1,
                      kValues[rng.nextBounded(std::size(kValues))]);
            break;
          }
        }
    }
    return s;
}

TEST(JsonFuzz, MutatedDocumentsDecodeOrThrow)
{
    // Every mutant of every document the program writes must either
    // decode or raise a catchable error; an abort fails the whole
    // binary. Deterministic: fixed seed, fixed case count.
    constexpr int kCases = 20000;
    const bool wasThrowing = rfl::setFatalThrows(true);
    const std::vector<FuzzTarget> targets = fuzzTargets();
    rfl::Rng rng(0x6a736f6e66757a7aull);

    std::vector<int> decoded(targets.size()), rejected(targets.size());
    for (int i = 0; i < kCases; ++i) {
        const size_t t = static_cast<size_t>(i) % targets.size();
        const std::string text = mutate(targets[t].seed, rng);

        // What parses must dump to a document that parses back to the
        // same bytes (the spill re-reads what it wrote). Checked on
        // every eighth case: under ASan dump() costs more than all the
        // decoding, and the test must stay within a few seconds there.
        Json parsed;
        if (i % 8 == 0 && Json::tryParse(text, &parsed)) {
            const std::string dumped = parsed.dump();
            Json again;
            ASSERT_TRUE(Json::tryParse(dumped, &again)) << dumped;
            ASSERT_EQ(again.dump(), dumped);
        }

        try {
            targets[t].decode(text);
            ++decoded[t];
        } catch (const JsonError &) {
            ++rejected[t];
        } catch (const rfl::FatalError &) {
            ++rejected[t];
        }
    }
    rfl::setFatalThrows(wasThrowing);

    for (size_t t = 0; t < targets.size(); ++t) {
        // Both outcomes are exercised, so the mutator neither always
        // breaks the syntax nor never touches the shape.
        EXPECT_GT(decoded[t], 0) << targets[t].name;
        EXPECT_GT(rejected[t], 0) << targets[t].name;
    }
}

} // namespace
