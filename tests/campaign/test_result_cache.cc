/** @file Tests for the content-addressed ResultCache and serialization. */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/result_cache.hh"
#include "campaign/serialize.hh"
#include "support/failpoint.hh"
#include "support/logging.hh"

namespace
{

using namespace rfl::campaign;

rfl::roofline::Measurement
sampleMeasurement()
{
    rfl::roofline::Measurement m;
    m.kernel = "daxpy";
    m.sizeLabel = "n=256";
    m.protocol = "cold";
    m.cores = 2;
    m.lanes = 4;
    m.flops = 512.0;
    m.trafficBytes = 6144.0;
    m.seconds = 1.25e-7;
    m.expectedFlops = 512.0;
    m.expectedTrafficBytes = std::nan(""); // no analytic traffic model
    m.flopsSample.add(512.0);
    m.flopsSample.add(512.0);
    m.secondsSample.add(1.25e-7);
    return m;
}

TEST(Serialize, MeasurementRoundTrip)
{
    const rfl::roofline::Measurement m = sampleMeasurement();
    const rfl::roofline::Measurement back =
        decodeMeasurement(encodeMeasurement(m));
    EXPECT_EQ(back.kernel, m.kernel);
    EXPECT_EQ(back.sizeLabel, m.sizeLabel);
    EXPECT_EQ(back.protocol, m.protocol);
    EXPECT_EQ(back.cores, m.cores);
    EXPECT_EQ(back.lanes, m.lanes);
    EXPECT_EQ(back.flops, m.flops); // bit-exact, not just near
    EXPECT_EQ(back.trafficBytes, m.trafficBytes);
    EXPECT_EQ(back.seconds, m.seconds);
    EXPECT_TRUE(std::isnan(back.expectedTrafficBytes));
    EXPECT_EQ(back.flopsSample.values(), m.flopsSample.values());
    EXPECT_EQ(back.secondsSample.values(), m.secondsSample.values());
}

TEST(Serialize, ModelRoundTrip)
{
    rfl::roofline::RooflineModel model;
    model.addComputeCeiling("peak avx fma", 4.0e10);
    model.addComputeCeiling("peak scalar", 5.0e9);
    model.addBandwidthCeiling("best streaming", 3.84e10);
    const rfl::roofline::RooflineModel back =
        decodeModel(encodeModel(model));
    EXPECT_EQ(back.computeCeilings().size(), 2u);
    EXPECT_EQ(back.bandwidthCeilings().size(), 1u);
    EXPECT_EQ(back.computeCeiling("peak avx fma"), 4.0e10);
    EXPECT_EQ(back.bandwidthCeiling("best streaming"), 3.84e10);
}

TEST(Serialize, EncodingIsStable)
{
    // Encoding the same measurement twice gives identical text (the
    // cache depends on canonical payloads).
    const rfl::roofline::Measurement m = sampleMeasurement();
    EXPECT_EQ(encodeMeasurement(m), encodeMeasurement(m));
    // And decode(encode(x)) re-encodes identically (spill reload path).
    EXPECT_EQ(encodeMeasurement(decodeMeasurement(encodeMeasurement(m))),
              encodeMeasurement(m));
}

TEST(Serialize, TryParseRejectsDeepNesting)
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

TEST(ResultCache, MemoryHitsAndMisses)
{
    ResultCache cache;
    std::string payload;
    EXPECT_FALSE(cache.lookup("k1", &payload));
    cache.store("k1", "{\"v\":1}");
    EXPECT_TRUE(cache.lookup("k1", &payload));
    EXPECT_EQ(payload, "{\"v\":1}");
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().stores, 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCache, SpillPersistsAcrossInstances)
{
    const std::string path =
        ::testing::TempDir() + "rfl_cache_spill_test.jsonl";
    std::remove(path.c_str());

    const std::string payload = encodeMeasurement(sampleMeasurement());
    {
        ResultCache cache(path);
        EXPECT_EQ(cache.stats().preloaded, 0u);
        cache.store("measure|abc|daxpy:n=256|protocol=cold", payload);
        cache.store("ceiling|abc|cores=0",
                    "{\"compute\":[],\"bandwidth\":[]}");
    }
    {
        ResultCache cache(path);
        EXPECT_EQ(cache.stats().preloaded, 2u);
        std::string got;
        ASSERT_TRUE(cache.lookup("measure|abc|daxpy:n=256|protocol=cold",
                                 &got));
        EXPECT_EQ(got, payload);
    }
    std::remove(path.c_str());
}

TEST(ResultCache, ControlBytesSpillAsValidJson)
{
    // Raw bytes below 0x20 are invalid inside a JSON string: the spill
    // must escape them (\u00XX) and decode them back on reload.
    const std::string path =
        ::testing::TempDir() + "rfl_cache_ctl_test.jsonl";
    std::remove(path.c_str());

    const std::string key = "measure|abc|k\x01:n=\x1f|protocol=cold";
    rfl::roofline::Measurement m = sampleMeasurement();
    m.kernel = "dax\x01py\x1f";
    const std::string payload = encodeMeasurement(m);
    {
        ResultCache cache(path);
        cache.store(key, payload);
    }

    std::ifstream in(path);
    std::string line;
    size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        for (char c : line)
            EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << line;
        rfl::campaign::Json doc;
        EXPECT_TRUE(rfl::campaign::Json::tryParse(line, &doc)) << line;
    }
    EXPECT_EQ(lines, 1u);

    ResultCache cache(path);
    std::string got;
    ASSERT_TRUE(cache.lookup(key, &got));
    EXPECT_EQ(got, payload);
    EXPECT_EQ(decodeMeasurement(got).kernel, m.kernel);
    std::remove(path.c_str());
}

TEST(ResultCache, CorruptSpillLinesAreQuarantinedNotFatal)
{
    const std::string path =
        ::testing::TempDir() + "rfl_cache_corrupt_test.jsonl";
    std::remove(path.c_str());
    std::remove((path + ".quarantine").c_str());
    {
        ResultCache cache(path);
        cache.store("good", "{\"v\":1}");
    }
    {
        // Simulate a crash-truncated append plus stray garbage.
        std::ofstream out(path, std::ios::app);
        out << "GARBAGE NOT JSON\n";
        out << "{\"key\":\"trunc\",\"payload\":{\"v\":\n";
    }
    ResultCache cache(path); // must not exit
    EXPECT_EQ(cache.stats().preloaded, 1u);
    EXPECT_EQ(cache.stats().quarantined, 2u);
    std::string got;
    EXPECT_TRUE(cache.lookup("good", &got));
    EXPECT_FALSE(cache.lookup("trunc", &got));

    // The bad lines are preserved verbatim for a post-mortem, not
    // silently dropped.
    std::ifstream q(path + ".quarantine");
    ASSERT_TRUE(q.good());
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(q, line))
        if (!line.empty())
            lines.push_back(line);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "GARBAGE NOT JSON");

    std::remove(path.c_str());
    std::remove((path + ".quarantine").c_str());
}

TEST(ResultCache, FailedCompactionLeavesSpillIntact)
{
    // Crash-only discipline: when the publish step of a compaction
    // fails (injected rename fault), the original spill must still
    // reload fully — no torn or half-written cache file.
    const std::string path =
        ::testing::TempDir() + "rfl_cache_crash_test.jsonl";
    std::remove(path.c_str());
    {
        ResultCache cache(path);
        cache.store("measure|live|k|o", "{\"v\":1}");
        cache.store("measure|dead|k|o", "{\"v\":2}");

        ASSERT_TRUE(rfl::failpoint::arm("cache.compact.rename",
                                        "error"));
        const bool wasThrowing = rfl::setFatalThrows(true);
        EXPECT_THROW(cache.compact({"live"}), rfl::FatalError);
        rfl::setFatalThrows(wasThrowing);
        rfl::failpoint::disarmAll();
    }
    // The pre-compaction file is untouched: both entries reload.
    ResultCache reload(path);
    EXPECT_EQ(reload.stats().preloaded, 2u);
    std::string got;
    EXPECT_TRUE(reload.lookup("measure|dead|k|o", &got));
    EXPECT_EQ(got, "{\"v\":2}");
    std::remove(path.c_str());
    std::remove((path + ".compact.tmp").c_str());
}

TEST(ResultCache, TransientAppendFaultIsRetried)
{
    // One injected append failure costs a backoff, not the store:
    // the retry layer re-attempts and the entry lands on disk.
    const std::string path =
        ::testing::TempDir() + "rfl_cache_retry_test.jsonl";
    std::remove(path.c_str());
    ASSERT_TRUE(
        rfl::failpoint::arm("cache.spill.append", "error:count=1"));
    {
        ResultCache cache(path);
        cache.store("k", "{\"v\":1}");
    }
    rfl::failpoint::disarmAll();
    ResultCache reload(path);
    EXPECT_EQ(reload.stats().preloaded, 1u);
    std::string got;
    EXPECT_TRUE(reload.lookup("k", &got));
    std::remove(path.c_str());
}

TEST(ResultCache, LaterSpillLinesWin)
{
    const std::string path =
        ::testing::TempDir() + "rfl_cache_dup_test.jsonl";
    std::remove(path.c_str());
    {
        ResultCache cache(path);
        cache.store("k", "{\"v\":1}");
        cache.store("k", "{\"v\":2}"); // append-only update
    }
    {
        ResultCache cache(path);
        std::string got;
        ASSERT_TRUE(cache.lookup("k", &got));
        EXPECT_EQ(got, "{\"v\":2}");
    }
    std::remove(path.c_str());
}

TEST(ResultCache, KeyConfigHashExtraction)
{
    EXPECT_EQ(cacheKeyConfigHash("measure|abc123|daxpy:n=256|opts"),
              "abc123");
    EXPECT_EQ(cacheKeyConfigHash("ceiling|ffff|cores=0"), "ffff");
    EXPECT_EQ(cacheKeyConfigHash("no-separators"), "");
    EXPECT_EQ(cacheKeyConfigHash("one|field"), "");
}

TEST(ResultCache, CompactDropsDeadConfigs)
{
    const std::string path =
        ::testing::TempDir() + "rfl_cache_gc_test.jsonl";
    std::remove(path.c_str());
    {
        ResultCache cache(path);
        cache.store("measure|live|daxpy:n=256|o", "{\"v\":1}");
        cache.store("ceiling|live|cores=0", "{\"v\":2}");
        cache.store("measure|dead|daxpy:n=256|o", "{\"v\":3}");
        cache.store("phase|dead|fft:n=64|period=8|o", "{\"v\":4}");

        EXPECT_EQ(cache.compact({"live"}), 2u);
        EXPECT_EQ(cache.size(), 2u);
        std::string got;
        EXPECT_TRUE(cache.lookup("ceiling|live|cores=0", &got));
        EXPECT_FALSE(cache.lookup("measure|dead|daxpy:n=256|o", &got));
    }
    {
        // The rewritten spill must reload to exactly the survivors.
        ResultCache cache(path);
        EXPECT_EQ(cache.stats().preloaded, 2u);
        std::string got;
        EXPECT_TRUE(cache.lookup("measure|live|daxpy:n=256|o", &got));
        EXPECT_EQ(got, "{\"v\":1}");
        EXPECT_FALSE(cache.lookup("phase|dead|fft:n=64|period=8|o",
                                  &got));
    }
    std::remove(path.c_str());
}

TEST(ResultCache, CompactCollapsesDuplicateSpillLines)
{
    const std::string path =
        ::testing::TempDir() + "rfl_cache_gc_dup_test.jsonl";
    std::remove(path.c_str());
    {
        ResultCache cache(path);
        for (int i = 0; i < 10; ++i)
            cache.store("measure|m|k|o",
                        "{\"v\":" + std::to_string(i) + "}");
        // Ten appended lines, one live entry; compaction shrinks the
        // file even when nothing is dropped.
        EXPECT_EQ(cache.compact({"m"}), 0u);
    }
    std::ifstream in(path);
    int lines = 0;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            ++lines;
    EXPECT_EQ(lines, 1);
    ResultCache reload(path);
    std::string got;
    EXPECT_TRUE(reload.lookup("measure|m|k|o", &got));
    EXPECT_EQ(got, "{\"v\":9}");
    std::remove(path.c_str());
}

TEST(ResultCache, CompactKeysWithoutConfigHashSurvive)
{
    ResultCache cache;
    cache.store("legacy-key-no-pipes", "{\"v\":1}");
    cache.store("measure|dead|k|o", "{\"v\":2}");
    EXPECT_EQ(cache.compact({}), 1u);
    std::string got;
    EXPECT_TRUE(cache.lookup("legacy-key-no-pipes", &got));
}

} // namespace
