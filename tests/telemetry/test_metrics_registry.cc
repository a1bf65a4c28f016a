/** @file Tests for the telemetry metrics registry (DESIGN.md §11). */

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/json.hh"
#include "telemetry/metrics.hh"

namespace
{

using rfl::telemetry::Counter;
using rfl::telemetry::Gauge;
using rfl::telemetry::Histogram;
using rfl::telemetry::Labels;
using rfl::telemetry::Registry;

TEST(Counter, ConcurrentIncrementsSumExactly)
{
    // The registry's core claim: hot paths bump counters without locks
    // and no increment is ever lost. 8 threads x 100k relaxed adds
    // must sum to exactly 800k.
    Counter c;
    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 100000;

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c] {
            for (uint64_t i = 0; i < kPerThread; ++i)
                c.inc();
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Gauge, AddIsExactUnderContention)
{
    Gauge g;
    constexpr int kThreads = 4;
    constexpr int kPerThread = 10000;

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&g] {
            for (int i = 0; i < kPerThread; ++i)
                g.add(1.0);
        });
    }
    for (std::thread &t : threads)
        t.join();
    // Every add is +1.0; sums of small integers in double are exact.
    EXPECT_EQ(g.value(), double(kThreads * kPerThread));
}

TEST(Histogram, ConcurrentObservationsSumExactly)
{
    Histogram h({1.0, 2.0, 4.0});
    constexpr int kThreads = 8;
    constexpr int kPerThread = 50000;

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h, t] {
            for (int i = 0; i < kPerThread; ++i)
                h.observe(double(t % 4)); // 0,1,2,3 across threads
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(h.count(), uint64_t(kThreads) * kPerThread);
    uint64_t bucketSum = 0;
    for (size_t i = 0; i <= h.bounds().size(); ++i)
        bucketSum += h.bucketCount(i);
    EXPECT_EQ(bucketSum, h.count());
    // sum() accumulates via a CAS loop, so it is exact too:
    // per thread kPerThread * (t % 4).
    double expected = 0.0;
    for (int t = 0; t < kThreads; ++t)
        expected += double(t % 4) * kPerThread;
    EXPECT_EQ(h.sum(), expected);
}

TEST(Histogram, BucketEdgesAreInclusiveUpperBounds)
{
    // Prometheus "le" semantics: an observation equal to a bound lands
    // in that bound's bucket, not the next one.
    Histogram h({1.0, 2.0, 4.0});
    h.observe(1.0);
    h.observe(2.0);
    h.observe(4.0);
    h.observe(5.0); // +Inf overflow
    EXPECT_EQ(h.bucketCount(0), 1u); // <= 1
    EXPECT_EQ(h.bucketCount(1), 1u); // <= 2
    EXPECT_EQ(h.bucketCount(2), 1u); // <= 4
    EXPECT_EQ(h.bucketCount(3), 1u); // +Inf
}

TEST(Histogram, QuantileEdges)
{
    Histogram h({1.0, 2.0, 4.0});
    EXPECT_EQ(h.quantile(0.5), 0.0); // empty

    // 10 observations uniform in (0,1]: every quantile interpolates
    // inside the first bucket (lower edge 0).
    for (int i = 1; i <= 10; ++i)
        h.observe(i / 10.0);
    // rank r = max(1, ceil(q*count)); q=0 still targets rank 1.
    EXPECT_GT(h.quantile(0.0), 0.0);
    EXPECT_LE(h.quantile(0.0), 1.0);
    // q=1.0 targets rank 10 = all of bucket 0 -> its upper bound.
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.0);
    // Median rank 5 of 10 in a bucket spanning [0,1]: halfway.
    EXPECT_NEAR(h.quantile(0.5), 0.5, 1e-12);
}

TEST(Histogram, QuantileInfBucketReportsHighestFiniteBound)
{
    Histogram h({1.0, 2.0, 4.0});
    for (int i = 0; i < 10; ++i)
        h.observe(100.0); // all +Inf
    // Documented floor: values in the overflow bucket report the
    // highest finite bound rather than inventing an estimate.
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 4.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 4.0);
}

TEST(Registry, RegistrationIsIdempotentByNameAndLabels)
{
    Registry reg;
    Counter &a = reg.counter("rfl_test_events_total", "events");
    Counter &b = reg.counter("rfl_test_events_total", "events");
    EXPECT_EQ(&a, &b);

    Counter &x = reg.counter("rfl_test_batches_total", "b",
                             Labels{{"cause", "drain"}});
    Counter &y = reg.counter("rfl_test_batches_total", "b",
                             Labels{{"cause", "capacity"}});
    EXPECT_NE(&x, &y);
}

TEST(Registry, PrometheusRenderCarriesTypeHelpAndLabels)
{
    Registry reg;
    reg.counter("rfl_test_events_total", "total events").inc(3);
    reg.gauge("rfl_test_depth", "queue depth").set(2.5);
    reg.counter("rfl_test_batches_total", "flushes",
                Labels{{"cause", "drain"}})
        .inc(7);
    // Binary-exact bounds so the %.17g exposition prints them bare.
    Histogram &h = reg.histogram("rfl_test_seconds", "latency", {},
                                 {0.25, 1.0});
    h.observe(0.05);
    h.observe(5.0);

    const std::string text = reg.renderPrometheus();
    EXPECT_NE(text.find("# TYPE rfl_test_events_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("# HELP rfl_test_events_total total events"),
              std::string::npos);
    EXPECT_NE(text.find("rfl_test_events_total 3"), std::string::npos);
    EXPECT_NE(text.find("# TYPE rfl_test_depth gauge"),
              std::string::npos);
    EXPECT_NE(text.find("rfl_test_depth 2.5"), std::string::npos);
    EXPECT_NE(
        text.find("rfl_test_batches_total{cause=\"drain\"} 7"),
        std::string::npos);
    // Histogram expands to cumulative buckets + _sum + _count.
    EXPECT_NE(text.find("# TYPE rfl_test_seconds histogram"),
              std::string::npos);
    EXPECT_NE(text.find("rfl_test_seconds_bucket{le=\"0.25\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("rfl_test_seconds_bucket{le=\"+Inf\"} 2"),
              std::string::npos);
    EXPECT_NE(text.find("rfl_test_seconds_count 2"),
              std::string::npos);
}

TEST(Registry, JsonGroupingFollowsNamingConvention)
{
    // rfl_<group>_<rest>[_total] -> {"<group>":{"<rest>":value}} —
    // the exact shape /statsz has always served.
    Registry reg;
    reg.counter("rfl_queue_executed_total", "x").inc(4);
    reg.gauge("rfl_queue_depth", "x").set(1);
    reg.counter("rfl_cache_hits_total", "x").inc(9);

    const std::string json = reg.renderJsonGrouped();
    EXPECT_NE(json.find("\"queue\":{"), std::string::npos);
    EXPECT_NE(json.find("\"executed\":4"), std::string::npos);
    EXPECT_NE(json.find("\"depth\":1"), std::string::npos);
    EXPECT_NE(json.find("\"cache\":{"), std::string::npos);
    EXPECT_NE(json.find("\"hits\":9"), std::string::npos);
    // Strict JSON: no trailing commas, balanced braces.
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_EQ(json.find(",}"), std::string::npos);
}

TEST(Registry, MetricsJsonEscapesTheCampaignName)
{
    // metrics.json of a campaign whose name holds a quote, a backslash
    // and a newline is still strict JSON and names it back.
    Registry reg;
    reg.gauge("rfl_queue_depth", "x").set(2);
    const std::string json = reg.renderMetricsJson("a\"b\\c\nd");
    rfl::Json doc;
    ASSERT_TRUE(rfl::Json::tryParse(json, &doc)) << json;
    EXPECT_EQ(doc.at("kind").asString(), "rfl-metrics");
    EXPECT_EQ(doc.at("campaign").asString(), "a\"b\\c\nd");
    EXPECT_EQ(doc.at("metrics").at("queue").at("depth").asNumber(), 2.0);
}

TEST(Registry, CollectorsRunOnRenderAndDeregisterWithHandle)
{
    Registry reg;
    Counter &c = reg.counter("rfl_test_mirrored_total", "mirrored");
    int runs = 0;
    {
        auto handle = reg.addCollector([&] {
            ++runs;
            c.mirror(42);
        });
        (void)reg.renderJsonGrouped();
        EXPECT_EQ(runs, 1);
        EXPECT_EQ(c.value(), 42u);
    }
    // Handle destroyed: the collector must not fire again (it captures
    // locals that are about to go out of scope in real subsystems).
    (void)reg.renderPrometheus();
    EXPECT_EQ(runs, 1);
}

TEST(Registry, MirrorMakesLatestInstanceWin)
{
    // The service pattern: tests construct several JobQueues against
    // the one global registry; each mirrors absolute totals, so the
    // latest instance's numbers — not a sum across instances — are
    // what a scrape reports.
    Registry reg;
    Counter &c = reg.counter("rfl_test_executed_total", "x");
    c.mirror(5); // first instance's lifetime total
    c.mirror(2); // a newer instance starts over
    EXPECT_EQ(c.value(), 2u);
}

} // namespace
