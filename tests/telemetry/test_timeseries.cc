/** @file Tests for the metrics time-series sampler (DESIGN.md §14). */

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/json.hh"
#include "telemetry/metrics.hh"
#include "telemetry/timeseries.hh"

namespace
{

using rfl::telemetry::Registry;
using rfl::telemetry::TimeSeriesOptions;
using rfl::telemetry::TimeSeriesSampler;

TimeSeriesOptions
smallOpts(size_t capacity)
{
    TimeSeriesOptions opts;
    opts.capacity = capacity;
    opts.intervalSeconds = 0.5;
    return opts;
}

TEST(TimeSeries, GaugeSampledAsValue)
{
    Registry reg;
    auto &g = reg.gauge("rfl_test_level", "t");
    TimeSeriesSampler sampler(reg, smallOpts(8));

    g.set(3.0);
    sampler.sampleNow(1.0);
    g.set(7.5);
    sampler.sampleNow(1.0);

    const std::vector<float> pts = sampler.points("rfl_test_level");
    ASSERT_EQ(pts.size(), 2u);
    EXPECT_FLOAT_EQ(pts[0], 3.0f);
    EXPECT_FLOAT_EQ(pts[1], 7.5f);
}

TEST(TimeSeries, CounterBecomesRate)
{
    Registry reg;
    auto &c = reg.counter("rfl_test_events_total", "t");
    TimeSeriesSampler sampler(reg, smallOpts(8));

    // First scrape only seeds the baseline — a counter's process-long
    // total must never be compressed into one interval's rate.
    c.inc(100);
    sampler.sampleNow(1.0);
    EXPECT_TRUE(sampler.points("rfl_test_events_total:rate").empty());

    c.inc(50);
    sampler.sampleNow(2.0); // 50 events over a 2 s interval
    c.inc(30);
    sampler.sampleNow(0.5); // 30 events over 0.5 s

    const std::vector<float> pts =
        sampler.points("rfl_test_events_total:rate");
    ASSERT_EQ(pts.size(), 2u);
    EXPECT_FLOAT_EQ(pts[0], 25.0f);
    EXPECT_FLOAT_EQ(pts[1], 60.0f);
}

TEST(TimeSeries, CounterResetClampsToZeroRate)
{
    Registry reg;
    auto &c = reg.counter("rfl_test_events_total", "t");
    TimeSeriesSampler sampler(reg, smallOpts(8));

    c.inc(100);
    sampler.sampleNow(1.0);
    c.mirror(10); // mirrored subsystem counter reset underneath us
    sampler.sampleNow(1.0);

    const std::vector<float> pts =
        sampler.points("rfl_test_events_total:rate");
    ASSERT_EQ(pts.size(), 1u);
    EXPECT_FLOAT_EQ(pts[0], 0.0f); // clamped, not a huge negative rate
}

TEST(TimeSeries, HistogramBecomesQuantileSeries)
{
    Registry reg;
    auto &h = reg.histogram("rfl_test_seconds", "t");
    TimeSeriesSampler sampler(reg, smallOpts(8));

    for (int i = 0; i < 100; ++i)
        h.observe(0.001);
    sampler.sampleNow(1.0);

    const std::vector<float> p50 =
        sampler.points("rfl_test_seconds:p50");
    const std::vector<float> p99 =
        sampler.points("rfl_test_seconds:p99");
    ASSERT_EQ(p50.size(), 1u);
    ASSERT_EQ(p99.size(), 1u);
    EXPECT_GT(p50[0], 0.0f);
    EXPECT_GE(p99[0], p50[0]);
}

TEST(TimeSeries, RingWrapsAtCapacityKeepingNewest)
{
    Registry reg;
    auto &g = reg.gauge("rfl_test_level", "t");
    TimeSeriesSampler sampler(reg, smallOpts(4));

    for (int i = 1; i <= 10; ++i) {
        g.set(static_cast<double>(i));
        sampler.sampleNow(1.0);
        // The memory bound: never more points than capacity, at any
        // moment of the ring's life, before and after wraparound.
        EXPECT_LE(sampler.points("rfl_test_level").size(), 4u);
    }

    const std::vector<float> pts = sampler.points("rfl_test_level");
    ASSERT_EQ(pts.size(), 4u);
    // Oldest-first ordering of the newest 4 values.
    EXPECT_FLOAT_EQ(pts[0], 7.0f);
    EXPECT_FLOAT_EQ(pts[1], 8.0f);
    EXPECT_FLOAT_EQ(pts[2], 9.0f);
    EXPECT_FLOAT_EQ(pts[3], 10.0f);
}

TEST(TimeSeries, MaxSeriesCapDropsAndCounts)
{
    Registry reg;
    TimeSeriesOptions opts = smallOpts(4);
    opts.maxSeries = 3;
    TimeSeriesSampler sampler(reg, opts);

    for (int i = 0; i < 8; ++i)
        reg.gauge("rfl_test_g" + std::to_string(i), "t").set(1.0);
    sampler.sampleNow(1.0);
    sampler.sampleNow(1.0);

    // The cap includes rfl_series_dropped_total's own rate series, so
    // exactly maxSeries are materialized and the rest counted.
    EXPECT_EQ(sampler.seriesCount(), 3u);
    EXPECT_GT(reg.counter("rfl_series_dropped_total", "t").value(), 0u);
}

TEST(TimeSeries, SeriesJsonIsWellFormed)
{
    Registry reg;
    reg.gauge("rfl_test_level", "t").set(1.5);
    reg.counter("rfl_test_events_total", "t").inc(5);
    TimeSeriesSampler sampler(reg, smallOpts(8));
    sampler.sampleNow(1.0);
    sampler.sampleNow(1.0);

    const std::string json = sampler.renderSeriesJson();
    EXPECT_NE(json.find("\"kind\":\"rfl-series\""), std::string::npos);
    EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
    EXPECT_NE(json.find("rfl_test_level"), std::string::npos);
    EXPECT_NE(json.find("rfl_test_events_total:rate"),
              std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);
    EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(TimeSeries, QuotedLabelValueGivesTheRegistryName)
{
    // A label value with a quote, a backslash and a newline: the series
    // id is the metric's Prometheus name, escaped the same way.
    Registry reg;
    const rfl::telemetry::Labels labels = {{"path", "a\"b\\c\nd"}};
    reg.gauge("rfl_test_level", "t", labels).set(4.0);
    TimeSeriesSampler sampler(reg, smallOpts(4));
    sampler.sampleNow(1.0);

    const std::string id = "rfl_test_level{path=\"a\\\"b\\\\c\\nd\"}";
    EXPECT_EQ(id, "rfl_test_level" + rfl::telemetry::labelSuffix(labels));
    EXPECT_NE(reg.renderPrometheus().find(id + " 4\n"), std::string::npos)
        << reg.renderPrometheus();
    ASSERT_EQ(sampler.points(id).size(), 1u);

    rfl::Json doc;
    ASSERT_TRUE(rfl::Json::tryParse(sampler.renderSeriesJson(), &doc));
    int named = 0;
    for (const rfl::Json &series : doc.at("series").asArray())
        named += series.at("name").asString() == id;
    EXPECT_EQ(named, 1);
}

TEST(TimeSeries, DashHtmlIsSelfContained)
{
    Registry reg;
    reg.gauge("rfl_queue_depth", "t").set(2.0);
    reg.counter("rfl_http_requests_total", "t").inc(3);
    TimeSeriesSampler sampler(reg, smallOpts(8));
    sampler.sampleNow(1.0);
    sampler.sampleNow(1.0);

    const std::string html = sampler.renderDashHtml();
    EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
    EXPECT_NE(html.find("<svg"), std::string::npos);
    EXPECT_NE(html.find("http-equiv=\"refresh\""), std::string::npos);
    EXPECT_NE(html.find("Queue depth"), std::string::npos);
    // Dependency-free by construction: no scripts, no external fetches.
    EXPECT_EQ(html.find("<script"), std::string::npos);
    EXPECT_EQ(html.find("http://"), std::string::npos);
    EXPECT_EQ(html.find("https://"), std::string::npos);
}

TEST(TimeSeries, BackgroundThreadStartStopIsIdempotent)
{
    Registry reg;
    reg.gauge("rfl_test_level", "t").set(1.0);
    TimeSeriesOptions opts;
    opts.intervalSeconds = 0.01;
    opts.capacity = 16;
    TimeSeriesSampler sampler(reg, opts);
    sampler.start();
    sampler.start(); // idempotent
    while (sampler.samplesTaken() < 3)
        std::this_thread::yield();
    sampler.stop();
    sampler.stop(); // idempotent
    const uint64_t taken = sampler.samplesTaken();
    EXPECT_GE(taken, 3u);
    EXPECT_LE(sampler.points("rfl_test_level").size(), 16u);
}

} // namespace
