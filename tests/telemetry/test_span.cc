/** @file Tests for the span tracer (DESIGN.md §11). */

#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/metrics.hh"
#include "telemetry/span.hh"

namespace
{

using rfl::telemetry::Span;
using rfl::telemetry::SpanRecord;
using rfl::telemetry::Tracer;
using rfl::telemetry::TraceScope;

TEST(Span, NoScopeMeansNoRecording)
{
    // Instrumentation stays in the code unconditionally; without a
    // TraceScope it must record nothing (and attr() is a no-op).
    Span s("orphan");
    s.attr("key", "value");
    EXPECT_FALSE(s.active());
}

TEST(Span, RecordsNameDurationAndAttrs)
{
    Tracer tracer;
    {
        TraceScope scope(&tracer);
        Span s("work");
        s.attr("job", "triad");
        EXPECT_TRUE(s.active());
    }
    const std::vector<SpanRecord> spans = tracer.spans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].name, "work");
    EXPECT_GT(spans[0].id, 0u);
    EXPECT_EQ(spans[0].parent, 0u);
    ASSERT_EQ(spans[0].attrs.size(), 1u);
    EXPECT_EQ(spans[0].attrs[0].first, "job");
    EXPECT_EQ(spans[0].attrs[0].second, "triad");
}

TEST(Span, NestedSpansFormATree)
{
    Tracer tracer;
    {
        TraceScope scope(&tracer);
        Span root("campaign");
        {
            Span child("simulate");
            Span grandchild("drain");
            (void)grandchild;
        }
        Span sibling("encode");
        (void)sibling;
    }
    std::map<std::string, SpanRecord> byName;
    for (const SpanRecord &r : tracer.spans())
        byName[r.name] = r;
    ASSERT_EQ(byName.size(), 4u);
    EXPECT_EQ(byName["campaign"].parent, 0u);
    EXPECT_EQ(byName["simulate"].parent, byName["campaign"].id);
    EXPECT_EQ(byName["drain"].parent, byName["simulate"].id);
    EXPECT_EQ(byName["encode"].parent, byName["campaign"].id);
}

TEST(Span, ThreadsGetDenseDistinctTids)
{
    // The executor's shape: a root span on the submitting thread,
    // worker spans under per-task scopes on pool threads.
    Tracer tracer;
    {
        TraceScope scope(&tracer);
        Span root("campaign");
        std::vector<std::thread> threads;
        for (int i = 0; i < 3; ++i) {
            threads.emplace_back([&tracer] {
                TraceScope workerScope(&tracer);
                Span s("job");
                (void)s;
            });
        }
        for (std::thread &t : threads)
            t.join();
    }
    std::map<uint32_t, int> byTid;
    for (const SpanRecord &r : tracer.spans())
        ++byTid[r.tid];
    EXPECT_EQ(tracer.size(), 4u);
    EXPECT_EQ(byTid.size(), 4u); // main + 3 workers, each its own row
}

TEST(Tracer, ChromeTraceRenderIsWellFormed)
{
    Tracer tracer;
    {
        TraceScope scope(&tracer);
        Span s("work \"quoted\"\\");
        s.attr("k", "v");
    }
    const std::string json = tracer.renderChromeTrace();
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    // Names with quotes/backslashes must be escaped, not emitted raw.
    EXPECT_NE(json.find("work \\\"quoted\\\"\\\\"),
              std::string::npos);
}

TEST(Tracer, JsonlStreamIsAnArrayWithOneEventPerLine)
{
    Tracer tracer;
    {
        TraceScope scope(&tracer);
        for (int i = 0; i < 3; ++i) {
            Span s("e");
            (void)s;
        }
    }
    std::ostringstream os;
    tracer.writeTraceJsonl(os);
    const std::string text = os.str();
    // Loadable by chrome://tracing (top-level array)...
    EXPECT_EQ(text.front(), '[');
    // ...and greppable: each event object on its own line.
    size_t events = 0;
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);)
        if (line.find("\"ph\":\"X\"") != std::string::npos)
            ++events;
    EXPECT_EQ(events, 3u);
}

TEST(Tracer, BufferedSpansFlushWhenScopeEnds)
{
    Tracer tracer;
    {
        TraceScope scope(&tracer);
        {
            Span s("buffered");
            (void)s;
        }
        // Still buffered in the scope's thread-local vector: the
        // tracer itself may not have seen it yet — but after the
        // scope closes it must.
    }
    EXPECT_EQ(tracer.size(), 1u);
}

TEST(Tracer, CapBoundsRetainedSpansAndCountsDrops)
{
    using rfl::telemetry::Registry;
    auto &dropped = Registry::global().counter(
        "rfl_trace_dropped_spans_total", "t");
    const uint64_t before = dropped.value();

    Tracer tracer(/*maxSpans=*/4);
    EXPECT_EQ(tracer.maxSpans(), 4u);
    {
        TraceScope scope(&tracer);
        for (int i = 0; i < 10; ++i) {
            std::string name = "s";
            name += std::to_string(i);
            Span s(std::move(name));
            (void)s;
        }
    }
    // Memory bound by construction: the cap holds however many spans
    // were recorded, and every rejected span is accounted for — both
    // on the tracer and in the global counter.
    EXPECT_EQ(tracer.size(), 4u);
    EXPECT_EQ(tracer.droppedSpans(), 6u);
    EXPECT_EQ(dropped.value() - before, 6u);
    // Oldest kept: the trace's roots survive a runaway tail.
    EXPECT_EQ(tracer.spans()[0].name, "s0");
    EXPECT_EQ(tracer.spans()[3].name, "s3");
}

TEST(Tracer, DefaultCapIsLargeAndDropsNothingNormally)
{
    Tracer tracer;
    EXPECT_EQ(tracer.maxSpans(), Tracer::kDefaultMaxSpans);
    {
        TraceScope scope(&tracer);
        for (int i = 0; i < 2000; ++i) {
            Span s("e");
            (void)s;
        }
    }
    EXPECT_EQ(tracer.size(), 2000u);
    EXPECT_EQ(tracer.droppedSpans(), 0u);
}

} // namespace
