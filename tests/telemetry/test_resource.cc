/** @file Tests for per-thread resource accounting (DESIGN.md §14). */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/resource.hh"
#include "telemetry/span.hh"

namespace
{

using rfl::telemetry::ResourceDelta;
using rfl::telemetry::ScopedThreadUsage;
using rfl::telemetry::SpanRecord;
using rfl::telemetry::StageSpan;
using rfl::telemetry::ThreadUsage;
using rfl::telemetry::TraceScope;
using rfl::telemetry::Tracer;

/** Burn roughly @p ms milliseconds of CPU on the calling thread. */
void
burnCpu(int ms)
{
    std::atomic<uint64_t> sink{0};
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(ms);
    while (std::chrono::steady_clock::now() < until)
        sink.fetch_add(1, std::memory_order_relaxed);
}

TEST(Resource, SnapshotIsMonotonic)
{
    const ThreadUsage a = ThreadUsage::now();
    burnCpu(20);
    const ThreadUsage b = ThreadUsage::now();
    EXPECT_GE(b.utimeSeconds + b.stimeSeconds,
              a.utimeSeconds + a.stimeSeconds);
    EXPECT_GE(b.maxrssBytes, a.maxrssBytes);
}

TEST(Resource, ScopedDeltaSeesOwnCpuBurn)
{
    const ScopedThreadUsage usage;
    burnCpu(100);
    const ResourceDelta d = usage.delta();
    // 100 ms of spinning is at least tens of ms of thread CPU even on
    // a throttled CI box.
    EXPECT_GT(d.cpuSeconds(), 0.02);
    EXPECT_GT(d.maxrssBytes, 0u);
}

TEST(Resource, ThreadScopedDeltasDoNotSmear)
{
    // The whole point of RUSAGE_THREAD: a busy sibling must not be
    // billed to an idle thread's bracket, however many jobs overlap.
    std::atomic<bool> go{false};
    double idleCpu = -1.0, busyCpu = -1.0;

    std::thread busy([&] {
        while (!go.load())
            std::this_thread::yield();
        const ScopedThreadUsage usage;
        burnCpu(150);
        busyCpu = usage.delta().cpuSeconds();
    });
    std::thread idle([&] {
        while (!go.load())
            std::this_thread::yield();
        const ScopedThreadUsage usage;
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        idleCpu = usage.delta().cpuSeconds();
    });
    go.store(true);
    busy.join();
    idle.join();

    EXPECT_GT(busyCpu, 0.03);
    EXPECT_LT(idleCpu, 0.05); // sleeping thread billed ~nothing
    EXPECT_GT(busyCpu, idleCpu);
}

TEST(Resource, ConcurrentBracketsEachSeeTheirOwnWork)
{
    constexpr int kThreads = 4;
    std::vector<std::thread> workers;
    std::vector<double> cpu(kThreads, 0.0);
    for (int i = 0; i < kThreads; ++i) {
        workers.emplace_back([&cpu, i] {
            const ScopedThreadUsage usage;
            burnCpu(80);
            cpu[static_cast<size_t>(i)] = usage.delta().cpuSeconds();
        });
    }
    for (std::thread &t : workers)
        t.join();
    for (int i = 0; i < kThreads; ++i) {
        // Each bracket sees some of its own work but never the 4x
        // total. On a single-core box the 80 ms wall burn is split
        // four ways, so the lower bound stays deliberately loose.
        EXPECT_GT(cpu[static_cast<size_t>(i)], 0.004) << "thread " << i;
        EXPECT_LT(cpu[static_cast<size_t>(i)], 0.25) << "thread " << i;
    }
}

TEST(Resource, StageSpanTimesAMillisecondStage)
{
    // getrusage's CPU times can move in 4 ms scheduler ticks, which
    // read a short stage as 0 or 4 ms; the thread CPU clock must not.
    // A 2 ms busy stage reports cpu_s > 0 and within 50% of its span's
    // wall time. A preempted attempt runs less CPU than wall, so the
    // test takes the best of a few attempts.
    double best = 1e9;
    for (int attempt = 0; attempt < 5 && best > 0.5; ++attempt) {
        Tracer tracer;
        {
            const TraceScope scope(&tracer);
            const StageSpan stage("busy");
            burnCpu(2);
        }
        const std::vector<SpanRecord> spans = tracer.spans();
        ASSERT_EQ(spans.size(), 1u);
        std::string cpu;
        for (const auto &[key, value] : spans[0].attrs)
            if (key == "cpu_s")
                cpu = value;
        ASSERT_FALSE(cpu.empty());
        const double cpuS = std::stod(cpu);
        const double wallS = static_cast<double>(spans[0].durUs) * 1e-6;
        EXPECT_GT(cpuS, 0.0);
        ASSERT_GT(wallS, 0.0);
        best = std::min(best, std::abs(cpuS - wallS) / wallS);
    }
    EXPECT_LE(best, 0.5);
}

TEST(Resource, DeltaAddSumsFlowsAndMaxesLevels)
{
    ResourceDelta a;
    a.cpuUserSeconds = 1.0;
    a.cpuSystemSeconds = 0.5;
    a.maxrssBytes = 100;
    a.minorFaults = 10;
    a.majorFaults = 1;
    ResourceDelta b;
    b.cpuUserSeconds = 2.0;
    b.cpuSystemSeconds = 0.25;
    b.maxrssBytes = 80; // a smaller peak must not shrink the max
    b.minorFaults = 5;
    b.majorFaults = 0;

    a.add(b);
    EXPECT_DOUBLE_EQ(a.cpuUserSeconds, 3.0);
    EXPECT_DOUBLE_EQ(a.cpuSystemSeconds, 0.75);
    EXPECT_DOUBLE_EQ(a.cpuSeconds(), 3.75);
    EXPECT_EQ(a.maxrssBytes, 100u);
    EXPECT_EQ(a.minorFaults, 15u);
    EXPECT_EQ(a.majorFaults, 1u);
}

} // namespace
