/**
 * @file
 * Simulator-throughput microbenchmark: how many simulated demand
 * accesses per wall-clock second the memory-hierarchy model sustains.
 *
 * Not a paper figure: this tracks the *simulator's* own performance so
 * the perf trajectory of the hot path (Machine::accessLine,
 * Machine::simulateBatch and below) is recorded over time. Two tiers
 * are measured, each in three modes — the reference path
 * (setFastPath(false), per-access dispatch: plain set-scan lookups, no
 * memos), the PR 2 fast path (per-access dispatch with the memos), and
 * the PR 3 batched path (access-stream IR consumed by simulateBatch
 * with same-line run coalescing) — reporting simulated L1 demand
 * accesses per wall second and the speedups over reference:
 *
 *  - hot-loop tier: raw access loops (a resident-line streak and an
 *    L3-resident stream), isolating the demand-access path without
 *    kernel arithmetic or address translation on top;
 *  - kernel tier: registered kernels (daxpy, triad, sum,
 *    pointer-chase, and the blocked dgemm-opt with its operands in the
 *    L3, whose packed-panel lines overflow the resident-line filter)
 *    driven through SimEngine, the end-to-end rate a campaign sweep
 *    experiences.
 *
 * Every measurement is best-of-N timed windows (N=3, 2 under
 * $RFL_FAST) so host scheduling noise cannot put a spurious regression
 * in the committed trajectory.
 *
 * Output: a human-readable table on stdout and a JSON trajectory file
 * (default ./BENCH_sim_throughput.json, override with argv[1]).
 * $RFL_FAST=1 shrinks sizes and measurement time for CI.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "kernels/engine.hh"
#include "kernels/registry.hh"
#include "sim/machine.hh"
#include "support/address_arena.hh"
#include "trace/access_batch.hh"

namespace
{

using namespace rfl;
using Clock = std::chrono::steady_clock;

/** Execution mode of one measurement (see file comment). */
enum class Mode
{
    Reference,
    Fast,
    Batched,
};

struct Workload
{
    const char *name;
    std::string spec;   ///< kernel spec, or "" for a raw machine loop
    uint64_t rawSpan;   ///< raw loop: bytes touched per rep (8 B steps)
    int lanes;
    bool streaming;     ///< counts toward the streaming-kernel speedup
    bool hotLoop;       ///< counts toward the hot-loop speedup
};

struct ModeResult
{
    uint64_t accesses = 0; ///< simulated L1 demand accesses, timed region
    double seconds = 0.0;

    double
    accessesPerSec() const
    {
        return seconds > 0 ? static_cast<double>(accesses) / seconds : 0.0;
    }
};

uint64_t
l1Accesses(const sim::Machine::Snapshot &delta)
{
    uint64_t total = 0;
    for (const sim::CacheStats &s : delta.l1)
        total += s.accesses();
    return total;
}

/**
 * Run one workload in one mode: @p trials timed windows of at least
 * @p min_seconds each, best window kept. Best-of-N because the
 * interesting quantity is the simulator's attainable rate — downward
 * excursions are host scheduling noise, and ratios of single windows
 * were observed to swing +-20% on busy hosts.
 */
ModeResult
measure(const Workload &w, Mode mode, double min_seconds, int trials)
{
    sim::Machine machine(sim::MachineConfig::defaultPlatform());
    machine.setFastPath(mode != Mode::Reference);
    const auto dispatch = mode == Mode::Batched
                              ? kernels::SimEngine::Dispatch::Batched
                              : kernels::SimEngine::Dispatch::Direct;

    AddressArena::Scope scope;
    std::unique_ptr<kernels::Kernel> kernel;
    std::unique_ptr<kernels::SimEngine> engine;
    trace::AccessBatch raw_batch;
    if (!w.spec.empty()) {
        kernel = kernels::createKernel(w.spec);
        kernel->init(1);
        // Mirror the real drivers (Measurer, executor, phase runner):
        // dependent-chain kernels put the machine in dependent mode,
        // which routes the batched engine through the latency bypass.
        machine.setDependentAccesses(kernel->dependentAccesses());
        engine = std::make_unique<kernels::SimEngine>(machine, 0, w.lanes,
                                                      true, dispatch);
    }

    auto rep = [&] {
        if (kernel) {
            kernel->run(*engine, 0, 1);
        } else if (mode == Mode::Batched) {
            // Raw batched loop: fill IR batches the way SimEngine does
            // (same-line hints included), bulk-consume them.
            const uint32_t shift = 6; // 64 B lines on the default config
            uint64_t prev_line = ~0ull;
            for (uint64_t a = 0; a < w.rawSpan; a += 8) {
                if (raw_batch.full()) {
                    machine.simulateBatch(raw_batch, 0);
                    raw_batch.clear();
                }
                const uint64_t addr = (1ull << 32) + a;
                const uint64_t line = addr >> shift;
                raw_batch.pushMem(trace::AccessKind::Load, 0, addr, 8,
                                  line == prev_line);
                prev_line = line;
            }
            machine.simulateBatch(raw_batch, 0);
            raw_batch.clear();
        } else {
            for (uint64_t a = 0; a < w.rawSpan; a += 8)
                machine.load(0, (1ull << 32) + a, 8);
        }
    };

    rep(); // warm-up: caches, TLB, prefetcher state

    ModeResult best;
    for (int t = 0; t < trials; ++t) {
        ModeResult r;
        uint64_t reps = 0;
        const sim::Machine::Snapshot before = machine.snapshot();
        const Clock::time_point t0 = Clock::now();
        Clock::time_point t1;
        do {
            rep();
            ++reps;
            t1 = Clock::now();
        } while (std::chrono::duration<double>(t1 - t0).count() <
                     min_seconds ||
                 reps < 3);
        r.seconds = std::chrono::duration<double>(t1 - t0).count();
        // snapshot() drains the batched engine, so buffered accesses
        // from the last rep are included.
        r.accesses = l1Accesses(machine.snapshot() - before);
        if (r.accessesPerSec() > best.accessesPerSec())
            best = r;
    }
    return best;
}

/** Geometric-mean accumulator over workload speedups. */
struct Geomean
{
    double logSum = 0.0;
    int n = 0;

    void
    add(double speedup)
    {
        logSum += std::log(speedup);
        ++n;
    }

    double value() const { return n ? std::exp(logSum / n) : 1.0; }
};

} // namespace

int
main(int argc, char **argv)
{
    rfl::bench::banner("sim_throughput",
                       "simulated-access throughput of the memory "
                       "hierarchy hot path");

    const std::string json_path =
        argc > 1 ? argv[1] : "BENCH_sim_throughput.json";
    const bool fast_env = rfl::fastMode();
    const double min_seconds = fast_env ? 0.05 : 0.3;
    const int trials = fast_env ? 2 : 3;
    const size_t n = fast_env ? (1u << 13) : (1u << 16);
    const uint64_t raw_stream_span =
        fast_env ? (128ull << 10) : (1ull << 20);

    const std::string sn = std::to_string(n);
    const std::vector<Workload> workloads = {
        {"raw-l1-streak", "", 16ull << 10, 1, false, true},
        {"raw-l3-stream", "", raw_stream_span, 1, true, true},
        {"daxpy-scalar", "daxpy:n=" + sn, 0, 1, true, false},
        {"daxpy-avx", "daxpy:n=" + sn, 0, 4, true, false},
        {"triad-scalar", "triad:n=" + sn, 0, 1, true, false},
        {"sum-scalar", "sum:n=" + sn, 0, 1, true, false},
        {"pointer-chase",
         "pointer-chase:nodes=16384,hops=" + sn, 0, 1, false, false},
        // 3 x 128 KiB of operands: past the 256 KiB L2, in the L3.
        {"dgemm-opt-l3", "dgemm-opt:n=128", 0, 4, false, false},
    };

    std::printf("%-14s %13s %13s %13s %8s %8s\n", "workload",
                "ref Macc/s", "fast Macc/s", "batch Macc/s", "fast x",
                "batch x");

    struct Row
    {
        Workload w;
        ModeResult ref;
        ModeResult fast;
        ModeResult batched;
        double fastSpeedup;
        double batchedSpeedup;
    };
    std::vector<Row> rows;
    Geomean fast_all, fast_stream, fast_hot;
    Geomean batch_all, batch_stream, batch_hot;

    for (const Workload &w : workloads) {
        Row row{w, measure(w, Mode::Reference, min_seconds, trials),
                measure(w, Mode::Fast, min_seconds, trials),
                measure(w, Mode::Batched, min_seconds, trials), 0.0, 0.0};
        row.fastSpeedup =
            row.fast.accessesPerSec() / row.ref.accessesPerSec();
        row.batchedSpeedup =
            row.batched.accessesPerSec() / row.ref.accessesPerSec();
        std::printf("%-14s %13.2f %13.2f %13.2f %7.2fx %7.2fx\n", w.name,
                    row.ref.accessesPerSec() / 1e6,
                    row.fast.accessesPerSec() / 1e6,
                    row.batched.accessesPerSec() / 1e6, row.fastSpeedup,
                    row.batchedSpeedup);
        fast_all.add(row.fastSpeedup);
        batch_all.add(row.batchedSpeedup);
        if (w.streaming) {
            fast_stream.add(row.fastSpeedup);
            batch_stream.add(row.batchedSpeedup);
        }
        if (w.hotLoop) {
            fast_hot.add(row.fastSpeedup);
            batch_hot.add(row.batchedSpeedup);
        }
        rows.push_back(row);
    }

    std::printf("\n%-38s %8s %8s\n", "geomean speedup vs reference",
                "fast", "batched");
    std::printf("%-38s %7.2fx %7.2fx\n", "  all workloads",
                fast_all.value(), batch_all.value());
    std::printf("%-38s %7.2fx %7.2fx\n", "  streaming workloads",
                fast_stream.value(), batch_stream.value());
    std::printf("%-38s %7.2fx %7.2fx\n", "  hot loops",
                fast_hot.value(), batch_hot.value());

    FILE *f = std::fopen(json_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"sim_throughput\",\n");
    std::fprintf(f, "  \"schema_version\": 4,\n");
    std::fprintf(f, "  \"unit\": \"simulated_accesses_per_second\",\n");
    std::fprintf(f, "  \"rfl_fast\": %s,\n", fast_env ? "true" : "false");
    std::fprintf(f, "  \"workloads\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::fprintf(f, "    {\n");
        std::fprintf(f, "      \"name\": \"%s\",\n", r.w.name);
        std::fprintf(f, "      \"spec\": \"%s\",\n", r.w.spec.c_str());
        std::fprintf(f, "      \"lanes\": %d,\n", r.w.lanes);
        std::fprintf(f, "      \"streaming\": %s,\n",
                     r.w.streaming ? "true" : "false");
        std::fprintf(f, "      \"hot_loop\": %s,\n",
                     r.w.hotLoop ? "true" : "false");
        std::fprintf(f, "      \"reference_accesses_per_sec\": %.1f,\n",
                     r.ref.accessesPerSec());
        std::fprintf(f, "      \"fast_accesses_per_sec\": %.1f,\n",
                     r.fast.accessesPerSec());
        std::fprintf(f, "      \"batched_accesses_per_sec\": %.1f,\n",
                     r.batched.accessesPerSec());
        std::fprintf(f, "      \"speedup\": %.3f,\n", r.fastSpeedup);
        std::fprintf(f, "      \"batched_speedup\": %.3f\n",
                     r.batchedSpeedup);
        std::fprintf(f, "    }%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"geomean_speedup\": %.3f,\n", fast_all.value());
    std::fprintf(f, "  \"streaming_speedup\": %.3f,\n",
                 fast_stream.value());
    std::fprintf(f, "  \"hot_loop_speedup\": %.3f,\n", fast_hot.value());
    std::fprintf(f, "  \"batched_geomean_speedup\": %.3f,\n",
                 batch_all.value());
    std::fprintf(f, "  \"batched_streaming_speedup\": %.3f,\n",
                 batch_stream.value());
    std::fprintf(f, "  \"batched_hot_loop_speedup\": %.3f\n",
                 batch_hot.value());
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
    return 0;
}
