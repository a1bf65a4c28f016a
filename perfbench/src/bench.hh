/**
 * @file
 * Shared pieces of the repository benchmark: run options, the outcome
 * every workload fills, the metric catalogue, and small statistics and
 * resource helpers.
 *
 * A workload measures for Options::seconds, checks every output it
 * produces, and records metrics by name into Outcome::metrics. The
 * catalogue (metrics.cc) fixes which names exist and their units;
 * main.cc prints the end-to-end names for an untraced run and the
 * per-layer names for a traced one, 0 for any layer the workload does
 * not exercise.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/span.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    /** Measured window, seconds. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Scratch directory for spills and artifacts (created). */
    std::string workDir;
    /** Executor threads (at most 4, at most the host's threads). */
    int threads = 4;
    /** Set-ups per run; setup_s is their median. */
    int setups = 3;
};

/** What one run measured and checked. */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, double> metrics;

    /** Count one checked operation; a false @p ok is a failure. */
    void check(bool ok, const std::string &what);
};

/** One metric of the catalogue. */
struct MetricDef
{
    std::string name;
    std::string unit;
};

/** End-to-end metrics, printed by untraced runs. */
std::vector<MetricDef> endToEndMetrics();

/** Per-layer metrics, printed by traced runs. */
std::vector<MetricDef> perLayerMetrics();

/** @name Statistics over samples (empty input gives 0). */
///@{
double median(std::vector<double> v);
/** Highest percentile with at least 10 samples beyond it; 0 when
 *  there are fewer than 11 samples. */
double tail(std::vector<double> v);
///@}

/** Process user+system CPU seconds so far. */
double processCpuSeconds();

/** Restart the process's peak resident set count (VmHWM), so that
 *  peakRssMib() covers only what follows. No effect where the kernel
 *  does not allow it; peakRssMib() then reports the lifetime peak. */
void resetPeakRss();

/** Process peak resident set size since the last resetPeakRss(), MiB. */
double peakRssMib();

/** Deterministic uniform integer in [lo, hi] from a 64-bit stream. */
uint64_t uniformIn(uint64_t random, uint64_t lo, uint64_t hi);

/** Sums over the span tree of one campaign execution. */
struct SpanSums
{
    double cacheProbeS = 0.0;
    double machineBuildS = 0.0;
    double simulateS = 0.0;
    double encodeS = 0.0;
    double longestJobS = 0.0; ///< longest job-kind span
    double jobWallS = 0.0;    ///< sum of job-kind spans
};

/** Aggregate executor spans (stage spans and one span per job). */
SpanSums sumSpans(const std::vector<rfl::telemetry::SpanRecord> &spans);

/** @name Workloads (workloads.cc, service_workload.cc). */
///@{
void runDemoCold(const Options &opts, Outcome &out);
void runSweepDelta(const Options &opts, Outcome &out);
void runDemoWarm(const Options &opts, Outcome &out);
void runServiceLoop(const Options &opts, Outcome &out);
///@}

/** Labels of the sweep-delta grid cells, "<kernel>-<level>". */
std::vector<std::string> sweepCellLabels();

/** Labels of the demo campaign's scenarios (its variants). */
std::vector<std::string> demoScenarioLabels();

/** Bandwidth probe names, in PlatformProbe order. */
std::vector<std::string> bandwidthProbeNames();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
