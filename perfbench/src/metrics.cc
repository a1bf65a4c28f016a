/**
 * @file
 * Metric catalogue and the statistics/resource helpers behind it.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <set>
#include <sys/resource.h>

#include "bench.hh"
#include "campaign/job_graph.hh"
#include "roofline/platform.hh"

namespace perfbench
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
Outcome::check(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    // The first few failures say what broke; the count says how often.
    if (failed <= 5)
        std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

std::vector<MetricDef>
endToEndMetrics()
{
    return {
        {"setup_s", "s"},
        {"campaign_wall_s", "s"},
        {"cpu_s", "s"},
        {"campaigns_per_s", "1/s"},
    };
}

std::vector<MetricDef>
perLayerMetrics()
{
    std::vector<MetricDef> m = {
        {"error_rate", "ratio"},
        {"process.peak_rss_mib", "MiB"},
        {"spec.parse_ms", "ms"},
        {"job_graph.expand_ms", "ms"},
        {"job_graph.ceiling_jobs", "count"},
        {"job_graph.measure_jobs", "count"},
        {"executor.run_s", "s"},
        {"executor.ceiling_wall_s", "s"},
        {"executor.ceiling_cpu_s", "s"},
        {"executor.measure_wall_s", "s"},
        {"executor.measure_cpu_s", "s"},
        {"executor.stage.cache_probe_s", "s"},
        {"executor.stage.machine_build_s", "s"},
        {"executor.stage.simulate_s", "s"},
        {"executor.stage.encode_s", "s"},
        {"executor.makespan_bound_s", "s"},
        {"executor.makespan_gap", "ratio"},
        {"executor.busy_frac", "ratio"},
        {"result_cache.load_ms", "ms"},
        {"result_cache.hits", "count"},
        {"result_cache.misses", "count"},
        {"result_cache.stores", "count"},
        {"result_cache.lookups", "count"},
        {"result_cache.hit_ratio", "ratio"},
        {"result_cache.spill_bytes", "bytes"},
        {"sink.csv_ms", "ms"},
        {"sink.report_ms", "ms"},
        {"analysis.analyze_ms", "ms"},
        {"analysis.encode_ms", "ms"},
    };
    for (const std::string &s : demoScenarioLabels())
        m.push_back({"platform.characterize_s." + s, "s"});
    m.push_back({"platform.characterize_s", "s"});
    m.push_back({"platform.compute_peak_s", "s"});
    for (const std::string &p : bandwidthProbeNames())
        m.push_back({"platform.bw_probe_s." + p, "s"});
    m.push_back({"platform.probe_sum_s", "s"});
    for (const std::string &c : sweepCellLabels())
        m.push_back({"sim.ns_per_access." + c, "ns"});
    for (const std::string &c : sweepCellLabels())
        m.push_back({"sim.accesses." + c, "count"});
    for (MetricDef d : std::vector<MetricDef>{
             {"sim.records", "count"},
             {"sim.coalesced_runs", "count"},
             {"sim.records_per_run", "ratio"},
             {"api.submit_p50_ms", "ms"},
             {"api.status_p50_ms", "ms"},
             {"api.analysis_p50_ms", "ms"},
             {"api.report_p50_ms", "ms"},
             {"api.svg_p50_ms", "ms"},
             {"api.dup_submit_p50_ms", "ms"},
             {"api.request_p50_ms", "ms"},
             {"api.request_tail_ms", "ms"},
             {"api.requests", "count"},
             {"job_queue.submit_done_p50_ms", "ms"},
             {"job_queue.submit_done_tail_ms", "ms"},
             {"job_queue.overhead_ms", "ms"},
             {"job_queue.dedup_hits", "count"},
             {"job_queue.rejected", "count"},
             {"telemetry.trace_overhead_frac", "ratio"},
         }) {
        m.push_back(std::move(d));
    }
    return m;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
tail(std::vector<double> v)
{
    if (v.size() < 11)
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[v.size() - 11];
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

void
resetPeakRss()
{
    // Hand freed heap pages back first, so the peak counts what follows
    // and not what the allocator kept from earlier work.
    malloc_trim(0);
    // "5" resets VmHWM (Linux >= 4.0, see proc(5)).
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    double kib = 0.0;
    while (status >> key) {
        if (key == "VmHWM:" && status >> kib)
            return kib / 1024.0;
        status.ignore(4096, '\n');
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

uint64_t
uniformIn(uint64_t random, uint64_t lo, uint64_t hi)
{
    return lo + random % (hi - lo + 1);
}

SpanSums
sumSpans(const std::vector<rfl::telemetry::SpanRecord> &spans)
{
    static const std::set<std::string> jobKinds = [] {
        std::set<std::string> k;
        for (rfl::campaign::JobKind kind :
             {rfl::campaign::JobKind::Ceiling,
              rfl::campaign::JobKind::Measure,
              rfl::campaign::JobKind::TraceRecord,
              rfl::campaign::JobKind::TraceReplay,
              rfl::campaign::JobKind::PhaseSample,
              rfl::campaign::JobKind::NativeMeasure})
            k.insert(rfl::campaign::jobKindName(kind));
        return k;
    }();

    SpanSums s;
    for (const rfl::telemetry::SpanRecord &r : spans) {
        const double d = static_cast<double>(r.durUs) * 1e-6;
        if (r.name == "cache-probe")
            s.cacheProbeS += d;
        else if (r.name == "machine-build")
            s.machineBuildS += d;
        else if (r.name == "simulate")
            s.simulateS += d;
        else if (r.name == "encode")
            s.encodeS += d;
        else if (jobKinds.count(r.name)) {
            s.jobWallS += d;
            s.longestJobS = std::max(s.longestJobS, d);
        }
    }
    return s;
}

std::vector<std::string>
bandwidthProbeNames()
{
    std::vector<std::string> names;
    for (rfl::roofline::BwProbe p : rfl::roofline::allBwProbes())
        names.push_back(rfl::roofline::bwProbeName(p));
    return names;
}

} // namespace perfbench
