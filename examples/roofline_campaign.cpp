/**
 * @file
 * roofline_campaign — the campaign subsystem's command-line front-end.
 *
 * Runs a declarative grid of roofline experiments (machines x kernels x
 * variants) across host threads with content-addressed result caching:
 *
 *   roofline_campaign                          # built-in demo campaign
 *   roofline_campaign --file my_campaign.txt   # your own grid
 *   roofline_campaign --threads 8              # host parallelism
 *   roofline_campaign --cache results.jsonl    # persistent cache
 *   roofline_campaign --cache-stats            # hit/miss/size report
 *   roofline_campaign --cache-gc               # drop dead configs,
 *                                              # rewrite the spill
 *   roofline_campaign --telemetry-dir tel/     # metrics.json +
 *                                              # trace.jsonl (load the
 *                                              # trace in
 *                                              # chrome://tracing)
 *   roofline_campaign --profile-out prof/      # profile the run: CPU
 *                                              # samples collapsed to
 *                                              # profile.json +
 *                                              # flamegraph.svg
 *   roofline_campaign --pmu-probe              # print the host's
 *                                              # perf_event capability
 *                                              # table and exit
 *
 * Campaign file format (see src/campaign/spec.hh):
 *
 *   name = overview
 *   machine = default            # default | small | scalar | @file.cfg
 *   kernel = triad:n=4194304
 *   variant = cold-1c: protocol=cold cores=0 reps=1
 *   variant = cold-1s: cores=0-3 numa=local prefetch=on
 *
 * Re-running the same campaign against the same cache file answers
 * every job from the cache — only the delta of an edited campaign is
 * simulated.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>

#include "campaign/executor.hh"
#include "campaign/job_graph.hh"
#include "campaign/sink.hh"
#include "pmu/perf_backend.hh"
#include "support/cli.hh"
#include "support/csv.hh"
#include "support/hash.hh"
#include "support/logging.hh"
#include "support/table.hh"
#include "support/units.hh"
#include "telemetry/metrics.hh"
#include "telemetry/profiler.hh"
#include "telemetry/sim_counters.hh"
#include "telemetry/span.hh"

namespace
{

const char *const demo_campaign =
    "name = demo\n"
    "machine = default\n"
    "kernel = sum:n=1048576\n"
    "kernel = daxpy:n=1048576\n"
    "kernel = triad:n=4194304\n"
    "kernel = dgemm-opt:n=160\n"
    "kernel = stencil3:n=1048576\n"
    "variant = cold-1c: protocol=cold cores=0 reps=1\n"
    "variant = cold-1s: protocol=cold cores=0-3 reps=1 numa=local\n";

} // namespace

int
main(int argc, char **argv)
{
    using namespace rfl;
    namespace cp = rfl::campaign;

    Cli cli;
    cli.addOption("file", "campaign description file (default: built-in "
                          "demo campaign)");
    cli.addOption("threads", "host worker threads (0 = all hardware "
                             "threads)", "0");
    cli.addOption("cache", "JSONL result-cache path (empty = in-memory "
                           "only)", "<out>/cache/campaign.jsonl");
    cli.addOption("out", "artifact directory (default: $RFL_OUT_DIR or "
                         "./out)");
    cli.addOption("cache-stats",
                  "print cache hit/miss/size statistics after the run");
    cli.addOption("cache-gc",
                  "compact the cache after the run: drop entries whose "
                  "machine config is not in this campaign, rewrite the "
                  "spill file");
    cli.addOption("telemetry-dir",
                  "write metrics.json and trace.jsonl (chrome://tracing "
                  "format) into this directory; also enables the "
                  "simulator's hot-path counters");
    cli.addOption("profile-out",
                  "sample the run with the SIGPROF profiler and write "
                  "profile.json + flamegraph.svg into this directory "
                  "(requires -DRFL_PROFILER=ON)");
    cli.addOption("pmu-probe",
                  "probe the host's perf_event capability (paranoid "
                  "level, per-event liveness), print the event table "
                  "and exit");
    cli.parse(argc, argv);

    if (cli.has("pmu-probe")) {
        // Capability report, not a measurement: open/close each
        // configured event once and say what this host would give a
        // `backend = perf` campaign. Exit 0 either way — an unprivileged
        // host is an answer, not an error.
        const pmu::PmuProbe probe = pmu::PerfEventBackend::probe();
        Table t({"event", "source", "type:config", "live"});
        for (const pmu::ProbedEvent &e : probe.events) {
            char code[32];
            std::snprintf(code, sizeof(code), "%u:0x%llx",
                          e.mapping.type,
                          static_cast<unsigned long long>(
                              e.mapping.config));
            t.addRow({pmu::eventName(e.mapping.id),
                      e.mapping.fromEnv ? "env" : "default", code,
                      e.live ? "yes" : "no"});
        }
        t.print(std::cout);
        std::cout << "pmu: available="
                  << (probe.available ? "true" : "false")
                  << " paranoid=" << probe.paranoid
                  << " events_live=" << probe.liveCount()
                  << " events_dead=" << probe.deadCount() << "\n";
        std::cout << "host-identity: " << cp::hostIdentityHash()
                  << "\n";
        return 0;
    }

    const std::string out = cli.get("out", outputDirectory());
    ensureDirectory(out);

    const cp::CampaignSpec spec =
        cli.has("file") ? cp::loadCampaignSpec(cli.get("file"))
                        : cp::parseCampaignSpec(demo_campaign);

    std::string cache_path = cli.get("cache", "<default>");
    if (cache_path == "<default>") {
        ensureDirectory(out + "/cache");
        cache_path = out + "/cache/campaign.jsonl";
    }

    cp::ExecutorOptions exec;
    exec.threads =
        static_cast<int>(cli.getInt("threads", 0, 0, maxThreadsFlag));
    // Recorded traces are artifacts: keep them with the rest of the
    // output (content-addressed, shared by every campaign using the
    // same out directory).
    exec.traceDir = out + "/traces";

    std::unique_ptr<cp::ResultCache> cache;
    if (!cache_path.empty()) {
        cache = std::make_unique<cp::ResultCache>(cache_path);
        exec.cache = cache.get();
    }

    const std::string telemetry_dir = cli.get("telemetry-dir", "");
    telemetry::Tracer tracer;
    telemetry::Tracer *const tracer_ptr =
        telemetry_dir.empty() ? nullptr : &tracer;
    if (tracer_ptr) {
        ensureDirectory(telemetry_dir);
        telemetry::setSimTelemetryEnabled(true);
    }

    const std::string profile_dir = cli.get("profile-out", "");
    bool profiling = false;
    if (!profile_dir.empty()) {
        if (!telemetry::Profiler::compiledIn()) {
            fatal("--profile-out requires a build with "
                  "-DRFL_PROFILER=ON");
        }
        ensureDirectory(profile_dir);
        profiling = telemetry::Profiler::instance().start({});
        if (!profiling)
            fatal("--profile-out: a profile is already running");
    }

    cp::CampaignRun run;
    {
        // Scope so the root span closes before the trace is written.
        telemetry::TraceScope traceScope(tracer_ptr);
        telemetry::Span root("campaign");
        root.attr("campaign", spec.name());
        run = cp::CampaignExecutor(exec).run(spec, tracer_ptr);
    }

    if (profiling) {
        const telemetry::Profile profile =
            telemetry::Profiler::instance().stop("campaign " +
                                                 spec.name());
        const std::string json_path = profile_dir + "/profile.json";
        std::ofstream json_out(json_path);
        if (!json_out)
            fatal("cannot write '%s'", json_path.c_str());
        json_out << telemetry::renderProfileJson(profile) << "\n";

        const std::string svg_path = profile_dir + "/flamegraph.svg";
        std::ofstream svg_out(svg_path);
        if (!svg_out)
            fatal("cannot write '%s'", svg_path.c_str());
        svg_out << telemetry::renderFlamegraphSvg(
            profile.stacks, "roofline_campaign " + spec.name());
        std::cout << "profile: " << profile.samples << " samples ("
                  << profile.dropped << " dropped) over "
                  << formatSig(profile.cpuSeconds, 3) << " s cpu, "
                  << formatSig(profile.effectiveHz(), 3) << "/s of "
                  << profile.hz << " Hz requested -> " << json_path
                  << ", " << svg_path << "\n";
    }
    cp::emitCampaign(run, out, std::cout);

    if (tracer_ptr) {
        const std::string trace_path = telemetry_dir + "/trace.jsonl";
        std::ofstream trace_out(trace_path);
        if (!trace_out)
            fatal("cannot write '%s'", trace_path.c_str());
        tracer.writeTraceJsonl(trace_out);

        const std::string metrics_path =
            telemetry_dir + "/metrics.json";
        std::ofstream metrics_out(metrics_path);
        if (!metrics_out)
            fatal("cannot write '%s'", metrics_path.c_str());
        metrics_out << telemetry::Registry::global().renderMetricsJson(
                           spec.name())
                    << "\n";
        std::cout << "telemetry: " << metrics_path << ", " << trace_path
                  << " (" << tracer.size() << " spans)\n";
    }
    if (cache) {
        std::cout << "cache: " << cache->size() << " entries in "
                  << cache->spillPath() << "\n";
    }

    if (cache && cli.has("cache-gc")) {
        // Live set = this campaign's machine configs; everything else
        // in the cache belongs to grids no longer run against it.
        std::set<std::string> live;
        for (const cp::MachineEntry &m : spec.machines())
            live.insert(hashToHex(m.config.stableHash()));
        const size_t dropped = cache->compact(live);
        std::cout << "cache-gc: dropped " << dropped
                  << " entr(ies) from dead configs, kept "
                  << cache->size() << ", rewrote "
                  << cache->spillPath() << "\n";
    }

    if (cache && cli.has("cache-stats")) {
        const cp::CacheStats cs = cache->stats();
        const size_t lookups = cs.hits + cs.misses;
        std::error_code ec;
        const auto bytes = std::filesystem::file_size(
            cache->spillPath(), ec);
        std::cout << "cache-stats: " << cache->size() << " entries, "
                  << cs.preloaded << " preloaded, " << cs.hits << "/"
                  << lookups << " lookups hit, " << cs.stores
                  << " stored this run, spill "
                  << (ec ? 0 : static_cast<uintmax_t>(bytes))
                  << " bytes\n";
    }
    return 0;
}
