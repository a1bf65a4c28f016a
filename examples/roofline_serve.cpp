/**
 * @file
 * roofline_serve — roofline-as-a-service: the campaign subsystem
 * behind an HTTP JSON API (DESIGN.md §10).
 *
 * A resident daemon that amortizes what one-shot CLI runs cannot: the
 * result cache stays warm across requests, identical in-flight
 * submissions are deduplicated by content hash, and any number of
 * clients share the same executor.
 *
 *   roofline_serve                           # 127.0.0.1:8080
 *   roofline_serve --port 0 --port-file p    # ephemeral port, written
 *                                            # to a file for scripts
 *   roofline_serve --cache serve/cache.jsonl # persistent result cache
 *   roofline_serve --rate 50                 # per-client requests/sec
 *
 * Endpoints (see src/service/api.hh and README "Serving"):
 *   POST /v1/campaigns             submit a campaign spec
 *   GET  /v1/campaigns/<id>        poll status
 *   GET  /v1/campaigns/<id>/analysis|report.html|roofline.svg
 *   GET  /healthz, /statsz
 *   GET  /metricsz                 Prometheus text exposition
 *   GET  /tracez?job=<ticket>      chrome://tracing span tree
 *   GET  /seriesz                  metrics time-series rings (JSON)
 *   GET  /dashz                    live HTML dashboard (sparklines)
 *   GET  /profilez?seconds=N       CPU profile (JSON or flamegraph)
 *
 * SIGINT/SIGTERM trigger a graceful shutdown: stop accepting, finish
 * in-flight requests and campaigns, exit 0.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>

#include "service/api.hh"
#include "service/http_server.hh"
#include "service/job_queue.hh"
#include "service/session.hh"
#include "support/cli.hh"
#include "support/csv.hh"
#include "telemetry/metrics.hh"
#include "telemetry/sim_counters.hh"
#include "telemetry/timeseries.hh"

namespace
{

/** Signal handlers may only touch lock-free atomics; the main loop
 *  polls this and runs the actual teardown. */
std::atomic<int> g_signal{0};

void
onSignal(int sig)
{
    g_signal.store(sig);
}

} // namespace

namespace
{

int
serve(int argc, char **argv)
{
    using namespace rfl;
    namespace sv = rfl::service;

    Cli cli;
    cli.addOption("host", "listen address", "127.0.0.1");
    cli.addOption("port", "TCP port (0 = ephemeral)", "8080");
    cli.addOption("port-file",
                  "write the bound port to this file once listening");
    cli.addOption("http-threads", "connection-serving threads", "64");
    cli.addOption("queue-workers", "concurrent campaign executions",
                  "2");
    cli.addOption("sim-threads", "host threads per campaign (0 = all "
                                 "hardware threads)", "0");
    cli.addOption("job-timeout",
                  "wall-clock seconds each campaign job may run "
                  "before it is cancelled and the ticket lands in "
                  "timed_out (0 = unlimited)",
                  "0");
    cli.addOption("queue-depth", "max queued campaigns before 429",
                  "32");
    cli.addOption("retain", "finished campaigns kept in memory "
                            "(oldest evicted beyond this)", "256");
    cli.addOption("cache", "JSONL result-cache path (empty = "
                           "in-memory)", "<out>/cache/serve.jsonl");
    cli.addOption("rate", "per-client sustained requests/second "
                          "(0 = unlimited)", "0");
    cli.addOption("burst", "per-client burst allowance", "32");
    cli.addOption("sample-interval-ms",
                  "time-series scrape period for /seriesz and /dashz "
                  "(0 disables the sampler)",
                  "1000");
    cli.addOption("sample-capacity",
                  "points retained per time series", "600");
    cli.addOption("out", "artifact/trace directory (default: "
                         "$RFL_OUT_DIR or ./out)");
    cli.addOption("quiet", "suppress per-request log lines");
    cli.parse(argc, argv);

    // Range-check the listener flags before anything starts a thread
    // (the queue's thread flags are checked below, before the queue).
    sv::HttpServerOptions hopts;
    hopts.host = cli.get("host", "127.0.0.1");
    hopts.port = static_cast<int>(cli.getInt("port", 8080, 0, 65535));
    hopts.workers = static_cast<int>(
        cli.getInt("http-threads", 64, 0, maxThreadsFlag));

    const std::string out = cli.get("out", outputDirectory());
    ensureDirectory(out);

    std::string cache_path = cli.get("cache", "<default>");
    if (cache_path == "<default>") {
        ensureDirectory(out + "/cache");
        cache_path = out + "/cache/serve.jsonl";
    }

    sv::JobQueueOptions qopts;
    qopts.workers = static_cast<int>(
        cli.getInt("queue-workers", 2, 0, maxThreadsFlag));
    qopts.maxQueued =
        static_cast<size_t>(cli.getInt("queue-depth", 32));
    qopts.maxFinished =
        static_cast<size_t>(cli.getInt("retain", 256));
    qopts.exec.threads = static_cast<int>(
        cli.getInt("sim-threads", 0, 0, maxThreadsFlag));
    qopts.exec.jobTimeoutSeconds = cli.getDouble("job-timeout", 0.0);
    qopts.exec.traceDir = out + "/traces";
    qopts.cachePath = cache_path;
    // A resident daemon wants the simulator's fleet counters in every
    // /metricsz scrape; the per-batch cost is negligible next to the
    // campaigns themselves.
    telemetry::setSimTelemetryEnabled(true);
    sv::JobQueue queue(qopts);

    sv::SessionOptions sopts;
    sopts.ratePerSec = cli.getDouble("rate", 0.0);
    sopts.burst = cli.getDouble("burst", 32.0);
    sopts.logRequests = !cli.has("quiet");
    sv::SessionTable sessions(sopts);

    sv::ApiHandler api(queue, sessions);

    // Time-series sampler behind /seriesz and /dashz: scrapes the
    // global registry into fixed rings on its own thread; memory is
    // bounded by capacity x maxSeries regardless of uptime.
    telemetry::TimeSeriesOptions tsopts;
    tsopts.intervalSeconds =
        cli.getDouble("sample-interval-ms", 1000.0) / 1000.0;
    tsopts.capacity = static_cast<size_t>(
        std::max<long>(2, cli.getInt("sample-capacity", 600)));
    std::unique_ptr<telemetry::TimeSeriesSampler> sampler;
    if (tsopts.intervalSeconds > 0.0) {
        sampler = std::make_unique<telemetry::TimeSeriesSampler>(
            telemetry::Registry::global(), tsopts);
        sampler->start();
        api.setTimeSeriesSampler(sampler.get());
    }

    sv::HttpServer server(hopts);
    server.start([&api](const sv::HttpRequest &req) {
        return api.handle(req);
    });
    api.setServerStats([&server] { return server.stats(); });

    std::cout << "roofline_serve listening on " << hopts.host << ":"
              << server.port() << " (http-threads=" << hopts.workers
              << ", queue-workers=" << qopts.workers
              << ", cache=" << (cache_path.empty() ? "<memory>"
                                                   : cache_path)
              << ")" << std::endl;
    if (cli.has("port-file")) {
        std::ofstream pf(cli.get("port-file"));
        pf << server.port() << "\n";
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    while (g_signal.load() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    std::cout << "signal " << g_signal.load()
              << ": shutting down gracefully..." << std::endl;
    server.stop();
    if (sampler)
        sampler->stop();
    queue.stop();

    const sv::JobQueueStats q = queue.stats();
    const sv::HttpServerStats h = server.stats();
    std::cout << "served " << h.requestsServed << " request(s) on "
              << h.connectionsAccepted << " connection(s); campaigns: "
              << q.executed << " executed, " << q.deduplicated
              << " deduplicated, " << q.failed << " failed"
              << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Constructing the JobQueue flips fatal() into throwing mode, so
    // a startup user error after that point (port taken, bad --host)
    // arrives here as FatalError — report it like the pre-throw
    // fatal() would have and exit 1, instead of std::terminate.
    try {
        return serve(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "fatal: " << e.what() << std::endl;
        return 1;
    }
}
