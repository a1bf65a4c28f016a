/**
 * @file
 * service-loop: a closed loop of 4 keep-alive HTTP clients against an
 * in-process roofline_serve stack (http_server -> api -> job_queue ->
 * executor) on loopback, all sharing one in-memory result cache.
 *
 * Each client repeats one cycle: submit a small campaign on the `small`
 * machine that no one has submitted before (its variant seed is unique
 * to the run seed, the client and the cycle), wait until the queue
 * signals it finished (JobQueue::waitFor, as a long poll would) and
 * read its status, which must say done, fetch analysis.json,
 * report.html and roofline.svg, then submit the same spec again, which
 * the queue must answer as a duplicate.
 * Every response is checked; a non-2xx status, a transport error or a
 * wrong artifact counts as a failed operation.
 *
 * A traced run measures an untraced half and a traced half (simulator
 * counters on) back to back on the same stack, then reads the span
 * trees the queue recorded for the last campaigns through /tracez.
 */

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "analysis/analysis.hh"
#include "bench.hh"
#include "campaign/job_graph.hh"
#include "campaign/serialize.hh"
#include "campaign/spec.hh"
#include "service/api.hh"
#include "service/http_client.hh"
#include "service/http_server.hh"
#include "service/job_queue.hh"
#include "service/session.hh"
#include "telemetry/sim_counters.hh"

namespace perfbench
{

namespace
{

namespace sv = rfl::service;
namespace cp = rfl::campaign;

constexpr int kClients = 4;
/** Rows every served analysis.json must carry: 3 kernels x 1 variant. */
constexpr size_t kRows = 3;
/** Campaigns of a phase after which its peak RSS is read. The shared
 *  cache keeps every unique campaign's results, so the peak at a fixed
 *  count measures memory per campaign, not the phase's throughput. */
constexpr uint64_t kRssCampaigns = 500;
/** Longest a client waits for one campaign before counting a failure. */
constexpr double kWaitSeconds = 30.0;
/** Wall time an untraced run keeps repeating its set-up for. */
constexpr double kSetupWindowSeconds = 2.0;

/** Kernel sizes of the run; the seed picks them, cycles share them. */
struct Sizes
{
    uint64_t daxpy, triad, sum;
};

Sizes
sizesFor(uint64_t seed)
{
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 7);
    return {8 * uniformIn(rng(), 384, 416),
            8 * uniformIn(rng(), 256, 288),
            8 * uniformIn(rng(), 768, 832)};
}

/** A spec no earlier cycle submitted: @p unique enters the variant
 *  seed, which is part of every measure job's cache key. */
std::string
cycleSpec(const Sizes &s, uint64_t unique)
{
    return "name = service-loop\nmachine = small\n"
           "kernel = daxpy:n=" + std::to_string(s.daxpy) + "\n"
           "kernel = triad:n=" + std::to_string(s.triad) + "\n"
           "kernel = sum:n=" + std::to_string(s.sum) + "\n"
           "variant = cold-1c: protocol=cold cores=0 reps=1 seed=" +
           std::to_string(unique) + "\n";
}

uint64_t
uniqueSeed(uint64_t seed, int client, uint64_t cycle)
{
    return (seed % 1000000) * 10000000 +
           static_cast<uint64_t>(client) * 1000000 + cycle % 1000000;
}

/** One in-process roofline_serve. */
class ServiceStack
{
  public:
    explicit ServiceStack(int threads)
    {
        sv::JobQueueOptions q;
        q.workers = 2;
        q.exec.threads = std::max(1, threads / q.workers);
        // maxFinished stays at the daemon's default: a client whose
        // campaign was evicted before its last read (other clients
        // finish one every half millisecond) would see a 404 or a new
        // submission instead of a duplicate.
        queue = std::make_unique<sv::JobQueue>(q);
        sv::SessionOptions s;
        s.logRequests = false;
        sessions = std::make_unique<sv::SessionTable>(s);
        api = std::make_unique<sv::ApiHandler>(*queue, *sessions);
        sv::HttpServerOptions h;
        h.port = 0;
        h.workers = kClients;
        server = std::make_unique<sv::HttpServer>(h);
        server->start(
            [this](const sv::HttpRequest &r) { return api->handle(r); });
    }

    ~ServiceStack()
    {
        server->stop();
        queue->stop();
    }

    ServiceStack(const ServiceStack &) = delete;
    ServiceStack &operator=(const ServiceStack &) = delete;

    std::unique_ptr<sv::JobQueue> queue;
    std::unique_ptr<sv::SessionTable> sessions;
    std::unique_ptr<sv::ApiHandler> api;
    std::unique_ptr<sv::HttpServer> server;
};

/** Client-side record of one phase. */
struct ClientLog
{
    std::vector<double> submitMs, statusMs, analysisMs, reportMs, svgMs,
        dupMs, submitDoneMs, overheadMs, execWallS;
    std::vector<std::string> tickets;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t campaigns = 0;

    void
    merge(const ClientLog &o)
    {
        for (auto [dst, src] :
             {std::pair{&submitMs, &o.submitMs}, {&statusMs, &o.statusMs},
              {&analysisMs, &o.analysisMs}, {&reportMs, &o.reportMs},
              {&svgMs, &o.svgMs}, {&dupMs, &o.dupMs},
              {&submitDoneMs, &o.submitDoneMs},
              {&overheadMs, &o.overheadMs}, {&execWallS, &o.execWallS}})
            dst->insert(dst->end(), src->begin(), src->end());
        tickets.insert(tickets.end(), o.tickets.begin(), o.tickets.end());
        attempted += o.attempted;
        failed += o.failed;
        campaigns += o.campaigns;
    }
};

bool
parseJson(const std::string &body, cp::Json *out)
{
    return cp::Json::tryParse(body, out) &&
           out->kind() == cp::Json::Kind::Object;
}

/** String member @p key of object @p doc, "" when absent. */
std::string
stringField(const cp::Json &doc, const std::string &key)
{
    return doc.has(key) && doc.at(key).kind() == cp::Json::Kind::String
               ? doc.at(key).asString()
               : "";
}

/** One connection's closed loop until @p deadline (see file comment). */
class Client
{
  public:
    Client(const ServiceStack &stack, ClientLog &log)
        : http_("127.0.0.1", stack.server->port()), queue_(*stack.queue),
          log_(log)
    {}

    /** @return false when the cycle had to be abandoned. */
    bool
    cycle(const std::string &spec)
    {
        const auto t0 = Clock::now();
        sv::ClientResponse r;
        if (!request("POST", "/v1/campaigns", spec, 202, &r, log_.submitMs))
            return false;
        cp::Json doc;
        const std::string id =
            parseJson(r.body, &doc) ? stringField(doc, "id") : "";
        if (!ok(!id.empty(), "submit answered without a ticket"))
            return false;
        const std::string base = "/v1/campaigns/" + id;

        // Block on the queue's completion signal, then read the status:
        // a client sleeping between polls would measure its own poll
        // interval (submit -> done flips between whole intervals).
        ok(queue_.waitFor(id, kWaitSeconds),
           "campaign not finished within " + std::to_string(kWaitSeconds) +
               " s");
        if (!request("GET", base, "", 200, &r, log_.statusMs))
            return false;
        const std::string state =
            parseJson(r.body, &doc) ? stringField(doc, "state") : "";
        if (!ok(state == "done", "campaign ended " + state))
            return false;
        const double doneMs = secondsSince(t0) * 1e3;
        const double wallS =
            doc.has("stats") && doc.at("stats").has("wall_seconds")
                ? doc.at("stats").at("wall_seconds").asNumber()
                : 0.0;
        log_.submitDoneMs.push_back(doneMs);
        log_.overheadMs.push_back(doneMs - wallS * 1e3);
        log_.execWallS.push_back(wallS);
        log_.tickets.push_back(id);

        if (request("GET", base + "/analysis", "", 200, &r,
                    log_.analysisMs)) {
            size_t rows = 0;
            try {
                rows = rfl::analysis::decodeAnalysis(r.body).kernels.size();
            } catch (const std::exception &) {
                rows = 0; // malformed: counted as a mismatch below
            }
            ok(rows == kRows, "analysis.json has " + std::to_string(rows) +
                                  " rows, expected " +
                                  std::to_string(kRows));
        }
        if (request("GET", base + "/report.html", "", 200, &r,
                    log_.reportMs))
            ok(r.body.find("<html") != std::string::npos,
               "report.html is not HTML");
        if (request("GET", base + "/roofline.svg", "", 200, &r, log_.svgMs))
            ok(r.body.find("<svg") != std::string::npos,
               "roofline.svg is not SVG");
        // Resubmission of a finished spec: answered by the same ticket.
        if (request("POST", "/v1/campaigns", spec, 200, &r, log_.dupMs))
            ok(parseJson(r.body, &doc) && stringField(doc, "id") == id,
               "duplicate submit got a new ticket");
        ++log_.campaigns;
        return true;
    }

  private:
    bool
    ok(bool good, const std::string &what)
    {
        ++log_.attempted;
        if (!good && ++log_.failed <= 5)
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         what.c_str());
        return good;
    }

    /** One timed request; a transport error or another status than
     *  @p want is a failed operation. */
    bool
    request(const std::string &method, const std::string &target,
            const std::string &body, int want, sv::ClientResponse *r,
            std::vector<double> &ms)
    {
        const auto t0 = Clock::now();
        const bool sent = http_.request(method, target, r, body);
        ms.push_back(secondsSince(t0) * 1e3);
        return ok(sent && r->status == want,
                  method + " " + target + " -> " +
                      (sent ? std::to_string(r->status) : "no response"));
    }

    sv::HttpClient http_;
    const sv::JobQueue &queue_;
    ClientLog &log_;
};

/** Run kClients closed loops for @p seconds; @return the merged log,
 *  the loop's wall time in @p elapsed and in @p peakRss the process
 *  peak RSS after kRssCampaigns campaigns (or at the end, if fewer),
 *  above the RSS the phase started from. */
ClientLog
runPhase(const ServiceStack &stack, const Sizes &sizes, uint64_t seed,
         uint64_t firstCycle, double seconds, double *elapsed,
         double *peakRss)
{
    std::vector<ClientLog> logs(kClients);
    std::atomic<uint64_t> done{0};
    std::atomic<double> rss{0.0};
    resetPeakRss();
    const double rss0 = peakRssMib();
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    {
        std::vector<std::thread> threads;
        for (int c = 0; c < kClients; ++c) {
            threads.emplace_back([&, c] {
                Client client(stack, logs[c]);
                for (uint64_t i = firstCycle; Clock::now() < deadline;
                     ++i) {
                    if (client.cycle(
                            cycleSpec(sizes, uniqueSeed(seed, c, i))) &&
                        ++done == kRssCampaigns)
                        rss = peakRssMib();
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
    }
    *elapsed = secondsSince(start);
    *peakRss = (rss > 0.0 ? rss.load() : peakRssMib()) - rss0;
    ClientLog all;
    for (const ClientLog &l : logs)
        all.merge(l);
    return all;
}

/** Chrome trace-event JSON (GET /tracez) back into span records. */
std::vector<rfl::telemetry::SpanRecord>
spansFromChrome(const cp::Json &doc, double *jobCpuS)
{
    std::vector<rfl::telemetry::SpanRecord> spans;
    *jobCpuS = 0.0;
    if (!doc.has("traceEvents"))
        return spans;
    for (const cp::Json &e : doc.at("traceEvents").asArray()) {
        if (!e.has("name") || !e.has("dur"))
            continue;
        rfl::telemetry::SpanRecord r;
        r.name = stringField(e, "name");
        r.durUs = static_cast<uint64_t>(e.at("dur").asNumber());
        const std::string cpu =
            e.has("args") ? stringField(e.at("args"), "cpu_s") : "";
        if ((r.name == "ceiling" || r.name == "measure") && !cpu.empty())
            *jobCpuS += std::stod(cpu);
        spans.push_back(std::move(r));
    }
    return spans;
}

/** Executor per-layer values from the span trees of @p tickets. */
void
executorLayers(const ServiceStack &stack,
               const std::vector<std::string> &tickets, int threads,
               Outcome &out)
{
    sv::HttpClient http("127.0.0.1", stack.server->port());
    std::map<std::string, std::vector<double>> v;
    for (const std::string &id : tickets) {
        sv::ClientResponse r;
        cp::Json doc;
        const bool got = http.request("GET", "/tracez?job=" + id, &r);
        if (!got || r.status != 200 || !parseJson(r.body, &doc))
            continue;
        double jobCpu = 0.0;
        const SpanSums s = sumSpans(spansFromChrome(doc, &jobCpu));
        v["executor.stage.cache_probe_s"].push_back(s.cacheProbeS);
        v["executor.stage.machine_build_s"].push_back(s.machineBuildS);
        v["executor.stage.simulate_s"].push_back(s.simulateS);
        v["executor.stage.encode_s"].push_back(s.encodeS);
        v["executor.makespan_bound_s"].push_back(
            std::max(s.longestJobS, jobCpu / threads));
    }
    for (const auto &[name, values] : v)
        out.metrics[name] = median(values);
}

} // namespace

void
runServiceLoop(const Options &opts, Outcome &out)
{
    const Sizes sizes = sizesFor(opts.seed);
    std::unique_ptr<ServiceStack> stack;
    std::vector<double> setups;
    // A set-up here takes milliseconds, mostly thread wake-ups, whose
    // cost drifts with the host's load over tens of milliseconds: the
    // median is taken over set-ups spread across a longer window.
    const double window = opts.trace ? 0.0 : kSetupWindowSeconds;
    const auto first = Clock::now();
    for (int i = 0; i < 15 * opts.setups || secondsSince(first) < window;
         ++i) {
        stack.reset();
        const auto t0 = Clock::now();
        stack = std::make_unique<ServiceStack>(opts.threads);
        // One campaign through the stack: the shared cache now holds
        // the `small` machine's ceiling, which every cycle reuses.
        ClientLog warm;
        Client client(*stack, warm);
        client.cycle(cycleSpec(sizes, uniqueSeed(opts.seed, 9, 0)));
        out.attempted += warm.attempted;
        out.failed += warm.failed;
        setups.push_back(secondsSince(t0));
    }
    out.metrics["setup_s"] = median(setups);
    const double phaseSeconds = opts.trace ? opts.seconds / 2 : opts.seconds;
    double elapsed = 0.0, peakRss = 0.0;
    const double cpu0 = processCpuSeconds();
    ClientLog plain = runPhase(*stack, sizes, opts.seed, 0, phaseSeconds,
                               &elapsed, &peakRss);
    out.attempted += plain.attempted;
    out.failed += plain.failed;
    // A campaign of this workload is what its client waits for:
    // submit until the status poll reads done.
    out.metrics["campaign_wall_s"] = median(plain.submitDoneMs) / 1e3;
    out.metrics["cpu_s"] = (processCpuSeconds() - cpu0) /
                           static_cast<double>(std::max<uint64_t>(
                               1, plain.campaigns));
    out.metrics["campaigns_per_s"] =
        static_cast<double>(plain.campaigns) / elapsed;
    out.metrics["process.peak_rss_mib"] = peakRss;
    if (!opts.trace)
        return;

    // Traced half: counters on, cache and queue deltas, then the span
    // trees of each client's last campaigns.
    const rfl::campaign::CacheStats c0 = stack->queue->cacheStats();
    const sv::JobQueueStats q0 = stack->queue->stats();
    rfl::telemetry::simCounters().reset();
    rfl::telemetry::setSimTelemetryEnabled(true);
    ClientLog traced = runPhase(*stack, sizes, opts.seed, 500000,
                                phaseSeconds, &elapsed, &peakRss);
    rfl::telemetry::setSimTelemetryEnabled(false);
    out.attempted += traced.attempted;
    out.failed += traced.failed;

    // What a client sees is timed in the untraced half, so tracing does
    // not inflate it; the traced half gives counters and span trees.
    std::map<std::string, double> &m = out.metrics;
    m["api.submit_p50_ms"] = median(plain.submitMs);
    m["api.status_p50_ms"] = median(plain.statusMs);
    m["api.analysis_p50_ms"] = median(plain.analysisMs);
    m["api.report_p50_ms"] = median(plain.reportMs);
    m["api.svg_p50_ms"] = median(plain.svgMs);
    m["api.dup_submit_p50_ms"] = median(plain.dupMs);
    std::vector<double> all;
    for (const auto *v : {&plain.submitMs, &plain.statusMs,
                          &plain.analysisMs, &plain.reportMs,
                          &plain.svgMs, &plain.dupMs})
        all.insert(all.end(), v->begin(), v->end());
    m["api.request_p50_ms"] = median(all);
    m["api.request_tail_ms"] = tail(all);
    m["api.requests"] = static_cast<double>(all.size());
    m["job_queue.submit_done_p50_ms"] = median(plain.submitDoneMs);
    m["job_queue.submit_done_tail_ms"] = tail(plain.submitDoneMs);
    m["job_queue.overhead_ms"] = median(plain.overheadMs);
    const sv::JobQueueStats q1 = stack->queue->stats();
    m["job_queue.dedup_hits"] =
        static_cast<double>(q1.deduplicated - q0.deduplicated);
    m["job_queue.rejected"] = static_cast<double>(
        (q1.rejectedFull + q1.rejectedInvalid) -
        (q0.rejectedFull + q0.rejectedInvalid));
    m["telemetry.trace_overhead_frac"] =
        median(traced.submitDoneMs) / median(plain.submitDoneMs) - 1.0;

    const rfl::campaign::CacheStats c1 = stack->queue->cacheStats();
    const double hits = static_cast<double>(c1.hits - c0.hits);
    const double lookups =
        hits + static_cast<double>(c1.misses - c0.misses);
    m["result_cache.hits"] = hits;
    m["result_cache.misses"] = lookups - hits;
    m["result_cache.stores"] = static_cast<double>(c1.stores - c0.stores);
    m["result_cache.lookups"] = lookups;
    m["result_cache.hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;

    const rfl::telemetry::SimCounters &sc = rfl::telemetry::simCounters();
    m["sim.records"] = static_cast<double>(sc.records.load());
    m["sim.coalesced_runs"] = static_cast<double>(sc.coalescedRuns.load());
    m["sim.records_per_run"] =
        sc.coalescedRuns.load() > 0
            ? static_cast<double>(sc.coalescedRecords.load()) /
                  static_cast<double>(sc.coalescedRuns.load())
            : 0.0;

    m["executor.run_s"] = median(traced.execWallS);
    const size_t keep = std::min<size_t>(8, traced.tickets.size());
    executorLayers(*stack,
                   std::vector<std::string>(traced.tickets.end() - keep,
                                            traced.tickets.end()),
                   std::max(1, opts.threads / 2), out);

    // What the service pays per submit before queueing: the same
    // public parse and expand calls, on this run's spec.
    std::vector<double> parseMs, expandMs;
    const std::string spec = cycleSpec(sizes, uniqueSeed(opts.seed, 0, 0));
    for (int i = 0; i < 20; ++i) {
        const auto t0 = Clock::now();
        const cp::CampaignSpec parsed = cp::parseCampaignSpec(spec);
        const auto t1 = Clock::now();
        const cp::JobGraph graph = cp::JobGraph::expand(parsed);
        expandMs.push_back(secondsSince(t1) * 1e3);
        parseMs.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        m["job_graph.ceiling_jobs"] =
            static_cast<double>(graph.ceilingJobs());
        m["job_graph.measure_jobs"] =
            static_cast<double>(graph.measureJobs());
    }
    m["spec.parse_ms"] = median(parseMs);
    m["job_graph.expand_ms"] = median(expandMs);
}

} // namespace perfbench
