#include "service/api.hh"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "pmu/perf_backend.hh"
#include "support/failpoint.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "telemetry/build_info.hh"
#include "telemetry/metrics.hh"
#include "telemetry/profiler.hh"

namespace rfl::service
{

namespace
{

/** A JSON response: one object whose members @p members writes. */
template <typename Members>
HttpResponse
jsonResponse(int status, Members &&members)
{
    HttpResponse resp;
    resp.status = status;
    resp.contentType = "application/json";
    JsonWriter w(resp.body);
    w.beginObject();
    members(w);
    w.endObject();
    resp.body += '\n';
    return resp;
}

HttpResponse
jsonError(int status, const std::string &message)
{
    return jsonResponse(status, [&](JsonWriter &w) {
        w.key("error").string(message);
    });
}

/** 429 with a Retry-After hint so well-behaved clients back off for a
 *  sane interval instead of hammering or guessing. */
HttpResponse
backpressureError(const std::string &message, int retryAfterSeconds)
{
    HttpResponse resp = jsonError(429, message);
    resp.headers.emplace_back("Retry-After",
                              std::to_string(retryAfterSeconds));
    return resp;
}

/** The members of statusJson(@p st). */
void
writeStatusMembers(JsonWriter &w, const JobStatus &st)
{
    w.key("id").string(st.id);
    w.key("campaign").string(st.campaign);
    w.key("state").string(jobStateName(st.state));
    if (st.state == JobState::Failed ||
        st.state == JobState::TimedOut)
        w.key("error").string(st.error);
    if (st.state == JobState::Queued && st.queuePosition > 0)
        w.key("queue_position").number(st.queuePosition);
    if (st.state != JobState::Done)
        return;
    w.key("stats").beginObject();
    w.key("jobs").number(st.jobs);
    w.key("simulated").number(st.simulated);
    w.key("cache_hits").number(st.cacheHits);
    w.key("wall_seconds").number(st.wallSeconds);
    w.key("threads").number(st.threadsUsed);
    w.key("scenarios").number(st.scenarioCount);
    w.endObject();

    // What the campaign cost the machine, not just how long it took:
    // thread CPU seconds and fault counts summed across its jobs, peak
    // process RSS observed (a level, not a sum — see
    // telemetry/resource.hh).
    const telemetry::ResourceDelta &r = st.resources;
    w.key("resources").beginObject();
    w.key("cpu_user_seconds").number(r.cpuUserSeconds);
    w.key("cpu_system_seconds").number(r.cpuSystemSeconds);
    w.key("maxrss_bytes").number(r.maxrssBytes);
    w.key("minor_faults").number(r.minorFaults);
    w.key("major_faults").number(r.majorFaults);
    w.endObject();

    const std::string base = "/v1/campaigns/" + st.id;
    w.key("links").beginObject();
    w.key("analysis").string(base + "/analysis");
    w.key("report").string(base + "/report.html");
    w.key("roofline").string(base + "/roofline.svg");
    w.endObject();
}

/**
 * Per-endpoint service-time histogram with bounded label cardinality:
 * fixed endpoints by name, campaign artifact routes collapsed to one
 * template, everything else "other".
 */
telemetry::Histogram &
endpointHistogram(const std::string &path)
{
    std::string endpoint;
    if (path == "/healthz" || path == "/statsz" ||
        path == "/metricsz" || path == "/tracez" ||
        path == "/seriesz" || path == "/dashz" ||
        path == "/profilez" || path == "/v1/campaigns") {
        endpoint = path;
    } else if (path.rfind("/v1/campaigns/", 0) == 0) {
        endpoint = "/v1/campaigns/{id}";
    } else {
        endpoint = "other";
    }
    return telemetry::Registry::global().histogram(
        "rfl_http_request_seconds", "request service time by endpoint",
        {{"endpoint", endpoint}});
}

} // namespace

std::string
statusJson(const JobStatus &st)
{
    std::string out;
    JsonWriter w(out);
    writeStatusMembers(w.beginObject(), st);
    w.endObject();
    return out;
}

ApiHandler::ApiHandler(JobQueue &queue, SessionTable &sessions)
    : queue_(queue), sessions_(sessions),
      start_(std::chrono::steady_clock::now())
{
    telemetry::Registry &reg = telemetry::Registry::global();
    telemetry::registerBuildInfoMetric(reg);
    metricsCollector_ = reg.addCollector(
        [this,
         &admitted = reg.counter("rfl_sessions_admitted_total",
                                 "requests admitted past rate limits"),
         &limited = reg.counter("rfl_sessions_rate_limited_total",
                                "requests answered 429"),
         &clients = reg.gauge("rfl_sessions_clients",
                              "distinct client addresses tracked"),
         &conns = reg.counter("rfl_http_connections_total",
                              "TCP connections accepted"),
         &reqs = reg.counter("rfl_http_requests_total",
                             "HTTP requests served"),
         &parseErrors = reg.counter("rfl_http_parse_errors_total",
                                    "malformed or oversized requests"),
         &bytesOut = reg.counter("rfl_http_bytes_out_total",
                                 "response bytes written")] {
            const SessionStats s = sessions_.stats();
            admitted.mirror(s.admitted);
            limited.mirror(s.rateLimited);
            clients.set(static_cast<double>(s.clients));
            if (serverStats_) {
                const HttpServerStats h = serverStats_();
                conns.mirror(h.connectionsAccepted);
                reqs.mirror(h.requestsServed);
                parseErrors.mirror(h.parseErrors);
                bytesOut.mirror(h.bytesOut);
            }
        });
}

void
ApiHandler::setServerStats(std::function<HttpServerStats()> supplier)
{
    serverStats_ = std::move(supplier);
}

void
ApiHandler::setTimeSeriesSampler(telemetry::TimeSeriesSampler *sampler)
{
    sampler_ = sampler;
}

HttpResponse
ApiHandler::handle(const HttpRequest &req)
{
    const auto t0 = std::chrono::steady_clock::now();

    // Propagate the client's request id or mint one; it joins the
    // access-log line with the campaign job's root span.
    std::string requestId = req.header("x-request-id");
    if (requestId.empty()) {
        requestId = std::to_string(
            nextRequestId_.fetch_add(1, std::memory_order_relaxed) + 1);
        requestId.insert(requestId.begin(), 'r');
    }

    HttpResponse resp;
    // Liveness probes and metric scrapers are exempt: a throttled
    // /healthz reads as a dead service to an orchestrator, and a
    // throttled scrape reads as an outage on a dashboard.
    // /seriesz and /dashz join the exempt set: the dashboard refreshes
    // itself every sampler interval, and a throttled refresh reads as
    // a dead dashboard. /profilez is NOT exempt — it costs real CPU.
    const bool exempt = req.path == "/healthz" ||
                        req.path == "/statsz" ||
                        req.path == "/metricsz" ||
                        req.path == "/seriesz" ||
                        req.path == "/dashz";
    if (!exempt && !sessions_.admit(req.clientAddr))
        resp = backpressureError("rate limited", 1);
    else
        resp = dispatch(req, requestId);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    endpointHistogram(req.path).observe(seconds);
    sessions_.logRequest(req.clientAddr, req.method, req.target,
                         resp.status, seconds, requestId);
    return resp;
}

HttpResponse
ApiHandler::dispatch(const HttpRequest &req,
                     const std::string &requestId)
{
    if (req.path == "/healthz") {
        if (req.method != "GET")
            return jsonError(405, "use GET");
        return health();
    }
    if (req.path == "/statsz") {
        if (req.method != "GET")
            return jsonError(405, "use GET");
        return statsz();
    }
    if (req.path == "/metricsz") {
        if (req.method != "GET")
            return jsonError(405, "use GET");
        return metricsz();
    }
    if (req.path == "/tracez") {
        if (req.method != "GET")
            return jsonError(405, "use GET");
        return tracez(req);
    }
    if (req.path == "/seriesz") {
        if (req.method != "GET")
            return jsonError(405, "use GET");
        return seriesz();
    }
    if (req.path == "/dashz") {
        if (req.method != "GET")
            return jsonError(405, "use GET");
        return dashz();
    }
    if (req.path == "/profilez") {
        if (req.method != "GET")
            return jsonError(405, "use GET");
        return profilez(req);
    }
    if (req.path == "/v1/campaigns") {
        if (req.method != "POST")
            return jsonError(405, "use POST to submit a campaign");
        return submitCampaign(req, requestId);
    }
    if (req.path.rfind("/v1/campaigns/", 0) == 0)
        return campaignRoute(req);
    return jsonError(404, "no such endpoint: " + req.path);
}

HttpResponse
ApiHandler::submitCampaign(const HttpRequest &req,
                           const std::string &requestId)
{
    if (req.body.empty())
        return jsonError(400, "empty campaign spec");

    // Raw spec text, or a {"spec": "..."} JSON envelope.
    std::string specText = req.body;
    const size_t first = req.body.find_first_not_of(" \t\r\n");
    if (first != std::string::npos && req.body[first] == '{') {
        Json envelope;
        if (!Json::tryParse(req.body, &envelope) ||
            envelope.kind() != Json::Kind::Object ||
            !envelope.has("spec") ||
            envelope.at("spec").kind() != Json::Kind::String) {
            return jsonError(
                400, "JSON body must be {\"spec\": \"<campaign>\"}");
        }
        specText = envelope.at("spec").asString();
    }

    const SubmitOutcome outcome = queue_.submit(specText, requestId);
    switch (outcome.kind) {
      case SubmitOutcome::Kind::Invalid:
        return jsonError(400, outcome.error);
      case SubmitOutcome::Kind::QueueFull:
        return backpressureError("campaign queue is full, retry later",
                                 2);
      case SubmitOutcome::Kind::Accepted:
      case SubmitOutcome::Kind::Deduplicated: {
        JobStatus st;
        const bool known = queue_.status(outcome.id, &st);
        return jsonResponse(
            outcome.kind == SubmitOutcome::Kind::Accepted ? 202 : 200,
            [&](JsonWriter &w) {
                if (known) {
                    writeStatusMembers(w, st);
                } else {
                    w.key("id").string(outcome.id);
                    w.key("state").string(jobStateName(outcome.state));
                }
                w.key("deduplicated")
                    .boolean(outcome.kind ==
                             SubmitOutcome::Kind::Deduplicated);
            });
      }
    }
    return jsonError(500, "unreachable submit outcome");
}

HttpResponse
ApiHandler::campaignRoute(const HttpRequest &req)
{
    if (req.method != "GET")
        return jsonError(405, "use GET");

    // "/v1/campaigns/<id>[/<artifact>]"
    const std::string rest = req.path.substr(14);
    const size_t slash = rest.find('/');
    const std::string id = rest.substr(0, slash);
    const std::string artifact =
        slash == std::string::npos ? "" : rest.substr(slash + 1);

    JobStatus st;
    if (id.empty() || !queue_.status(id, &st))
        return jsonError(404, "unknown campaign ticket '" + id + "'");

    if (artifact.empty()) {
        return jsonResponse(
            200, [&](JsonWriter &w) { writeStatusMembers(w, st); });
    }

    if (st.state == JobState::Failed)
        return jsonError(500, "campaign failed: " + st.error);
    if (st.state == JobState::TimedOut)
        return jsonError(504, "campaign timed out: " + st.error +
                                  " (resubmit to retry)");
    if (st.state != JobState::Done) {
        return jsonResponse(409, [&](JsonWriter &w) {
            writeStatusMembers(w, st);
            w.key("error").string("campaign not finished; poll "
                                  "/v1/campaigns/" +
                                  id);
        });
    }

    // Fault-injection seam for artifact streaming: the client gets a
    // well-formed 503 and the artifact stays intact for the retry.
    if (RFL_FAILPOINT("api.stream"))
        return jsonError(503,
                         "artifact stream unavailable (injected "
                         "fault), retry");

    HttpResponse resp;
    if (artifact == "analysis") {
        if (!queue_.analysisJson(id, &resp.body))
            return jsonError(500, "analysis artifact missing");
        resp.contentType = "application/json";
        return resp;
    }
    if (artifact == "report.html") {
        if (!queue_.reportHtml(id, &resp.body))
            return jsonError(500, "report artifact missing");
        resp.contentType = "text/html; charset=utf-8";
        resp.chunked = true; // streamed from memory
        return resp;
    }
    if (artifact == "roofline.svg") {
        const std::string idxText = req.queryParam("scenario", "0");
        char *end = nullptr;
        const long idx = std::strtol(idxText.c_str(), &end, 10);
        if (end == idxText.c_str() || *end != '\0' || idx < 0)
            return jsonError(400, "scenario must be a non-negative "
                                  "integer");
        if (!queue_.svg(id, static_cast<size_t>(idx), &resp.body)) {
            return jsonError(
                404, "no scenario " + idxText + " (campaign has " +
                         std::to_string(st.scenarioCount) + ")");
        }
        resp.contentType = "image/svg+xml";
        resp.chunked = true;
        return resp;
    }
    return jsonError(404, "unknown artifact '" + artifact +
                              "' (use analysis, report.html or "
                              "roofline.svg)");
}

namespace
{

/**
 * The host's PMU capability, probed once per process: the answer
 * cannot change under a running service, and probing registers the
 * rfl_pmu_* gauges so the pmu group is present in /statsz and
 * /metricsz from the first scrape on regardless of request order.
 */
const pmu::PmuProbe &
cachedPmuProbe()
{
    static const pmu::PmuProbe probe = pmu::PerfEventBackend::probe();
    return probe;
}

/** Write the /healthz pmu block (shape asserted by
 *  tools/service_smoke.sh against `roofline_campaign --pmu-probe`). */
void
writePmuHealth(JsonWriter &w)
{
    const pmu::PmuProbe &probe = cachedPmuProbe();
    w.beginObject();
    w.key("available").boolean(probe.available);
    w.key("paranoid").number(probe.paranoid);
    w.key("events_live").number(probe.liveCount());
    w.key("events_dead").number(probe.deadCount());
    w.key("events").beginArray();
    for (const pmu::ProbedEvent &e : probe.events)
        w.beginObject().key("event").string(pmu::eventName(e.mapping.id))
            .key("source").string(e.mapping.fromEnv ? "env" : "default")
            .key("live").boolean(e.live).endObject();
    w.endArray().endObject();
}

} // namespace

HttpResponse
ApiHandler::health() const
{
    const double uptime = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start_)
                              .count();
    return jsonResponse(200, [&](JsonWriter &w) {
        w.key("status").string("ok");
        w.key("uptime_seconds").number(uptime);
        // The same identity rfl_build_info carries in labels: "did the
        // numbers change or did the binary?" answerable from a
        // liveness probe.
        const telemetry::BuildInfo &b = telemetry::buildInfo();
        w.key("build").beginObject();
        w.key("git_sha").string(b.gitSha);
        w.key("compiler").string(b.compiler);
        w.key("build_type").string(b.buildType);
        w.key("profiler").boolean(telemetry::Profiler::compiledIn());
        w.endObject();
        // Hardware measurement capability: whether backend=perf
        // campaign rows on this host will carry real counters or
        // degrade to unavailable placeholders.
        w.key("pmu");
        writePmuHealth(w);
    });
}

HttpResponse
ApiHandler::seriesz() const
{
    if (!sampler_)
        return jsonError(503, "no time-series sampler attached");
    HttpResponse resp;
    resp.contentType = "application/json";
    resp.body = sampler_->renderSeriesJson() + "\n";
    return resp;
}

HttpResponse
ApiHandler::dashz() const
{
    if (!sampler_)
        return jsonError(503, "no time-series sampler attached");
    HttpResponse resp;
    resp.contentType = "text/html; charset=utf-8";
    resp.body = sampler_->renderDashHtml();
    resp.chunked = true;
    return resp;
}

HttpResponse
ApiHandler::profilez(const HttpRequest &req) const
{
    if (!telemetry::Profiler::compiledIn()) {
        return jsonError(501,
                         "profiler not compiled in "
                         "(rebuild with -DRFL_PROFILER=ON)");
    }

    double seconds =
        std::strtod(req.queryParam("seconds", "2").c_str(), nullptr);
    seconds = std::clamp(seconds, 0.05, 30.0);
    telemetry::ProfilerOptions opts;
    const long hz =
        std::strtol(req.queryParam("hz", "997").c_str(), nullptr, 10);
    if (hz > 0)
        opts.hz = static_cast<int>(std::clamp(hz, 50l, 5000l));

    if (!telemetry::Profiler::instance().start(opts))
        return jsonError(409, "a profile is already running");
    // Blocks this request's server thread only; the profiler samples
    // the whole process meanwhile.
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    const telemetry::Profile profile =
        telemetry::Profiler::instance().stop(
            "profilez " + std::to_string(opts.hz) + "Hz");

    HttpResponse resp;
    if (req.queryParam("format", "json") == "svg") {
        resp.contentType = "image/svg+xml";
        resp.body = telemetry::renderFlamegraphSvg(
            profile.stacks, "roofline_serve CPU profile");
        resp.chunked = true;
        return resp;
    }
    resp.contentType = "application/json";
    resp.body = telemetry::renderProfileJson(profile) + "\n";
    return resp;
}

HttpResponse
ApiHandler::statsz() const
{
    // One source of truth: the same registry /metricsz scrapes,
    // rendered in the grouped-JSON shape /statsz has always served
    // (the queue/cache/sessions/http groups come from the naming
    // convention — see telemetry/metrics.hh). Touching the probe
    // guarantees the pmu group exists even when no campaign or
    // /healthz request registered it yet.
    cachedPmuProbe();
    HttpResponse resp;
    resp.contentType = "application/json";
    resp.body = telemetry::Registry::global().renderJsonGrouped() + "\n";
    return resp;
}

HttpResponse
ApiHandler::metricsz() const
{
    HttpResponse resp;
    resp.contentType = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = telemetry::Registry::global().renderPrometheus();
    return resp;
}

HttpResponse
ApiHandler::tracez(const HttpRequest &req) const
{
    const std::string job = req.queryParam("job");
    if (job.empty())
        return jsonError(400, "tracez requires ?job=<ticket>");
    HttpResponse resp;
    if (!queue_.traceJson(job, &resp.body)) {
        return jsonError(404, "no trace for ticket '" + job +
                                  "' (unknown, unfinished, or "
                                  "evicted)");
    }
    resp.contentType = "application/json";
    resp.chunked = true;
    return resp;
}

} // namespace rfl::service
