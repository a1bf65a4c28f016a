/**
 * @file
 * Service-throughput load bench: N concurrent HTTP clients against an
 * in-process roofline_serve stack (real sockets on loopback).
 *
 * Not a paper figure: this tracks the *service's* performance — the
 * PR 5 daemon path (http_server -> api -> job_queue -> executor) —
 * the way BENCH_sim_throughput.json tracks the simulator hot loop.
 *
 * Phases:
 *   1. cold submit:   one campaign, empty cache; submit -> wait ->
 *      done wall time (includes simulation).
 *   2. cached submit: the same campaign content under a new name;
 *      it must execute without simulating (all jobs cache hits).
 *   3. load:          N clients x M keep-alive requests cycling
 *      status polls, analysis fetches and deduplicated resubmits;
 *      per-request latency percentiles, aggregate RPS, and the
 *      zero-dropped-connections acceptance check.
 *
 * Output: a table on stdout plus a JSON trajectory file (default
 * ./BENCH_service_throughput.json, override with argv[1]; schema
 * enforced by tools/check_bench_schema.py). $RFL_FAST shrinks the
 * request count, never the client count — 64 concurrent clients IS
 * the acceptance bar.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "service/api.hh"
#include "service/http_client.hh"
#include "service/http_server.hh"
#include "service/job_queue.hh"
#include "service/session.hh"
#include "support/json.hh"

namespace
{

using namespace rfl;
using namespace rfl::service;
using Clock = std::chrono::steady_clock;

const char *const kCampaignBody =
    "machine = small\n"
    "kernel = daxpy:n=4096\n"
    "kernel = sum:n=4096\n"
    "kernel = triad:n=4096\n"
    "variant = cold-1c: protocol=cold cores=0 reps=1\n"
    "variant = warm-1c: protocol=warm cores=0 reps=2\n";

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** @return @p body's top-level string member @p key; exits on a body
 *  that is not a JSON object with that member. */
std::string
jsonField(const std::string &body, const std::string &key)
{
    Json doc;
    if (!Json::tryParse(body, &doc) || doc.kind() != Json::Kind::Object ||
        !doc.has(key) || doc.at(key).kind() != Json::Kind::String) {
        std::fprintf(stderr, "no string '%s' in %s\n", key.c_str(),
                     body.c_str());
        std::exit(1);
    }
    return doc.at(key).asString();
}

/**
 * Submit @p spec, block on the queue's completion signal and read the
 * status; @return wall seconds. A client sleeping between polls would
 * time its own poll interval, not the campaign. Exits unless the
 * campaign ends done.
 */
double
submitAndWait(HttpClient &client, const JobQueue &queue,
              const std::string &spec, std::string *id)
{
    const auto t0 = Clock::now();
    ClientResponse resp;
    if (!client.request("POST", "/v1/campaigns", &resp, spec) ||
        (resp.status != 202 && resp.status != 200)) {
        std::fprintf(stderr, "submit failed: %d %s\n", resp.status,
                     resp.body.c_str());
        std::exit(1);
    }
    *id = jsonField(resp.body, "id");
    if (!queue.waitFor(*id, 600.0)) {
        std::fprintf(stderr, "campaign %s not finished in 600 s\n",
                     id->c_str());
        std::exit(1);
    }
    if (!client.request("GET", "/v1/campaigns/" + *id, &resp)) {
        std::fprintf(stderr, "status request failed\n");
        std::exit(1);
    }
    const double seconds = secondsSince(t0);
    if (jsonField(resp.body, "state") != "done") {
        std::fprintf(stderr, "campaign ended %s\n", resp.body.c_str());
        std::exit(1);
    }
    return seconds;
}

/** Latency series of one request kind across all clients. */
struct KindSeries
{
    const char *name;
    std::vector<double> micros;
};

double
percentile(std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double idx = p * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(idx);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_path =
        argc > 1 ? argv[1] : "BENCH_service_throughput.json";
    const bool fast = fastMode();

    // The acceptance bar: 64 concurrent clients, zero drops. Fast
    // mode trims the per-client request count only.
    const int kClients = 64;
    const int kRequestsPerClient = fast ? 9 : 45; // multiple of 3
    bench::banner("service_throughput",
                  "roofline-as-a-service load generator");

    // ------------------------------------------------- service stack
    JobQueueOptions qopts;
    qopts.workers = 2;
    qopts.maxQueued = 64;
    qopts.exec.threads = 2;
    JobQueue queue(qopts);
    SessionTable sessions(SessionOptions{/*ratePerSec=*/0.0,
                                         /*burst=*/64.0,
                                         /*logRequests=*/false});
    ApiHandler api(queue, sessions);

    HttpServerOptions hopts;
    hopts.port = 0;
    hopts.workers = kClients + 8; // every client multiplexed live
    HttpServer server(hopts);
    server.start(
        [&api](const HttpRequest &req) { return api.handle(req); });
    api.setServerStats([&server] { return server.stats(); });
    std::printf("service on 127.0.0.1:%d (%d http threads, %d queue "
                "workers)\n\n",
                server.port(), hopts.workers, qopts.workers);

    // ------------------------------------------- cold vs cached runs
    HttpClient control("127.0.0.1", server.port());
    std::string cold_id;
    const double cold_seconds = submitAndWait(
        control, queue, std::string("name = svc-cold\n") + kCampaignBody,
        &cold_id);

    std::string cached_id;
    const double cached_seconds = submitAndWait(
        control, queue, std::string("name = svc-cached\n") + kCampaignBody,
        &cached_id);

    // The renamed-but-identical grid must not have simulated: every
    // job answered by the shared result cache.
    ClientResponse resp;
    control.request("GET", "/v1/campaigns/" + cached_id, &resp);
    if (resp.body.find("\"simulated\":0") == std::string::npos) {
        std::fprintf(stderr,
                     "cached campaign re-simulated: %s\n",
                     resp.body.c_str());
        return 1;
    }
    std::printf("cold submit->done    %10.3f ms\n", cold_seconds * 1e3);
    std::printf("cached submit->done  %10.3f ms  (0 simulated, "
                "result-cache hits only)\n\n",
                cached_seconds * 1e3);

    // --------------------------------------------------- load phase
    const std::string status_target = "/v1/campaigns/" + cold_id;
    const std::string analysis_target = status_target + "/analysis";
    const std::string dedup_body =
        std::string("name = svc-cold\n") + kCampaignBody;

    std::vector<std::vector<double>> status_us(
        static_cast<size_t>(kClients));
    std::vector<std::vector<double>> analysis_us(
        static_cast<size_t>(kClients));
    std::vector<std::vector<double>> dedup_us(
        static_cast<size_t>(kClients));
    std::atomic<int> dropped{0};
    std::atomic<int> bad_status{0};

    const auto t_load = Clock::now();
    {
        std::vector<std::thread> clients;
        clients.reserve(static_cast<size_t>(kClients));
        for (int c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                const auto ci = static_cast<size_t>(c);
                HttpClient client("127.0.0.1", server.port());
                ClientResponse r;
                for (int i = 0; i < kRequestsPerClient; ++i) {
                    const int kind = i % 3;
                    const auto t0 = Clock::now();
                    bool ok;
                    int want = 200;
                    if (kind == 0) {
                        ok = client.request("GET", status_target, &r);
                    } else if (kind == 1) {
                        ok = client.request("GET", analysis_target,
                                            &r);
                    } else {
                        ok = client.request("POST", "/v1/campaigns",
                                            &r, dedup_body);
                    }
                    const double us = secondsSince(t0) * 1e6;
                    if (!ok) {
                        ++dropped;
                        continue;
                    }
                    if (r.status != want)
                        ++bad_status;
                    (kind == 0   ? status_us
                     : kind == 1 ? analysis_us
                                 : dedup_us)[ci]
                        .push_back(us);
                }
            });
        }
        for (std::thread &t : clients)
            t.join();
    }
    const double load_seconds = secondsSince(t_load);

    KindSeries kinds[3] = {{"status", {}}, {"analysis", {}},
                           {"submit-dedup", {}}};
    for (int c = 0; c < kClients; ++c) {
        const auto ci = static_cast<size_t>(c);
        kinds[0].micros.insert(kinds[0].micros.end(),
                               status_us[ci].begin(),
                               status_us[ci].end());
        kinds[1].micros.insert(kinds[1].micros.end(),
                               analysis_us[ci].begin(),
                               analysis_us[ci].end());
        kinds[2].micros.insert(kinds[2].micros.end(),
                               dedup_us[ci].begin(),
                               dedup_us[ci].end());
    }
    std::vector<double> all;
    for (KindSeries &k : kinds) {
        std::sort(k.micros.begin(), k.micros.end());
        all.insert(all.end(), k.micros.begin(), k.micros.end());
    }
    std::sort(all.begin(), all.end());

    const size_t total = all.size();
    const double rps =
        load_seconds > 0 ? static_cast<double>(total) / load_seconds
                         : 0.0;

    std::printf("%-14s %9s %10s %10s %10s\n", "endpoint", "requests",
                "p50 [us]", "p90 [us]", "p99 [us]");
    for (KindSeries &k : kinds) {
        std::printf("%-14s %9zu %10.1f %10.1f %10.1f\n", k.name,
                    k.micros.size(), percentile(k.micros, 0.50),
                    percentile(k.micros, 0.90),
                    percentile(k.micros, 0.99));
    }
    std::printf("\n%d client(s) x %d request(s): %.0f req/s, %d "
                "dropped connection(s), %d unexpected status(es)\n",
                kClients, kRequestsPerClient, rps, dropped.load(),
                bad_status.load());

    const campaign::CacheStats cs = queue.cacheStats();
    const double lookups = static_cast<double>(cs.hits + cs.misses);
    const double hit_rate =
        lookups > 0 ? static_cast<double>(cs.hits) / lookups : 0.0;
    const JobQueueStats qs = queue.stats();
    std::printf("statsz: executed=%llu deduplicated=%llu cache "
                "hit-rate=%.2f\n",
                static_cast<unsigned long long>(qs.executed),
                static_cast<unsigned long long>(qs.deduplicated),
                hit_rate);

    if (dropped.load() != 0 || bad_status.load() != 0) {
        std::fprintf(stderr, "FAIL: dropped/bad responses under "
                             "load\n");
        return 1;
    }
    if (qs.executed != 2) {
        std::fprintf(stderr, "FAIL: dedup resubmits must not "
                             "execute (executed=%llu)\n",
                     static_cast<unsigned long long>(qs.executed));
        return 1;
    }

    // ------------------------------------------------------- output
    std::ofstream out(json_path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    out.precision(17);
    out << "{\n"
        << "  \"bench\": \"service_throughput\",\n"
        << "  \"schema_version\": 1,\n"
        << "  \"unit\": \"requests/s\",\n"
        << "  \"rfl_fast\": " << (fast ? "true" : "false") << ",\n"
        << "  \"clients\": " << kClients << ",\n"
        << "  \"requests_per_client\": " << kRequestsPerClient
        << ",\n"
        << "  \"total_requests\": " << total << ",\n"
        << "  \"dropped_connections\": " << dropped.load() << ",\n"
        << "  \"rps\": " << rps << ",\n"
        << "  \"cold_submit_seconds\": " << cold_seconds << ",\n"
        << "  \"cached_submit_seconds\": " << cached_seconds << ",\n"
        << "  \"cache_hit_rate\": " << hit_rate << ",\n"
        << "  \"dedup_hits\": " << qs.deduplicated << ",\n"
        << "  \"latency_us\": {\"p50\": " << percentile(all, 0.50)
        << ", \"p90\": " << percentile(all, 0.90)
        << ", \"p99\": " << percentile(all, 0.99)
        << ", \"max\": " << (all.empty() ? 0.0 : all.back())
        << "},\n"
        << "  \"endpoints\": [\n";
    for (size_t i = 0; i < 3; ++i) {
        KindSeries &k = kinds[i];
        out << "    {\"name\": \"" << k.name
            << "\", \"requests\": " << k.micros.size()
            << ", \"p50_us\": " << percentile(k.micros, 0.50)
            << ", \"p90_us\": " << percentile(k.micros, 0.90)
            << ", \"p99_us\": " << percentile(k.micros, 0.99) << "}"
            << (i + 1 < 3 ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());

    server.stop();
    queue.stop();
    return 0;
}
