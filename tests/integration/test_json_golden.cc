/**
 * @file
 * Byte goldens of every JSON document the program writes: the four
 * result payloads, a spill line and a compacted spill, the service's
 * status and error bodies (the HTTP server's 500 included), the
 * grouped metrics, the series export, both trace renderings, the
 * profile, analysis.json and the metrics.json envelope.
 *
 * Each document is pinned as its size and FNV-1a hash (support/hash.hh)
 * on fixed inputs that reach the escapes, the nan/inf and null number
 * forms and every optional member. The goldens were taken before the
 * emitters moved onto one writer and must never be re-taken to make an
 * emitter change pass: a mismatch means an output byte changed.
 */

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "analysis/analysis.hh"
#include "campaign/result_cache.hh"
#include "campaign/serialize.hh"
#include "service/api.hh"
#include "service/http_client.hh"
#include "service/http_server.hh"
#include "service/job_queue.hh"
#include "service/session.hh"
#include "support/failpoint.hh"
#include "support/hash.hh"
#include "telemetry/metrics.hh"
#include "telemetry/profiler.hh"
#include "telemetry/span.hh"
#include "telemetry/timeseries.hh"

namespace
{

using namespace rfl;

/** (name, bytes, FNV-1a) of one rendered document. */
struct Digest
{
    std::string name;
    size_t bytes;
    uint64_t fnv;

    bool
    operator==(const Digest &o) const
    {
        return name == o.name && bytes == o.bytes && fnv == o.fnv;
    }
};

std::ostream &
operator<<(std::ostream &os, const Digest &d)
{
    return os << "{\"" << d.name << "\", " << d.bytes << ", 0x"
              << std::hex << d.fnv << std::dec << "ull}";
}

Digest
digest(const std::string &name, const std::string &content)
{
    return {name, content.size(),
            Fnv1a().mixBytes(content.data(), content.size()).value()};
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

const double kNan = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

roofline::Measurement
fixedMeasurement()
{
    roofline::Measurement m;
    m.kernel = "daxpy \"q\"\\\t";
    m.sizeLabel = "n=4096";
    m.protocol = "cold";
    m.cores = 2;
    m.lanes = 4;
    m.flops = 8192.0;
    m.trafficBytes = 98304.5;
    m.seconds = 1.0 / 3.0;
    m.expectedFlops = 8192.0;
    m.expectedTrafficBytes = kNan;
    m.flopsSample.add(8192.0);
    m.flopsSample.add(-0.0);
    m.trafficSample.add(1e300);
    m.secondsSample.add(2.5e-9);
    m.backend = "perf";
    m.quality = 0.1;
    m.available = false;
    return m;
}

roofline::RooflineModel
fixedModel()
{
    roofline::RooflineModel model;
    model.addComputeCeiling("fma \"avx\"", 1.6e10);
    model.addComputeCeiling("scalar", 4e9 / 3.0);
    model.addBandwidthCeiling("dram\n", 1.3e10);
    return model;
}

campaign::TraceInfo
fixedTraceInfo()
{
    campaign::TraceInfo info;
    info.path = "rfl-traces/0123456789abcdef.rfltrace";
    trace::TraceSummary &s = info.summary;
    s.records = 1;
    s.loads = 2;
    s.stores = 3;
    s.ntStores = 4;
    s.fpOps = 5;
    s.otherUops = 6;
    s.flops = 7;
    s.memBytes = 8;
    s.minAddr = 1ull << 32;
    s.maxAddr = ~0ull;
    s.flags = 9;
    s.hash = 0xfedcba9876543210ull;
    return info;
}

analysis::PhaseTrajectory
fixedTrajectory()
{
    analysis::PhaseTrajectory t;
    t.kernel = "fft";
    t.sizeLabel = "n=1024";
    t.protocol = "warm";
    t.period = 1024;
    t.totalFlops = 51200.0;
    t.totalTrafficBytes = 0.0;
    t.totalSeconds = 1e-5;
    t.points = {{kInf, 1e9, 25600.0, 0.0, 5e-6},
                {0.5, 2e9, 25600.0, 51200.0, 5e-6}};
    return t;
}

TEST(JsonGolden, Payloads)
{
    const std::vector<Digest> got = {
        digest("measurement",
               campaign::encodeMeasurement(fixedMeasurement())),
        digest("model", campaign::encodeModel(fixedModel())),
        digest("trace_info", campaign::encodeTraceInfo(fixedTraceInfo())),
        digest("phases",
               campaign::encodePhaseTrajectory(fixedTrajectory())),
    };
    const std::vector<Digest> want = {
        {"measurement", 375, 0x4b7a1564ae7d4733ull},
        {"model", 153, 0x53aaaf7e15d45a26ull},
        {"trace_info", 260, 0xb9e3f12b7500479aull},
        {"phases", 298, 0x4ec81cadc803c577ull},
    };
    EXPECT_EQ(got, want);
}

TEST(JsonGolden, SpillLinesAndCompactedSpill)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("rfl-json-golden-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const std::string spill = (dir / "cache.jsonl").string();
    std::filesystem::remove(spill);

    std::vector<Digest> got;
    {
        campaign::ResultCache cache(spill);
        cache.store("measure|aa|daxpy:n=4096|protocol=cold",
                    campaign::encodeMeasurement(fixedMeasurement()));
        cache.store("ceiling|aa|cores=0 \"q\"",
                    campaign::encodeModel(fixedModel()));
        cache.store("phase|dead|fft:n=1024|period=1024",
                    campaign::encodePhaseTrajectory(fixedTrajectory()));
        cache.store("measure|aa|daxpy:n=4096|protocol=cold",
                    campaign::encodeTraceInfo(fixedTraceInfo()));
        got.push_back(digest("spill", slurp(spill)));
        cache.compact({"aa"});
        got.push_back(digest("compacted", slurp(spill)));
    }
    std::filesystem::remove_all(dir);

    const std::vector<Digest> want = {
        {"spill", 1305, 0x3d436f22cb6b8a7eull},
        {"compacted", 518, 0x5ddffa1211280fd3ull},
    };
    EXPECT_EQ(got, want);
}

TEST(JsonGolden, StatusInEveryState)
{
    service::JobStatus st;
    st.id = "0123456789abcdef";
    st.campaign = "golden \"status\"";
    std::vector<Digest> got;

    st.state = service::JobState::Queued;
    got.push_back(digest("queued", service::statusJson(st)));
    st.queuePosition = 3;
    got.push_back(digest("queued-3", service::statusJson(st)));
    st.queuePosition = 0;
    st.state = service::JobState::Running;
    got.push_back(digest("running", service::statusJson(st)));
    st.state = service::JobState::Failed;
    st.error = "fatal: bad\nthing";
    got.push_back(digest("failed", service::statusJson(st)));
    st.state = service::JobState::TimedOut;
    st.error = "deadline exceeded after 0.5 s";
    got.push_back(digest("timed_out", service::statusJson(st)));

    st.state = service::JobState::Done;
    st.error.clear();
    st.jobs = 12;
    st.simulated = 5;
    st.cacheHits = 7;
    st.wallSeconds = 0.123456789;
    st.threadsUsed = 4;
    st.scenarioCount = 2;
    st.resources.cpuUserSeconds = 1.5;
    st.resources.cpuSystemSeconds = 0.1;
    st.resources.maxrssBytes = 123456789;
    st.resources.minorFaults = 4242;
    st.resources.majorFaults = 1;
    got.push_back(digest("done", service::statusJson(st)));

    const std::vector<Digest> want = {
        {"queued", 73, 0x4d7c98633de52e1bull},
        {"queued-3", 92, 0x13711da507b6c82dull},
        {"running", 74, 0xe91024d3755c7b23ull},
        {"failed", 101, 0xb9799fea34877f60ull},
        {"timed_out", 116, 0x85e4e4afa155d4b7ull},
        {"done", 487, 0x2afe589d789b4d79ull},
    };
    EXPECT_EQ(got, want);
}

service::HttpRequest
request(const std::string &method, const std::string &target,
        const std::string &body = "")
{
    service::HttpRequest req;
    req.method = method;
    req.target = target;
    const size_t q = target.find('?');
    req.path = target.substr(0, q);
    req.query = q == std::string::npos ? "" : target.substr(q + 1);
    req.body = body;
    req.clientAddr = "127.0.0.1";
    return req;
}

/** The status body of @p target once it is in @p state. */
void
awaitState(service::ApiHandler &api, const std::string &target,
           const std::string &state)
{
    for (int i = 0; i < 2000; ++i) {
        if (api.handle(request("GET", target))
                .body.find("\"state\":\"" + state + "\"") !=
            std::string::npos)
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    FAIL() << target << " never reached state " << state;
}

const char *const kSpecA = "name = golden-a\n"
                           "machine = small\n"
                           "kernel = daxpy:n=4096\n"
                           "variant = cold-1c: protocol=cold cores=0 "
                           "reps=1\n";
const char *const kSpecB = "name = golden-b\n"
                           "machine = small\n"
                           "kernel = sum:n=4096\n"
                           "variant = cold-1c: protocol=cold cores=0 "
                           "reps=1\n";

TEST(JsonGolden, ServiceBodies)
{
    service::JobQueueOptions qopts;
    qopts.workers = 1;
    qopts.exec.threads = 1;
    service::JobQueue queue(qopts);
    service::SessionTable sessions(service::SessionOptions{
        /*ratePerSec=*/0.0, /*burst=*/32.0, /*logRequests=*/false});
    service::ApiHandler api(queue, sessions);

    std::vector<Digest> got;
    const auto body = [&](const std::string &name, int status,
                          const service::HttpRequest &req) {
        const service::HttpResponse resp = api.handle(req);
        EXPECT_EQ(resp.status, status) << name << ": " << resp.body;
        got.push_back(digest(name, resp.body));
    };
    body("404-endpoint", 404, request("GET", "/no/\"such\"\\route"));
    body("405-get", 405, request("PUT", "/healthz"));
    body("405-post", 405, request("GET", "/v1/campaigns"));
    body("400-empty", 400, request("POST", "/v1/campaigns"));
    body("400-envelope", 400,
         request("POST", "/v1/campaigns", "{\"spec\":1}"));
    body("400-spec", 400,
         request("POST", "/v1/campaigns", "machine = small\n"));
    body("404-ticket", 404, request("GET", "/v1/campaigns/0123456789abcdef"));
    body("400-tracez", 400, request("GET", "/tracez"));
    body("404-tracez", 404, request("GET", "/tracez?job=x\"y"));
    body("503-seriesz", 503, request("GET", "/seriesz"));

    // A stalled drain holds campaign A running while B waits behind
    // it: the submit, dedup, status and 409 bodies are then fixed.
    ASSERT_TRUE(failpoint::arm("queue.drain", "sleep(3000):count=1"));
    const service::HttpResponse a =
        api.handle(request("POST", "/v1/campaigns", kSpecA));
    ASSERT_EQ(a.status, 202) << a.body;
    const std::string idA =
        Json::parse(a.body).at("id").asString();
    awaitState(api, "/v1/campaigns/" + idA, "running");
    body("running", 200, request("GET", "/v1/campaigns/" + idA));
    body("dedup-running", 200, request("POST", "/v1/campaigns", kSpecA));
    body("409", 409, request("GET", "/v1/campaigns/" + idA + "/analysis"));
    const service::HttpResponse b =
        api.handle(request("POST", "/v1/campaigns", kSpecB));
    EXPECT_EQ(b.status, 202);
    got.push_back(digest("submit-queued", b.body));
    const std::string idB = Json::parse(b.body).at("id").asString();
    body("queued", 200, request("GET", "/v1/campaigns/" + idB));
    failpoint::disarmAll();
    ASSERT_TRUE(queue.waitFor(idA, 60.0));
    ASSERT_TRUE(queue.waitFor(idB, 60.0));
    body("unknown-artifact", 404,
         request("GET", "/v1/campaigns/" + idA + "/x"));
    body("bad-scenario", 400,
         request("GET", "/v1/campaigns/" + idA + "/roofline.svg?scenario=x"));
    body("no-scenario", 404,
         request("GET", "/v1/campaigns/" + idA + "/roofline.svg?scenario=7"));
    queue.stop();

    service::SessionTable limited(service::SessionOptions{
        /*ratePerSec=*/0.001, /*burst=*/1.0, /*logRequests=*/false});
    service::ApiHandler throttled(queue, limited);
    throttled.handle(request("GET", "/v1/campaigns/x"));
    const service::HttpResponse r429 =
        throttled.handle(request("GET", "/v1/campaigns/x"));
    EXPECT_EQ(r429.status, 429);
    got.push_back(digest("429", r429.body));

    const std::vector<Digest> want = {
        {"404-endpoint", 50, 0xe2ee965c0f4792a3ull},
        {"405-get", 20, 0xc747f350c15a8dd0ull},
        {"405-post", 42, 0x914c81ba90dcce5cull},
        {"400-empty", 32, 0x9c43daf2a2f7a569ull},
        {"400-envelope", 57, 0xbdf15d5e71383dd0ull},
        {"400-spec", 62, 0xc41c756c01637695ull},
        {"404-ticket", 55, 0x7f31292a94ab2ae3ull},
        {"400-tracez", 42, 0xfcb79f7277fdf1cbull},
        {"404-tracez", 73, 0x85f5aab8a97edfeeull},
        {"503-seriesz", 44, 0x45a06c67c0740c3ull},
        {"running", 66, 0x5ec44119d99ba7b1ull},
        {"dedup-running", 86, 0xd80897cb2744502full},
        {"409", 135, 0x3f63a3459c2f9d5dull},
        {"submit-queued", 105, 0x937d2c3b021c91ffull},
        {"queued", 84, 0x5337667a8ce1ba90ull},
        {"unknown-artifact", 77, 0x224b5f8b8b13af93ull},
        {"bad-scenario", 52, 0x353ddcf35923b43ull},
        {"no-scenario", 43, 0x30ce8d6c9b8e619full},
        {"429", 25, 0x27c42070c4700785ull},
    };
    EXPECT_EQ(got, want);
}

TEST(JsonGolden, HttpServerInternalErrorBody)
{
    service::HttpServerOptions hopts;
    hopts.port = 0;
    hopts.workers = 1;
    service::HttpServer server(hopts);
    server.start([](const service::HttpRequest &) -> service::HttpResponse {
        throw std::runtime_error("boom \"quoted\"\n\x01");
    });
    service::HttpClient client("127.0.0.1", server.port());
    service::ClientResponse resp;
    ASSERT_TRUE(client.request("GET", "/anything", &resp));
    server.stop();
    EXPECT_EQ(resp.status, 500);
    const std::vector<Digest> want = {
        {"500", 45, 0x12f1faf9ccb6c9bbull},
    };
    EXPECT_EQ(std::vector<Digest>{digest("500", resp.body)}, want);
}

/** A registry holding one metric of each kind, labelled and not. */
void
fillRegistry(telemetry::Registry &reg)
{
    reg.counter("rfl_queue_submitted_total", "submitted").inc(7);
    reg.counter("rfl_http_requests_total", "requests",
                {{"endpoint", "/v1/\"x\"\\y\n"}})
        .inc(3);
    reg.gauge("rfl_queue_depth", "depth").set(2.5);
    reg.gauge("rfl_cache_hit_rate", "ratio").set(kNan);
    reg.gauge("other", "no rfl_ prefix").set(1.0 / 3.0);
    telemetry::Histogram &h = reg.histogram(
        "rfl_http_request_seconds", "latency", {{"endpoint", "/a"}});
    h.observe(0.001);
    h.observe(0.02);
    h.observe(0.3);
}

TEST(JsonGolden, TelemetryDocuments)
{
    telemetry::Registry reg;
    fillRegistry(reg);
    std::vector<Digest> got;
    got.push_back(digest("grouped", reg.renderJsonGrouped()));
    got.push_back(digest("metrics.json", reg.renderMetricsJson("golden")));

    // Series ids embed label values; these are plain (quoted ones are
    // covered by test_timeseries).
    telemetry::Registry plain;
    plain.counter("rfl_queue_submitted_total", "submitted").inc(7);
    plain.gauge("rfl_queue_depth", "depth").set(2.5);
    plain.gauge("rfl_cache_hit_rate", "ratio").set(kNan);
    plain.histogram("rfl_http_request_seconds", "latency",
                    {{"endpoint", "/a"}})
        .observe(0.02);
    telemetry::TimeSeriesOptions opts;
    opts.intervalSeconds = 0.25;
    opts.capacity = 4;
    telemetry::TimeSeriesSampler sampler(plain, opts);
    sampler.sampleNow(0.5);
    plain.counter("rfl_queue_submitted_total", "submitted").inc(1);
    plain.gauge("rfl_queue_depth", "depth").set(1e-7);
    sampler.sampleNow(0.5);
    sampler.sampleNow(0.5);
    got.push_back(digest("series", sampler.renderSeriesJson()));

    telemetry::Tracer tracer;
    std::vector<telemetry::SpanRecord> spans(3);
    spans[0] = {"campaign", 0, 1500, 0, 1, 0, {{"ticket", "t\"1"}}};
    spans[1] = {"job \"x\"", 10, 20, 1, 2, 1, {}};
    spans[2] = {"encode", 12, 3, 1, 3, 2,
                {{"kind", "measure"}, {"key\n", "v\\"}}};
    tracer.record(std::move(spans));
    got.push_back(digest("chrome", tracer.renderChromeTrace()));
    std::ostringstream jsonl;
    tracer.writeTraceJsonl(jsonl);
    got.push_back(digest("jsonl", jsonl.str()));
    std::ostringstream empty;
    telemetry::Tracer().writeTraceJsonl(empty);
    got.push_back(digest("jsonl-empty", empty.str()));

    telemetry::Profile profile;
    profile.label = "campaign \"golden\"";
    profile.hz = 997;
    profile.seconds = 1.2345678;
    profile.cpuSeconds = 2.0 / 3.0;
    profile.samples = 1234;
    profile.dropped = 5;
    profile.stacks = {{"main;run;\"sim\"", 1000}, {"main;idle", 234}};
    got.push_back(digest("profile", telemetry::renderProfileJson(profile)));

    const std::vector<Digest> want = {
        {"grouped", 279, 0xcdd3b087afe77576ull},
        {"metrics.json", 351, 0x9564a5a9d42ecf3ull},
        {"series", 731, 0x13dd2d5d59b57be0ull},
        {"chrome", 330, 0xe63d798e7d592b22ull},
        {"jsonl", 319, 0x8756219217c1be76ull},
        {"jsonl-empty", 4, 0x957bcb65661cdaa7ull},
        {"profile", 260, 0xade44bde43062f36ull},
    };
    EXPECT_EQ(got, want);
}

TEST(JsonGolden, AnalysisDocument)
{
    analysis::CampaignAnalysis doc;
    doc.campaign = "golden \"analysis\"\n";
    doc.scenarios.push_back({"box", "cold-1c", fixedModel()});
    doc.kernels.push_back(analysis::makeKernelRow(
        "box", "cold-1c", fixedMeasurement(), fixedModel()));
    roofline::Measurement zero = fixedMeasurement();
    zero.trafficBytes = 0.0;
    zero.available = true;
    doc.kernels.push_back(
        analysis::makeKernelRow("box", "cold-1c", zero, fixedModel()));
    doc.phases.push_back({"box", "cold-1c", fixedTrajectory()});
    const std::vector<Digest> want = {
        {"analysis", 1738, 0xf9372dec30d02d8cull},
    };
    EXPECT_EQ(std::vector<Digest>{digest("analysis",
                                         analysis::encodeAnalysis(doc))},
              want);
}

} // namespace
