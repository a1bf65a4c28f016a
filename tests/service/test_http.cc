/**
 * @file
 * End-to-end HTTP tests: real sockets against a real server. Covers
 * the protocol surface (keep-alive, chunked transfer, error codes),
 * the API contract, rate limiting, and the acceptance requirement
 * that artifact endpoints byte-match the offline CLI artifact files
 * for the same spec.
 */

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "analysis/analysis.hh"
#include "campaign/executor.hh"
#include "campaign/serialize.hh"
#include "service/api.hh"
#include "service/http_client.hh"
#include "service/http_server.hh"
#include "service/job_queue.hh"
#include "service/session.hh"

namespace
{

using namespace rfl;
using namespace rfl::service;

const char *const kSpec =
    "name = http-test\n"
    "machine = small\n"
    "kernel = daxpy:n=4096\n"
    "kernel = sum:n=4096\n"
    "phase = fft:n=1024 period=1024\n"
    "variant = cold-1c: protocol=cold cores=0 reps=1\n"
    "variant = warm-1c: protocol=warm cores=0 reps=2\n";

/** One full service stack on an ephemeral port. */
class HttpServiceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        JobQueueOptions qopts;
        qopts.workers = 1;
        qopts.exec.threads = 2;
        queue_ = std::make_unique<JobQueue>(qopts);
        sessions_ = std::make_unique<SessionTable>(SessionOptions{
            /*ratePerSec=*/0.0, /*burst=*/32.0,
            /*logRequests=*/false});
        api_ = std::make_unique<ApiHandler>(*queue_, *sessions_);

        HttpServerOptions hopts;
        hopts.port = 0;
        hopts.workers = 8;
        server_ = std::make_unique<HttpServer>(hopts);
        server_->start([this](const HttpRequest &req) {
            return api_->handle(req);
        });
        api_->setServerStats([this] { return server_->stats(); });
    }

    void
    TearDown() override
    {
        server_->stop();
        queue_->stop();
    }

    /** Submit @p spec and poll over HTTP until done; @return id. */
    std::string
    submitAndWait(HttpClient &client, const std::string &spec)
    {
        ClientResponse resp;
        EXPECT_TRUE(client.request("POST", "/v1/campaigns", &resp,
                                   spec));
        EXPECT_TRUE(resp.status == 202 || resp.status == 200)
            << resp.status << " " << resp.body;
        const std::string id = jsonField(resp.body, "id");
        EXPECT_EQ(id.size(), 16u) << resp.body;
        for (int i = 0; i < 600; ++i) {
            EXPECT_TRUE(client.request(
                "GET", "/v1/campaigns/" + id, &resp));
            const std::string state = jsonField(resp.body, "state");
            if (state == "done")
                return id;
            if (state == "failed") {
                ADD_FAILURE() << "campaign failed: " << resp.body;
                return id;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
        ADD_FAILURE() << "campaign did not finish";
        return id;
    }

    /** Crude extractor for top-level string members of flat JSON. */
    static std::string
    jsonField(const std::string &body, const std::string &key)
    {
        const std::string needle = "\"" + key + "\":\"";
        const size_t at = body.find(needle);
        if (at == std::string::npos)
            return "";
        const size_t start = at + needle.size();
        const size_t end = body.find('"', start);
        return body.substr(start, end - start);
    }

    std::unique_ptr<JobQueue> queue_;
    std::unique_ptr<SessionTable> sessions_;
    std::unique_ptr<ApiHandler> api_;
    std::unique_ptr<HttpServer> server_;
};

TEST_F(HttpServiceTest, HealthzAndErrors)
{
    HttpClient client("127.0.0.1", server_->port());
    ClientResponse resp;

    ASSERT_TRUE(client.request("GET", "/healthz", &resp));
    EXPECT_EQ(resp.status, 200);
    EXPECT_NE(resp.body.find("\"status\":\"ok\""), std::string::npos);

    ASSERT_TRUE(client.request("GET", "/no/such/route", &resp));
    EXPECT_EQ(resp.status, 404);

    ASSERT_TRUE(client.request("GET", "/v1/campaigns", &resp));
    EXPECT_EQ(resp.status, 405) << "submission is POST-only";

    ASSERT_TRUE(client.request("POST", "/v1/campaigns", &resp,
                               "machine = small\n"));
    EXPECT_EQ(resp.status, 400) << "invalid spec must answer 400";

    ASSERT_TRUE(client.request("GET",
                               "/v1/campaigns/0123456789abcdef",
                               &resp));
    EXPECT_EQ(resp.status, 404);
}

TEST_F(HttpServiceTest, KeepAliveServesManyRequestsPerConnection)
{
    HttpClient client("127.0.0.1", server_->port());
    ClientResponse resp;
    for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(client.request("GET", "/healthz", &resp));
        ASSERT_EQ(resp.status, 200);
    }
    const HttpServerStats stats = server_->stats();
    EXPECT_EQ(stats.connectionsAccepted, 1u)
        << "keep-alive must reuse the one connection";
    EXPECT_EQ(stats.requestsServed, 20u);
}

TEST_F(HttpServiceTest, JsonEnvelopeSubmissionWorks)
{
    HttpClient client("127.0.0.1", server_->port());
    ClientResponse resp;

    // {"spec": "..."} with escaped newlines.
    campaign::Json envelope = campaign::Json::makeObject();
    envelope.set("spec", campaign::Json::makeString(
                             "name = http-envelope\n"
                             "machine = small\n"
                             "kernel = daxpy:n=4096\n"
                             "variant = cold-1c: protocol=cold "
                             "cores=0 reps=1\n"));
    ASSERT_TRUE(client.request("POST", "/v1/campaigns", &resp,
                               envelope.dump(), "application/json"));
    EXPECT_EQ(resp.status, 202) << resp.body;

    ASSERT_TRUE(client.request("POST", "/v1/campaigns", &resp,
                               "{\"nospec\":1}",
                               "application/json"));
    EXPECT_EQ(resp.status, 400);
}

TEST_F(HttpServiceTest, DeeplyNestedJsonBodyAnswers400AndServerSurvives)
{
    HttpClient client("127.0.0.1", server_->port());
    ClientResponse resp;

    // ~800 KB of nested brackets: deep enough to overflow the stack of
    // an unbounded recursive-descent parser.
    const size_t depth = 400000;
    const std::string body = "{\"spec\":" + std::string(depth, '[') +
                             std::string(depth, ']') + "}";
    ASSERT_TRUE(client.request("POST", "/v1/campaigns", &resp, body,
                               "application/json"));
    EXPECT_EQ(resp.status, 400) << resp.body;

    HttpClient probe("127.0.0.1", server_->port());
    ASSERT_TRUE(probe.request("GET", "/healthz", &resp));
    EXPECT_EQ(resp.status, 200);
}

TEST_F(HttpServiceTest, HostileKernelSpecsAnswer400AndServerSurvives)
{
    // Each of these once aborted, crashed or silently misran the
    // daemon, or made it allocate gigabytes on the request thread. The
    // kernel catalogue now rejects them at submit, naming the kernel
    // and the key, without building anything.
    const struct
    {
        const char *kernel;
        const char *message;
    } cases[] = {
        {"daxpy:n=0", "kernel 'daxpy': key 'n' must be >= 1"},
        {"daxpy:n=-5", "kernel 'daxpy': key 'n'"},
        {"dgemv:m=0", "kernel 'dgemv': key 'm' must be >= 1"},
        {"daxpy:n=abc", "kernel 'daxpy': key 'n'"},
        {"daxpy:n=99999999999999999999", "kernel 'daxpy': key 'n'"},
        {"daxpy:n=100000000", "kernel 'daxpy': 'n=100000000' needs"},
        {"daxpy:nn=4096", "kernel 'daxpy': unknown key 'nn'"},
        {"daxpy:n=4096,n=8192", "kernel 'daxpy': repeated key 'n'"},
        {"fft:n=1000", "kernel 'fft': key 'n' must be a power of two"},
    };
    HttpClient client("127.0.0.1", server_->port());
    ClientResponse resp;
    for (const auto &c : cases) {
        const std::string spec = std::string("machine = small\n") +
                                 "kernel = " + c.kernel + "\n" +
                                 "variant = v: protocol=cold cores=0\n";
        ASSERT_TRUE(client.request("POST", "/v1/campaigns", &resp, spec))
            << c.kernel;
        EXPECT_EQ(resp.status, 400) << c.kernel << ": " << resp.body;
        EXPECT_NE(jsonField(resp.body, "error").find(c.message),
                  std::string::npos)
            << c.kernel << ": " << resp.body;
    }

    HttpClient probe("127.0.0.1", server_->port());
    ASSERT_TRUE(probe.request("GET", "/healthz", &resp));
    EXPECT_EQ(resp.status, 200);
    EXPECT_NE(resp.body.find("\"status\":\"ok\""), std::string::npos);
}

TEST_F(HttpServiceTest, MachineFileInSubmittedSpecAnswers400AndServerSurvives)
{
    // A submitted spec naming a server file is refused before the path
    // is opened: a readable file, a missing one and a special file all
    // get the same 400.
    HttpClient client("127.0.0.1", server_->port());
    ClientResponse resp;
    for (const char *path :
         {"/etc/os-release", "/no/such/machine.cfg", "/dev/zero"}) {
        const std::string spec = std::string("machine = @") + path +
                                 "\nkernel = sum:n=256\n"
                                 "variant = v: cores=0\n";
        ASSERT_TRUE(client.request("POST", "/v1/campaigns", &resp, spec))
            << path;
        EXPECT_EQ(resp.status, 400) << path << ": " << resp.body;
        EXPECT_NE(jsonField(resp.body, "error").find(
                      "machine = @file is accepted only in a campaign file"),
                  std::string::npos)
            << path << ": " << resp.body;
    }

    HttpClient probe("127.0.0.1", server_->port());
    ASSERT_TRUE(probe.request("GET", "/healthz", &resp));
    EXPECT_EQ(resp.status, 200);
}

TEST_F(HttpServiceTest, ArtifactEndpointsByteMatchOfflineCli)
{
    HttpClient client("127.0.0.1", server_->port());
    const std::string id = submitAndWait(client, kSpec);

    // Offline equivalent: same spec through the same executor path
    // the CLI uses, artifacts written to disk.
    const std::string dir =
        ::testing::TempDir() + "rfl_http_offline_report";
    const campaign::CampaignSpec spec =
        campaign::parseCampaignSpec(kSpec);
    const campaign::CampaignRun run =
        campaign::CampaignExecutor(campaign::ExecutorOptions{})
            .run(spec);
    const analysis::CampaignAnalysis doc =
        analysis::analyzeCampaign(run);
    const analysis::ReportPaths paths =
        analysis::writeAnalysisReport(doc, dir, spec.name());

    const auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        EXPECT_TRUE(in.good()) << path;
        std::ostringstream out;
        out << in.rdbuf();
        return out.str();
    };

    ClientResponse resp;
    ASSERT_TRUE(client.request(
        "GET", "/v1/campaigns/" + id + "/analysis", &resp));
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.body, slurp(paths.json))
        << "served analysis.json differs from the CLI file";

    ASSERT_TRUE(client.request(
        "GET", "/v1/campaigns/" + id + "/report.html", &resp));
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.headers["transfer-encoding"], "chunked")
        << "artifacts stream chunked";
    EXPECT_EQ(resp.body, slurp(paths.html))
        << "served report.html differs from the CLI file";

    ASSERT_EQ(paths.svgs.size(), 2u); // two scenarios
    for (size_t i = 0; i < paths.svgs.size(); ++i) {
        ASSERT_TRUE(client.request(
            "GET",
            "/v1/campaigns/" + id +
                "/roofline.svg?scenario=" + std::to_string(i),
            &resp));
        EXPECT_EQ(resp.status, 200);
        EXPECT_EQ(resp.body, slurp(paths.svgs[i]))
            << "served SVG " << i << " differs from the CLI file";
    }

    // Out-of-range scenario and premature artifacts answer cleanly.
    ASSERT_TRUE(client.request(
        "GET", "/v1/campaigns/" + id + "/roofline.svg?scenario=9",
        &resp));
    EXPECT_EQ(resp.status, 404);
}

TEST_F(HttpServiceTest, NotReadyArtifactsAnswer409)
{
    HttpClient client("127.0.0.1", server_->port());
    ClientResponse resp;
    // Big enough that the analysis fetch lands before completion.
    ASSERT_TRUE(client.request(
        "POST", "/v1/campaigns", &resp,
        "name = http-slow\n"
        "machine = default\n"
        "kernel = triad:n=2097152\n"
        "variant = warm-1c: protocol=warm cores=0 reps=3\n"));
    ASSERT_EQ(resp.status, 202) << resp.body;
    const std::string id = jsonField(resp.body, "id");

    ASSERT_TRUE(client.request(
        "GET", "/v1/campaigns/" + id + "/analysis", &resp));
    if (resp.status != 200) { // finished-already is legal, just rare
        EXPECT_EQ(resp.status, 409);
        EXPECT_NE(resp.body.find("not finished"), std::string::npos);
    }
    queue_->waitFor(id, 120.0);
}

TEST(HttpServiceRateLimit, OverRateClientsGet429ButHealthzPasses)
{
    JobQueueOptions qopts;
    qopts.workers = 1;
    JobQueue queue(qopts);
    SessionTable sessions(SessionOptions{/*ratePerSec=*/0.001,
                                         /*burst=*/2.0,
                                         /*logRequests=*/false});
    ApiHandler api(queue, sessions);

    HttpServerOptions hopts;
    hopts.port = 0;
    hopts.workers = 2;
    HttpServer server(hopts);
    server.start(
        [&api](const HttpRequest &req) { return api.handle(req); });

    HttpClient client("127.0.0.1", server.port());
    ClientResponse resp;
    // Burst of 2 passes, the third is throttled (unknown tickets are
    // still rate-limited requests).
    ASSERT_TRUE(client.request("GET", "/v1/campaigns/nope", &resp));
    EXPECT_EQ(resp.status, 404);
    ASSERT_TRUE(client.request("GET", "/v1/campaigns/nope", &resp));
    EXPECT_EQ(resp.status, 404);
    ASSERT_TRUE(client.request("GET", "/v1/campaigns/nope", &resp));
    EXPECT_EQ(resp.status, 429);
    // Backpressure responses tell well-behaved clients when to return.
    ASSERT_NE(resp.headers.find("retry-after"), resp.headers.end());
    EXPECT_EQ(resp.headers.at("retry-after"), "1");

    // Liveness probes and metric scrapers bypass the limiter.
    ASSERT_TRUE(client.request("GET", "/healthz", &resp));
    EXPECT_EQ(resp.status, 200);
    ASSERT_TRUE(client.request("GET", "/statsz", &resp));
    EXPECT_EQ(resp.status, 200);
    ASSERT_TRUE(client.request("GET", "/metricsz", &resp));
    EXPECT_EQ(resp.status, 200);

    EXPECT_GE(sessions.stats().rateLimited, 1u);
    server.stop();
}

TEST_F(HttpServiceTest, StatszReportsDedupAndCacheCounters)
{
    HttpClient client("127.0.0.1", server_->port());
    const std::string id = submitAndWait(client, kSpec);

    // Identical resubmission: pure dedup, no new execution.
    ClientResponse resp;
    ASSERT_TRUE(client.request("POST", "/v1/campaigns", &resp,
                               kSpec));
    EXPECT_EQ(resp.status, 200) << resp.body;
    EXPECT_NE(resp.body.find("\"deduplicated\":true"),
              std::string::npos);
    EXPECT_NE(resp.body.find("\"id\":\"" + id + "\""),
              std::string::npos);

    ASSERT_TRUE(client.request("GET", "/statsz", &resp));
    EXPECT_EQ(resp.status, 200);
    EXPECT_NE(resp.body.find("\"executed\":1"), std::string::npos)
        << resp.body;
    EXPECT_NE(resp.body.find("\"deduplicated\":1"),
              std::string::npos);
    EXPECT_NE(resp.body.find("\"stores\":"), std::string::npos);
}

TEST_F(HttpServiceTest, MetricszCountersMoveAcrossSubmitToDone)
{
    HttpClient client("127.0.0.1", server_->port());
    ClientResponse resp;

    // A metric's value on the line "name 3" / "name{labels} 3".
    const auto metricValue = [](const std::string &text,
                                const std::string &name) -> double {
        std::istringstream lines(text);
        for (std::string line; std::getline(lines, line);) {
            if (line.rfind(name, 0) != 0)
                continue;
            const char after = line.size() > name.size()
                                   ? line[name.size()]
                                   : '\0';
            if (after != ' ' && after != '{')
                continue; // prefix of a longer family name
            const size_t sp = line.rfind(' ');
            return std::stod(line.substr(sp + 1));
        }
        ADD_FAILURE() << "metric " << name << " not exposed";
        return -1.0;
    };

    ASSERT_TRUE(client.request("GET", "/metricsz", &resp));
    EXPECT_EQ(resp.status, 200);
    EXPECT_NE(resp.headers["content-type"].find("version=0.0.4"),
              std::string::npos)
        << "Prometheus scrapers key on the 0.0.4 content type";
    const double executedBefore =
        metricValue(resp.body, "rfl_queue_executed_total");

    const std::string id = submitAndWait(client, kSpec);

    ASSERT_TRUE(client.request("GET", "/metricsz", &resp));
    EXPECT_EQ(resp.status, 200);
    // The full submit -> done cycle must be visible in the registry:
    // queue counters, turnaround histogram and HTTP families all move.
    EXPECT_EQ(metricValue(resp.body, "rfl_queue_executed_total"),
              executedBefore + 1);
    EXPECT_GE(metricValue(resp.body, "rfl_queue_submitted_total"),
              1.0);
    EXPECT_GE(
        metricValue(resp.body, "rfl_queue_turnaround_seconds_count"),
        1.0);
    EXPECT_GE(metricValue(resp.body, "rfl_campaign_job_seconds_count"),
              1.0);
    EXPECT_GE(metricValue(resp.body, "rfl_http_requests_total"), 2.0);
    EXPECT_NE(resp.body.find("# TYPE rfl_queue_executed_total counter"),
              std::string::npos);
    EXPECT_NE(resp.body.find(
                  "rfl_http_request_seconds_bucket{endpoint="),
              std::string::npos)
        << "per-endpoint latency histograms must be labeled";

    // /statsz serves the same registry as JSON, same numbers.
    ASSERT_TRUE(client.request("GET", "/statsz", &resp));
    EXPECT_EQ(resp.status, 200);
    EXPECT_NE(resp.body.find("\"executed\":1"), std::string::npos);

    // And the span tree of the finished job is fetchable.
    ASSERT_TRUE(client.request("GET", "/tracez", &resp));
    EXPECT_EQ(resp.status, 400) << "?job=<ticket> is required";
    ASSERT_TRUE(client.request(
        "GET", "/tracez?job=0123456789abcdef", &resp));
    EXPECT_EQ(resp.status, 404);
    ASSERT_TRUE(client.request("GET", "/tracez?job=" + id, &resp));
    EXPECT_EQ(resp.status, 200);
    EXPECT_NE(resp.body.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(resp.body.find("\"name\":\"campaign\""),
              std::string::npos);
    EXPECT_NE(resp.body.find("\"name\":\"simulate\""),
              std::string::npos)
        << "executor-level spans must ride the job's tracer";
}

} // namespace
