/**
 * @file
 * Campaign executor acceptance tests (ISSUE 1 criteria): deterministic
 * results independent of host thread count, 100% cache hits on an
 * identical re-run, and ceiling jobs completing before their sweeps.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "campaign/executor.hh"
#include "campaign/sink.hh"
#include "roofline/platform.hh"
#include "support/cancel.hh"
#include "support/json.hh"

namespace
{

using namespace rfl::campaign;
using rfl::sim::MachineConfig;

CampaignSpec
smallCampaign()
{
    CampaignSpec spec("exec_test");
    spec.addMachine("small", MachineConfig::smallTestMachine());
    spec.addKernels({"daxpy:n=256", "sum:n=512", "dot:n=256"});

    rfl::roofline::MeasureOptions cold;
    cold.repetitions = 1;
    spec.addVariant("cold-1c", cold);

    rfl::roofline::MeasureOptions warm;
    warm.protocol = rfl::roofline::CacheProtocol::Warm;
    warm.repetitions = 1;
    warm.cores = {0, 1};
    spec.addVariant("warm-2c", warm);
    return spec;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(CampaignExecutor, ResultsIndependentOfThreadCount)
{
    const CampaignSpec spec = smallCampaign();

    ExecutorOptions serial;
    serial.threads = 1;
    const CampaignRun run1 = CampaignExecutor(serial).run(spec);

    ExecutorOptions parallel;
    parallel.threads = 4;
    const CampaignRun runN = CampaignExecutor(parallel).run(spec);

    EXPECT_EQ(run1.threadsUsed, 1);
    EXPECT_EQ(runN.threadsUsed, 4);
    EXPECT_EQ(run1.jobs.size(), runN.jobs.size());

    // Byte-identical aggregated CSV.
    const std::string dir1 = ::testing::TempDir() + "rfl_exec_1t";
    const std::string dirN = ::testing::TempDir() + "rfl_exec_4t";
    const std::string csv1 = writeCampaignCsv(run1, dir1, "out");
    const std::string csvN = writeCampaignCsv(runN, dirN, "out");
    const std::string text1 = readFile(csv1);
    EXPECT_FALSE(text1.empty());
    EXPECT_EQ(text1, readFile(csvN));

    // Models agree too.
    for (size_t vi = 0; vi < spec.variants().size(); ++vi) {
        EXPECT_EQ(run1.modelFor(0, vi).peakCompute(),
                  runN.modelFor(0, vi).peakCompute());
        EXPECT_EQ(run1.modelFor(0, vi).peakBandwidth(),
                  runN.modelFor(0, vi).peakBandwidth());
    }
}

TEST(CampaignExecutor, ColdCeilingPartsFanOutWithIdenticalResults)
{
    // A cold ceiling job spreads its parts over the pool; models and
    // measurements must still match a 1-thread run byte for byte.
    CampaignSpec spec = smallCampaign();
    RunOptions nopf;
    nopf.measure.repetitions = 1;
    nopf.prefetchEnabled = false;
    spec.addVariant("nopf-1c", nopf);

    ExecutorOptions serial;
    serial.threads = 1;
    const CampaignRun run1 = CampaignExecutor(serial).run(spec);

    rfl::telemetry::Tracer tracer;
    ExecutorOptions parallel;
    parallel.threads = 4;
    const CampaignRun runN = CampaignExecutor(parallel).run(spec, &tracer);

    ASSERT_EQ(run1.jobs.size(), runN.jobs.size());
    size_t ceilings = 0;
    for (const Job &job : run1.jobs) {
        const JobResult &a = run1.results[job.id];
        const JobResult &b = runN.results[job.id];
        if (job.kind == JobKind::Ceiling) {
            ++ceilings;
            EXPECT_EQ(encodeModel(a.model), encodeModel(b.model));
        } else {
            EXPECT_EQ(encodeMeasurement(a.measurement),
                      encodeMeasurement(b.measurement));
        }
    }

    // One ceiling-part span per part of every ceiling job, each naming
    // its probe.
    const size_t parts =
        rfl::roofline::ceilingParts(spec.machines()[0].config.core)
            .size();
    size_t partSpans = 0;
    for (const rfl::telemetry::SpanRecord &rec : tracer.spans()) {
        if (rec.name != "ceiling-part")
            continue;
        ++partSpans;
        ASSERT_EQ(rec.attrs.size(), 1u);
        EXPECT_EQ(rec.attrs[0].first, "probe");
    }
    EXPECT_EQ(partSpans, ceilings * parts);
}

TEST(CampaignExecutor, SecondRunIsAllCacheHits)
{
    const CampaignSpec spec = smallCampaign();
    const std::string path =
        ::testing::TempDir() + "rfl_exec_cache.jsonl";
    std::remove(path.c_str());

    // First run: everything simulated, everything stored.
    {
        ResultCache cache(path);
        ExecutorOptions opts;
        opts.threads = 2;
        opts.cache = &cache;
        const CampaignRun run = CampaignExecutor(opts).run(spec);
        EXPECT_EQ(run.simulated, run.jobs.size());
        EXPECT_EQ(run.cacheHits, 0u);
        EXPECT_EQ(cache.stats().stores, run.jobs.size());
    }

    // Second run against the same spill file: zero simulation.
    ResultCache cache(path);
    EXPECT_GT(cache.stats().preloaded, 0u);
    ExecutorOptions opts;
    opts.threads = 2;
    opts.cache = &cache;
    const CampaignRun rerun = CampaignExecutor(opts).run(spec);
    EXPECT_EQ(rerun.simulated, 0u);
    EXPECT_EQ(rerun.cacheHits, rerun.jobs.size());

    // And the cached results match a cache-less run byte for byte.
    const CampaignRun fresh = CampaignExecutor(ExecutorOptions{}).run(spec);
    const std::string dirA = ::testing::TempDir() + "rfl_exec_cached";
    const std::string dirB = ::testing::TempDir() + "rfl_exec_fresh";
    EXPECT_EQ(readFile(writeCampaignCsv(rerun, dirA, "out")),
              readFile(writeCampaignCsv(fresh, dirB, "out")));
    std::remove(path.c_str());
}

TEST(CampaignExecutor, ChangingTheSpecOnlyComputesTheDelta)
{
    const std::string path =
        ::testing::TempDir() + "rfl_exec_delta.jsonl";
    std::remove(path.c_str());

    ResultCache cache(path);
    ExecutorOptions opts;
    opts.threads = 2;
    opts.cache = &cache;

    CampaignExecutor(opts).run(smallCampaign());

    // Same campaign plus one new kernel: exactly the two new measure
    // jobs (one per variant) simulate; everything else hits.
    CampaignSpec extended = smallCampaign();
    extended.addKernel("triad:n=256");
    const CampaignRun run = CampaignExecutor(opts).run(extended);
    EXPECT_EQ(run.simulated, 2u);
    EXPECT_EQ(run.cacheHits, run.jobs.size() - 2u);
    std::remove(path.c_str());
}

TEST(CampaignExecutor, MisShapedCachedPayloadIsResimulated)
{
    // A spill line that parses but whose payload has the wrong shape
    // (here a ceiling whose lists are a number and a string) must cost
    // one re-simulation, not the process.
    const CampaignSpec spec = smallCampaign();
    const std::string path =
        ::testing::TempDir() + "rfl_exec_misshaped.jsonl";
    std::remove(path.c_str());

    std::string ceilingKey;
    {
        ResultCache cache(path);
        ExecutorOptions opts;
        opts.cache = &cache;
        const CampaignRun run = CampaignExecutor(opts).run(spec);
        for (const Job &job : run.jobs)
            if (job.kind == JobKind::Ceiling && ceilingKey.empty())
                ceilingKey = job.cacheKey;
    }
    ASSERT_FALSE(ceilingKey.empty());
    {
        // Later lines win: this entry shadows the good one.
        rfl::Json entry = rfl::Json::makeObject();
        entry.set("key", rfl::Json::makeString(ceilingKey));
        entry.set("payload",
                  rfl::Json::parse("{\"compute\":5,\"bandwidth\":\"x\"}"));
        std::ofstream out(path, std::ios::app);
        out << entry.dump() << "\n";
    }

    ResultCache cache(path);
    ExecutorOptions opts;
    opts.threads = 2;
    opts.cache = &cache;
    const CampaignRun run = CampaignExecutor(opts).run(spec);
    EXPECT_EQ(run.simulated, 1u);
    EXPECT_EQ(run.cacheHits, run.jobs.size() - 1u);

    // The re-simulated ceiling overwrote the bad entry...
    std::string payload;
    ASSERT_TRUE(cache.lookup(ceilingKey, &payload));
    EXPECT_NO_THROW(decodeModel(payload));

    // ...and the results match a cache-less run byte for byte.
    const CampaignRun fresh = CampaignExecutor(ExecutorOptions{}).run(spec);
    const std::string dirA = ::testing::TempDir() + "rfl_exec_misshaped";
    const std::string dirB = ::testing::TempDir() + "rfl_exec_clean";
    EXPECT_EQ(readFile(writeCampaignCsv(run, dirA, "out")),
              readFile(writeCampaignCsv(fresh, dirB, "out")));
    for (const Job &job : run.jobs) {
        if (job.kind == JobKind::Ceiling) {
            EXPECT_EQ(encodeModel(run.results[job.id].model),
                      encodeModel(fresh.results[job.id].model));
        }
    }
    std::remove(path.c_str());
}

TEST(CampaignExecutor, CeilingJobsCompleteBeforeTheirSweeps)
{
    const CampaignSpec spec = smallCampaign();
    ExecutorOptions opts;
    opts.threads = 4;
    const CampaignRun run = CampaignExecutor(opts).run(spec);

    // completionOrder records the actual finish sequence; every measure
    // job's ceiling dependency must appear earlier.
    std::vector<size_t> finishedAt(run.jobs.size());
    for (size_t pos = 0; pos < run.completionOrder.size(); ++pos)
        finishedAt[run.completionOrder[pos]] = pos;

    for (const Job &job : run.jobs) {
        for (size_t dep : job.deps) {
            EXPECT_LT(finishedAt[dep], finishedAt[job.id])
                << job.describe(run.spec) << " finished before its "
                << run.jobs[dep].describe(run.spec);
        }
    }

    // Each ceiling produced a usable model with compute + bandwidth roofs.
    for (const Job &job : run.jobs) {
        if (job.kind != JobKind::Ceiling)
            continue;
        const rfl::roofline::RooflineModel &model =
            run.results[job.id].model;
        EXPECT_GT(model.peakCompute(), 0.0);
        EXPECT_GT(model.peakBandwidth(), 0.0);
    }
}

TEST(CampaignExecutor, ExpiredRunBudgetThrowsTimedOut)
{
    // A spec-level `timeout =` is a whole-run wall budget; one that is
    // effectively already spent must surface as TimedOutError from the
    // first drain check, not hang or return a partial grid.
    CampaignSpec spec = smallCampaign();
    spec.setTimeout(1e-9);
    ExecutorOptions opts;
    opts.threads = 2;
    EXPECT_THROW(CampaignExecutor(opts).run(spec), rfl::TimedOutError);
}

TEST(CampaignExecutor, ExpiredJobBudgetThrowsTimedOut)
{
    // Service-side per-job budget (ExecutorOptions::jobTimeoutSeconds)
    // cancels the same way without any spec cooperation.
    const CampaignSpec spec = smallCampaign();
    ExecutorOptions opts;
    opts.threads = 2;
    opts.jobTimeoutSeconds = 1e-9;
    EXPECT_THROW(CampaignExecutor(opts).run(spec), rfl::TimedOutError);
}

TEST(CampaignExecutor, GenerousBudgetsDoNotPerturbTheRun)
{
    CampaignSpec spec = smallCampaign();
    spec.setTimeout(3600.0);
    ExecutorOptions opts;
    opts.jobTimeoutSeconds = 3600.0;
    const CampaignRun run = CampaignExecutor(opts).run(spec);
    EXPECT_EQ(run.measurements().size(), spec.gridSize());
}

TEST(CampaignExecutor, NativeJobsRunAfterThePoolDrains)
{
    // NativeMeasure jobs observe the physical host, so the executor
    // parks them until every pool job has finished and then runs them
    // serially on a quiesced machine: in completionOrder every native
    // job must follow every sim job. Holds whether or not this host
    // grants perf_event_open (the placeholder path schedules the same).
    CampaignSpec spec = smallCampaign();
    spec.addBackend("sim").addBackend("perf");
    ExecutorOptions opts;
    opts.threads = 4;
    const CampaignRun run = CampaignExecutor(opts).run(spec);

    ASSERT_EQ(run.completionOrder.size(), run.jobs.size());
    size_t lastSim = 0;
    size_t firstNative = run.completionOrder.size();
    size_t natives = 0;
    for (size_t pos = 0; pos < run.completionOrder.size(); ++pos) {
        const Job &job = run.jobs[run.completionOrder[pos]];
        if (job.kind == JobKind::NativeMeasure) {
            ++natives;
            firstNative = std::min(firstNative, pos);
        } else {
            lastSim = std::max(lastSim, pos);
        }
    }
    ASSERT_GT(natives, 0u);
    EXPECT_LT(lastSim, firstNative);
}

TEST(CampaignExecutor, GridLookupsWork)
{
    const CampaignSpec spec = smallCampaign();
    const CampaignRun run = CampaignExecutor(ExecutorOptions{}).run(spec);

    const rfl::roofline::Measurement &m = run.measurementFor(0, 0, 0);
    EXPECT_EQ(m.kernel, "daxpy");
    EXPECT_EQ(m.protocol, "cold");
    EXPECT_EQ(m.cores, 1);

    const rfl::roofline::Measurement &w = run.measurementFor(0, 1, 1);
    EXPECT_EQ(w.kernel, "sum");
    EXPECT_EQ(w.protocol, "warm");
    EXPECT_EQ(w.cores, 2);

    EXPECT_EQ(run.measurements().size(), spec.gridSize());
}

} // namespace
