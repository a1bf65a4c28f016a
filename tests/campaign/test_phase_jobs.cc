/**
 * @file
 * Campaign phase-sample job tests.
 *
 * A `phase = <kernel spec> period=N` campaign entry expands into one
 * phase-sample job per (machine, variant), depending on the scenario's
 * ceiling job. The job's PhaseTrajectory must be internally consistent
 * (interval sums equal totals), cache cleanly (round-trip through the
 * JSONL payload, answered from cache on re-run), and flow into the
 * analysis document (analyzeCampaign picks up scenarios, kernel rows
 * and phase rows from one run). Dependent-chain kernels are sampled
 * too, with totals equal to an unsampled run.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/analysis.hh"
#include "campaign/executor.hh"
#include "campaign/job_graph.hh"
#include "campaign/result_cache.hh"
#include "campaign/serialize.hh"
#include "campaign/spec.hh"
#include "kernels/engine.hh"
#include "kernels/registry.hh"
#include "sim/machine.hh"
#include "support/address_arena.hh"

namespace
{

using namespace rfl;
using namespace rfl::campaign;

CampaignSpec
phaseSpec()
{
    CampaignSpec spec("phase-jobs");
    spec.addMachine("small", sim::MachineConfig::smallTestMachine());
    spec.addKernel("daxpy:n=2048");
    spec.addPhase("daxpy:n=2048", 256);
    roofline::MeasureOptions cold;
    cold.repetitions = 1;
    cold.cores = {0};
    spec.addVariant("cold-1c", cold);
    roofline::MeasureOptions warm = cold;
    warm.protocol = roofline::CacheProtocol::Warm;
    spec.addVariant("warm-1c", warm);
    return spec;
}

TEST(PhaseJobGraph, ExpandsOnePhaseJobPerVariant)
{
    const CampaignSpec spec = phaseSpec();
    EXPECT_EQ(spec.gridSize(), 4u); // (1 kernel + 1 phase) x 2 variants
    const JobGraph graph = JobGraph::expand(spec);

    size_t phase_jobs = 0;
    for (const Job &job : graph.jobs()) {
        if (job.kind != JobKind::PhaseSample)
            continue;
        ++phase_jobs;
        ASSERT_EQ(job.deps.size(), 1u) << job.describe(spec);
        EXPECT_EQ(graph.jobs()[job.deps[0]].kind, JobKind::Ceiling);
        EXPECT_EQ(graph.ceilingJobFor(job), job.deps[0]);
        EXPECT_EQ(job.cacheKey.rfind("phase|", 0), 0u);
        EXPECT_NE(job.cacheKey.find("period=256"), std::string::npos);
        EXPECT_NE(job.describe(spec).find("phase=daxpy:n=2048"),
                  std::string::npos);
    }
    EXPECT_EQ(phase_jobs, 2u);
}

TEST(PhaseJobs, RunProducesConsistentTrajectories)
{
    const CampaignSpec spec = phaseSpec();
    CampaignExecutor exec;
    const CampaignRun run = exec.run(spec);

    for (size_t vi = 0; vi < spec.variants().size(); ++vi) {
        const analysis::PhaseTrajectory &traj =
            run.phaseTrajectoryFor(0, 0, vi);
        EXPECT_EQ(traj.kernel, "daxpy");
        EXPECT_EQ(traj.period, 256u);
        ASSERT_FALSE(traj.points.empty());
        double flops = 0, bytes = 0;
        for (const analysis::PhasePoint &p : traj.points) {
            flops += p.flops;
            bytes += p.trafficBytes;
        }
        EXPECT_EQ(flops, traj.totalFlops);
        EXPECT_EQ(bytes, traj.totalTrafficBytes);
        EXPECT_GT(traj.totalFlops, 0.0);
    }
    // Cold streams, warm stays resident: the protocols differ in Q.
    EXPECT_GT(run.phaseTrajectoryFor(0, 0, 0).totalTrafficBytes,
              run.phaseTrajectoryFor(0, 0, 1).totalTrafficBytes);
}

TEST(PhaseJobs, PayloadRoundTripsAndCacheAnswersReruns)
{
    const CampaignSpec spec = phaseSpec();
    ResultCache cache;
    ExecutorOptions opts;
    opts.cache = &cache;

    const CampaignRun first = CampaignExecutor(opts).run(spec);
    EXPECT_EQ(first.cacheHits, 0u);

    // Round-trip the trajectory payload explicitly.
    const analysis::PhaseTrajectory &traj =
        first.phaseTrajectoryFor(0, 0, 0);
    const analysis::PhaseTrajectory back =
        decodePhaseTrajectory(encodePhaseTrajectory(traj));
    EXPECT_EQ(back.kernel, traj.kernel);
    EXPECT_EQ(back.period, traj.period);
    ASSERT_EQ(back.points.size(), traj.points.size());
    for (size_t i = 0; i < back.points.size(); ++i) {
        EXPECT_EQ(back.points[i].flops, traj.points[i].flops);
        EXPECT_EQ(back.points[i].trafficBytes,
                  traj.points[i].trafficBytes);
        EXPECT_EQ(back.points[i].seconds, traj.points[i].seconds);
        EXPECT_EQ(back.points[i].oi, traj.points[i].oi) << i;
        EXPECT_EQ(back.points[i].perf, traj.points[i].perf) << i;
    }

    // Re-run: every job (phase jobs included) answered from cache,
    // with identical trajectories.
    const CampaignRun second = CampaignExecutor(opts).run(spec);
    EXPECT_EQ(second.simulated, 0u);
    EXPECT_EQ(second.cacheHits, second.jobs.size());
    const analysis::PhaseTrajectory &cached =
        second.phaseTrajectoryFor(0, 0, 0);
    EXPECT_EQ(cached.points.size(), traj.points.size());
    EXPECT_EQ(cached.totalFlops, traj.totalFlops);
    EXPECT_EQ(cached.totalSeconds, traj.totalSeconds);
}

TEST(PhaseJobs, LongTrajectoryReloadsFromTheSpill)
{
    // A trajectory has one point per sampling period, so its spill line
    // and its analysis.json grow with the kernel: neither has a fixed
    // largest size. Here both pass half a MiB and must still read back,
    // from the cache that stored it and from a later one on its spill.
    constexpr size_t kLong = 512 * 1024;
    analysis::PhaseTrajectory traj;
    traj.kernel = "dgemm-naive";
    traj.sizeLabel = "n=256";
    traj.protocol = "cold";
    traj.period = 1;
    for (int i = 0; i < 8000; ++i) {
        analysis::PhasePoint p;
        p.flops = 8192.0;
        p.trafficBytes = 640.0 + 64.0 * (i % 7);
        p.seconds = 1.0e-6 / (3.0 + i % 11);
        traj.totalFlops += p.flops;
        traj.totalTrafficBytes += p.trafficBytes;
        traj.totalSeconds += p.seconds;
        traj.points.push_back(p);
    }
    const std::string payload = encodePhaseTrajectory(traj);
    const std::string key = "phase|cfg|dgemm-naive:n=256|period=1|o";
    const std::string path =
        ::testing::TempDir() + "rfl_phase_long_test.jsonl";
    std::remove(path.c_str());
    std::remove((path + ".quarantine").c_str());
    std::string got;
    {
        ResultCache cache(path);
        cache.store(key, payload);
        ASSERT_TRUE(cache.lookup(key, &got));
        EXPECT_EQ(decodePhaseTrajectory(got).points.size(), 8000u);
    }
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_GT(line.size(), kLong);

    ResultCache reload(path);
    EXPECT_EQ(reload.stats().preloaded, 1u);
    EXPECT_EQ(reload.stats().quarantined, 0u);
    ASSERT_TRUE(reload.lookup(key, &got));
    EXPECT_EQ(got, payload);
    const analysis::PhaseTrajectory back = decodePhaseTrajectory(got);
    ASSERT_EQ(back.points.size(), traj.points.size());
    EXPECT_EQ(back.points.back().seconds, traj.points.back().seconds);
    std::remove(path.c_str());

    // analysis.json carries each point's oi and perf too.
    analysis::CampaignAnalysis doc;
    doc.campaign = "phase-long";
    doc.phases.push_back({"small", "cold-1c", back});
    const std::string text = analysis::encodeAnalysis(doc);
    EXPECT_GT(text.size(), kLong);
    EXPECT_EQ(analysis::encodeAnalysis(analysis::decodeAnalysis(text)),
              text);
}

TEST(PhaseJobs, AnalyzeCampaignIngestsEverything)
{
    const CampaignSpec spec = phaseSpec();
    const CampaignRun run = CampaignExecutor().run(spec);
    const analysis::CampaignAnalysis doc =
        analysis::analyzeCampaign(run);

    EXPECT_EQ(doc.campaign, "phase-jobs");
    EXPECT_EQ(doc.scenarios.size(), 2u); // one per variant
    EXPECT_EQ(doc.kernels.size(), 2u);   // 1 kernel x 2 variants
    EXPECT_EQ(doc.phases.size(), 2u);    // 1 phase x 2 variants
    ASSERT_NE(doc.findScenario("small", "cold-1c"), nullptr);
    EXPECT_GT(doc.findScenario("small", "cold-1c")
                  ->model.peakCompute(),
              0.0);
    for (const analysis::KernelRow &r : doc.kernels)
        EXPECT_GT(r.metrics.attainable, 0.0);
    for (const analysis::PhaseRow &r : doc.phases)
        EXPECT_FALSE(r.trajectory.points.empty());
}

TEST(PhaseJobs, DependentChainIsSampled)
{
    // Pointer chasing takes the engine's latency bypass, which skips the
    // batch drains the sampler checks at: the job used to yield a single
    // point. While a period is set its records stay batched.
    const std::string kspec = "pointer-chase:nodes=1024,hops=32768";
    CampaignSpec spec("phase-chase");
    spec.addMachine("small", sim::MachineConfig::smallTestMachine());
    spec.addPhase(kspec, 4096);
    roofline::MeasureOptions cold;
    cold.repetitions = 1;
    cold.cores = {0};
    spec.addVariant("cold-1c", cold);
    const CampaignRun run = CampaignExecutor().run(spec);
    const analysis::PhaseTrajectory &traj = run.phaseTrajectoryFor(0, 0, 0);
    EXPECT_GT(traj.points.size(), 2u);

    // The same region unsampled (samplePhases' protocol, no period):
    // sampling only reads counters, so the totals match bit for bit.
    sim::Machine machine(sim::MachineConfig::smallTestMachine());
    AddressArena::Scope addresses;
    const std::unique_ptr<kernels::Kernel> kernel =
        kernels::createKernel(kspec);
    ASSERT_TRUE(kernel->dependentAccesses());
    machine.setDependentAccesses(true);
    kernel->setLlcHintBytes(machine.config().l3.sizeBytes);
    kernel->init(cold.seed);
    machine.reset();
    machine.flushAllCaches();
    const sim::Machine::Snapshot start = machine.snapshot();
    {
        kernels::SimEngine engine(machine, 0,
                                  machine.config().core.maxVectorDoubles,
                                  cold.useFma);
        kernel->run(engine, 0, 1);
    }
    if (cold.flushAfter)
        machine.flushAllCaches(cold.cores);
    const sim::Machine::Snapshot total = machine.snapshot() - start;
    const uint32_t line = machine.config().l1.lineBytes;
    EXPECT_EQ(traj.totalFlops, static_cast<double>(total.totalFlops()));
    EXPECT_EQ(traj.totalTrafficBytes,
              static_cast<double>(total.totalImc().totalBytes(line)));
    EXPECT_EQ(traj.totalSeconds, machine.regionSeconds(total));
    EXPECT_GT(traj.totalSeconds, 0.0);
}

TEST(PhaseSpec, ParserAcceptsPhaseEntries)
{
    const CampaignSpec spec = parseCampaignSpec(
        "name = p\n"
        "machine = small\n"
        "kernel = sum:n=1024\n"
        "phase = sum:n=1024 period=123\n"
        "phase = daxpy:n=1024\n" // default period
        "variant = cold: protocol=cold cores=0 reps=1\n");
    ASSERT_EQ(spec.phases().size(), 2u);
    EXPECT_EQ(spec.phases()[0].spec, "sum:n=1024");
    EXPECT_EQ(spec.phases()[0].period, 123u);
    EXPECT_EQ(spec.phases()[1].period, 8192u);
}

} // namespace
