/**
 * @file
 * The three in-process campaign workloads — demo-cold, sweep-delta and
 * demo-warm — and the layer probes their traced runs add.
 *
 * One campaign is what a roofline_campaign user waits for: open the
 * result cache, parse the spec, run it on the executor, write the CSV
 * and the analysis report. Each workload repeats that in a closed loop
 * on one thread of control (the executor fans out to Options::threads)
 * and checks every campaign's analysis digest against a 1-thread run of
 * the same spec made in set-up.
 *
 * Traced runs alternate untraced and traced campaigns. Traced ones carry
 * a span Tracer and the simulator's hot-path counters; their timed
 * public calls and span sums give the per-layer metrics, and the gap
 * between the two halves is the tracing overhead.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <random>
#include <sstream>

#include "analysis/analysis.hh"
#include "bench.hh"
#include "campaign/executor.hh"
#include "campaign/job_graph.hh"
#include "campaign/result_cache.hh"
#include "campaign/serialize.hh"
#include "campaign/sink.hh"
#include "campaign/spec.hh"
#include "kernels/engine.hh"
#include "kernels/registry.hh"
#include "roofline/experiment.hh"
#include "roofline/platform.hh"
#include "sim/machine.hh"
#include "support/address_arena.hh"
#include "support/hash.hh"
#include "telemetry/sim_counters.hh"
#include "telemetry/span.hh"

namespace perfbench
{

namespace
{

namespace cp = rfl::campaign;
namespace fs = std::filesystem;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// ------------------------------------------------------------- inputs

const char *const kDemoKernels[] = {
    "sum:n=1048576", "daxpy:n=1048576", "triad:n=4194304",
    "dgemm-opt:n=160", "stencil3:n=1048576",
};

/** roofline_campaign's built-in demo, kernel order permuted by @p seed
 *  (the seed changes nothing else). */
std::string
demoSpec(uint64_t seed)
{
    std::vector<std::string> kernels(std::begin(kDemoKernels),
                                     std::end(kDemoKernels));
    std::mt19937_64 rng(seed);
    for (size_t i = kernels.size() - 1; i > 0; --i)
        std::swap(kernels[i], kernels[uniformIn(rng(), 0, i)]);
    std::string text = "name = demo\nmachine = default\n";
    for (const std::string &k : kernels)
        text += "kernel = " + k + "\n";
    return text +
           "variant = cold-1c: protocol=cold cores=0 reps=1\n"
           "variant = cold-1s: protocol=cold cores=0-3 reps=1 "
           "numa=local\n";
}

/**
 * Working-set bands of MachineConfig::defaultPlatform() (32 KiB L1,
 * 256 KiB L2, 10 MiB L3 per socket). A warm-protocol kernel whose
 * operands fill about half a level is served by that level; the DRAM
 * band is three times the L3. The seed picks each size within +-1% of
 * the band centre, so runs on different seeds do the same work to a
 * few percent (dgemm-opt's work grows as the size to the 1.5th power).
 */
struct Band
{
    const char *name;
    double centreBytes;
};

const Band kBands[] = {
    {"dram", 32.0 * 1024 * 1024},
    {"l3", 3.0 * 1024 * 1024},
    {"l2", 128.0 * 1024},
    {"l1", 16.0 * 1024},
};

/** A sweep kernel family: bytes of operands per size unit. */
struct Family
{
    const char *name;
    const char *param;
    double bytesPerUnit;
    bool squared; ///< size unit is n of an n x n problem
    bool dram;    ///< has a DRAM-band cell
};

/** Costliest first, bands largest first: the executor starts jobs in
 *  spec order, so long jobs do not start last and stretch the wall. */
const Family kFamilies[] = {
    // The compute-bound case; at DRAM size it would take minutes.
    {"dgemm-opt", "n", 24.0, true, false},
    // The latency path: every load depends on the previous one.
    {"pointer-chase", "nodes", 64.0, false, true},
    {"stencil3", "n", 16.0, false, true},
    {"triad", "n", 24.0, false, true},
    {"daxpy", "n", 16.0, false, true},
};

struct SweepCell
{
    std::string label; ///< "<kernel>-<level>"
    std::string spec;  ///< kernel registry spec
};

std::vector<SweepCell>
sweepCells(uint64_t seed)
{
    std::mt19937_64 rng(seed ^ 0x5eedc0ffee ^ (seed << 17));
    std::vector<SweepCell> cells;
    for (const Family &f : kFamilies) {
        for (const Band &b : kBands) {
            if (!f.dram && std::string(b.name) == "dram")
                continue;
            const double bytes =
                b.centreBytes *
                (0.99 + 0.02 * static_cast<double>(rng() % 1001) / 1000);
            double units = bytes / f.bytesPerUnit;
            uint64_t size;
            if (f.squared)
                size = 4 * static_cast<uint64_t>(std::sqrt(units) / 4);
            else
                size = 8 * static_cast<uint64_t>(units / 8);
            cells.push_back({std::string(f.name) + "-" + b.name,
                             std::string(f.name) + ":" + f.param + "=" +
                                 std::to_string(size)});
        }
    }
    return cells;
}

std::string
sweepSpec(uint64_t seed)
{
    std::string text = "name = sweep-delta\nmachine = default\n";
    for (const SweepCell &c : sweepCells(seed))
        text += "kernel = " + c.spec + "\n";
    return text + "variant = warm-1c: protocol=warm cores=0 reps=1\n";
}

// ---------------------------------------------------------- campaigns

/** One campaign and what its layers cost. */
struct CampaignIteration
{
    cp::CampaignRun run;
    double wallS = 0.0; ///< open cache .. report written
    double cpuS = 0.0;  ///< process CPU over the same window
    /** Process peak RSS over the same window, above the RSS it
     *  started from. */
    double peakRssMib = 0.0;
    /** Per-layer values; filled for traced campaigns only. */
    std::map<std::string, double> layers;
};

/** The analysis document's encoding: what every campaign is checked
 *  against. Timed, since analyze and encode are layers of their own. */
std::string
analysisDigest(const cp::CampaignRun &run,
               std::map<std::string, double> *layers)
{
    const auto t0 = Clock::now();
    const rfl::analysis::CampaignAnalysis doc =
        rfl::analysis::analyzeCampaign(run);
    const auto t1 = Clock::now();
    const std::string text = rfl::analysis::encodeAnalysis(doc);
    const auto t2 = Clock::now();
    if (layers) {
        (*layers)["analysis.analyze_ms"] = msBetween(t0, t1);
        (*layers)["analysis.encode_ms"] = msBetween(t1, t2);
    }
    return rfl::hashToHex(rfl::Fnv1a().mix(text).value());
}

/**
 * Run one campaign of @p specText against a cache spilled to @p spill
 * ("" = in memory), writing artifacts into @p outDir, emptied first.
 *
 * Each campaign writes into an empty directory, as a run with a fresh
 * RFL_OUT_DIR does: ext4 (auto_da_alloc) flushes a file that replaces
 * an existing one when it is closed, which costs 60-100 ms per file on
 * a virtio disk and would make the sinks measure the disk.
 */
CampaignIteration
runCampaign(const std::string &specText, const std::string &spill,
            const std::string &outDir, int threads, bool traced)
{
    fs::remove_all(outDir);
    fs::create_directories(outDir);
    rfl::telemetry::setSimTelemetryEnabled(traced);
    if (traced)
        rfl::telemetry::simCounters().reset();
    rfl::telemetry::Tracer tracer;

    CampaignIteration it;
    resetPeakRss();
    const double rss0 = peakRssMib();
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    std::unique_ptr<cp::ResultCache> cache =
        spill.empty() ? std::make_unique<cp::ResultCache>()
                      : std::make_unique<cp::ResultCache>(spill);
    const auto t1 = Clock::now();
    const cp::CampaignSpec spec = cp::parseCampaignSpec(specText);
    const auto t2 = Clock::now();
    cp::ExecutorOptions eopts;
    eopts.threads = threads;
    eopts.cache = cache.get();
    eopts.traceDir = outDir + "/traces";
    it.run = cp::CampaignExecutor(eopts).run(spec,
                                             traced ? &tracer : nullptr);
    const auto t3 = Clock::now();
    cp::writeCampaignCsv(it.run, outDir, spec.name());
    const auto t4 = Clock::now();
    std::ostringstream summary;
    cp::writeCampaignReport(it.run, outDir, summary);
    const auto t5 = Clock::now();
    it.wallS = std::chrono::duration<double>(t5 - t0).count();
    it.cpuS = processCpuSeconds() - cpu0;
    it.peakRssMib = peakRssMib() - rss0;
    rfl::telemetry::setSimTelemetryEnabled(false);
    if (!traced)
        return it;

    // Everything below is outside the campaign's timed window.
    std::map<std::string, double> &l = it.layers;
    const auto g0 = Clock::now();
    const cp::JobGraph graph = cp::JobGraph::expand(spec);
    l["job_graph.expand_ms"] = msBetween(g0, Clock::now());
    l["job_graph.ceiling_jobs"] = static_cast<double>(graph.ceilingJobs());
    l["job_graph.measure_jobs"] = static_cast<double>(graph.measureJobs());
    l["spec.parse_ms"] = msBetween(t1, t2);
    l["result_cache.load_ms"] = msBetween(t0, t1);
    l["sink.csv_ms"] = msBetween(t3, t4);
    l["sink.report_ms"] = msBetween(t4, t5);

    const double runS = std::chrono::duration<double>(t3 - t2).count();
    l["executor.run_s"] = runS;
    for (const char *kind : {"ceiling", "measure"}) {
        const auto k = it.run.jobsByKind.find(kind);
        if (k == it.run.jobsByKind.end())
            continue;
        l[std::string("executor.") + kind + "_wall_s"] = k->second.seconds;
        l[std::string("executor.") + kind + "_cpu_s"] =
            k->second.cpuSeconds;
    }
    const SpanSums sums = sumSpans(tracer.spans());
    l["executor.stage.cache_probe_s"] = sums.cacheProbeS;
    l["executor.stage.machine_build_s"] = sums.machineBuildS;
    l["executor.stage.simulate_s"] = sums.simulateS;
    l["executor.stage.encode_s"] = sums.encodeS;
    // Makespan lower bound: no schedule beats the longest job, nor the
    // total job CPU spread evenly over the threads.
    double jobCpu = 0.0;
    for (const cp::JobResult &r : it.run.results)
        jobCpu += r.resources.cpuSeconds();
    const double threadsUsed = std::max(1, it.run.threadsUsed);
    const double bound = std::max(sums.longestJobS, jobCpu / threadsUsed);
    l["executor.makespan_bound_s"] = bound;
    l["executor.makespan_gap"] = bound > 0.0 ? runS / bound : 0.0;
    l["executor.busy_frac"] =
        runS > 0.0 ? sums.jobWallS / (threadsUsed * runS) : 0.0;

    const cp::CacheStats cs = cache->stats();
    const double lookups = static_cast<double>(cs.hits + cs.misses);
    l["result_cache.hits"] = static_cast<double>(cs.hits);
    l["result_cache.misses"] = static_cast<double>(cs.misses);
    l["result_cache.stores"] = static_cast<double>(cs.stores);
    l["result_cache.lookups"] = lookups;
    l["result_cache.hit_ratio"] =
        lookups > 0 ? static_cast<double>(cs.hits) / lookups : 0.0;
    std::error_code ec;
    const uintmax_t bytes = spill.empty() ? 0 : fs::file_size(spill, ec);
    l["result_cache.spill_bytes"] = ec ? 0.0 : static_cast<double>(bytes);

    const rfl::telemetry::SimCounters &sc = rfl::telemetry::simCounters();
    l["sim.records"] = static_cast<double>(sc.records.load());
    l["sim.coalesced_runs"] = static_cast<double>(sc.coalescedRuns.load());
    l["sim.records_per_run"] =
        sc.coalescedRuns.load() > 0
            ? static_cast<double>(sc.coalescedRecords.load()) /
                  static_cast<double>(sc.coalescedRuns.load())
            : 0.0;
    return it;
}

/** How one workload drives its campaigns. */
struct CampaignCase
{
    std::string specText;
    std::string spill; ///< "" = in-memory cache
    std::string outDir;
    /** Analysis digest of the 1-thread set-up run. */
    std::string digest;
    /** Outside the timed window, before each campaign. */
    std::function<void()> beforeEach;
    /** Workload-specific output checks. */
    std::function<void(const cp::CampaignRun &, Outcome &)> check;
};

/** Closed loop of campaigns for Options::seconds; see file comment. */
void
measureCampaigns(const Options &opts, const CampaignCase &c, Outcome &out)
{
    std::vector<double> walls, tracedWalls;
    double cpuSum = 0.0;
    std::map<std::string, std::vector<double>> layers;
    size_t campaigns = 0;
    const auto start = Clock::now();
    for (;;) {
        const bool traced = opts.trace && campaigns % 2 == 1;
        if (c.beforeEach)
            c.beforeEach();
        CampaignIteration it = runCampaign(c.specText, c.spill, c.outDir,
                                           opts.threads, traced);
        ++campaigns;
        std::fprintf(stderr, "perfbench: campaign %zu%s: %.4f s wall, "
                             "%.4f s cpu, %.1f MiB peak rss\n",
                     campaigns, traced ? " (traced)" : "", it.wallS,
                     it.cpuS, it.peakRssMib);
        const std::string digest =
            analysisDigest(it.run, traced ? &it.layers : nullptr);
        out.check(digest == c.digest,
                  "analysis digest " + digest + " != set-up digest " +
                      c.digest);
        if (c.check)
            c.check(it.run, out);
        if (traced) {
            tracedWalls.push_back(it.wallS);
            for (const auto &[name, value] : it.layers)
                layers[name].push_back(value);
        } else {
            walls.push_back(it.wallS);
            cpuSum += it.cpuS;
        }
        const bool long_enough = secondsSince(start) >= opts.seconds;
        const bool both_halves = !opts.trace || !tracedWalls.empty();
        if (long_enough && both_halves && walls.size() >= 3)
            break;
    }
    const double elapsed = secondsSince(start);

    out.metrics["campaign_wall_s"] = median(walls);
    // CPU time is summed, not medianed: the kernel accounts it in ticks,
    // coarse next to one warm campaign.
    out.metrics["cpu_s"] = cpuSum / static_cast<double>(walls.size());
    out.metrics["campaigns_per_s"] =
        static_cast<double>(campaigns) / elapsed;
    for (const auto &[name, values] : layers)
        out.metrics[name] = median(values);
    if (opts.trace) {
        out.metrics["telemetry.trace_overhead_frac"] =
            median(tracedWalls) / median(walls) - 1.0;
    }
}

/**
 * Run @p setup Options::setups times; setup_s is the median time, and
 * process.peak_rss_mib the median of what @p setup returns: the peak
 * RSS its 1-thread reference campaign added. One thread runs the jobs
 * one at a time, so the peak does not hang on how jobs happened to
 * overlap; with 4 threads that moved it by a factor of two between runs.
 */
void
timeSetups(const Options &opts, const std::function<double()> &setup,
           Outcome &out)
{
    std::vector<double> times, rss;
    for (int i = 0; i < opts.setups; ++i) {
        const auto t0 = Clock::now();
        rss.push_back(setup());
        times.push_back(secondsSince(t0));
    }
    out.metrics["setup_s"] = median(times);
    out.metrics["process.peak_rss_mib"] = median(rss);
}

void
checkAllSimulated(const cp::CampaignRun &run, Outcome &out)
{
    out.check(run.simulated == run.jobs.size() && run.cacheHits == 0,
              "cold campaign answered jobs from the cache");
}

// ------------------------------------------------------- layer probes

/**
 * Time every public PlatformProbe call characterize() is made of, on
 * each scenario of @p spec, next to characterize() itself. Their
 * difference is what characterize() repeats (the Read probe runs both
 * on its own and inside bestBandwidth). Checks each model against the
 * campaign's ceiling for the scenario.
 */
void
probePlatform(const cp::CampaignSpec &spec, const cp::CampaignRun &ref,
              Outcome &out)
{
    namespace rl = rfl::roofline;
    const cp::MachineEntry &machine = spec.machines().front();
    const rfl::sim::CoreConfig &core = machine.config.core;
    std::map<std::string, double> &m = out.metrics;
    double characterizeTotal = 0.0, computeTotal = 0.0, probeTotal = 0.0;

    for (size_t v = 0; v < spec.variants().size(); ++v) {
        const cp::RunOptions &o = spec.variants()[v].opts;
        const auto experiment = [&] {
            auto e = std::make_unique<rl::Experiment>(machine.config);
            e->machine().setMemPolicy(o.memPolicy);
            e->machine().setPrefetchEnabled(o.prefetchEnabled);
            return e;
        };
        const std::vector<int> &cores = o.measure.cores;

        auto exp = experiment();
        auto t0 = Clock::now();
        const rl::RooflineModel model = exp->probe().characterize(cores);
        const double characterizeS = secondsSince(t0);
        m["platform.characterize_s." + spec.variants()[v].label] =
            characterizeS;
        characterizeTotal += characterizeS;
        out.check(cp::encodeModel(model) ==
                      cp::encodeModel(ref.modelFor(0, v)),
                  "characterize() disagrees with the campaign ceiling");

        exp = experiment();
        std::vector<std::pair<int, bool>> peaks = {{1, false}};
        if (core.hasFma)
            peaks.push_back({1, true});
        if (core.maxVectorDoubles > 1) {
            peaks.push_back({core.maxVectorDoubles, false});
            if (core.hasFma)
                peaks.push_back({core.maxVectorDoubles, true});
        }
        for (const auto &[lanes, fma] : peaks) {
            t0 = Clock::now();
            out.check(exp->probe().computePeak(cores, lanes, fma) > 0.0,
                      "computePeak() returned no flops");
            computeTotal += secondsSince(t0);
        }
        for (rl::BwProbe p : rl::allBwProbes()) {
            t0 = Clock::now();
            out.check(exp->probe().bandwidthPeak(cores, p).bytesPerSec >
                          0.0,
                      "bandwidthPeak() returned no bandwidth");
            const double s = secondsSince(t0);
            m[std::string("platform.bw_probe_s.") + rl::bwProbeName(p)] +=
                s;
            probeTotal += s;
        }
    }
    m["platform.characterize_s"] = characterizeTotal;
    m["platform.compute_peak_s"] = computeTotal;
    m["platform.probe_sum_s"] = computeTotal + probeTotal;
}

/**
 * Host nanoseconds per simulated L1 demand access of each sweep cell,
 * run directly on SimEngine + Machine: one warming pass, then one
 * timed pass bracketed by Machine::snapshot().
 */
void
probeSimKernels(const std::vector<SweepCell> &cells,
                const rfl::sim::MachineConfig &config, Outcome &out)
{
    namespace ks = rfl::kernels;
    for (const SweepCell &cell : cells) {
        rfl::sim::Machine machine(config);
        rfl::AddressArena::Scope addresses;
        const std::unique_ptr<ks::Kernel> kernel =
            ks::createKernel(cell.spec);
        kernel->init(42);
        machine.setDependentAccesses(kernel->dependentAccesses());
        const int lanes = config.core.maxVectorDoubles;
        {
            ks::SimEngine warm(machine, 0, lanes, true);
            kernel->run(warm, 0, 1);
        }
        const rfl::sim::Machine::Snapshot before = machine.snapshot();
        const auto t0 = Clock::now();
        {
            ks::SimEngine engine(machine, 0, lanes, true);
            kernel->run(engine, 0, 1);
        }
        const double ns =
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count();
        const rfl::sim::Machine::Snapshot d = machine.snapshot() - before;
        double accesses = 0.0;
        for (const auto &l1 : d.l1) {
            accesses += static_cast<double>(l1.readHits + l1.readMisses +
                                            l1.writeHits + l1.writeMisses);
        }
        out.check(accesses > 0, cell.label + " made no L1 accesses");
        out.metrics["sim.accesses." + cell.label] = accesses;
        out.metrics["sim.ns_per_access." + cell.label] =
            accesses > 0 ? ns / accesses : 0.0;
    }
}

} // namespace

std::vector<std::string>
sweepCellLabels()
{
    std::vector<std::string> labels;
    for (const SweepCell &c : sweepCells(0))
        labels.push_back(c.label);
    return labels;
}

std::vector<std::string>
demoScenarioLabels()
{
    std::vector<std::string> labels;
    const cp::CampaignSpec spec = cp::parseCampaignSpec(demoSpec(0));
    for (const cp::Variant &v : spec.variants())
        labels.push_back(v.label);
    return labels;
}

// ---------------------------------------------------------- workloads

void
runDemoCold(const Options &opts, Outcome &out)
{
    CampaignCase c;
    c.specText = demoSpec(opts.seed);
    c.outDir = opts.workDir + "/out";
    cp::CampaignRun ref;
    timeSetups(opts, [&] {
        CampaignIteration it = runCampaign(
            c.specText, "", opts.workDir + "/reference", 1, false);
        c.digest = analysisDigest(it.run, nullptr);
        ref = std::move(it.run);
        return it.peakRssMib;
    }, out);
    c.check = checkAllSimulated;
    measureCampaigns(opts, c, out);
    if (opts.trace)
        probePlatform(cp::parseCampaignSpec(c.specText), ref, out);
}

void
runSweepDelta(const Options &opts, Outcome &out)
{
    CampaignCase c;
    c.specText = sweepSpec(opts.seed);
    c.outDir = opts.workDir + "/out";
    c.spill = opts.workDir + "/spill.jsonl";
    const std::string seeded = opts.workDir + "/ceilings.jsonl";
    const cp::CampaignSpec spec = cp::parseCampaignSpec(c.specText);
    // Every campaign, the 1-thread reference included, starts from a
    // fresh copy of the seeded spill (a new file: see runCampaign).
    const auto reseed = [&] {
        fs::remove(c.spill);
        fs::copy_file(seeded, c.spill);
    };

    timeSetups(opts, [&] {
        // The ceilings the edited sweep still shares with its previous
        // run: characterized exactly as the executor's ceiling job does.
        fs::remove(seeded);
        {
            cp::ResultCache spill(seeded);
            const cp::MachineEntry &m = spec.machines().front();
            for (const cp::Variant &v : spec.variants()) {
                rfl::roofline::Experiment exp(m.config);
                exp.machine().setMemPolicy(v.opts.memPolicy);
                exp.machine().setPrefetchEnabled(v.opts.prefetchEnabled);
                spill.store(cp::ceilingCacheKey(m.config, v.opts),
                            cp::encodeModel(exp.probe().characterize(
                                v.opts.measure.cores)));
            }
        }
        reseed();
        CampaignIteration it = runCampaign(
            c.specText, c.spill, opts.workDir + "/reference", 1, false);
        c.digest = analysisDigest(it.run, nullptr);
        return it.peakRssMib;
    }, out);

    c.beforeEach = reseed;
    const size_t ceilingJobs = cp::JobGraph::expand(spec).ceilingJobs();
    c.check = [ceilingJobs](const cp::CampaignRun &run, Outcome &o) {
        o.check(run.cacheHits == ceilingJobs &&
                    run.simulated == run.jobs.size() - ceilingJobs,
                "sweep-delta must simulate every measure job and no "
                "ceiling");
    };
    measureCampaigns(opts, c, out);
    if (opts.trace)
        probeSimKernels(sweepCells(opts.seed),
                        spec.machines().front().config, out);
}

void
runDemoWarm(const Options &opts, Outcome &out)
{
    CampaignCase c;
    c.specText = demoSpec(opts.seed);
    c.outDir = opts.workDir + "/out";
    c.spill = opts.workDir + "/spill.jsonl";
    timeSetups(opts, [&] {
        // A cold 1-thread run writes the spill and gives the digest; a
        // warm 1-thread run from it must agree, and gives the memory.
        fs::remove(c.spill);
        c.digest = analysisDigest(
            runCampaign(c.specText, c.spill, opts.workDir + "/reference", 1,
                        false)
                .run,
            nullptr);
        CampaignIteration warm = runCampaign(
            c.specText, c.spill, opts.workDir + "/reference", 1, false);
        out.check(analysisDigest(warm.run, nullptr) == c.digest,
                  "warm reference disagrees with the cold one");
        return warm.peakRssMib;
    }, out);
    c.check = [](const cp::CampaignRun &run, Outcome &o) {
        o.check(run.simulated == 0 && run.cacheHits == run.jobs.size(),
                "demo-warm simulated a job the spill should answer");
    };
    measureCampaigns(opts, c, out);
}

} // namespace perfbench
