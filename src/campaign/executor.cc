#include "campaign/executor.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <thread>

#include "analysis/phase.hh"
#include "kernels/engine.hh"
#include "kernels/registry.hh"
#include "pmu/perf_backend.hh"
#include "roofline/native_measurement.hh"
#include "roofline/platform.hh"
#include "roofline/plot.hh"
#include "support/address_arena.hh"
#include "support/cancel.hh"
#include "support/failpoint.hh"
#include "support/hash.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/number_format.hh"
#include "support/thread_pool.hh"
#include "telemetry/metrics.hh"
#include "telemetry/resource.hh"
#include "telemetry/sim_counters.hh"
#include "trace/trace_file.hh"
#include "trace/trace_kernel.hh"

namespace rfl::campaign
{

namespace
{

/** Shared state of one run(); workers touch it only under mutex. */
struct RunState
{
    std::mutex mutex;
    std::vector<size_t> remainingDeps; // per job
    std::vector<std::vector<size_t>> dependents;
    std::vector<size_t> completionOrder;
    std::vector<size_t> nativeQueue; // ready NativeMeasure jobs, parked
    std::map<std::string, CampaignRun::KindStats> jobsByKind;
    std::atomic<size_t> simulated{0};
    std::atomic<size_t> cacheHits{0};
    telemetry::ResourceDelta resources; // run totals, under mutex
};

/** Process-global campaign metrics; registered once, bumped per job. */
struct CampaignMetrics
{
    telemetry::Counter &cacheHits;
    telemetry::Counter &cacheMisses;
    telemetry::Histogram &jobSeconds;
};

CampaignMetrics &
campaignMetrics()
{
    telemetry::Registry &reg = telemetry::Registry::global();
    static CampaignMetrics m{
        reg.counter("rfl_campaign_cache_hits_total",
                    "campaign jobs answered by the result cache"),
        reg.counter("rfl_campaign_cache_misses_total",
                    "campaign jobs that had to execute"),
        reg.histogram("rfl_campaign_job_seconds",
                      "host wall seconds per executed campaign job"),
    };
    return m;
}

/** rfl_job_cpu_seconds{kind=}: registration is idempotent, so looking
 *  it up per finished job is just a map find under the registry lock —
 *  negligible next to a simulation job. */
telemetry::Histogram &
jobCpuHistogram(const char *kind)
{
    return telemetry::Registry::global().histogram(
        "rfl_job_cpu_seconds",
        "thread CPU seconds (user+system) per executed campaign job",
        {{"kind", kind}});
}

using telemetry::StageSpan;

/**
 * Between-stage seam of a job: deadline check plus named fault
 * injection. An error-action failpoint fails the job via fatal()
 * (which throws in service mode), a throw-action one throws
 * FailpointError directly; either way the job fails cleanly between
 * stages, never mid-simulation.
 */
void
stageGate(const char *failpointName, const char *stage)
{
    checkCancelled(stage);
    if (failpoint::fire(failpointName))
        fatal("campaign: injected fault before %s stage", stage);
}

/**
 * Build @p machine from @p config under the variant's memory policy and
 * prefetch setting: the simulated machine of one scenario.
 */
sim::Machine &
buildScenarioMachine(std::optional<sim::Machine> &machine,
                     const sim::MachineConfig &config,
                     const RunOptions &opts)
{
    machine.emplace(config);
    machine->setMemPolicy(opts.memPolicy);
    machine->setPrefetchEnabled(opts.prefetchEnabled);
    return *machine;
}

/**
 * Record one traced kernel's access stream into a content-addressed
 * file under @p trace_dir. The stream depends only on the kernel spec
 * and the record parameters (machine max lanes, fixed seed) — see
 * traceRecordCacheKey — so the final file name (the stream's stable
 * hash) is deterministic across processes.
 */
TraceInfo
recordTrace(const sim::MachineConfig &config, const std::string &spec,
            const std::string &trace_dir, size_t job_id)
{
    namespace fs = std::filesystem;
    fs::create_directories(trace_dir);

    // Unique scratch name: job ids restart at 0 in every process and
    // two processes may race on the same spec in a shared traceDir, so
    // the name needs a per-process random component on top of the job
    // id — the rename to the content-addressed name is atomic either
    // way, but the scratch files must never alias.
    static const uint64_t process_nonce = std::random_device{}();
    const std::string tmp =
        trace_dir + "/.recording-" + std::to_string(job_id) + "-" +
        hashToHex(Fnv1a()
                      .mix(spec)
                      .mix(process_nonce)
                      .mix(static_cast<uint64_t>(
                          std::chrono::steady_clock::now()
                              .time_since_epoch()
                              .count()))
                      .value()) +
        ".tmp";

    const TraceRecordParams params = traceRecordParams(config);
    std::optional<sim::Machine> machine;
    AddressArena::Scope scope;
    std::unique_ptr<kernels::Kernel> kernel;
    stageGate("job.machine-build", "machine-build");
    {
        StageSpan build("machine-build");
        machine.emplace(config);
        kernel = kernels::createKernel(spec);
        kernel->init(params.seed);
        machine->setDependentAccesses(kernel->dependentAccesses());
    }

    trace::TraceWriter writer(tmp);
    writer.setDependentAccesses(kernel->dependentAccesses());
    stageGate("job.simulate", "simulate");
    {
        StageSpan sim("simulate");
        kernels::SimEngine engine(*machine, 0, params.lanes,
                                  /*use_fma=*/true);
        engine.setTraceWriter(&writer);
        kernel->run(engine, 0, 1);
    }

    stageGate("job.encode", "encode");
    StageSpan encode("encode");
    writer.finish();

    TraceInfo info;
    info.summary = writer.summary();
    info.path = trace_dir + "/" + hashToHex(info.summary.hash) +
                ".rfltrace";
    std::error_code ec;
    fs::rename(tmp, info.path, ec);
    if (ec) {
        fatal("campaign: cannot move trace to '%s': %s",
              info.path.c_str(), ec.message().c_str());
    }
    return info;
}

/** @return whether the cached trace file still exists and matches. */
bool
traceFileValid(const TraceInfo &info)
{
    trace::TraceReader reader;
    return reader.open(info.path) &&
           reader.stableHash() == info.summary.hash;
}

/** What a job may hand to other threads of its run: the run's pool,
 *  and the tracer and deadline a helper thread must bind. */
struct JobContext
{
    ThreadPool &pool;
    telemetry::Tracer *tracer;
    const CancelToken &token;
};

/**
 * Claim rank of a ceiling part: longest first, so the parts claimed
 * last are the sub-millisecond compute peaks and the loop ends with a
 * short tail. Per-part cost on `default` with one core: triad ~0.55 s,
 * scale 0.35 s, copy 0.33 s, read 0.19 s, nt-set 0.09 s.
 */
int
claimRank(const roofline::CeilingPart &part)
{
    if (part.compute)
        return 5;
    switch (part.probe) {
      case roofline::BwProbe::Triad: return 0;
      case roofline::BwProbe::Scale: return 1;
      case roofline::BwProbe::Copy: return 2;
      case roofline::BwProbe::Read: return 3;
      case roofline::BwProbe::NtSet: return 4;
    }
    return 5;
}

/**
 * A cold ceiling job: the scenario's ceiling parts fanned across the
 * run's pool (ThreadPool::parallelFor, so this thread claims parts
 * too). Every part measures on its own Machine built from @p config
 * with the variant's memory policy and prefetch setting; the values
 * merge in the fixed part order, so the model is byte-identical to
 * PlatformProbe::characterize() for any thread count. The CPU that
 * helper threads spend is added to @p helperUsage.
 */
roofline::RooflineModel
characterizeParts(const JobContext &ctx, const sim::MachineConfig &config,
                  const RunOptions &opts,
                  telemetry::ResourceDelta &helperUsage)
{
    const std::vector<roofline::CeilingPart> parts =
        roofline::ceilingParts(config.core);
    std::vector<size_t> order(parts.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return claimRank(parts[a]) < claimRank(parts[b]);
    });

    std::vector<double> values(parts.size());
    std::mutex usageMutex;
    const std::thread::id jobThread = std::this_thread::get_id();
    ctx.pool.parallelFor(order.size(), [&](size_t k) {
        const roofline::CeilingPart &part = parts[order[k]];
        // The job's thread already has its deadline, tracer and CPU
        // bracket in place; a helper thread binds its own and adds the
        // part's CPU to the job's.
        const bool helper = std::this_thread::get_id() != jobThread;
        std::optional<CancelScope> cancelScope;
        std::optional<telemetry::TraceScope> traceScope;
        if (helper) {
            cancelScope.emplace(&ctx.token);
            traceScope.emplace(ctx.tracer);
        }
        // The span carries the part's own CPU time, free of its
        // neighbours' contention.
        StageSpan span("ceiling-part");
        span.attr("probe", part.name);
        std::optional<sim::Machine> machine;
        values[order[k]] =
            roofline::PlatformProbe(
                buildScenarioMachine(machine, config, opts))
                .measurePart(opts.measure.cores, part);
        if (helper) {
            std::lock_guard<std::mutex> lock(usageMutex);
            helperUsage.add(span.usage());
        }
    });
    return roofline::assembleCeilings(parts, values);
}

/** Fill @p result from a cached payload of a @p kind job; JsonError on
 *  a payload of the wrong shape. */
void
decodeResult(JobKind kind, const std::string &payload, JobResult &result)
{
    switch (kind) {
      case JobKind::Ceiling:
        result.model = decodeModel(payload);
        return;
      case JobKind::TraceRecord:
        result.trace = decodeTraceInfo(payload);
        return;
      case JobKind::PhaseSample:
        result.phases = decodePhaseTrajectory(payload);
        return;
      default:
        result.measurement = decodeMeasurement(payload);
        return;
    }
}

/** The cache payload of a finished @p kind job (see decodeResult). */
std::string
encodeResult(JobKind kind, const JobResult &result)
{
    switch (kind) {
      case JobKind::Ceiling: return encodeModel(result.model);
      case JobKind::TraceRecord: return encodeTraceInfo(result.trace);
      case JobKind::PhaseSample:
        return encodePhaseTrajectory(result.phases);
      default: return encodeMeasurement(result.measurement);
    }
}

/** Execute one job (cache lookup, else simulate + store).
 *  @p results carries completed dependencies (a replay reads its
 *  recording's file path from them). */
JobResult
executeJob(const CampaignSpec &spec, const Job &job,
           const std::vector<JobResult> &results,
           const ExecutorOptions &exec_opts, const JobContext &ctx,
           std::atomic<size_t> &simulated, std::atomic<size_t> &cacheHits)
{
    ResultCache *cache = exec_opts.cache;
    JobResult result;

    std::string payload;
    {
        telemetry::Span probe("cache-probe");
        if (cache && cache->lookup(job.cacheKey, &payload)) {
            result.fromCache = true;
            bool valid = true;
            // A payload of the wrong shape (hand-edited spill, other
            // writer) costs one re-simulation, like a pruned trace.
            try {
                decodeResult(job.kind, payload, result);
                // A cached recording is only as good as the file it
                // points at: someone may have pruned the trace
                // directory.
                if (job.kind == JobKind::TraceRecord)
                    valid = traceFileValid(result.trace);
            } catch (const JsonError &) {
                valid = false;
            }
            if (valid) {
                probe.attr("outcome", "hit");
                ++cacheHits;
                campaignMetrics().cacheHits.inc();
                return result;
            }
            probe.attr("outcome", "stale");
            result = JobResult{};
        } else {
            probe.attr("outcome", "miss");
        }
    }
    campaignMetrics().cacheMisses.inc();

    const MachineEntry &machine = spec.machines()[job.machineIndex];
    const RunOptions &opts = spec.variants()[job.variantIndex].opts;

    switch (job.kind) {
      case JobKind::Ceiling: {
        // Each part builds its own Machine inside the simulate stage,
        // so a ceiling job has no machine-build span; both gates still
        // fire once, in the same order as for every other kind.
        stageGate("job.machine-build", "machine-build");
        stageGate("job.simulate", "simulate");
        StageSpan sim("simulate");
        result.model = characterizeParts(ctx, machine.config, opts,
                                         result.resources);
        break;
      }
      case JobKind::Measure: {
        std::optional<sim::Machine> sim_machine;
        stageGate("job.machine-build", "machine-build");
        {
            StageSpan build("machine-build");
            buildScenarioMachine(sim_machine, machine.config, opts);
        }
        stageGate("job.simulate", "simulate");
        StageSpan sim("simulate");
        // Canonical simulated addresses for the kernel's operands, so
        // the measurement is reproducible across processes, heap states
        // and host threads (see support/address_arena.hh).
        AddressArena::Scope addresses;
        const std::unique_ptr<kernels::Kernel> kernel =
            kernels::createKernel(spec.kernels()[job.kernelIndex]);
        result.measurement =
            roofline::Measurer(*sim_machine).measure(*kernel, opts.measure);
        break;
      }
      case JobKind::TraceRecord:
        result.trace =
            recordTrace(machine.config, spec.traces()[job.kernelIndex],
                        exec_opts.traceDir, job.id);
        break;
      case JobKind::TraceReplay: {
        // deps = {ceiling, record}; the record job ran first and left
        // the trace file behind.
        RFL_ASSERT(job.deps.size() == 2);
        const TraceInfo &info = results[job.deps[1]].trace;
        std::optional<trace::TraceKernel> kernel;
        std::optional<sim::Machine> sim_machine;
        stageGate("job.machine-build", "machine-build");
        {
            StageSpan build("machine-build");
            kernel.emplace(info.path);
            buildScenarioMachine(sim_machine, machine.config, opts);
        }
        // Replay is single-stream: run on the variant's first core.
        roofline::MeasureOptions mopts = opts.measure;
        mopts.cores = {opts.measure.cores.front()};
        stageGate("job.simulate", "simulate");
        {
            StageSpan sim("simulate");
            result.measurement =
                roofline::Measurer(*sim_machine).measure(*kernel, mopts);
        }
        // Label the measurement by what was traced, not the replay
        // mechanism, so sinks show "trace(daxpy:n=65536)" rows.
        result.measurement.kernel =
            "trace(" + spec.traces()[job.kernelIndex] + ")";
        break;
      }
      case JobKind::PhaseSample: {
        const PhaseEntry &phase = spec.phases()[job.kernelIndex];
        std::optional<sim::Machine> sim_machine;
        stageGate("job.machine-build", "machine-build");
        {
            StageSpan build("machine-build");
            buildScenarioMachine(sim_machine, machine.config, opts);
        }
        stageGate("job.simulate", "simulate");
        StageSpan sim("simulate");
        result.phases = analysis::samplePhasesSpec(
            *sim_machine, phase.spec, opts.measure, phase.period);
        break;
      }
      case JobKind::NativeMeasure: {
        const std::string &kspec = spec.kernels()[job.kernelIndex];
        roofline::Measurement &m = result.measurement;
        if (!pmu::PerfEventBackend::available()) {
            // Placeholder row: the labels are valid (so every sink and
            // the delta table can name the missing cell) but the
            // numbers are not. Deliberately NOT cached — a later run
            // with PMU access must not hit a hollow entry.
            StageSpan build("machine-build");
            const std::unique_ptr<kernels::Kernel> kernel =
                kernels::createKernel(kspec);
            m.backend = "perf";
            m.available = false;
            m.quality = 0.0;
            m.kernel = kernel->name();
            m.sizeLabel = kernel->sizeLabel();
            m.protocol = roofline::protocolName(opts.measure.protocol);
            m.cores = static_cast<int>(opts.measure.cores.size());
            m.lanes = opts.measure.lanes;
            ++simulated;
            return result;
        }
        std::unique_ptr<kernels::Kernel> kernel;
        std::optional<roofline::NativeMeasurer> measurer;
        stageGate("job.machine-build", "machine-build");
        {
            StageSpan build("machine-build");
            kernel = kernels::createKernel(kspec);
            measurer.emplace();
        }
        roofline::NativeMeasureOptions nopts;
        nopts.protocol = opts.measure.protocol;
        nopts.repetitions = opts.measure.repetitions;
        nopts.warmupRuns = opts.measure.warmupRuns;
        // lanes=0 means "machine maximum" on the sim; the host default
        // is the 256-bit engine (4 doubles).
        nopts.lanes = opts.measure.lanes > 0 ? opts.measure.lanes : 4;
        nopts.useFma = opts.measure.useFma;
        // One host thread per simulated core of the variant.
        nopts.threads = static_cast<int>(opts.measure.cores.size());
        nopts.seed = opts.measure.seed;
        stageGate("job.simulate", "measure-native");
        StageSpan sim("measure-native");
        m = measurer->measure(*kernel, nopts).base;
        break;
      }
    }
    if (cache) {
        stageGate("job.encode", "encode");
        StageSpan encode("encode");
        cache->store(job.cacheKey, encodeResult(job.kind, result));
    }
    ++simulated;
    return result;
}

/**
 * Warn once about every measurement no roofline plot can show (I=inf,
 * e.g. a warm LLC-resident row with no memory traffic). Every sink
 * that plots the run leaves these points off quietly, so a run that
 * feeds several sinks still reports each point once.
 */
void
warnUnplottablePoints(const CampaignRun &run)
{
    for (const Job &job : run.jobs) {
        const roofline::Measurement &m = run.results[job.id].measurement;
        if (!yieldsMeasurement(job.kind) || !m.available ||
            roofline::RooflinePlot::plottable(m.oi(), m.perf()))
            continue;
        warn("campaign '%s': point '%s%s' (%s, %s) has I=%g P=%g; it is "
             "left off the roofline plots",
             run.spec.name().c_str(), m.label().c_str(),
             job.kind == JobKind::NativeMeasure ? " [hw]" : "",
             run.spec.machines()[job.machineIndex].label.c_str(),
             run.spec.variants()[job.variantIndex].label.c_str(), m.oi(),
             m.perf());
    }
}

} // namespace

const Job &
CampaignRun::findJob(std::initializer_list<JobKind> kinds,
                     size_t machineIdx, size_t entryIdx,
                     size_t variantIdx) const
{
    for (const Job &job : jobs) {
        if (job.machineIndex == machineIdx &&
            job.variantIndex == variantIdx &&
            (entryIdx == anyEntry || job.kernelIndex == entryIdx) &&
            std::find(kinds.begin(), kinds.end(), job.kind) != kinds.end())
            return job;
    }
    panic("campaign: no %s job for machine %zu entry %zu variant %zu",
          jobKindName(*kinds.begin()), machineIdx, entryIdx, variantIdx);
}

const roofline::Measurement &
CampaignRun::measurementFor(size_t machineIdx, size_t kernelIdx,
                            size_t variantIdx) const
{
    const Job &job =
        findJob({JobKind::Measure}, machineIdx, kernelIdx, variantIdx);
    return results[job.id].measurement;
}

const roofline::Measurement &
CampaignRun::replayMeasurementFor(size_t machineIdx, size_t traceIdx,
                                  size_t variantIdx) const
{
    const Job &job =
        findJob({JobKind::TraceReplay}, machineIdx, traceIdx, variantIdx);
    return results[job.id].measurement;
}

const analysis::PhaseTrajectory &
CampaignRun::phaseTrajectoryFor(size_t machineIdx, size_t phaseIdx,
                                size_t variantIdx) const
{
    const Job &job =
        findJob({JobKind::PhaseSample}, machineIdx, phaseIdx, variantIdx);
    return results[job.id].phases;
}

const roofline::RooflineModel &
CampaignRun::modelFor(size_t machineIdx, size_t variantIdx) const
{
    // The variant's ceiling job is the first dependency of any of its
    // non-ceiling jobs; find one and follow the edge.
    const Job &job = findJob({JobKind::Measure, JobKind::TraceReplay,
                              JobKind::PhaseSample, JobKind::NativeMeasure},
                             machineIdx, anyEntry, variantIdx);
    return results[job.deps.front()].model;
}

std::vector<roofline::Measurement>
CampaignRun::measurements() const
{
    // Job order already puts every hardware row after the sim rows.
    std::vector<roofline::Measurement> out;
    for (const Job &job : jobs)
        if (yieldsMeasurement(job.kind) &&
            results[job.id].measurement.available)
            out.push_back(results[job.id].measurement);
    return out;
}

CampaignExecutor::CampaignExecutor(ExecutorOptions opts) : opts_(opts)
{
}

CampaignRun
CampaignExecutor::run(const CampaignSpec &spec,
                      telemetry::Tracer *tracer) const
{
    const auto start = std::chrono::steady_clock::now();
    telemetry::ensureGlobalSimCollector();

    const JobGraph graph = JobGraph::expand(spec);

    CampaignRun run;
    run.spec = spec;
    run.jobs = graph.jobs();
    run.results.resize(run.jobs.size());

    RunState state;
    state.remainingDeps.resize(run.jobs.size());
    state.dependents.resize(run.jobs.size());
    for (const Job &job : run.jobs) {
        state.remainingDeps[job.id] = job.deps.size();
        for (size_t dep : job.deps)
            state.dependents[dep].push_back(job.id);
    }

    ThreadPool pool(opts_.threads);
    run.threadsUsed = pool.threadCount();

    // Deadline plumbing: the run deadline (spec `timeout =`) is fixed
    // at start; each job additionally gets jobTimeoutSeconds from its
    // own start, the earlier deadline winning. All tokens link one
    // abort flag — the first failure (timeout or otherwise) cancels
    // every sibling at its next drain check.
    std::atomic<bool> abortRun{false};
    const bool hasRunDeadline = spec.timeoutSeconds() > 0.0;
    const auto runDeadline =
        start + std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(spec.timeoutSeconds()));

    // submitJob is recursive through the pool: finishing a job submits
    // its newly-unblocked dependents. NativeMeasure jobs are the
    // exception — they observe the physical host (wall clock and PMU
    // counters), so running them beside sim jobs on the shared pool
    // multiplexes their counters against workers saturating the same
    // cores and skews the sim-vs-silicon delta pessimistic. submitJob
    // parks them instead; they run serially after the pool drains.
    std::function<void(size_t)> submitJob;

    const auto runJob = [&](size_t id) {
        // One scope per task: the executing thread binds the
        // campaign's tracer for exactly this job.
        telemetry::TraceScope traceScope(tracer);
        const Job &job = run.jobs[id];
        const auto jobStart = std::chrono::steady_clock::now();
        CancelToken token;
        token.linkAbortFlag(&abortRun);
        if (hasRunDeadline)
            token.setDeadline(runDeadline);
        if (opts_.jobTimeoutSeconds > 0.0) {
            const auto jobDeadline =
                jobStart +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(
                        opts_.jobTimeoutSeconds));
            token.setDeadline(hasRunDeadline
                                  ? std::min(runDeadline,
                                             jobDeadline)
                                  : jobDeadline);
        }
        CancelScope cancelScope(&token);
        try {
            telemetry::Span span(jobKindName(job.kind));
            span.attr("job", std::to_string(id));
            span.attr("machine",
                      spec.machines()[job.machineIndex].label);
            // A thread-usage bracket on the job's thread (a pool
            // worker, or this thread for serial native jobs) is the
            // job's own consumption regardless of concurrency. A cold
            // ceiling also runs parts on helper threads; executeJob
            // leaves their CPU in the result, and this adds the rest.
            const telemetry::ScopedThreadUsage usage;
            run.results[id] =
                executeJob(spec, job, run.results, opts_,
                           JobContext{pool, tracer, token},
                           state.simulated, state.cacheHits);
            if (run.results[id].fromCache) {
                span.attr("cached", "true");
            } else {
                telemetry::ResourceDelta &res = run.results[id].resources;
                res.add(usage.delta());
                span.attr("cpu_s", fixedText(res.cpuSeconds(), 6));
                jobCpuHistogram(jobKindName(job.kind))
                    .observe(res.cpuSeconds());
                telemetry::Registry::global()
                    .gauge("rfl_job_maxrss_bytes",
                           "process peak RSS observed at the end "
                           "of the most recent campaign job")
                    .set(static_cast<double>(res.maxrssBytes));
            }
        } catch (...) {
            // The pool keeps (and rethrows) only the first
            // failure; the flag makes the rest unwind fast.
            abortRun.store(true, std::memory_order_relaxed);
            throw;
        }
        const double jobSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - jobStart)
                .count();
        campaignMetrics().jobSeconds.observe(jobSeconds);
        std::vector<size_t> ready;
        {
            std::lock_guard<std::mutex> lock(state.mutex);
            state.completionOrder.push_back(id);
            auto &ks = state.jobsByKind[jobKindName(job.kind)];
            ks.count += 1;
            ks.seconds += jobSeconds;
            ks.cpuSeconds += run.results[id].resources.cpuSeconds();
            state.resources.add(run.results[id].resources);
            for (size_t dep_id : state.dependents[id]) {
                RFL_ASSERT(state.remainingDeps[dep_id] > 0);
                if (--state.remainingDeps[dep_id] == 0)
                    ready.push_back(dep_id);
            }
        }
        for (size_t next : ready)
            submitJob(next);
    };

    submitJob = [&](size_t id) {
        if (run.jobs[id].kind == JobKind::NativeMeasure) {
            std::lock_guard<std::mutex> lock(state.mutex);
            state.nativeQueue.push_back(id);
            return;
        }
        pool.submit([&runJob, id] { runJob(id); });
    };

    for (const Job &job : run.jobs)
        if (job.deps.empty())
            submitJob(job.id);
    // Drain the pool, then run any parked native jobs one at a time on
    // this thread with the pool idle (the quiet-machine discipline the
    // hardware rows need). A native job can unblock more work — pool
    // jobs or further natives — so alternate until both are empty.
    for (;;) {
        pool.wait();
        std::vector<size_t> natives;
        {
            std::lock_guard<std::mutex> lock(state.mutex);
            natives.swap(state.nativeQueue);
        }
        if (natives.empty())
            break;
        std::sort(natives.begin(), natives.end());
        for (size_t id : natives)
            runJob(id);
    }

    RFL_ASSERT(state.completionOrder.size() == run.jobs.size());
    run.completionOrder = std::move(state.completionOrder);
    run.jobsByKind = std::move(state.jobsByKind);
    run.resources = state.resources;
    run.simulated = state.simulated.load();
    run.cacheHits = state.cacheHits.load();
    run.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    warnUnplottablePoints(run);
    return run;
}

} // namespace rfl::campaign
