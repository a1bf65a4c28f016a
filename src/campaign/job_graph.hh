/**
 * @file
 * JobGraph: expansion of a CampaignSpec into schedulable jobs.
 *
 * Six job kinds:
 *   - Ceiling: characterize the roofline ceilings of one machine under
 *     one scenario signature (core set, NUMA policy, prefetch enable).
 *     One per distinct signature per machine, however many variants
 *     share it.
 *   - Measure: run one kernel under one variant on one machine.
 *   - TraceRecord: record one traced kernel's access stream on one
 *     machine into a content-addressed trace file. One per (machine,
 *     trace) — the stream depends only on the kernel, the machine's
 *     vector width and the record seed, never on the variant.
 *   - TraceReplay: measure the recorded stream (as a TraceKernel) under
 *     one variant on one machine. Depends on its Ceiling job (first
 *     dep) and its TraceRecord job (second dep).
 *   - PhaseSample: run one phase entry's kernel under one variant on
 *     one machine with the interval sampler enabled, producing a
 *     PhaseTrajectory (analysis/phase.hh). Depends on its Ceiling job
 *     like a Measure job.
 *   - NativeMeasure: run one kernel under one variant natively on the
 *     host CPU with perf_event counters (backend = perf in the spec).
 *     Depends on its Ceiling job so the hardware row can be plotted
 *     against the scenario's simulated roofs. Cached under a
 *     host-identity key (cpu model + flags + RFL_PERF_EVENTS hash):
 *     hardware rows are not reproducible from MachineConfig alone.
 *
 * Every Measure, TraceReplay, PhaseSample and NativeMeasure job
 * depends first on its machine's Ceiling job for the variant's
 * signature, so a config is characterized exactly once and always
 * before its sweeps — the sink can then plot each measurement against
 * a model that is guaranteed to exist.
 *
 * Jobs are numbered in deterministic spec order (ceilings, then
 * machines x kernels x variants measures, then trace records, then
 * machines x traces x variants replays, then machines x phases x
 * variants phase samples, then — with backend = perf — machines x
 * kernels x variants native measures), which is also the aggregation
 * order; the executor may *complete* them in any order without
 * affecting artifacts.
 */

#ifndef RFL_CAMPAIGN_JOB_GRAPH_HH
#define RFL_CAMPAIGN_JOB_GRAPH_HH

#include <cstddef>
#include <string>
#include <vector>

#include "campaign/spec.hh"

namespace rfl::campaign
{

/** What a job computes. */
enum class JobKind
{
    Ceiling,
    Measure,
    TraceRecord,
    TraceReplay,
    PhaseSample,
    NativeMeasure,
};

/** @return "ceiling", "measure", "trace-record", "trace-replay",
 *  "phase" or "native-measure". */
const char *jobKindName(JobKind kind);

/** Whether a job of @p kind yields a Measurement row: Measure,
 *  TraceReplay and NativeMeasure. */
bool yieldsMeasurement(JobKind kind);

/** One schedulable unit. */
struct Job
{
    size_t id = 0;
    JobKind kind = JobKind::Measure;
    size_t machineIndex = 0;
    /** Variant whose signature/options this job runs under. */
    size_t variantIndex = 0;
    /** Kernel index (Measure, NativeMeasure), traces() index
     *  (TraceRecord/Replay), or phases() index (PhaseSample). */
    size_t kernelIndex = 0;
    /** Content-addressed cache key (see result_cache.hh). */
    std::string cacheKey;
    /** Job ids that must complete before this one starts. */
    std::vector<size_t> deps;

    /** Human-readable description for logs and error messages. */
    std::string describe(const CampaignSpec &spec) const;
};

/** See file comment. */
class JobGraph
{
  public:
    /** Expand @p spec (validated first) into jobs with dependencies. */
    static JobGraph expand(const CampaignSpec &spec);

    const std::vector<Job> &jobs() const { return jobs_; }
    size_t size() const { return jobs_.size(); }
    size_t ceilingJobs() const { return ceilingJobs_; }
    size_t measureJobs() const { return jobs_.size() - ceilingJobs_; }

    /**
     * @return the ceiling job id whose model covers @p job (itself for
     * Ceiling jobs).
     */
    size_t ceilingJobFor(const Job &job) const;

  private:
    std::vector<Job> jobs_;
    size_t ceilingJobs_ = 0;
};

/**
 * Cache key of a ceiling characterization:
 * "ceiling|<machine-hash>|cores=...,numa=...,prefetch=...".
 */
std::string ceilingCacheKey(const sim::MachineConfig &config,
                            const RunOptions &opts);

/**
 * Cache key of one measurement:
 * "measure|<machine-hash>|<kernel spec>|<canonical run options>".
 */
std::string measureCacheKey(const sim::MachineConfig &config,
                            const std::string &kernelSpec,
                            const RunOptions &opts);

/** Lanes/seed a trace recording runs with (part of its cache key). */
struct TraceRecordParams
{
    int lanes = 0; ///< machine max vector doubles
    uint64_t seed = 42;
};

/** Record parameters for @p config (lanes resolved to machine max). */
TraceRecordParams traceRecordParams(const sim::MachineConfig &config);

/**
 * Cache key of a trace recording:
 * "trace|<machine-hash>|<kernel spec>|lanes=..,seed=..". The recorded
 * stream is deterministic in exactly these inputs, so the key
 * content-addresses the trace file across processes.
 */
std::string traceRecordCacheKey(const sim::MachineConfig &config,
                                const std::string &kernelSpec);

/**
 * Cache key of a trace-replay measurement:
 * "replay|<machine-hash>|<kernel spec>|lanes=..,seed=..|<options>".
 */
std::string traceReplayCacheKey(const sim::MachineConfig &config,
                                const std::string &kernelSpec,
                                const RunOptions &opts);

/**
 * Cache key of a phase-sample run:
 * "phase|<machine-hash>|<kernel spec>|period=N|<canonical options>".
 */
std::string phaseSampleCacheKey(const sim::MachineConfig &config,
                                const PhaseEntry &phase,
                                const RunOptions &opts);

/**
 * Stable hex hash identifying the measurement host for native rows:
 * cpu model name + feature flags (first /proc/cpuinfo processor) +
 * the RFL_PERF_EVENTS map. Two hosts with the same hash count the
 * same events on the same silicon. Computed once per process.
 */
std::string hostIdentityHash();

/**
 * Cache key of a native (hardware) measurement:
 * "native|<host-identity>|<kernel spec>|<canonical run options>".
 * Deliberately machine-config-free — the simulated machine does not
 * shape what the host CPU does.
 */
std::string nativeMeasureCacheKey(const std::string &kernelSpec,
                                  const RunOptions &opts);

} // namespace rfl::campaign

#endif // RFL_CAMPAIGN_JOB_GRAPH_HH
