/**
 * @file
 * Campaign executor: runs a JobGraph across host threads.
 *
 * Each job executes on its own sim::Machine built from the job's
 * machine config, so jobs share no mutable state and the expansion is
 * embarrassingly parallel: the simulator is deterministic and its timing
 * model is independent of host wall time, which makes the aggregated
 * results identical for any thread count.
 *
 * Scheduling: jobs whose dependencies are satisfied are submitted to the
 * ThreadPool; completing a job decrements its dependents' counters and
 * submits the newly-ready ones. Before simulating, each job consults the
 * ResultCache; a hit skips simulation entirely. A Ceiling job that
 * misses fans its independent parts (roofline::ceilingParts) across the
 * same pool with ThreadPool::parallelFor, each part on a Machine of its
 * own, and merges them in their fixed order — the model does not depend
 * on which thread measured what.
 */

#ifndef RFL_CAMPAIGN_EXECUTOR_HH
#define RFL_CAMPAIGN_EXECUTOR_HH

#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "analysis/phase.hh"
#include "campaign/job_graph.hh"
#include "campaign/result_cache.hh"
#include "campaign/serialize.hh"
#include "campaign/spec.hh"
#include "roofline/measurement.hh"
#include "roofline/model.hh"
#include "telemetry/resource.hh"
#include "telemetry/span.hh"

namespace rfl::campaign
{

/** Executor knobs. */
struct ExecutorOptions
{
    /** Host worker threads; 0 = one per host hardware thread. */
    int threads = 0;
    /** Shared result cache; nullptr = run everything uncached. */
    ResultCache *cache = nullptr;
    /**
     * Directory for recorded trace files (created on demand). Files are
     * content-addressed — named by the trace's stable stream hash — so
     * any number of campaigns and processes can share the directory; a
     * cached trace-record result is re-validated against the file on
     * disk and re-recorded if the file vanished or no longer matches.
     */
    std::string traceDir = "rfl-traces";
    /**
     * Wall-clock budget per job in seconds; 0 disables. Combined with
     * the spec's own `timeout =` (the earlier deadline wins) into a
     * CancelToken bound to the worker for the job's duration; the
     * simulator polls it at batch-drain boundaries. The first job to
     * exceed its deadline throws TimedOutError AND flips a shared
     * abort flag, so every sibling job of the same run unwinds at its
     * next drain check instead of running to completion — run() never
     * leaves a worker grinding on behalf of a dead campaign.
     */
    double jobTimeoutSeconds = 0.0;
};

/** Outcome of one job. */
struct JobResult
{
    bool fromCache = false;
    /** Filled for Measure, TraceReplay and NativeMeasure jobs. */
    roofline::Measurement measurement;
    /** Filled for Ceiling jobs. */
    roofline::RooflineModel model;
    /** Filled for TraceRecord jobs (path + stream summary). */
    TraceInfo trace;
    /** Filled for PhaseSample jobs. */
    analysis::PhaseTrajectory phases;
    /** What this job cost its worker thread, plus the helper threads
     *  a cold ceiling job fans its parts to (zeros for cache hits —
     *  the probe is not worth a rusage syscall pair). */
    telemetry::ResourceDelta resources;
};

/** Everything the aggregation/sink layer consumes (see sink.hh). */
struct CampaignRun
{
    CampaignSpec spec;
    std::vector<Job> jobs;
    /** Indexed by job id. */
    std::vector<JobResult> results;
    /** Job ids in the order they finished (scheduling evidence). */
    std::vector<size_t> completionOrder;

    size_t simulated = 0;    ///< jobs that actually ran the simulator
    size_t cacheHits = 0;    ///< jobs answered by the cache
    double wallSeconds = 0.0;///< host wall time of run()
    int threadsUsed = 0;

    /** Per-JobKind execution breakdown (host seconds are per job, so
     *  they over-count wall time when jobs overlap across threads). */
    struct KindStats
    {
        size_t count = 0;
        double seconds = 0.0;
        double cpuSeconds = 0.0; ///< user+system across the kind's jobs
    };
    /** Keyed by jobKindName(); only kinds that occurred appear. */
    std::map<std::string, KindStats> jobsByKind;

    /** Aggregated rusage across all executed jobs (CPU and faults
     *  sum; maxrssBytes is the process peak observed). */
    telemetry::ResourceDelta resources;

    /** Measurement of one grid cell; panics when indices are invalid. */
    const roofline::Measurement &
    measurementFor(size_t machineIdx, size_t kernelIdx,
                   size_t variantIdx) const;

    /** Replay measurement of traces()[traceIdx]; panics when absent. */
    const roofline::Measurement &
    replayMeasurementFor(size_t machineIdx, size_t traceIdx,
                         size_t variantIdx) const;

    /** Phase trajectory of phases()[phaseIdx]; panics when absent. */
    const analysis::PhaseTrajectory &
    phaseTrajectoryFor(size_t machineIdx, size_t phaseIdx,
                       size_t variantIdx) const;

    /** Ceiling model covering (machine, variant); panics if absent. */
    const roofline::RooflineModel &modelFor(size_t machineIdx,
                                            size_t variantIdx) const;

    /** All measurements in deterministic grid order (sim and replay
     *  rows, then hardware rows — unavailable placeholders excluded). */
    std::vector<roofline::Measurement> measurements() const;

  private:
    /** findJob's entry index that matches a job of any entry. */
    static constexpr size_t anyEntry = static_cast<size_t>(-1);

    /** The first job (in job order) of one of @p kinds at grid cell
     *  (machine, entry, variant); panics when there is none. */
    const Job &findJob(std::initializer_list<JobKind> kinds,
                       size_t machineIdx, size_t entryIdx,
                       size_t variantIdx) const;
};

/**
 * See file comment. The executor itself is immutable after
 * construction (run() is const and keeps all per-run state on the
 * stack), so one instance is safely shared by concurrent submitters —
 * the service job queue runs overlapping campaigns through a single
 * executor whose ResultCache multiplexes them.
 */
class CampaignExecutor
{
  public:
    explicit CampaignExecutor(ExecutorOptions opts = {});

    /** Expand @p spec and run every job; blocks until done. Rethrows
     *  the first worker failure (see support/thread_pool.hh) — a
     *  TimedOutError when a job overran its deadline — leaving no
     *  background work behind. When @p tracer is non-null, every job
     *  records a span tree (cache-probe / machine-build / simulate /
     *  encode, plus one ceiling-part span per part of a cold ceiling)
     *  into it. */
    CampaignRun run(const CampaignSpec &spec,
                    telemetry::Tracer *tracer = nullptr) const;

  private:
    ExecutorOptions opts_;
};

} // namespace rfl::campaign

#endif // RFL_CAMPAIGN_EXECUTOR_HH
