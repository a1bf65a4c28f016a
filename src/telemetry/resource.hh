/**
 * @file
 * Per-job resource accounting: what did this job cost the machine?
 *
 * Spans answer "where did the wall time go"; this answers the
 * orthogonal question — CPU seconds (user/system), peak RSS and page
 * faults — per executed campaign job. The mechanism is two thread
 * snapshots bracketing the job: the executor runs each job entirely on
 * one worker thread, so the thread-scoped deltas are exactly the job's
 * own consumption even with many jobs in flight (process scope would
 * smear all workers together).
 *
 * CPU seconds come from clock_gettime(CLOCK_THREAD_CPUTIME_ID), which
 * is exact to the nanosecond. getrusage(RUSAGE_THREAD) supplies the
 * fault counts, peak RSS and the user/system split, but its CPU times
 * can advance in scheduler ticks (4 ms at HZ=250), which would read a
 * millisecond stage as 0 or 4 ms. A delta's total is therefore the
 * clock's, divided between user and system in the proportion
 * getrusage reports (all user when getrusage saw no change).
 *
 * One caveat is inherent to the kernel interface: ru_maxrss is the
 * *process* high-water mark even under RUSAGE_THREAD, so it is
 * reported as an absolute level ("peak RSS observed by the end of
 * this job"), not a delta — useful for spotting the job that pushed
 * the process to its peak, meaningless to sum.
 *
 * ThreadUsage is a plain snapshot; ScopedThreadUsage is the RAII
 * bracket used around whole jobs; StageSpan joins one to a trace span
 * at executor stage gates.
 */

#ifndef RFL_TELEMETRY_RESOURCE_HH
#define RFL_TELEMETRY_RESOURCE_HH

#include <cstdint>
#include <string>
#include <utility>

#include "telemetry/span.hh"

namespace rfl::telemetry
{

/** Point snapshot of the calling thread's resource usage. */
struct ThreadUsage
{
    double utimeSeconds = 0.0; ///< user CPU consumed by this thread
    double stimeSeconds = 0.0; ///< system CPU consumed by this thread
    uint64_t maxrssBytes = 0;  ///< process peak RSS (see file comment)
    uint64_t minorFaults = 0;
    uint64_t majorFaults = 0;
    /** user + system CPU at ns resolution (CLOCK_THREAD_CPUTIME_ID) */
    double cpuSeconds = 0.0;

    /** Snapshot the calling thread (see file comment). */
    static ThreadUsage now();
};

/**
 * Consumption between two snapshots: CPU and faults subtract;
 * maxrssBytes carries the end snapshot's absolute level.
 */
struct ResourceDelta
{
    double cpuUserSeconds = 0.0;
    double cpuSystemSeconds = 0.0;
    uint64_t maxrssBytes = 0;
    uint64_t minorFaults = 0;
    uint64_t majorFaults = 0;

    double
    cpuSeconds() const
    {
        return cpuUserSeconds + cpuSystemSeconds;
    }

    /** Accumulate another delta (campaign-level totals). maxrss
     *  takes the max — it is a level, not a flow. */
    void add(const ResourceDelta &other);
};

/** RAII bracket: snapshot at construction, delta on demand. */
class ScopedThreadUsage
{
  public:
    ScopedThreadUsage() : start_(ThreadUsage::now()) {}

    /** Delta from construction to now (callable repeatedly). */
    ResourceDelta delta() const;

  private:
    ThreadUsage start_;
};

/**
 * A trace span that also brackets its stage with a ScopedThreadUsage:
 * when tracing is active the span carries the stage's CPU seconds
 * ("cpu_s", six decimals) and fault counts ("maj_faults",
 * "min_faults") as attrs, correlating the trace tree with what the
 * stage cost the machine. Untraced, it costs one snapshot.
 */
class StageSpan
{
  public:
    explicit StageSpan(const char *name) : span_(name) {}
    ~StageSpan();

    StageSpan(const StageSpan &) = delete;
    StageSpan &operator=(const StageSpan &) = delete;

    void attr(std::string key, std::string value)
    {
        span_.attr(std::move(key), std::move(value));
    }

    /** What the stage has cost this thread so far. */
    ResourceDelta usage() const { return usage_.delta(); }

  private:
    Span span_;
    ScopedThreadUsage usage_;
};

} // namespace rfl::telemetry

#endif // RFL_TELEMETRY_RESOURCE_HH
