#include "service/job_queue.hh"

#include <algorithm>
#include <chrono>

#include "analysis/analysis.hh"
#include "support/cancel.hh"
#include "support/failpoint.hh"
#include "support/hash.hh"
#include "support/logging.hh"
#include "telemetry/span.hh"

namespace rfl::service
{

const char *
jobStateName(JobState state)
{
    switch (state) {
      case JobState::Queued: return "queued";
      case JobState::Running: return "running";
      case JobState::Done: return "done";
      case JobState::Failed: return "failed";
      case JobState::TimedOut: return "timed_out";
    }
    return "?";
}

JobQueue::JobQueue(JobQueueOptions opts) : opts_(std::move(opts))
{
    // A resident service must never exit(1) on a user error buried in
    // a worker; from here on fatal() throws and lands in job status.
    setFatalThrows(true);

    cache_ = opts_.cachePath.empty()
                 ? std::make_unique<campaign::ResultCache>()
                 : std::make_unique<campaign::ResultCache>(
                       opts_.cachePath);
    opts_.exec.cache = cache_.get();
    executor_ = campaign::CampaignExecutor(opts_.exec);

    if (opts_.workers < 1)
        opts_.workers = 1;
    workers_.reserve(static_cast<size_t>(opts_.workers));
    for (int i = 0; i < opts_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });

    // Register the queue's view of the global metrics. Mirroring (not
    // inc()) makes the *current* queue's absolute counters win the
    // scrape, so a process that builds queues repeatedly (tests) still
    // reports the live instance's numbers.
    telemetry::Registry &reg = telemetry::Registry::global();
    turnaround_ = &reg.histogram(
        "rfl_queue_turnaround_seconds",
        "submit-to-finish latency of executed campaigns");
    metricsCollector_ = reg.addCollector(
        [this,
         &depth = reg.gauge("rfl_queue_depth", "campaigns waiting"),
         &running =
             reg.gauge("rfl_queue_running", "campaigns executing"),
         &done = reg.gauge("rfl_queue_done",
                           "finished campaigns retained in memory"),
         &failed = reg.gauge("rfl_queue_failed",
                             "failed campaigns retained in memory"),
         &timedOut =
             reg.gauge("rfl_queue_timed_out",
                       "deadline-cancelled campaigns retained in "
                       "memory"),
         &submitted = reg.counter("rfl_queue_submitted_total",
                                  "campaign submissions received"),
         &accepted = reg.counter("rfl_queue_accepted_total",
                                 "new campaigns enqueued"),
         &dedup =
             reg.counter("rfl_queue_deduplicated_total",
                         "submissions answered by an existing ticket"),
         &rejFull =
             reg.counter("rfl_queue_rejected_full_total",
                         "submissions rejected by backpressure"),
         &rejInvalid = reg.counter("rfl_queue_rejected_invalid_total",
                                   "submissions with invalid specs"),
         &executed = reg.counter("rfl_queue_executed_total",
                                 "campaigns actually run"),
         &cHits = reg.counter("rfl_cache_hits_total",
                              "result-cache lookups answered"),
         &cMisses = reg.counter("rfl_cache_misses_total",
                                "result-cache lookups missed"),
         &cStores = reg.counter("rfl_cache_stores_total",
                                "result-cache entries stored"),
         &cPreloaded = reg.counter("rfl_cache_preloaded_total",
                                   "cache entries preloaded from disk"),
         &cRate = reg.gauge("rfl_cache_hit_rate",
                            "result-cache hit rate")] {
            const JobQueueStats q = stats();
            depth.set(static_cast<double>(q.depth));
            running.set(static_cast<double>(q.running));
            done.set(static_cast<double>(q.done));
            failed.set(static_cast<double>(q.failed));
            timedOut.set(static_cast<double>(q.timedOut));
            submitted.mirror(q.submitted);
            accepted.mirror(q.accepted);
            dedup.mirror(q.deduplicated);
            rejFull.mirror(q.rejectedFull);
            rejInvalid.mirror(q.rejectedInvalid);
            executed.mirror(q.executed);

            const campaign::CacheStats c = cacheStats();
            cHits.mirror(c.hits);
            cMisses.mirror(c.misses);
            cStores.mirror(c.stores);
            cPreloaded.mirror(c.preloaded);
            const double lookups =
                static_cast<double>(c.hits + c.misses);
            cRate.set(lookups > 0
                          ? static_cast<double>(c.hits) / lookups
                          : 0.0);
        });
}

JobQueue::~JobQueue()
{
    stop();
}

void
JobQueue::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            return;
        stopping_ = true;
    }
    queueCv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
    workers_.clear();
}

SubmitOutcome
JobQueue::submit(const std::string &specText,
                 const std::string &requestId)
{
    SubmitOutcome outcome;

    // Fault-injection seam: a triggered submit failpoint degrades
    // into ordinary backpressure — the client sees a well-formed 429,
    // never a dropped request.
    if (RFL_FAILPOINT("queue.submit")) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.submitted;
        ++stats_.rejectedFull;
        outcome.kind = SubmitOutcome::Kind::QueueFull;
        return outcome;
    }

    // Parse + validate outside the lock so concurrent submitters do
    // not serialize. Validation only reads the kernel catalogue (no
    // kernel is built), so a bad kernel spec is rejected here, before
    // anything is queued or allocated.
    campaign::CampaignSpec spec;
    try {
        spec = campaign::parseCampaignSpec(specText);
    } catch (const std::exception &e) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.submitted;
        ++stats_.rejectedInvalid;
        outcome.kind = SubmitOutcome::Kind::Invalid;
        outcome.error = e.what();
        return outcome;
    }

    const std::string id = hashToHex(spec.stableHash());
    bool enqueued = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.submitted;

        const auto it = jobs_.find(id);
        if (it != jobs_.end()) {
            Record &rec = *it->second;
            if (rec.state == JobState::Failed ||
                rec.state == JobState::TimedOut) {
                // A failure may have been transient (cache disk full,
                // pruned trace dir, deadline too tight for a cold
                // cache): a resubmission retries — through the same
                // backpressure bound as a fresh job, so mass retries
                // cannot grow the queue past its limit.
                if (queue_.size() >= opts_.maxQueued) {
                    ++stats_.rejectedFull;
                    outcome.kind = SubmitOutcome::Kind::QueueFull;
                    return outcome;
                }
                // Drop the failure's eviction-order entry: leaving it
                // would make a successful retry evictable as if it
                // had finished back then.
                const auto stale = std::find(finishedOrder_.begin(),
                                             finishedOrder_.end(),
                                             id);
                if (stale != finishedOrder_.end())
                    finishedOrder_.erase(stale);
                if (rec.state == JobState::TimedOut)
                    --stats_.timedOut;
                else
                    --stats_.failed;
                rec.state = JobState::Queued;
                rec.error.clear();
                rec.requestId = requestId;
                rec.submittedAt = std::chrono::steady_clock::now();
                queue_.push_back(id);
                ++stats_.accepted;
                outcome.kind = SubmitOutcome::Kind::Accepted;
                outcome.state = JobState::Queued;
                enqueued = true;
            } else {
                ++stats_.deduplicated;
                outcome.kind = SubmitOutcome::Kind::Deduplicated;
                outcome.state = rec.state;
            }
            outcome.id = id;
        } else if (queue_.size() >= opts_.maxQueued) {
            ++stats_.rejectedFull;
            outcome.kind = SubmitOutcome::Kind::QueueFull;
        } else {
            auto rec = std::make_shared<Record>();
            rec->id = id;
            rec->spec = std::move(spec);
            rec->requestId = requestId;
            rec->submittedAt = std::chrono::steady_clock::now();
            jobs_[id] = std::move(rec);
            queue_.push_back(id);
            ++stats_.accepted;
            outcome.kind = SubmitOutcome::Kind::Accepted;
            outcome.id = id;
            outcome.state = JobState::Queued;
            enqueued = true;
        }
    }
    if (enqueued)
        queueCv_.notify_one();
    return outcome;
}

void
JobQueue::workerLoop()
{
    for (;;) {
        std::shared_ptr<Record> rec;
        campaign::CampaignSpec spec;
        std::string requestId;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            queueCv_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (stopping_)
                return;
            const std::string id = queue_.front();
            queue_.pop_front();
            rec = jobs_.at(id);
            rec->state = JobState::Running;
            ++stats_.running;
            ++stats_.executed;
            spec = rec->spec; // run off a copy, outside the lock
            requestId = rec->requestId;
        }

        JobState final = JobState::Done;
        std::string error;
        size_t jobs = 0, simulated = 0, cacheHits = 0;
        double wallSeconds = 0.0;
        int threadsUsed = 0;
        telemetry::ResourceDelta resources;
        analysis::ReportArtifacts artifacts;
        telemetry::Tracer tracer;
        try {
            // Scope + root span live for exactly this execution; the
            // executor's pool workers bind the same tracer per job.
            telemetry::TraceScope traceScope(&tracer);
            telemetry::Span root("campaign");
            root.attr("ticket", rec->id);
            root.attr("campaign", spec.name());
            if (!requestId.empty())
                root.attr("request_id", requestId);
            // Fault-injection seam: error-action fails the job (fatal
            // throws here — the queue runs in fatal-throws mode),
            // sleep-action stalls this worker, which is how tests
            // exercise waitFor() timeouts under a wedged drain.
            if (RFL_FAILPOINT("queue.drain"))
                fatal("service: injected fault draining campaign %s",
                      rec->id.c_str());
            const campaign::CampaignRun run =
                executor_.run(spec, &tracer);
            const analysis::CampaignAnalysis doc =
                analysis::analyzeCampaign(run);
            artifacts =
                analysis::renderAnalysisReport(doc, spec.name());
            jobs = run.jobs.size();
            simulated = run.simulated;
            cacheHits = run.cacheHits;
            wallSeconds = run.wallSeconds;
            threadsUsed = run.threadsUsed;
            resources = run.resources;
        } catch (const TimedOutError &e) {
            final = JobState::TimedOut;
            error = e.what();
        } catch (const std::exception &e) {
            final = JobState::Failed;
            error = e.what();
        }
        std::string traceJson = tracer.renderChromeTrace();

        {
            std::lock_guard<std::mutex> lock(mutex_);
            --stats_.running;
            rec->state = final;
            rec->traceJson = std::move(traceJson);
            turnaround_->observe(
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() -
                    rec->submittedAt)
                    .count());
            if (final == JobState::Done) {
                ++stats_.done;
                rec->jobs = jobs;
                rec->simulated = simulated;
                rec->cacheHits = cacheHits;
                rec->wallSeconds = wallSeconds;
                rec->threadsUsed = threadsUsed;
                rec->resources = resources;
                rec->artifacts = std::move(artifacts);
            } else {
                if (final == JobState::TimedOut)
                    ++stats_.timedOut;
                else
                    ++stats_.failed;
                rec->error = error;
                warn("service: campaign %s %s: %s", rec->id.c_str(),
                     jobStateName(final), error.c_str());
            }
            finishedOrder_.push_back(rec->id);
            evictFinishedLocked();
        }
        stateCv_.notify_all();
    }
}

void
JobQueue::evictFinishedLocked()
{
    while (finishedOrder_.size() > opts_.maxFinished) {
        const std::string victim = finishedOrder_.front();
        finishedOrder_.pop_front();
        const auto it = jobs_.find(victim);
        if (it == jobs_.end())
            continue; // stale entry: evicted via an earlier duplicate
        const JobState state = it->second->state;
        if (state == JobState::Queued || state == JobState::Running)
            continue; // failed-and-retried; re-listed when it finishes
        if (state == JobState::Done)
            --stats_.done;
        else if (state == JobState::TimedOut)
            --stats_.timedOut;
        else
            --stats_.failed;
        jobs_.erase(it);
    }
}

std::shared_ptr<const JobQueue::Record>
JobQueue::find(const std::string &id) const
{
    const auto it = jobs_.find(id);
    return it == jobs_.end() ? nullptr : it->second;
}

bool
JobQueue::status(const std::string &id, JobStatus *out) const
{
    RFL_ASSERT(out != nullptr);
    std::lock_guard<std::mutex> lock(mutex_);
    const auto rec = find(id);
    if (!rec)
        return false;
    *out = JobStatus{};
    out->id = rec->id;
    out->campaign = rec->spec.name();
    out->state = rec->state;
    out->error = rec->error;
    if (rec->state == JobState::Queued) {
        for (size_t i = 0; i < queue_.size(); ++i) {
            if (queue_[i] == id) {
                out->queuePosition = i + 1;
                break;
            }
        }
    }
    if (rec->state == JobState::Done) {
        out->jobs = rec->jobs;
        out->simulated = rec->simulated;
        out->cacheHits = rec->cacheHits;
        out->wallSeconds = rec->wallSeconds;
        out->threadsUsed = rec->threadsUsed;
        out->resources = rec->resources;
        out->scenarioCount = rec->artifacts.svgs.size();
    }
    return true;
}

bool
JobQueue::analysisJson(const std::string &id, std::string *out) const
{
    RFL_ASSERT(out != nullptr);
    std::lock_guard<std::mutex> lock(mutex_);
    const auto rec = find(id);
    if (!rec || rec->state != JobState::Done)
        return false;
    *out = rec->artifacts.json;
    return true;
}

bool
JobQueue::reportHtml(const std::string &id, std::string *out) const
{
    RFL_ASSERT(out != nullptr);
    std::lock_guard<std::mutex> lock(mutex_);
    const auto rec = find(id);
    if (!rec || rec->state != JobState::Done)
        return false;
    *out = rec->artifacts.html;
    return true;
}

bool
JobQueue::svg(const std::string &id, size_t scenario,
              std::string *out) const
{
    RFL_ASSERT(out != nullptr);
    std::lock_guard<std::mutex> lock(mutex_);
    const auto rec = find(id);
    if (!rec || rec->state != JobState::Done ||
        scenario >= rec->artifacts.svgs.size()) {
        return false;
    }
    *out = rec->artifacts.svgs[scenario].second;
    return true;
}

bool
JobQueue::traceJson(const std::string &id, std::string *out) const
{
    RFL_ASSERT(out != nullptr);
    std::lock_guard<std::mutex> lock(mutex_);
    const auto rec = find(id);
    if (!rec || rec->traceJson.empty())
        return false;
    *out = rec->traceJson;
    return true;
}

bool
JobQueue::waitFor(const std::string &id, double timeoutSeconds) const
{
    std::unique_lock<std::mutex> lock(mutex_);
    return stateCv_.wait_for(
        lock, std::chrono::duration<double>(timeoutSeconds), [&] {
            const auto rec = find(id);
            return rec && (rec->state == JobState::Done ||
                           rec->state == JobState::Failed ||
                           rec->state == JobState::TimedOut);
        });
}

JobQueueStats
JobQueue::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    JobQueueStats s = stats_;
    s.depth = queue_.size();
    return s;
}

campaign::CacheStats
JobQueue::cacheStats() const
{
    return cache_->stats();
}

} // namespace rfl::service
