/**
 * @file
 * Fixed-size host thread pool used by the campaign executor.
 *
 * The simulator is deterministic and its timing model is independent of
 * host time, so independent simulations can run on as many host threads
 * as are available without perturbing results. The pool is deliberately
 * minimal: submit() enqueues a task, wait() blocks until every submitted
 * task (including tasks submitted *by* running tasks, as the campaign
 * executor does when a job unblocks its dependents) has finished.
 *
 * A task that throws does not kill the process (the pre-hardening
 * behavior was std::terminate via the unwound worker loop): the first
 * exception is captured and rethrown by the next wait() on the
 * submitter's thread, so the campaign executor — and through it the
 * service job queue — sees worker failures as ordinary exceptions.
 * Later exceptions from the same batch are dropped (first one wins);
 * the pool stays usable after the rethrow.
 *
 * parallelFor() fans one loop's iterations across the workers from
 * inside a running task (the executor splits a ceiling job's probes
 * this way). The caller claims iterations too, so it never waits for a
 * worker that is busy elsewhere: the loop completes even on a 1-thread
 * pool whose only worker is the caller.
 */

#ifndef RFL_SUPPORT_THREAD_POOL_HH
#define RFL_SUPPORT_THREAD_POOL_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "support/logging.hh"

namespace rfl
{

/** See file comment. */
class ThreadPool
{
  public:
    /** Spawn @p threads workers; 0 = one per host hardware thread. */
    explicit ThreadPool(int threads = 0)
    {
        if (threads <= 0) {
            const unsigned hw = std::thread::hardware_concurrency();
            threads = hw ? static_cast<int>(hw) : 1;
        }
        workers_.reserve(static_cast<size_t>(threads));
        for (int i = 0; i < threads; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    }

    ~ThreadPool()
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        cv_.notify_all();
        for (std::thread &w : workers_)
            w.join();
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one task. Safe to call from within a running task. */
    void submit(std::function<void()> task)
    {
        RFL_ASSERT(task != nullptr);
        {
            std::unique_lock<std::mutex> lock(mutex_);
            RFL_ASSERT(!stopping_);
            queue_.push_back(std::move(task));
            ++pending_;
        }
        cv_.notify_one();
    }

    /**
     * Block until every submitted task has completed (the queue is empty
     * and no worker is mid-task). Tasks may submit follow-up work before
     * returning; wait() covers those too. Rethrows the first exception
     * any task threw since the last wait() (see file comment).
     */
    void wait()
    {
        std::exception_ptr failure;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            idle_.wait(lock, [this] { return pending_ == 0; });
            std::swap(failure, failure_);
        }
        if (failure)
            std::rethrow_exception(failure);
    }

    /**
     * Run fn(i) once for every i in [0, n) and return when all have
     * finished. Indices are claimed from an atomic counter by helper
     * tasks and by the calling thread, which only ever waits for parts
     * other threads are already running; safe to call from inside a
     * task. Once a part throws, unclaimed indices are skipped and the
     * first exception is rethrown here after every in-flight part has
     * finished. Helper tasks that start after the return find nothing
     * to claim and never touch @p fn.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn)
    {
        struct Loop
        {
            std::atomic<size_t> next{0};
            std::atomic<bool> failed{false};
            std::mutex mutex;
            std::condition_variable finished;
            size_t done = 0; ///< claimed indices run or skipped
            std::exception_ptr failure;
        };
        const auto loop = std::make_shared<Loop>();
        const std::function<void(size_t)> *body = &fn;
        const auto claim = [loop, body, n] {
            for (size_t i; (i = loop->next.fetch_add(1)) < n;) {
                std::exception_ptr failure;
                if (!loop->failed.load()) {
                    try {
                        (*body)(i);
                    } catch (...) {
                        failure = std::current_exception();
                    }
                }
                std::lock_guard<std::mutex> lock(loop->mutex);
                if (failure && !loop->failure) {
                    loop->failure = failure;
                    loop->failed.store(true);
                }
                // Drop this thread's reference while holding the lock
                // (see workerLoop).
                failure = nullptr;
                if (++loop->done == n)
                    loop->finished.notify_all();
            }
        };
        const size_t helpers = std::min(n > 0 ? n - 1 : 0, workers_.size());
        for (size_t h = 0; h < helpers; ++h)
            submit(claim);
        claim();
        // Take the exception out of the shared state: a helper task may
        // outlive this call and destroy the Loop, which must then hold
        // no reference to an exception this thread is reading.
        std::exception_ptr failure;
        {
            std::unique_lock<std::mutex> lock(loop->mutex);
            loop->finished.wait(lock,
                                [&loop, n] { return loop->done == n; });
            std::swap(failure, loop->failure);
        }
        if (failure)
            std::rethrow_exception(failure);
    }

    int threadCount() const { return static_cast<int>(workers_.size()); }

  private:
    void workerLoop()
    {
        for (;;) {
            std::function<void()> task;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock,
                         [this] { return stopping_ || !queue_.empty(); });
                if (queue_.empty())
                    return; // stopping_ and drained
                task = std::move(queue_.front());
                queue_.pop_front();
            }
            std::exception_ptr failure;
            try {
                task();
            } catch (...) {
                failure = std::current_exception();
            }
            {
                std::unique_lock<std::mutex> lock(mutex_);
                if (failure && !failure_)
                    failure_ = failure;
                // Drop this thread's reference to the exception while
                // holding the lock. Released after the unlock, it could
                // be the last one and destroy the exception object
                // unordered with the waiter that rethrew and read it.
                failure = nullptr;
                if (--pending_ == 0)
                    idle_.notify_all();
            }
        }
    }

    std::mutex mutex_;
    std::condition_variable cv_;   ///< work available / stopping
    std::condition_variable idle_; ///< pending_ reached zero
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    size_t pending_ = 0; ///< queued + running tasks
    bool stopping_ = false;
    /** First uncollected task exception; dropped if never wait()ed. */
    std::exception_ptr failure_;
};

} // namespace rfl

#endif // RFL_SUPPORT_THREAD_POOL_HH
