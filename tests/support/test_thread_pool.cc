/** @file Tests for the campaign executor's host thread pool. */

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/thread_pool.hh"

namespace
{

using rfl::ThreadPool;

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4);

    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency)
{
    ThreadPool pool;
    EXPECT_GE(pool.threadCount(), 1);
}

TEST(ThreadPool, WaitCoversTasksSubmittedByTasks)
{
    // The executor's pattern: a finishing job submits its dependents.
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 10; ++i) {
        pool.submit([&pool, &ran] {
            ++ran;
            pool.submit([&ran] { ++ran; });
        });
    }
    pool.wait();
    EXPECT_EQ(ran.load(), 20);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
    pool.submit([&ran] { ++ran; });
    pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, TaskExceptionRethrownOnWait)
{
    // Regression: a throwing task used to unwind the worker loop and
    // std::terminate the process. The submitter must see it instead.
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("task failed"); });
    try {
        pool.wait();
        FAIL() << "wait() did not rethrow the task's exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "task failed");
    }
}

TEST(ThreadPool, OtherTasksStillRunWhenOneThrows)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 20; ++i) {
        pool.submit([&ran, i] {
            if (i == 7)
                throw std::runtime_error("one bad task");
            ++ran;
        });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), 19);
}

TEST(ThreadPool, PoolUsableAfterException)
{
    // The first wait() collects the failure; the pool then behaves as
    // if freshly built — the service job queue reuses pools this way.
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);

    std::atomic<int> ran{0};
    pool.submit([&ran] { ++ran; });
    pool.wait(); // must not rethrow the already-collected exception
    EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, FirstExceptionWins)
{
    ThreadPool pool(1); // sequential: deterministic first thrower
    pool.submit([] { throw std::runtime_error("first"); });
    pool.submit([] { throw std::runtime_error("second"); });
    try {
        pool.wait();
        FAIL() << "wait() did not rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "first");
    }
}

TEST(ThreadPool, ConcurrentThrowersCaptureOneSwallowRest)
{
    // Many tasks throwing at once from different workers: exactly one
    // exception surfaces at wait(), the rest are swallowed without
    // terminating, and the pool stays usable.
    ThreadPool pool(4);
    std::atomic<int> threw{0};
    for (int i = 0; i < 16; ++i) {
        pool.submit([&threw, i] {
            ++threw;
            throw std::runtime_error("concurrent #" +
                                     std::to_string(i));
        });
    }
    int caught = 0;
    try {
        pool.wait();
    } catch (const std::runtime_error &e) {
        ++caught;
        EXPECT_EQ(std::string(e.what()).rfind("concurrent #", 0), 0u)
            << "unexpected exception: " << e.what();
    }
    EXPECT_EQ(caught, 1);
    EXPECT_EQ(threw.load(), 16);

    // The swallowed failures must not resurface on the next cycle.
    std::atomic<int> ran{0};
    pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, DestructorSwallowsUncollectedException)
{
    // A pool destroyed without a final wait() must not terminate.
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("never collected"); });
    // Destructor runs here.
}

TEST(ThreadPool, SingleThreadPoolIsSequential)
{
    // With one worker, tasks run in submission order.
    ThreadPool pool(1);
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        pool.submit([&order, i] { order.push_back(i); });
    pool.wait();
    ASSERT_EQ(order.size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(ThreadPool, ParallelForRunsEveryIndexOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(hits.size(), [&hits](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    pool.parallelFor(0, [](size_t) { FAIL() << "empty loop ran"; });
    pool.wait();
}

TEST(ThreadPool, ParallelForFromInsideATaskOnOneThread)
{
    // The only worker is the caller: it must run every part itself
    // instead of waiting for a helper that can never start.
    ThreadPool pool(1);
    std::atomic<int> ran{0};
    pool.submit([&pool, &ran] {
        pool.parallelFor(16, [&ran](size_t) { ++ran; });
    });
    pool.wait();
    EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, ParallelForRethrowsAfterClaimedPartsFinish)
{
    ThreadPool pool(4);
    std::atomic<int> started{0};
    std::atomic<int> finished{0};
    std::atomic<bool> thrown{false};
    try {
        pool.parallelFor(8, [&](size_t i) {
            ++started;
            if (i == 0) {
                // Let the other threads claim their parts first.
                while (started.load() < 4)
                    std::this_thread::yield();
                thrown = true;
                throw std::runtime_error("part 0 failed");
            }
            while (!thrown.load())
                std::this_thread::yield();
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            ++finished;
        });
        FAIL() << "parallelFor() did not rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "part 0 failed");
    }
    // Every part that started (all but the thrower) had finished by the
    // time the exception reached the caller.
    EXPECT_GE(started.load(), 4);
    EXPECT_EQ(finished.load(), started.load() - 1);

    // The pool is usable afterwards, and the failure does not resurface.
    std::atomic<int> ran{0};
    pool.parallelFor(5, [&ran](size_t) { ++ran; });
    pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 6);
}

} // namespace
