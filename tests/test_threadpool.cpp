/** @file Unit tests for the thread pool and parallel_for. */
#include "core/threadpool.hpp"

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/status.hpp"

namespace orpheus {
namespace {

TEST(ThreadPool, SingleThreadRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.num_threads(), 1);
    std::vector<int> hits(10, 0);
    pool.parallel_for(10, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i)
            ++hits[static_cast<std::size_t>(i)];
    });
    for (int hit : hits)
        EXPECT_EQ(hit, 1);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    const std::int64_t count = 1000;
    std::vector<std::atomic<int>> hits(count);
    pool.parallel_for(count, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i)
            hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (std::int64_t i = 0; i < count; ++i)
        EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << i;
}

TEST(ThreadPool, MoreThreadsThanWork)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(3);
    pool.parallel_for(3, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i)
            hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (auto &hit : hits)
        EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ZeroAndNegativeCountAreNoops)
{
    ThreadPool pool(4);
    int calls = 0;
    pool.parallel_for(0, [&](std::int64_t, std::int64_t) { ++calls; });
    pool.parallel_for(-5, [&](std::int64_t, std::int64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ReusableAcrossManyInvocations)
{
    ThreadPool pool(3);
    for (int round = 0; round < 50; ++round) {
        std::atomic<std::int64_t> sum{0};
        pool.parallel_for(100, [&](std::int64_t begin, std::int64_t end) {
            std::int64_t local = 0;
            for (std::int64_t i = begin; i < end; ++i)
                local += i;
            sum.fetch_add(local);
        });
        EXPECT_EQ(sum.load(), 99 * 100 / 2);
    }
}

TEST(ThreadPool, ParallelSumMatchesSerial)
{
    std::vector<double> data(4096);
    std::iota(data.begin(), data.end(), 1.0);

    ThreadPool pool(4);
    std::atomic<std::int64_t> partials{0};
    std::mutex merge_mutex;
    double parallel_sum = 0.0;
    pool.parallel_for(static_cast<std::int64_t>(data.size()),
                      [&](std::int64_t begin, std::int64_t end) {
                          double local = 0.0;
                          for (std::int64_t i = begin; i < end; ++i)
                              local += data[static_cast<std::size_t>(i)];
                          std::lock_guard<std::mutex> lock(merge_mutex);
                          parallel_sum += local;
                          partials.fetch_add(1);
                      });
    EXPECT_DOUBLE_EQ(parallel_sum,
                     std::accumulate(data.begin(), data.end(), 0.0));
    EXPECT_LE(partials.load(), 4);
}

TEST(GlobalThreadPool, DefaultsToSingleThread)
{
    // The paper's evaluation configuration: 1 thread unless overridden.
    set_global_num_threads(1);
    EXPECT_EQ(global_num_threads(), 1);
    EXPECT_EQ(global_thread_pool().num_threads(), 1);
}

TEST(GlobalThreadPool, ResizeRebuildsPool)
{
    set_global_num_threads(3);
    EXPECT_EQ(global_thread_pool().num_threads(), 3);
    set_global_num_threads(1);
    EXPECT_EQ(global_thread_pool().num_threads(), 1);
    EXPECT_THROW(set_global_num_threads(0), Error);
}

TEST(GlobalThreadPool, FreeFunctionParallelFor)
{
    set_global_num_threads(2);
    std::vector<std::atomic<int>> hits(64);
    parallel_for(64, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i)
            hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (auto &hit : hits)
        EXPECT_EQ(hit.load(), 1);
    set_global_num_threads(1);
}

TEST(GlobalThreadPool, ResizeDuringParallelForKeepsPoolAlive)
{
    // While the calling thread is inside a parallel_for, another thread
    // resizes the global pool. The loop must finish on the pool it
    // started on, every index exactly once, rather than on a pool the
    // resize destroyed.
    for (int iteration = 0; iteration < 20; ++iteration) {
        const int threads = 2 + iteration % 2;
        set_global_num_threads(threads);
        std::vector<std::atomic<int>> hits(64);
        parallel_for(64, [&](std::int64_t begin, std::int64_t end) {
            if (begin == 0) // chunk 0 runs on the calling thread
                std::thread([&] { set_global_num_threads(5 - threads); })
                    .join();
            for (std::int64_t i = begin; i < end; ++i)
                hits[static_cast<std::size_t>(i)].fetch_add(1);
        });
        for (auto &hit : hits)
            EXPECT_EQ(hit.load(), 1) << "iteration " << iteration;
        EXPECT_EQ(global_thread_pool().num_threads(), 5 - threads);
    }
    set_global_num_threads(1);
}

// --- Exception safety -----------------------------------------------------

/** A worker exception must not std::terminate the process; the first
 *  one is rethrown on the calling thread. */
TEST(ThreadPoolExceptions, WorkerExceptionRethrownOnCaller)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallel_for(100,
                          [&](std::int64_t begin, std::int64_t end) {
                              for (std::int64_t i = begin; i < end; ++i)
                                  if (i == 57)
                                      throw std::runtime_error("boom");
                          }),
        std::runtime_error);
}

/** After a throwing dispatch the pool must still be fully usable. */
TEST(ThreadPoolExceptions, PoolSurvivesAndStaysUsable)
{
    ThreadPool pool(4);
    for (int round = 0; round < 3; ++round) {
        EXPECT_THROW(pool.parallel_for(
                         64,
                         [](std::int64_t, std::int64_t) {
                             throw Error("every chunk fails");
                         }),
                     Error);
        std::vector<std::atomic<int>> hits(64);
        pool.parallel_for(64, [&](std::int64_t begin, std::int64_t end) {
            for (std::int64_t i = begin; i < end; ++i)
                hits[static_cast<std::size_t>(i)].fetch_add(1);
        });
        for (auto &hit : hits)
            EXPECT_EQ(hit.load(), 1);
    }
}

TEST(ThreadPoolExceptions, SerialPathPropagatesToo)
{
    ThreadPool pool(1);
    EXPECT_THROW(pool.parallel_for(10,
                                   [](std::int64_t, std::int64_t) {
                                       throw std::runtime_error("serial");
                                   }),
                 std::runtime_error);
}

// --- Cooperative cancellation ---------------------------------------------

TEST(ThreadPoolCancellation, AlreadyCancelledFailsFastWithNoWork)
{
    ThreadPool pool(4);
    DeadlineToken token = DeadlineToken::unlimited();
    token.cancel();
    ScopedDeadline cancelled(token);
    std::atomic<int> executed{0};
    EXPECT_THROW(pool.parallel_for(100,
                                   [&](std::int64_t, std::int64_t) {
                                       executed.fetch_add(1);
                                   }),
                 DeadlineExceededError);
    EXPECT_EQ(executed.load(), 0);
}

/** Cancellation raised mid-loop stops within a tile of work instead of
 *  running the remaining chunks to completion. */
TEST(ThreadPoolCancellation, CancellationStopsAtTileBoundary)
{
    ThreadPool pool(1);
    DeadlineToken token = DeadlineToken::unlimited();
    ScopedDeadline scope(token);
    std::atomic<std::int64_t> processed{0};
    EXPECT_THROW(
        pool.parallel_for(64,
                          [&](std::int64_t begin, std::int64_t end) {
                              processed.fetch_add(end - begin);
                              token.cancel();
                          }),
        DeadlineExceededError);
    // With 8 tiles over 64 iterations, the first tile (8 iterations)
    // runs, then the boundary check fires.
    EXPECT_GT(processed.load(), 0);
    EXPECT_LT(processed.load(), 64);
}

TEST(ThreadPoolCancellation, ParallelWorkersObserveCancellation)
{
    ThreadPool pool(4);
    DeadlineToken token = DeadlineToken::unlimited();
    ScopedDeadline scope(token);
    std::atomic<std::int64_t> processed{0};
    EXPECT_THROW(
        pool.parallel_for(1024,
                          [&](std::int64_t begin, std::int64_t end) {
                              processed.fetch_add(end - begin);
                              token.cancel();
                          }),
        DeadlineExceededError);
    EXPECT_LT(processed.load(), 1024);
}

TEST(ThreadPoolCancellation, ScopeRestoresPreviousCheckOnExit)
{
    EXPECT_EQ(current_deadline(), nullptr);
    {
        ScopedDeadline outer(DeadlineToken::unlimited());
        const DeadlineToken *outer_token = current_deadline();
        ASSERT_NE(outer_token, nullptr);
        EXPECT_FALSE(outer_token->expired());
        {
            ScopedDeadline inner(DeadlineToken::after_ms(0));
            ASSERT_NE(current_deadline(), nullptr);
            EXPECT_NE(current_deadline(), outer_token);
            EXPECT_TRUE(current_deadline()->expired());
        }
        EXPECT_EQ(current_deadline(), outer_token);
        EXPECT_FALSE(current_deadline()->expired());
    }
    EXPECT_EQ(current_deadline(), nullptr);
}

/** No ScopedDeadline installed: the body runs untiled (one call
 *  per chunk), preserving the historical chunking contract. */
TEST(ThreadPoolCancellation, NoCheckMeansNoTiling)
{
    ThreadPool pool(1);
    std::atomic<int> calls{0};
    pool.parallel_for(64, [&](std::int64_t begin, std::int64_t end) {
        calls.fetch_add(1);
        EXPECT_EQ(begin, 0);
        EXPECT_EQ(end, 64);
    });
    EXPECT_EQ(calls.load(), 1);
}

} // namespace
} // namespace orpheus
