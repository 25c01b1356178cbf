/**
 * @file
 * A work-sharing thread pool with an OpenMP-style parallel_for.
 *
 * The paper's kernels "leverage APIs such as OpenMP"; Orpheus ships its
 * own dependency-free equivalent so the same code runs on any toolchain.
 * A process-wide pool (global_thread_pool) is created lazily; kernels
 * call parallel_for, which degrades to a plain serial loop when the
 * configured thread count is 1 — this is how the single-thread
 * evaluation from the paper (Figure 2) is enforced. A request deadline
 * reaches the loop through the calling thread's ScopedDeadline
 * (core/deadline.hpp), which parallel_for reads and checks per tile.
 */
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/deadline.hpp"

namespace orpheus {

/**
 * Non-owning reference to a loop body callable — the parallel_for
 * argument type. Unlike an owning type-erased wrapper, constructing
 * one never heap allocates, which keeps steady-state kernel dispatch
 * allocation-free even for capturing lambdas. That holds under a
 * ScopedDeadline too: the cancellation hook the pool hands its workers
 * is a plain DeadlineToken pointer. The referenced callable must
 * outlive the parallel_for call; that always holds because
 * parallel_for blocks until every chunk has finished.
 */
class LoopBody
{
  public:
    LoopBody() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, LoopBody>>>
    LoopBody(const F &f) // NOLINT(google-explicit-constructor)
        : object_(&f),
          invoke_([](const void *object, std::int64_t begin,
                     std::int64_t end) {
              (*static_cast<const F *>(object))(begin, end);
          })
    {
    }

    explicit operator bool() const { return invoke_ != nullptr; }

    void
    operator()(std::int64_t begin, std::int64_t end) const
    {
        invoke_(object_, begin, end);
    }

  private:
    const void *object_ = nullptr;
    void (*invoke_)(const void *, std::int64_t, std::int64_t) = nullptr;
};

class ThreadPool
{
  public:
    /**
     * Creates a pool with @p num_threads workers. One of the workers is
     * the calling thread itself, so num_threads == 1 spawns nothing.
     */
    explicit ThreadPool(int num_threads);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int num_threads() const { return num_threads_; }

    /**
     * Runs @p body(begin, end) over disjoint chunks of [0, count) on all
     * workers and blocks until every chunk has finished. Chunks are
     * statically partitioned (OpenMP "schedule(static)" semantics),
     * which suits the regular loops in dense kernels.
     *
     * Robustness contract:
     *  - A worker exception does not terminate the process: the first
     *    exception thrown by any chunk is captured and rethrown on the
     *    calling thread once every worker has finished; the pool stays
     *    usable afterwards.
     *  - When the calling thread has a ScopedDeadline installed,
     *    chunks execute in tiles and every worker re-checks the token
     *    at each tile boundary; an expired token raises
     *    DeadlineExceededError on the caller. An already-expired token
     *    fails fast before any work is dispatched.
     *  - Concurrent parallel_for calls from different threads are
     *    serialized on an internal dispatch mutex, so one pool can be
     *    shared by concurrent inference sessions. Nested parallel_for
     *    from inside a body is not supported.
     */
    void parallel_for(std::int64_t count, LoopBody body);

  private:
    struct Task {
        std::int64_t begin = 0;
        std::int64_t end = 0;
    };

    void worker_loop(int worker_index);

    /** Stores @p error as the dispatch's result if it is the first. */
    void record_error(std::exception_ptr error);

    int num_threads_;
    std::vector<std::thread> workers_;

    /** Held for the whole of a parallel dispatch; serializes callers. */
    std::mutex dispatch_mutex_;

    std::mutex mutex_;
    std::condition_variable work_ready_;
    std::condition_variable work_done_;
    LoopBody body_;
    /**
     * The dispatching caller's current_deadline() (may be null). Like
     * body_, it stays valid for the whole dispatch: the caller's
     * ScopedDeadline outlives parallel_for, which blocks until every
     * worker has finished.
     */
    const DeadlineToken *deadline_ = nullptr;
    std::exception_ptr first_error_;
    std::vector<Task> tasks_;
    std::uint64_t generation_ = 0;
    int pending_ = 0;
    bool shutting_down_ = false;
};

/**
 * Returns the process-wide pool, creating it on first use with
 * default_num_threads() workers. The pool is rebuilt if
 * set_global_num_threads() changes the size; the returned reference is
 * valid until then. parallel_for() holds its own reference for the
 * whole call, so a concurrent resize never destroys a pool mid-loop.
 */
ThreadPool &global_thread_pool();

/** Number of threads the global pool will use (default: 1). */
int global_num_threads();

/**
 * Resizes the global pool. Orpheus defaults to 1 thread — the paper's
 * evaluation configuration — so parallelism is strictly opt-in.
 */
void set_global_num_threads(int num_threads);

/** Static-partitioned parallel loop on the global pool. */
void parallel_for(std::int64_t count, LoopBody body);

} // namespace orpheus
