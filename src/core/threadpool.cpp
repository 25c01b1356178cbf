#include "core/threadpool.hpp"

#include <algorithm>
#include <memory>

#include "core/env.hpp"
#include "core/status.hpp"

namespace orpheus {

namespace {

/**
 * Tiles per worker chunk when a deadline is installed. The check runs
 * once per tile, so a cancelled loop stops within one tile of work —
 * this bound is what the deadline tests verify against.
 */
constexpr std::int64_t kCancellationTiles = 8;

/**
 * Executes body over [begin, end), tiled with expiry checks when
 * @p deadline is non-null; plain single call otherwise.
 */
void
run_chunk(std::int64_t begin, std::int64_t end, const LoopBody &body,
          const DeadlineToken *deadline)
{
    if (deadline == nullptr) {
        body(begin, end);
        return;
    }
    const std::int64_t tile = std::max<std::int64_t>(
        1, (end - begin + kCancellationTiles - 1) / kCancellationTiles);
    for (std::int64_t at = begin; at < end; at += tile) {
        if (deadline->expired())
            throw DeadlineExceededError(
                "parallel_for cancelled at tile boundary");
        body(at, std::min(end, at + tile));
    }
}

} // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads))
{
    // Worker 0 is the caller; spawn only the remaining workers.
    workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
    for (int i = 1; i < num_threads_; ++i)
        workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutting_down_ = true;
    }
    work_ready_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::record_error(std::exception_ptr error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!first_error_)
        first_error_ = std::move(error);
}

void
ThreadPool::parallel_for(std::int64_t count, LoopBody body)
{
    if (count <= 0)
        return;
    const DeadlineToken *deadline = current_deadline();
    if (deadline != nullptr && deadline->expired())
        throw DeadlineExceededError(
            "cancelled before parallel_for dispatch");
    if (num_threads_ == 1 || count == 1) {
        run_chunk(0, count, body, deadline);
        return;
    }

    // One dispatch at a time: engines running on different threads may
    // share the global pool; late callers queue here.
    std::lock_guard<std::mutex> dispatch(dispatch_mutex_);

    const int used =
        static_cast<int>(std::min<std::int64_t>(num_threads_, count));
    const std::int64_t chunk = (count + used - 1) / used;

    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.assign(static_cast<std::size_t>(num_threads_), Task{});
        for (int i = 0; i < used; ++i) {
            tasks_[static_cast<std::size_t>(i)].begin =
                std::min<std::int64_t>(i * chunk, count);
            tasks_[static_cast<std::size_t>(i)].end =
                std::min<std::int64_t>((i + 1) * chunk, count);
        }
        body_ = body;
        deadline_ = deadline;
        first_error_ = nullptr;
        pending_ = num_threads_ - 1;
        ++generation_;
    }
    work_ready_.notify_all();

    // The calling thread executes chunk 0 itself.
    const Task own = tasks_[0];
    if (own.begin < own.end) {
        try {
            run_chunk(own.begin, own.end, body, deadline);
        } catch (...) {
            record_error(std::current_exception());
        }
    }

    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        work_done_.wait(lock, [this] { return pending_ == 0; });
        body_ = LoopBody();
        deadline_ = nullptr;
        std::swap(error, first_error_);
    }
    if (error)
        std::rethrow_exception(error);
}

void
ThreadPool::worker_loop(int worker_index)
{
    std::uint64_t seen_generation = 0;
    while (true) {
        Task task;
        LoopBody body;
        const DeadlineToken *deadline = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_ready_.wait(lock, [this, seen_generation] {
                return shutting_down_ || generation_ != seen_generation;
            });
            if (shutting_down_)
                return;
            seen_generation = generation_;
            task = tasks_[static_cast<std::size_t>(worker_index)];
            body = body_;
            deadline = deadline_;
        }
        if (task.begin < task.end) {
            try {
                run_chunk(task.begin, task.end, body, deadline);
            } catch (...) {
                // Never let an exception escape the worker thread (that
                // would std::terminate the process); hand it to the
                // caller instead.
                record_error(std::current_exception());
            }
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (--pending_ == 0)
                work_done_.notify_one();
        }
    }
}

namespace {

std::mutex g_pool_mutex;
/** Shared, not unique: a resize swaps in a new pool while callers that
 *  already hold the old one finish their parallel_for on it. */
std::shared_ptr<ThreadPool> g_pool;
int g_num_threads = 0; // 0 -> not yet initialised

int
initial_num_threads()
{
    // Default to the paper's single-thread evaluation setup unless the
    // environment overrides it.
    return env_int("ORPHEUS_NUM_THREADS", 1);
}

/** The current global pool, (re)built at the configured size. */
std::shared_ptr<ThreadPool>
current_global_pool()
{
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (g_num_threads == 0)
        g_num_threads = initial_num_threads();
    if (!g_pool || g_pool->num_threads() != g_num_threads)
        g_pool = std::make_shared<ThreadPool>(g_num_threads);
    return g_pool;
}

} // namespace

ThreadPool &
global_thread_pool()
{
    return *current_global_pool();
}

int
global_num_threads()
{
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (g_num_threads == 0)
        g_num_threads = initial_num_threads();
    return g_num_threads;
}

void
set_global_num_threads(int num_threads)
{
    ORPHEUS_CHECK(num_threads >= 1,
                  "thread count must be >= 1, got " << num_threads);
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    g_num_threads = num_threads;
    if (g_pool && g_pool->num_threads() != g_num_threads)
        g_pool.reset();
}

void
parallel_for(std::int64_t count, LoopBody body)
{
    // Keep this call's pool alive for the whole loop, even if another
    // thread resizes the global pool meanwhile.
    const std::shared_ptr<ThreadPool> pool = current_global_pool();
    pool->parallel_for(count, body);
}

} // namespace orpheus
