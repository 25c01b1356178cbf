#include "runtime/service.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "core/logging.hpp"
#include "core/timer.hpp"

namespace orpheus {

namespace {

double
elapsed_ms_since(std::chrono::steady_clock::time_point start)
{
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count();
}

InferenceResponse
rejected(Status status)
{
    InferenceResponse response;
    response.status = std::move(status);
    return response;
}

/** A failure the pool can paper over by failing over to another
 *  replica: guard-confirmed corruption or a kernel fault. */
bool
is_retryable(const Status &status)
{
    return status.code() == StatusCode::kDataCorruption ||
           status.code() == StatusCode::kInternal;
}

} // namespace

const char *
to_string(RequestPriority priority)
{
    switch (priority) {
      case RequestPriority::kRealtime: return "realtime";
      case RequestPriority::kInteractive: return "interactive";
      case RequestPriority::kBatch: return "batch";
    }
    return "unknown";
}

double
retry_backoff_for_attempt_ms(const ServiceOptions &options, int attempt,
                             double jitter)
{
    const double exp_backoff =
        options.retry_backoff_ms *
        static_cast<double>(std::int64_t{1} << std::min(attempt, 20));
    // Clamp AFTER jitter: retry_backoff_max_ms is a hard ceiling.
    return std::min(exp_backoff * jitter, options.retry_backoff_max_ms);
}

InferenceService::InferenceService(Graph graph,
                                   EngineOptions engine_options,
                                   ServiceOptions options)
    : options_(options)
{
    ORPHEUS_CHECK(options_.workers >= 1,
                  "service needs >= 1 worker, got " << options_.workers);
    ORPHEUS_CHECK(options_.max_queue_depth >= 1,
                  "service needs a queue depth >= 1, got "
                      << options_.max_queue_depth);
    ORPHEUS_CHECK(options_.max_retries >= 0,
                  "service needs >= 0 retries, got "
                      << options_.max_retries);
    ORPHEUS_CHECK(options_.aging_credit_limit >= 0,
                  "service needs an aging credit limit >= 0, got "
                      << options_.aging_credit_limit);
    ORPHEUS_CHECK(options_.max_batch >= 1,
                  "service needs max_batch >= 1, got "
                      << options_.max_batch);

    // Dynamic batching is compiled into the replica engines: each one
    // plans its arena/workspace once at the max_batch bucket and then
    // serves any occupancy up to it.
    if (options_.max_batch > 1)
        engine_options.max_batch = options_.max_batch;

    EnginePoolOptions pool_options;
    pool_options.replicas = options_.replicas > 0 ? options_.replicas
                                                  : options_.workers;
    pool_options.warm_spares = options_.warm_spares;
    pool_options.quarantine_threshold = options_.quarantine_threshold;
    pool_options.per_replica_injectors = options_.per_replica_injectors;
    pool_ = std::make_unique<EnginePool>(
        std::move(graph), std::move(engine_options), std::move(pool_options));
    registry_ = std::make_unique<ModelRegistry>(*pool_);
    footprint_ = pool_->engine(0).request_footprint_bytes();
    // The model may refuse batching (see Engine::batch_fallback_reason);
    // the assembler honours what the engines actually compiled.
    batch_capacity_ = pool_->batch_capacity();

    // Retry budget: a token bucket refilled by traffic. The small
    // initial burst lets the very first failures retry before any
    // traffic has accrued credit.
    retry_token_cap_ = std::max(1.0, options_.retry_budget * 15.0);
    retry_tokens_ = retry_token_cap_;

    if (options_.enable_watchdog) {
        WatchdogConfig config;
        config.poll_interval_ms = options_.watchdog_poll_ms;
        config.hang_threshold_ms = options_.hang_threshold_ms;
        watchdog_ = std::make_unique<Watchdog>(
            config, pool_->monitors(),
            [this](const HangReport &report) { on_hang(report); });
    }

    const auto worker_count = static_cast<std::size_t>(options_.workers);
    workers_.reserve(worker_count);
    for (std::size_t i = 0; i < worker_count; ++i)
        workers_.emplace_back([this, i] { worker_loop(i); });
}

InferenceService::~InferenceService()
{
    stop();
}

std::future<InferenceResponse>
InferenceService::submit(std::map<std::string, Tensor> inputs,
                         DeadlineToken deadline,
                         std::size_t memory_budget_bytes,
                         RequestPriority priority)
{
    std::promise<InferenceResponse> promise;
    std::future<InferenceResponse> future = promise.get_future();
    const std::size_t lane = priority_index(priority);

    DeadlineToken token = deadline;
    if (!token.valid()) {
        // Class SLO budget first, service default second.
        const double budget_ms = options_.class_deadline_ms[lane] > 0
                                     ? options_.class_deadline_ms[lane]
                                     : options_.default_deadline_ms;
        token = budget_ms > 0 ? DeadlineToken::after_ms(budget_ms)
                              : DeadlineToken::unlimited();
    }

    const std::size_t budget = memory_budget_bytes != 0
                                   ? memory_budget_bytes
                                   : options_.memory_budget_bytes;

    std::unique_lock<std::mutex> lock(mutex_);
    ++stats_.submitted;

    if (stopping_ || draining_) {
        if (draining_ && !stopping_)
            ++stats_.rejected_shutdown;
        const bool draining = draining_ && !stopping_;
        lock.unlock();
        promise.set_value(rejected(failed_precondition_error(
            draining ? "inference service is shutting down; "
                       "not accepting new work"
                     : "inference service is stopped")));
        return future;
    }
    if (budget != 0 && footprint_ > budget) {
        ++stats_.rejected_memory;
        lock.unlock();
        std::ostringstream message;
        message << "request activation footprint " << footprint_
                << " bytes exceeds the memory budget of " << budget
                << " bytes";
        promise.set_value(rejected(resource_exhausted_error(message.str())));
        return future;
    }
    // Deadline feasibility: an already-expired budget, or one the
    // estimated queue wait ahead of this request would exhaust, is a
    // guaranteed miss — refuse it now, in microseconds, instead of
    // after queue time and a replica lease.
    const bool expired = token.expired();
    bool infeasible = false;
    if (!expired) {
        double wait_ms = estimated_wait_ms_locked(lane);
        // Expected batch-window wait: the assembler only holds a
        // request whose budget covers the window (deadline-aware
        // splitting dispatches immediately otherwise), so the window
        // folds into the estimate exactly when it will actually be
        // paid. It lengthens the estimate for patient requests
        // without rejecting tight ones the assembler protects; the
        // workers' windows overlap, so it is not divided by the
        // worker count.
        if (batch_capacity_ > 1 && options_.batch_window_ms > 0 &&
            lane != priority_index(RequestPriority::kRealtime) &&
            token.can_cover_ms(wait_ms + options_.batch_window_ms))
            wait_ms += options_.batch_window_ms;
        infeasible = !token.can_cover_ms(wait_ms);
    }
    if (expired || infeasible) {
        ++stats_.class_infeasible[lane];
        lock.unlock();
        promise.set_value(rejected(deadline_exceeded_error(
            expired ? "deadline expired before the request was admitted"
                    : "deadline infeasible: the estimated queue wait "
                      "already exceeds the remaining budget")));
        return future;
    }
    // The global cap bounds total backlog, but a batch flood filling
    // the shared queue must not starve real-time admission: the
    // real-time lane answers only to its own (small) depth limit, so
    // total backlog exceeds max_queue_depth by at most that much.
    const bool lane_full = lanes_[lane].size() >= lane_limit(lane);
    const bool global_full = priority != RequestPriority::kRealtime &&
                             queued_locked() >= options_.max_queue_depth;
    if (lane_full || global_full) {
        ++stats_.rejected_queue_full;
        lock.unlock();
        std::ostringstream message;
        if (lane_full)
            message << to_string(priority) << " lane is full (depth "
                    << lane_limit(lane) << "); shedding load";
        else
            message << "request queue is full (depth "
                    << options_.max_queue_depth << "); shedding load";
        promise.set_value(rejected(resource_exhausted_error(message.str())));
        return future;
    }

    ++stats_.accepted;
    Request request;
    request.promise = std::move(promise);
    request.inputs = std::move(inputs);
    request.token = std::move(token);
    request.priority = priority;
    request.enqueued = std::chrono::steady_clock::now();
    lanes_[lane].push_back(std::move(request));
    update_brownout_locked();
    lock.unlock();
    work_ready_.notify_one();
    return future;
}

InferenceResponse
InferenceService::run(std::map<std::string, Tensor> inputs,
                      DeadlineToken deadline, RequestPriority priority)
{
    return submit(std::move(inputs), std::move(deadline), 0, priority)
        .get();
}

std::size_t
InferenceService::lane_limit(std::size_t lane) const
{
    if (lane == priority_index(RequestPriority::kRealtime))
        return options_.rt_queue_depth > 0
                   ? options_.rt_queue_depth
                   : std::max<std::size_t>(1,
                                           options_.max_queue_depth / 4);
    return options_.max_queue_depth;
}

std::size_t
InferenceService::queued_locked() const
{
    std::size_t total = 0;
    for (const std::deque<Request> &queue : lanes_)
        total += queue.size();
    return total;
}

double
InferenceService::estimated_wait_ms_locked(std::size_t lane,
                                           std::size_t in_flight) const
{
    // A lane with queued work but no service history yet must still
    // weigh on the estimate — skipping it made a full (but cold)
    // higher-priority lane invisible here, so admission under-counted
    // the wait and accepted guaranteed misses. Such a lane borrows
    // the slowest recorded P50 from any other lane; a fully cold
    // service (no history anywhere) still estimates 0.
    double borrowed_ms = 0;
    for (std::size_t c = 0; c < kPriorityClasses; ++c)
        borrowed_ms = std::max(borrowed_ms, lane_service_ms_locked(c));
    double wait_ms = static_cast<double>(in_flight) * borrowed_ms;
    for (std::size_t c = 0; c <= lane; ++c) {
        if (lanes_[c].empty())
            continue;
        const double service_ms = class_service_[c].count() > 0
                                      ? lane_service_ms_locked(c)
                                      : borrowed_ms;
        wait_ms += static_cast<double>(lanes_[c].size()) * service_ms;
    }
    return wait_ms / static_cast<double>(std::max(1, options_.workers));
}

double
InferenceService::lane_service_ms_locked(std::size_t lane) const
{
    return class_service_[lane].count() > 0
               ? class_service_[lane].percentile(0.50)
               : 0.0;
}

std::size_t
InferenceService::next_lane_locked()
{
    std::size_t top = kPriorityClasses;
    for (std::size_t lane = 0; lane < kPriorityClasses; ++lane) {
        if (!lanes_[lane].empty()) {
            top = lane;
            break;
        }
    }
    if (top == kPriorityClasses)
        return top;

    // Aging: the most-starved lower lane that reached the credit limit
    // wins the pop. Suspended while browned out — under overload the
    // scheduler is strictly class-ordered so real-time always goes
    // first.
    if (!brownout_ && options_.aging_credit_limit > 0) {
        for (std::size_t lane = kPriorityClasses; lane-- > top + 1;) {
            if (!lanes_[lane].empty() &&
                aging_credit_[lane] >= options_.aging_credit_limit) {
                aging_credit_[lane] = 0;
                return lane;
            }
        }
    }
    for (std::size_t lane = top + 1; lane < kPriorityClasses; ++lane)
        if (!lanes_[lane].empty())
            ++aging_credit_[lane];
    aging_credit_[top] = 0;
    return top;
}

void
InferenceService::worker_loop(std::size_t worker)
{
    // Per-worker backoff jitter; deterministic seeds keep test runs
    // reproducible.
    std::minstd_rand rng(static_cast<unsigned>(0x9e3779b9u + worker));
    while (true) {
        std::vector<Request> batch;
        bool shed_batch = false;
        bool infeasible_interactive = false;
        std::size_t lane = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_ready_.wait(lock, [this] {
                return stopping_ || queued_locked() > 0;
            });
            lane = next_lane_locked();
            if (lane == kPriorityClasses) {
                // stopping_ with empty lanes: time to exit.
                return;
            }
            batch.push_back(std::move(lanes_[lane].front()));
            lanes_[lane].pop_front();
            ++in_flight_;
            update_brownout_locked();
            Request &leader = batch.front();
            if (brownout_ &&
                leader.priority == RequestPriority::kBatch) {
                shed_batch = true;
                ++stats_.brownout_shed;
                ++stats_.class_shed[lane];
            } else if (brownout_ && leader.priority ==
                                        RequestPriority::kInteractive) {
                // Bottom-up degradation, step two: under brownout an
                // interactive request past its feasibility margin (one
                // typical service time) fails fast instead of burning
                // a replica lease on a guaranteed miss. Real-time work
                // is never vetted here — it always dispatches.
                infeasible_interactive = !leader.token.can_cover_ms(
                    lane_service_ms_locked(lane));
            } else if (!leader.token.expired()) {
                // Dynamic batching: coalesce more same-lane work
                // behind this leader before dispatching.
                assemble_batch_locked(lock, lane, batch);
            }
        }

        std::vector<InferenceResponse> responses(batch.size());

        if (shed_batch) {
            responses.front().queue_ms =
                elapsed_ms_since(batch.front().enqueued);
            responses.front().status = resource_exhausted_error(
                "brownout: shedding batch-priority work under overload");
        } else if (infeasible_interactive) {
            responses.front().queue_ms =
                elapsed_ms_since(batch.front().enqueued);
            responses.front().status = deadline_exceeded_error(
                "brownout: interactive request deferred past its "
                "feasibility margin");
        } else {
            // Queue time is stamped at dispatch so it includes any
            // batching window wait — the per-class histograms must show
            // the true per-request price of coalescing. Members whose
            // deadline lapsed while the batch assembled fail alone; the
            // rest dispatch together.
            std::vector<std::size_t> live;
            live.reserve(batch.size());
            for (std::size_t i = 0; i < batch.size(); ++i) {
                responses[i].queue_ms = elapsed_ms_since(batch[i].enqueued);
                if (batch[i].token.expired())
                    responses[i].status = deadline_exceeded_error(
                        "deadline expired while the request was queued");
                else
                    live.push_back(i);
            }
            if (!live.empty())
                dispatch(batch, live, responses, rng);
        }

        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (const InferenceResponse &response : responses)
                finish_request_locked(lane, shed_batch, response);
        }
        for (std::size_t i = 0; i < batch.size(); ++i)
            batch[i].promise.set_value(std::move(responses[i]));
    }
}

void
InferenceService::assemble_batch_locked(std::unique_lock<std::mutex> &lock,
                                        std::size_t lane,
                                        std::vector<Request> &batch)
{
    const auto capacity = static_cast<std::size_t>(batch_capacity_);
    if (capacity <= 1)
        return;
    // The window is the latency price of coalescing: the real-time
    // lane never pays it, and a leader whose remaining budget cannot
    // cover the window plus one typical service time dispatches
    // immediately (deadline-aware splitting). Both still coalesce
    // whatever is already queued.
    const double service_ms = lane_service_ms_locked(lane);
    const bool realtime =
        lane == priority_index(RequestPriority::kRealtime);
    double window_ms =
        realtime ? 0.0 : std::max(0.0, options_.batch_window_ms);
    bool deadline_flush = false;
    if (window_ms > 0 &&
        !batch.front().token.can_cover_ms(window_ms + service_ms)) {
        window_ms = 0;
        deadline_flush = true;
    }
    const auto flush_at =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(window_ms));

    bool window_flush = false;
    for (;;) {
        while (batch.size() < capacity && !lanes_[lane].empty() &&
               !deadline_flush) {
            Request &front = lanes_[lane].front();
            // A joiner that cannot wait out the rest of the window
            // forces the batch out now, with it on board.
            if (window_ms > 0 && !front.token.expired()) {
                const std::chrono::duration<double, std::milli> left =
                    flush_at - std::chrono::steady_clock::now();
                if (!front.token.can_cover_ms(
                        std::max(0.0, left.count()) + service_ms))
                    deadline_flush = true;
            }
            batch.push_back(std::move(front));
            lanes_[lane].pop_front();
            ++in_flight_;
        }
        if (batch.size() >= capacity || deadline_flush || window_ms <= 0)
            break;
        if (stopping_ || draining_ ||
            std::chrono::steady_clock::now() >= flush_at) {
            window_flush = true;
            break;
        }
        // Higher-priority arrivals flush the batch rather than wait
        // behind its window.
        bool higher_waiting = false;
        for (std::size_t c = 0; c < lane; ++c)
            higher_waiting = higher_waiting || !lanes_[c].empty();
        if (higher_waiting) {
            window_flush = true;
            break;
        }
        work_ready_.wait_until(lock, flush_at);
    }

    if (batch.size() >= 2) {
        ++stats_.batches_formed;
        stats_.batched_requests +=
            static_cast<std::int64_t>(batch.size());
        stats_.batch_max_occupancy =
            std::max(stats_.batch_max_occupancy,
                     static_cast<std::int64_t>(batch.size()));
        if (batch.size() >= capacity)
            ++stats_.batch_flush_full;
        else if (deadline_flush)
            ++stats_.batch_flush_deadline;
        else if (window_flush)
            ++stats_.batch_flush_window;
    }
}

void
InferenceService::finish_request_locked(std::size_t lane, bool shed,
                                        const InferenceResponse &response)
{
    if (response.status.is_ok())
        ++stats_.completed_ok;
    else if (response.status.code() == StatusCode::kDeadlineExceeded)
        ++stats_.class_deadline_miss[lane];
    else if (response.status.code() == StatusCode::kDataCorruption)
        ++stats_.data_corruption;
    else if (shed)
        ; // Counted as brownout_shed, not a failure.
    else
        ++stats_.failed;
    if (!shed) {
        // Per-class accounting covers every worker-finished request
        // (deadline misses land at their queue time) so histogram
        // counts + sheds partition `submitted`.
        class_latency_[lane].record(response.queue_ms + response.run_ms);
        if (response.status.is_ok() && response.run_ms > 0)
            class_service_[lane].record(response.run_ms);
    }
    if (!shed && response.run_ms > 0)
        latency_.record(response.queue_ms + response.run_ms);
    // Each dispatched request earns retry credit.
    if (!shed)
        retry_tokens_ = std::min(retry_token_cap_,
                                 retry_tokens_ + options_.retry_budget);
    --in_flight_;
}

void
InferenceService::dispatch(std::vector<Request> &batch,
                           const std::vector<std::size_t> &members,
                           std::vector<InferenceResponse> &responses,
                           std::minstd_rand &rng, std::size_t exclude_replica)
{
    const bool fused = members.size() > 1;
    const bool realtime =
        batch[members.front()].priority == RequestPriority::kRealtime;
    const LeasePriority lease_priority = realtime
                                             ? LeasePriority::kRealtime
                                             : LeasePriority::kNormal;
    std::vector<const std::map<std::string, Tensor> *> inputs;
    inputs.reserve(members.size());
    for (std::size_t i : members)
        inputs.push_back(&batch[i].inputs);
    DeadlineToken token = batch[members.front()].token;
    if (fused) {
        // A fused run may take as long as its most patient member
        // allows. It runs on a fresh token, so cancelling it leaves the
        // members' own tokens intact: each member is still judged
        // against its own token once the run returns.
        std::chrono::steady_clock::time_point latest{};
        bool bounded = true;
        for (std::size_t i : members) {
            responses[i].batch_size = static_cast<int>(members.size());
            const auto point = batch[i].token.deadline_point();
            bounded = bounded && point.has_value();
            if (bounded)
                latest = std::max(latest, *point);
        }
        token = bounded ? DeadlineToken::at(latest)
                        : DeadlineToken::unlimited();
    }
    const auto wall_deadline = token.deadline_point();
    std::size_t last_replica = exclude_replica;
    int attempt = 0;

    for (;;) {
        Status status = internal_error("pool acquire failed");
        EnginePool::Lease lease =
            pool_->acquire(token, last_replica, &status, lease_priority);
        if (!lease.valid()) {
            for (std::size_t i : members)
                responses[i].status = status;
            return;
        }
        last_replica = lease.replica_id();
        std::vector<std::map<std::string, Tensor>> outputs;
        const auto started = std::chrono::steady_clock::now();
        status = lease.engine().try_run_batch(inputs, outputs, token);
        const double attempt_ms = elapsed_ms_since(started);
        for (std::size_t i : members)
            responses[i].run_ms += attempt_ms;
        pool_->release(std::move(lease), status, attempt_ms,
                       static_cast<std::int64_t>(members.size()));

        if (status.is_ok()) {
            for (std::size_t k = 0; k < members.size(); ++k) {
                responses[members[k]].status = Status::ok();
                responses[members[k]].outputs = std::move(outputs[k]);
            }
            return;
        }

        if (fused) {
            // Mid-batch failure (guard/breaker fault, watchdog
            // cancellation, deadline): a fused run has a single verdict,
            // so attribution falls back to splitting — every member
            // re-dispatches alone on its own token, skipping the replica
            // that failed. Only this batch pays; co-queued requests in
            // other batches are untouched. The split is a fresh solo
            // dispatch, not a retry: it is not charged to the retry
            // bucket.
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ++stats_.batch_splits;
            }
            for (std::size_t i : members) {
                responses[i].batch_split = true;
                if (batch[i].token.expired())
                    responses[i].status = deadline_exceeded_error(
                        "deadline expired in a failed fused run");
                else
                    dispatch(batch, {i}, responses, rng, last_replica);
            }
            return;
        }

        InferenceResponse &response = responses[members.front()];
        response.status = std::move(status);
        bool retryable = is_retryable(response.status);
        if (response.status.code() == StatusCode::kDeadlineExceeded &&
            token.cancelled()) {
            // The watchdog abandoned this replica, not the clock: if
            // wall budget remains, the request may fail over on a
            // fresh token carrying the original deadline.
            if (!wall_deadline.has_value()) {
                retryable = true;
                token = DeadlineToken::unlimited();
            } else if (std::chrono::steady_clock::now() < *wall_deadline) {
                retryable = true;
                token = DeadlineToken::at(*wall_deadline);
            }
        }
        if (!retryable || attempt >= options_.max_retries)
            return;

        const double jitter =
            0.5 + std::generate_canonical<double, 16>(rng);
        const double backoff =
            retry_backoff_for_attempt_ms(options_, attempt, jitter);

        // A retry whose backoff alone outlasts the remaining deadline
        // is a guaranteed miss: surface the deadline now instead of
        // spending a retry token and a replica lease to fail anyway.
        if (!token.can_cover_ms(backoff)) {
            response.status = deadline_exceeded_error(
                "remaining deadline cannot cover the retry backoff; "
                "failing without retry");
            return;
        }
        // Real-time traffic skips the token bucket (its retries are
        // bounded by its tight deadlines, not by batch-era credit) but
        // still shows up in the retry counter.
        if (realtime) {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.retries;
        } else if (!try_consume_retry_token()) {
            response.retry_denied_by_budget = true;
            return;
        }
        try {
            cooperative_delay_ms(backoff, token);
        } catch (const DeadlineExceededError &) {
            response.status = deadline_exceeded_error(
                "deadline expired during retry backoff");
            return;
        }
        ++attempt;
        ++response.retries;
    }
}

bool
InferenceService::try_consume_retry_token()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (retry_tokens_ < 1.0) {
        ++stats_.retry_budget_denied;
        return false;
    }
    retry_tokens_ -= 1.0;
    ++stats_.retries;
    return true;
}

void
InferenceService::update_brownout_locked()
{
    if (!options_.enable_brownout)
        return;
    const std::size_t high =
        options_.brownout_high_watermark > 0
            ? options_.brownout_high_watermark
            : std::max<std::size_t>(1, options_.max_queue_depth * 3 / 4);
    const std::size_t low = options_.brownout_low_watermark > 0
                                ? options_.brownout_low_watermark
                                : options_.max_queue_depth / 4;

    const std::size_t queued = queued_locked();
    if (!brownout_ && queued >= high) {
        brownout_ = true;
        ++stats_.brownout_entered;
        pool_->set_degraded_mode(true);
        ORPHEUS_WARN("service: brownout ENTER (queue "
                     << queued << "/" << options_.max_queue_depth
                     << ", high watermark " << high
                     << "): shedding batch work, degrading replicas");
    } else if (brownout_ && queued <= low) {
        brownout_ = false;
        ++stats_.brownout_exited;
        pool_->set_degraded_mode(false);
        ORPHEUS_WARN("service: brownout EXIT (queue " << queued
                                                      << " <= " << low
                                                      << "): restoring "
                                                         "full fidelity");
    }
}

void
InferenceService::on_hang(const HangReport &report)
{
    std::ostringstream reason;
    reason << "watchdog: step ran for " << report.elapsed_ms
           << " ms (threshold " << options_.hang_threshold_ms << " ms)";
    pool_->report_hang(report.monitor_index, report.step_index,
                       reason.str());
    // Cancel last: once the wedged request unblocks, its lease release
    // applies the demotion queued above before the replica serves
    // another request.
    pool_->monitor(report.monitor_index).cancel_active_request();
}

ServiceStats
InferenceService::stats() const
{
    ServiceStats merged;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        merged = stats_;
        merged.latency_p50_ms = latency_.percentile(0.50);
        merged.latency_p99_ms = latency_.percentile(0.99);
        merged.latency_p999_ms = latency_.percentile(0.999);
        // Each of these facts is counted once, per class; the totals
        // are derived here so they cannot drift from their parts.
        for (std::size_t c = 0; c < kPriorityClasses; ++c) {
            merged.class_count[c] = class_latency_[c].count();
            merged.rejected_infeasible += merged.class_infeasible[c];
            merged.deadline_exceeded += merged.class_deadline_miss[c];
            merged.class_p50_ms[c] = class_latency_[c].percentile(0.50);
            merged.class_p99_ms[c] = class_latency_[c].percentile(0.99);
            merged.class_p999_ms[c] = class_latency_[c].percentile(0.999);
        }
        merged.deadline_exceeded += merged.rejected_infeasible;
        merged.batch_mean_occupancy =
            merged.batches_formed > 0
                ? static_cast<double>(merged.batched_requests) /
                      static_cast<double>(merged.batches_formed)
                : 0.0;
    }
    const EnginePoolStats pool_stats = pool_->stats();
    merged.watchdog_hangs = pool_stats.hangs;
    merged.demotions = pool_stats.demotions;
    merged.quarantines = pool_stats.quarantines;
    merged.probes = pool_stats.probes;
    merged.readmissions = pool_stats.readmissions;
    merged.model_swaps = pool_stats.swaps;
    merged.canary_routed = pool_stats.canary_routed;
    merged.active_generation = registry_->active_generation();
    merged.model_rollbacks = registry_->rollbacks();
    return merged;
}

std::size_t
InferenceService::queue_depth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queued_locked();
}

std::size_t
InferenceService::queue_depth(RequestPriority priority) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lanes_[priority_index(priority)].size();
}

bool
InferenceService::browned_out() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return brownout_;
}

void
InferenceService::stop()
{
    std::deque<Request> drained;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_ && queued_locked() == 0 && workers_.empty())
            return;
        stopping_ = true;
        for (std::deque<Request> &queue : lanes_)
            for (Request &request : queue)
                drained.push_back(std::move(request));
        for (std::deque<Request> &queue : lanes_)
            queue.clear();
    }
    for (Request &request : drained)
        request.promise.set_value(rejected(failed_precondition_error(
            "inference service stopped before the request was dispatched")));
    work_ready_.notify_all();
    for (auto &worker : workers_)
        if (worker.joinable())
            worker.join();
    workers_.clear();
    if (watchdog_)
        watchdog_->stop();
}

ShutdownReport
InferenceService::shutdown(double deadline_ms)
{
    const auto started = std::chrono::steady_clock::now();
    const DeadlineToken deadline =
        deadline_ms > 0 ? DeadlineToken::after_ms(deadline_ms)
                        : DeadlineToken::unlimited();
    ShutdownReport report;

    std::size_t queued_at_entry = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        draining_ = true; // submit() now rejects; workers keep going.
        queued_at_entry = queued_locked();
    }

    bool forced = false;
    for (;;) {
        std::deque<Request> shed;
        std::string shed_reason;
        bool drained = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (queued_locked() == 0 && in_flight_ == 0) {
                drained = true;
            } else if (deadline.expired()) {
                // Out of time: everything still queued is shed and
                // in-flight work is cancelled below.
                for (std::deque<Request> &queue : lanes_) {
                    for (Request &request : queue)
                        shed.push_back(std::move(request));
                    queue.clear();
                }
                shed_reason = "shutdown deadline expired; "
                              "shedding queued work";
                forced = true;
            } else if (deadline.has_deadline()) {
                // Tight deadline: price the backlog (every lane plus the
                // work in flight) with admission's wait estimate and
                // shed the batch lane first, keeping real-time and
                // interactive requests flowing.
                const double backlog_ms = estimated_wait_ms_locked(
                    priority_index(RequestPriority::kBatch), in_flight_);
                if (backlog_ms > deadline.remaining_ms()) {
                    std::deque<Request> &batch =
                        lanes_[priority_index(RequestPriority::kBatch)];
                    for (Request &request : batch)
                        shed.push_back(std::move(request));
                    batch.clear();
                    shed_reason =
                        "shutdown deadline is tight; shedding "
                        "batch-priority work";
                }
            }
            stats_.shutdown_shed +=
                static_cast<std::int64_t>(shed.size());
            for (const Request &request : shed)
                ++stats_.class_shed[priority_index(request.priority)];
        }
        report.shed += static_cast<std::int64_t>(shed.size());
        for (Request &request : shed)
            request.promise.set_value(
                rejected(resource_exhausted_error(shed_reason)));
        if (drained)
            break;
        if (forced) {
            // Unblock wedged or long-running in-flight requests; their
            // workers surface kDeadlineExceeded and release the lease.
            for (std::size_t i = 0; i < pool_->replica_count(); ++i)
                pool_->monitor(i).cancel_active_request();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    stop();
    report.flushed =
        static_cast<std::int64_t>(queued_at_entry) - report.shed;
    if (report.flushed < 0)
        report.flushed = 0;
    report.duration_ms = elapsed_ms_since(started);
    report.status =
        forced ? deadline_exceeded_error(
                     "shutdown deadline expired; in-flight work was "
                     "cancelled and queued work shed")
               : Status::ok();
    return report;
}

RolloutReport
InferenceService::reload(Graph graph, const RolloutOptions &options)
{
    return registry_->roll_out(std::move(graph), options);
}

RolloutReport
InferenceService::reload_file(const std::string &path,
                              const RolloutOptions &options)
{
    return registry_->roll_out_file(path, options);
}

const Engine &
InferenceService::engine(std::size_t index) const
{
    return pool_->engine(index);
}

} // namespace orpheus
