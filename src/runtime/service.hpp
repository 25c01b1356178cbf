/**
 * @file
 * InferenceService — resource-governed concurrent inference on top of
 * an EnginePool.
 *
 * Engine::run is a single-caller, run-to-completion API; the service
 * turns it into something deployable under load:
 *
 *  - Admission control: a bounded request queue split into three
 *    latency-class lanes (real-time / interactive / batch), each with
 *    its own depth limit under a shared global cap. A full lane
 *    rejects with kResourceExhausted immediately (backpressure)
 *    instead of growing without bound; a request whose activation
 *    footprint exceeds its memory budget is rejected up front the
 *    same way.
 *  - Deadline-feasibility admission: a request whose remaining budget
 *    cannot cover the estimated queue wait ahead of it (lane depth ×
 *    the lane's recent service-time P50 / workers) is rejected at
 *    submit with kDeadlineExceeded (rejected_infeasible) in
 *    microseconds instead of burning a replica lease on a guaranteed
 *    miss. A cold service, with no recorded service times yet, admits
 *    everything.
 *  - Latency-class scheduling: workers pop strictly by class
 *    (real-time > interactive > batch) with an aging credit — every
 *    time a lower lane is bypassed while nonempty it earns credit,
 *    and at the limit it gets the next pop — so batch work is
 *    deferred under pressure but can never starve forever.
 *  - Deadlines: every request carries a DeadlineToken (defaulted from
 *    its class SLO budget when none is supplied). Expiry is honoured
 *    while queued (shed before dispatch) and mid-kernel (cooperative
 *    cancellation at parallel_for tile boundaries), surfacing as
 *    kDeadlineExceeded.
 *  - Hang watchdog: a monitor thread flags plan steps that exceed the
 *    hang threshold, cancels the wedged request's token, and demotes
 *    the offending kernel to the reference implementation for
 *    subsequent requests on that replica.
 *  - Failover + bounded retry: requests are dispatched to the
 *    healthiest replica of an EnginePool (engine_pool.hpp). A
 *    corrupted, faulted or watchdog-abandoned request is retried on a
 *    *different* healthy replica with exponential backoff + jitter,
 *    inside the request's original deadline and a retry budget
 *    (a bounded fraction of recent traffic) that stops retry storms.
 *  - Overload brownout: when queue depth crosses its high watermark
 *    the service degrades bottom-up — batch work is shed at
 *    dispatch, interactive work past its feasibility margin fails
 *    fast instead of burning a lease, real-time work always
 *    dispatches first (aging is suspended) and skips the retry token
 *    bucket — and replicas drop to a cheaper no-shadow guard mode
 *    instead of hard-rejecting everything, restoring full fidelity
 *    when queue depth falls to its low watermark.
 *
 * Concurrency model: each of the N worker threads leases a private
 * replica per request, so requests on different workers never share
 * mutable engine state; replicas share the immutable (packed) weights
 * and the global kernel thread pool. Results are
 * therefore bitwise-identical to a serial Engine::run.
 */
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/deadline.hpp"
#include "runtime/engine.hpp"
#include "runtime/engine_pool.hpp"
#include "runtime/latency_histogram.hpp"
#include "runtime/model_registry.hpp"
#include "runtime/watchdog.hpp"

namespace orpheus {

/**
 * Latency class of a request. Each class has its own queue lane,
 * depth limit, default SLO budget and latency histogram; degradation
 * escalates bottom-up (batch sheds first, real-time last — never).
 */
enum class RequestPriority {
    kRealtime = 0, ///< Hard-deadline work: shallow lane, always
                   ///< dispatched first, never shed by brownout,
                   ///< retries bypass the token bucket.
    kInteractive,  ///< Default: latency-sensitive request/response.
    kBatch,        ///< Throughput work: first to defer and shed.
};

/** Number of latency classes (size of per-class option/stat arrays). */
inline constexpr std::size_t kPriorityClasses = 3;

/** Class index for per-class arrays. */
inline constexpr std::size_t
priority_index(RequestPriority priority)
{
    return static_cast<std::size_t>(priority);
}

/** "realtime" / "interactive" / "batch". */
const char *to_string(RequestPriority priority);

struct ServiceOptions {
    /** Requests admitted but not yet dispatched, summed across all
     *  lanes; submissions beyond this are rejected with
     *  kResourceExhausted. Real-time requests are exempt from this
     *  global cap (a batch flood must not starve their admission) and
     *  answer only to the rt_queue_depth lane limit, so total backlog
     *  can exceed this by at most that much. */
    std::size_t max_queue_depth = 16;

    // --- Latency classes --------------------------------------------------

    /** Depth limit of the real-time lane (0 = max_queue_depth / 4,
     *  at least 1). Kept shallow on purpose: a deep real-time queue
     *  is already a deadline violation in the making, so excess
     *  real-time load is rejected instantly rather than queued. */
    std::size_t rt_queue_depth = 0;

    /** Per-class SLO budgets, indexed by RequestPriority, applied as
     *  the default deadline for requests of that class submitted
     *  without one. 0 falls back to default_deadline_ms. */
    std::array<double, kPriorityClasses> class_deadline_ms{};

    /** Aging credit limit: a nonempty lower lane bypassed this many
     *  times by higher-class pops gets the next pop regardless of
     *  class, so batch work cannot starve forever. Suspended while
     *  browned out (real-time strictly wins under overload). */
    int aging_credit_limit = 8;

    // --- Dynamic batching -------------------------------------------------

    /** Largest number of same-lane queued requests one worker may
     *  coalesce into a single fused engine run. Compiled into the
     *  replica engines as EngineOptions::max_batch: each engine plans
     *  its arena/workspace once at this bucket size and then serves
     *  any occupancy up to it. A model the engine cannot batch (see
     *  Engine::batch_fallback_reason()) silently degrades to
     *  single-request dispatch. 1 disables batching. */
    int max_batch = 1;

    /** Max-latency batching window: after popping a batch leader, a
     *  worker waits up to this long for more same-lane requests
     *  before dispatching a partial batch. Deadline-aware: a leader
     *  or joiner whose remaining budget cannot cover the window plus
     *  one typical service time flushes the batch immediately, and
     *  the real-time lane never waits — it only coalesces requests
     *  already queued. 0 disables waiting (coalesce-only). */
    double batch_window_ms = 0;

    /** Worker threads leasing replicas from the pool. */
    int workers = 1;

    /** Engine replicas in the pool; 0 means one per worker. */
    int replicas = 0;

    /** Compiled spare replicas promoted when an active one is
     *  quarantined. */
    int warm_spares = 0;

    /** Deadline applied to requests submitted without one; 0 means
     *  unlimited. */
    double default_deadline_ms = 0;

    /** Per-request activation-footprint cap in bytes (0 = unlimited).
     *  Requests whose compiled footprint exceeds it are rejected up
     *  front with kResourceExhausted. */
    std::size_t memory_budget_bytes = 0;

    /** Run the hang watchdog thread. */
    bool enable_watchdog = true;

    /** A step running longer than this is treated as hung. */
    double hang_threshold_ms = 1000;

    /** Watchdog poll period. */
    double watchdog_poll_ms = 5;

    // --- Retry / failover -------------------------------------------------

    /** Maximum retry attempts after a retryable failure (corruption,
     *  kernel fault, watchdog abandonment). 0 disables retries. */
    int max_retries = 0;

    /** First backoff; doubles per attempt up to retry_backoff_max_ms,
     *  multiplied by a uniform jitter in [0.5, 1.5). */
    double retry_backoff_ms = 1.0;
    double retry_backoff_max_ms = 50.0;

    /** Retry-storm bound: retries earn at most this fraction of recent
     *  traffic (token bucket; each dispatched request earns this many
     *  retry tokens, a retry spends one). */
    double retry_budget = 0.2;

    /** Replica health penalty that triggers quarantine. */
    double quarantine_threshold = 3.0;

    // --- Brownout ---------------------------------------------------------

    /** Master switch for overload brownout. */
    bool enable_brownout = false;

    /** Queue depth entering/leaving brownout (0 = derived from
     *  max_queue_depth: 3/4 high, 1/4 low; hysteresis). */
    std::size_t brownout_high_watermark = 0;
    std::size_t brownout_low_watermark = 0;

    /** Per-replica fault injectors for chaos harnesses (forwarded to
     *  the pool; entry i overrides the engine options for replica i). */
    std::vector<std::shared_ptr<FaultInjector>> per_replica_injectors;
};

/**
 * Backoff before retry @p attempt (0-based): retry_backoff_ms doubled
 * per attempt, scaled by @p jitter (drawn uniformly from [0.5, 1.5)),
 * then clamped to retry_backoff_max_ms. Clamping happens AFTER jitter
 * so the configured ceiling is a hard bound — clamping first let a
 * +50 % jitter draw exceed it, overshooting the deadline budget check
 * and skipping retries that would have fit.
 */
double retry_backoff_for_attempt_ms(const ServiceOptions &options,
                                    int attempt, double jitter);

/** Outcome of one request. */
struct InferenceResponse {
    Status status;
    /** Assigned only when status is OK. */
    std::map<std::string, Tensor> outputs;
    /** Milliseconds spent queued before a worker picked the request
     *  up (0 when rejected at submission). */
    double queue_ms = 0;
    /** Milliseconds spent executing, summed across retry attempts
     *  (0 when shed before dispatch). */
    double run_ms = 0;
    /** Dispatch attempts beyond the first. */
    int retries = 0;
    /** True when a failover retry would have run but the retry token
     *  bucket was empty — the status is the last attempt's error. */
    bool retry_denied_by_budget = false;
    /** Requests fused into the engine run that served this one
     *  (1 = ran alone). */
    int batch_size = 1;
    /** True when this request's fused run failed mid-batch and the
     *  request was re-dispatched individually (see
     *  ServiceStats::batch_splits). */
    bool batch_split = false;
};

/** Outcome of one graceful shutdown. */
struct ShutdownReport {
    /** OK when everything drained inside the deadline; otherwise
     *  kDeadlineExceeded (in-flight work was cancelled). */
    Status status;
    /** Queued requests completed during the drain. */
    std::int64_t flushed = 0;
    /** Queued requests failed without dispatch (batch-priority work
     *  shed to protect the deadline, plus everything remaining when
     *  it expired). */
    std::int64_t shed = 0;
    double duration_ms = 0;
};

/** Monotonic counters; a consistent snapshot is returned by stats(). */
struct ServiceStats {
    std::int64_t submitted = 0;
    std::int64_t accepted = 0;
    /** Rejected at submission: queue at max_queue_depth. */
    std::int64_t rejected_queue_full = 0;
    /** Rejected at submission: footprint over the memory budget. */
    std::int64_t rejected_memory = 0;
    /** Completed with OK status. */
    std::int64_t completed_ok = 0;
    /** kDeadlineExceeded results: infeasible at submit, expired while
     *  queued, mid-kernel cancellation, or watchdog cancellation. */
    std::int64_t deadline_exceeded = 0;
    /** kDataCorruption results: a guard verdict confirmed the fast
     *  kernel's output wrong (fail_on_corruption policy). */
    std::int64_t data_corruption = 0;
    /** Non-OK, non-deadline, non-corruption completions. */
    std::int64_t failed = 0;
    /** Hangs flagged by the watchdog. */
    std::int64_t watchdog_hangs = 0;
    /** Steps demoted to their reference kernel after a hang. */
    std::int64_t demotions = 0;

    // --- Retry / failover (pool-backed) -----------------------------------
    /** Retry attempts dispatched. */
    std::int64_t retries = 0;
    /** Retries suppressed by the retry budget. */
    std::int64_t retry_budget_denied = 0;
    /** Replicas quarantined by health. */
    std::int64_t quarantines = 0;
    /** Readmission probes run / replicas readmitted after a clean
     *  probe. */
    std::int64_t probes = 0;
    std::int64_t readmissions = 0;

    // --- Brownout ---------------------------------------------------------
    std::int64_t brownout_entered = 0;
    std::int64_t brownout_exited = 0;
    /** Batch-priority requests shed while browned out. */
    std::int64_t brownout_shed = 0;

    // --- Latency classes --------------------------------------------------
    /** Rejected at submission: the remaining deadline budget could
     *  not cover the estimated queue wait (already-expired deadlines
     *  included). Every one also counts in deadline_exceeded — the
     *  caller sees a kDeadlineExceeded status either way; this
     *  counter isolates the ones refused in microseconds at admission
     *  instead of after burning queue time or a replica lease. */
    std::int64_t rejected_infeasible = 0;
    /** Per-class (indexed by RequestPriority): requests finished by a
     *  worker — shed ones excluded — equal to the class latency
     *  histogram's sample count, so per-class counts + sheds +
     *  admission rejections partition `submitted` exactly. */
    std::array<std::int64_t, kPriorityClasses> class_count{};
    /** Per-class queue+run latency percentiles. */
    std::array<double, kPriorityClasses> class_p50_ms{};
    std::array<double, kPriorityClasses> class_p99_ms{};
    std::array<double, kPriorityClasses> class_p999_ms{};
    /** Per-class requests shed without dispatch (brownout batch
     *  shedding plus shutdown shedding). */
    std::array<std::int64_t, kPriorityClasses> class_shed{};
    /** Per-class share of rejected_infeasible. */
    std::array<std::int64_t, kPriorityClasses> class_infeasible{};
    /** Per-class kDeadlineExceeded completions after admission (the
     *  true SLO misses; admission-time rejections are not misses). */
    std::array<std::int64_t, kPriorityClasses> class_deadline_miss{};

    // --- Dynamic batching -------------------------------------------------
    /** Fused runs assembled (occupancy >= 2). */
    std::int64_t batches_formed = 0;
    /** Requests that entered a fused run. */
    std::int64_t batched_requests = 0;
    /** Largest occupancy assembled so far. */
    std::int64_t batch_max_occupancy = 0;
    /** Mean occupancy of fused runs (derived in stats()). */
    double batch_mean_occupancy = 0;
    /** Flush causes for fused runs: assembly hit max_batch / the
     *  batching window expired (or was preempted by higher-priority
     *  work or shutdown) / a member's remaining budget could not
     *  cover the rest of the window. */
    std::int64_t batch_flush_full = 0;
    std::int64_t batch_flush_window = 0;
    std::int64_t batch_flush_deadline = 0;
    /** Fused runs that failed mid-batch and were split into
     *  individual re-dispatches (fault isolation: only the failed
     *  run's members pay, co-queued requests are untouched). */
    std::int64_t batch_splits = 0;

    // --- Model lifecycle (registry/pool-backed) ---------------------------
    /** Generation currently serving (1 = the compiled-in seed). */
    std::uint64_t active_generation = 1;
    /** Generations rejected (rolled back or quarantined). */
    std::int64_t model_rollbacks = 0;
    /** Replica engines drained-and-swapped across all rollouts. */
    std::int64_t model_swaps = 0;
    /** Acquires routed to a canary replica by its traffic slice. */
    std::int64_t canary_routed = 0;

    // --- Shutdown ---------------------------------------------------------
    /** Submissions rejected because a shutdown had started. */
    std::int64_t rejected_shutdown = 0;
    /** Queued requests shed by shutdown(deadline). */
    std::int64_t shutdown_shed = 0;

    // --- Latency (histogram-backed, executed requests) --------------------
    double latency_p50_ms = 0;
    double latency_p99_ms = 0;
    double latency_p999_ms = 0;
};

class InferenceService
{
  public:
    /**
     * Compiles the replica pool from @p graph and starts the worker
     * (and, if enabled, watchdog) threads. Throws on compile errors,
     * exactly like Engine's constructor.
     */
    explicit InferenceService(Graph graph,
                              EngineOptions engine_options = {},
                              ServiceOptions options = {});

    /** Stops accepting work, fails queued requests, joins threads. */
    ~InferenceService();

    InferenceService(const InferenceService &) = delete;
    InferenceService &operator=(const InferenceService &) = delete;

    /**
     * Submits one request. Never blocks: admission-control rejections
     * (lane or queue full, memory budget, infeasible or expired
     * deadline, stopped service) complete the returned future
     * immediately with a typed error status. @p deadline defaults to
     * the class SLO budget (ServiceOptions::class_deadline_ms), then
     * the service default; @p memory_budget_bytes overrides the
     * service budget when non-zero. @p priority selects the latency
     * class: its lane, depth limit, histogram and degradation order —
     * batch work is deferred and shed first under overload, real-time
     * work dispatches first and is never shed.
     */
    std::future<InferenceResponse>
    submit(std::map<std::string, Tensor> inputs,
           DeadlineToken deadline = {},
           std::size_t memory_budget_bytes = 0,
           RequestPriority priority = RequestPriority::kInteractive);

    /** Synchronous convenience wrapper: submit and wait. */
    InferenceResponse
    run(std::map<std::string, Tensor> inputs,
        DeadlineToken deadline = {},
        RequestPriority priority = RequestPriority::kInteractive);

    ServiceStats stats() const;

    /** Requests currently queued across all lanes (excludes in-flight
     *  ones). */
    std::size_t queue_depth() const;

    /** Requests currently queued in @p priority's lane. */
    std::size_t queue_depth(RequestPriority priority) const;

    /** True while the service is shedding batch work / running
     *  replicas in degraded mode. */
    bool browned_out() const;

    /**
     * Stops the service: pending queued requests complete with
     * kFailedPrecondition, workers finish their in-flight request and
     * exit, the watchdog stops. Idempotent; the destructor calls it.
     */
    void stop();

    /**
     * Graceful shutdown: stops admission immediately (new submissions
     * are rejected with kFailedPrecondition), then drains. While the
     * deadline allows, queued work is flushed through the workers;
     * when the remaining budget cannot cover the backlog (queued and
     * in-flight work priced by admission's per-lane service-time
     * estimate, divided by the worker count), batch-priority work is
     * shed first
     * with kResourceExhausted, keeping interactive requests. When the
     * deadline expires outright, everything still queued is shed and
     * in-flight requests are cancelled through their replica monitors.
     * Returns once no lease is held and all threads are joined.
     * @p deadline_ms <= 0 means unlimited (flush everything).
     */
    ShutdownReport shutdown(double deadline_ms = 0);

    /**
     * Hot-swaps the model to @p graph through the registry's canary
     * lifecycle (see model_registry.hpp): off-hot-path compile, canary
     * one replica, judge against the incumbent, roll forward or roll
     * back. Callable while serving; live traffic keeps flowing. The
     * new graph's signature must match the incumbent's.
     */
    RolloutReport reload(Graph graph, const RolloutOptions &options = {});

    /**
     * Imports @p path as ONNX and reloads onto it; see
     * ModelRegistry::roll_out_file for how a bad path is reported and
     * why the file must be replaced by rename.
     */
    RolloutReport reload_file(const std::string &path,
                              const RolloutOptions &options = {});

    /** The model registry (generation table, active model). */
    const ModelRegistry &registry() const { return *registry_; }

    /** Replica @p index's engine, for introspection in tests/tools. */
    const Engine &engine(std::size_t index = 0) const;

    /** The replica pool (health snapshots, replica engines). */
    const EnginePool &pool() const { return *pool_; }

    /** Activation footprint of one request on this model. */
    std::size_t request_footprint_bytes() const { return footprint_; }

  private:
    struct Request {
        std::promise<InferenceResponse> promise;
        std::map<std::string, Tensor> inputs;
        DeadlineToken token;
        RequestPriority priority = RequestPriority::kInteractive;
        std::chrono::steady_clock::time_point enqueued{};
    };

    void worker_loop(std::size_t worker);
    /** Coalesces more same-lane requests into @p batch (whose leader
     *  is already popped) under the batching window: drains joinable
     *  queued work up to the batch capacity, waits out the remaining
     *  window when the lane runs dry, and flushes early on capacity,
     *  a deadline-constrained member, higher-priority arrivals, or
     *  shutdown. Updates the batch flush-cause stats. Caller holds
     *  @p lock. */
    void assemble_batch_locked(std::unique_lock<std::mutex> &lock,
                               std::size_t lane,
                               std::vector<Request> &batch);
    /**
     * The one request path: runs @p members (indices into @p batch, all
     * live, same lane) as one engine run on one leased replica. A fused
     * run (two or more members) executes under the latest member
     * deadline; if it fails it splits, and every member dispatches
     * again alone, skipping the replica that failed — a split is not
     * charged to the retry bucket. A solo run that fails retryably
     * fails over to a different healthy replica with exponential
     * backoff, inside its deadline and the retry budget (real-time work
     * bypasses the bucket). @p exclude_replica is avoided on the first
     * acquire.
     */
    void dispatch(std::vector<Request> &batch,
                  const std::vector<std::size_t> &members,
                  std::vector<InferenceResponse> &responses,
                  std::minstd_rand &rng,
                  std::size_t exclude_replica = EnginePool::kNoReplica);
    /** Completion accounting for one finished request (status
     *  counters, per-class histograms, retry-token earn, in_flight_).
     *  Caller holds mutex_. */
    void finish_request_locked(std::size_t lane, bool shed,
                               const InferenceResponse &response);
    /** Consumes one retry token; false (and a denied count) when the
     *  budget is exhausted. */
    bool try_consume_retry_token();
    /** Depth limit of @p lane. */
    std::size_t lane_limit(std::size_t lane) const;
    /** Total requests queued across lanes. Caller holds mutex_. */
    std::size_t queued_locked() const;
    /** Estimated queue wait (ms) ahead of a new request in @p lane:
     *  Σ over lanes at the same or higher class of depth × that
     *  lane's recent service-time P50, divided by the worker count.
     *  A lane with queued work but no service history borrows the
     *  slowest recorded P50 from any other lane so a full cold lane
     *  is not invisible to admission; a fully cold service (no
     *  history anywhere) still estimates 0 and never rejects on
     *  feasibility. submit() adds the expected batch-window wait on
     *  top when the request's budget would actually pay it.
     *  shutdown() prices its whole backlog with the same estimate,
     *  adding @p in_flight requests at the slowest lane's P50. Caller
     *  holds mutex_. */
    double estimated_wait_ms_locked(std::size_t lane,
                                    std::size_t in_flight = 0) const;
    /** @p lane's recent service-time P50 (ms), 0 before it has any
     *  history. Caller holds mutex_. */
    double lane_service_ms_locked(std::size_t lane) const;
    /** Picks the next lane to pop (strict class priority + aging
     *  credit) and updates the credits. The caller pops the returned
     *  lane's front; every lane is nonempty-checked. Returns
     *  kPriorityClasses when all lanes are empty. Caller holds
     *  mutex_. */
    std::size_t next_lane_locked();
    /** Re-evaluates brownout state from queue depth. Caller holds
     *  mutex_. */
    void update_brownout_locked();
    void on_hang(const HangReport &report);

    ServiceOptions options_;
    std::unique_ptr<EnginePool> pool_;
    std::unique_ptr<ModelRegistry> registry_;
    std::size_t footprint_ = 0;
    /** Effective fused-run capacity: the pool engines' compiled batch
     *  capacity (1 when batching is off or the model is unbatchable). */
    std::int64_t batch_capacity_ = 1;

    mutable std::mutex mutex_; ///< Guards lanes_, stats_, histograms,
                               ///< brownout and retry-budget state,
                               ///< stopping_, draining_, in_flight_.
    std::condition_variable work_ready_;
    /** Per-class lanes, indexed by RequestPriority. */
    std::array<std::deque<Request>, kPriorityClasses> lanes_;
    /** Aging credit per lane: bumped when a nonempty lane is bypassed
     *  by a higher-class pop; at aging_credit_limit the lane wins the
     *  next pop. */
    std::array<int, kPriorityClasses> aging_credit_{};
    ServiceStats stats_;
    LatencyHistogram latency_;
    /** Per-class queue+run latency; records every worker-finished,
     *  non-shed request (deadline misses included, at queue_ms) so
     *  counts partition `submitted` exactly. */
    std::array<LatencyHistogram, kPriorityClasses> class_latency_;
    /** Per-class execution time only (successful runs); feeds the
     *  feasibility-admission wait estimate. */
    std::array<LatencyHistogram, kPriorityClasses> class_service_;
    double retry_tokens_ = 0;
    double retry_token_cap_ = 0;
    bool brownout_ = false;
    bool stopping_ = false;
    /** Admission closed by shutdown(); workers keep draining. */
    bool draining_ = false;
    /** Requests popped by a worker but not yet completed. */
    std::size_t in_flight_ = 0;

    std::vector<std::thread> workers_;
    std::unique_ptr<Watchdog> watchdog_;
};

} // namespace orpheus
