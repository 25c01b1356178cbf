/**
 * @file
 * Tests for the resource-governed InferenceService: admission control
 * (bounded queue, memory budget), deadline propagation (pre-dispatch
 * shedding and mid-kernel cooperative cancellation), the hang watchdog
 * with backend demotion, and concurrent-caller correctness.
 *
 * Timing-dependent cases use injected delays that are an order of
 * magnitude larger than the thresholds they must cross, so the
 * assertions hold on slow CI machines.
 */
#include "runtime/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "core/threadpool.hpp"
#include "graph/node.hpp"
#include "models/model_zoo.hpp"
#include "quant/quantizer.hpp"
#include "test_util.hpp"

namespace orpheus {
namespace {

using testing::make_random;

std::map<std::string, Tensor>
cnn_inputs(std::uint64_t seed)
{
    return {{"input", make_random(Shape({1, 3, 8, 8}), seed)}};
}

/** Spin until the worker has dequeued everything (requests may still
 *  be executing). */
void
wait_for_empty_queue(const InferenceService &service)
{
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (service.queue_depth() > 0 &&
           std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(service.queue_depth(), 0u);
}

// --- Basic serving --------------------------------------------------------

TEST(InferenceService, ServesRequestsBitwiseIdenticalToEngine)
{
    Engine reference(models::tiny_cnn(), {});
    const auto expected = reference.run(cnn_inputs(0x5e01));

    InferenceService service(models::tiny_cnn());
    const InferenceResponse response = service.run(cnn_inputs(0x5e01));

    ASSERT_TRUE(response.status.is_ok()) << response.status.to_string();
    ASSERT_EQ(response.outputs.size(), expected.size());
    for (const auto &[name, tensor] : expected)
        EXPECT_EQ(max_abs_diff(response.outputs.at(name), tensor), 0.0f)
            << name;

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 1);
    EXPECT_EQ(stats.accepted, 1);
    EXPECT_EQ(stats.completed_ok, 1);
}

TEST(InferenceService, InvalidInputSurfacesAsInvalidArgument)
{
    InferenceService service(models::tiny_cnn());
    const InferenceResponse response =
        service.run({{"wrong_name", make_random(Shape({1, 3, 8, 8}))}});
    EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(service.stats().failed, 1);
}

// --- Admission control ----------------------------------------------------

TEST(InferenceService, QueueSaturationReturnsResourceExhausted)
{
    EngineOptions engine_options;
    engine_options.fault_injector = std::make_shared<FaultInjector>();
    // Stall the first dispatched request long enough to fill the queue
    // behind it deterministically.
    engine_options.fault_injector->arm_delay("", "", /*delay_ms=*/500,
                                             /*delay_from_call=*/0,
                                             /*max_delays=*/1);

    ServiceOptions options;
    options.workers = 1;
    options.max_queue_depth = 1;
    options.enable_watchdog = false;

    InferenceService service(models::tiny_cnn(), engine_options, options);

    auto in_flight = service.submit(cnn_inputs(0x5e10));
    wait_for_empty_queue(service); // The worker is now inside the delay.

    auto queued = service.submit(cnn_inputs(0x5e11));
    auto shed = service.submit(cnn_inputs(0x5e12));

    const InferenceResponse shed_response = shed.get();
    EXPECT_EQ(shed_response.status.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(shed_response.run_ms, 0.0);

    EXPECT_TRUE(in_flight.get().status.is_ok());
    EXPECT_TRUE(queued.get().status.is_ok());

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 3);
    EXPECT_EQ(stats.accepted, 2);
    EXPECT_EQ(stats.rejected_queue_full, 1);
    EXPECT_EQ(stats.completed_ok, 2);
}

TEST(InferenceService, MemoryBudgetRejectsOversizedRequestUpFront)
{
    ServiceOptions options;
    options.memory_budget_bytes = 1; // Far below any real footprint.
    InferenceService tight(models::tiny_cnn(), {}, options);
    EXPECT_GT(tight.request_footprint_bytes(), 1u);

    const InferenceResponse response = tight.run(cnn_inputs(0x5e20));
    EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(tight.stats().rejected_memory, 1);

    // A generous budget admits the same request.
    InferenceService roomy(models::tiny_cnn());
    EXPECT_TRUE(roomy
                    .submit(cnn_inputs(0x5e20), DeadlineToken(),
                            /*memory_budget_bytes=*/1u << 30)
                    .get()
                    .status.is_ok());
    // ... and a per-request override can still reject.
    EXPECT_EQ(roomy.submit(cnn_inputs(0x5e20), DeadlineToken(),
                           /*memory_budget_bytes=*/1)
                  .get()
                  .status.code(),
              StatusCode::kResourceExhausted);
}

TEST(InferenceService, StoppedServiceRejectsSubmissions)
{
    InferenceService service(models::tiny_cnn());
    service.stop();
    const InferenceResponse response = service.run(cnn_inputs(0x5e30));
    EXPECT_EQ(response.status.code(), StatusCode::kFailedPrecondition);
}

// --- Deadlines ------------------------------------------------------------

TEST(InferenceService, ExpiredDeadlineRejectedBeforeDispatch)
{
    InferenceService service(models::tiny_cnn());
    const InferenceResponse response =
        service.run(cnn_inputs(0x5e40), DeadlineToken::after_ms(0));
    EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(response.run_ms, 0.0);
    EXPECT_EQ(service.stats().deadline_exceeded, 1);
}

TEST(InferenceService, DeadlineExpiringInQueueShedsWithoutExecution)
{
    EngineOptions engine_options;
    engine_options.fault_injector = std::make_shared<FaultInjector>();
    engine_options.fault_injector->arm_delay("", "", 500, 0, 1);

    ServiceOptions options;
    options.workers = 1;
    options.enable_watchdog = false;
    InferenceService service(models::tiny_cnn(), engine_options, options);

    auto in_flight = service.submit(cnn_inputs(0x5e50));
    wait_for_empty_queue(service);
    // Queued behind a 500 ms stall with a 50 ms budget: must be shed at
    // dispatch, not executed.
    auto doomed =
        service.submit(cnn_inputs(0x5e51), DeadlineToken::after_ms(50));

    const InferenceResponse response = doomed.get();
    EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(response.run_ms, 0.0);
    EXPECT_TRUE(in_flight.get().status.is_ok());
}

TEST(InferenceService, MidExecutionDeadlineCancelsInjectedDelay)
{
    EngineOptions engine_options;
    engine_options.fault_injector = std::make_shared<FaultInjector>();
    // A 10 s stall against a 50 ms deadline: the cancellation-aware
    // delay must abort within its ~1 ms slice granularity, so anything
    // close to the full stall means cancellation failed.
    engine_options.fault_injector->arm_delay("", "", 10'000, 0, 1);

    ServiceOptions options;
    options.workers = 1;
    options.enable_watchdog = false;
    InferenceService service(models::tiny_cnn(), engine_options, options);

    const auto started = std::chrono::steady_clock::now();
    const InferenceResponse response =
        service.run(cnn_inputs(0x5e60), DeadlineToken::after_ms(50));
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - started;

    EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_LT(elapsed.count(), 5'000.0);
    EXPECT_EQ(engine_options.fault_injector->delays_injected(), 1);
}

TEST(Engine, TryRunMapsExpiredDeadlineToStatus)
{
    Engine engine(models::tiny_cnn(), {});
    std::map<std::string, Tensor> outputs;
    const Status status = engine.try_run(cnn_inputs(0x5e70), outputs,
                                         DeadlineToken::after_ms(0));
    EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(outputs.empty());
}

// --- Watchdog -------------------------------------------------------------

TEST(InferenceService, WatchdogCancelsHungStepAndDemotesBackend)
{
    EngineOptions engine_options;
    engine_options.backend.forced_impl["Conv"] = "im2col_gemm";
    engine_options.fault_injector = std::make_shared<FaultInjector>();
    // Wedge the first im2col_gemm invocation for 10 s; only the
    // watchdog can unblock it (the request has no deadline).
    engine_options.fault_injector->arm_delay("", "im2col_gemm", 10'000, 0,
                                             1);

    ServiceOptions options;
    options.workers = 1;
    options.hang_threshold_ms = 50;
    options.watchdog_poll_ms = 5;

    InferenceService service(models::tiny_cnn(), engine_options, options);

    const auto started = std::chrono::steady_clock::now();
    const InferenceResponse hung = service.run(cnn_inputs(0x5e80));
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - started;

    // The wedged request was cancelled well before the 10 s stall.
    EXPECT_EQ(hung.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_LT(elapsed.count(), 5'000.0);

    // The next request runs on the demoted (reference) kernel.
    const InferenceResponse next = service.run(cnn_inputs(0x5e81));
    ASSERT_TRUE(next.status.is_ok()) << next.status.to_string();

    const ServiceStats stats = service.stats();
    EXPECT_GE(stats.watchdog_hangs, 1);
    EXPECT_GE(stats.demotions, 1);

    bool saw_demoted_conv = false;
    for (const PlanStep &step : service.engine().steps()) {
        if (step.op_type == "Conv" && step.degraded) {
            saw_demoted_conv = true;
            EXPECT_NE(step.layer->impl_name(), "im2col_gemm");
        }
    }
    EXPECT_TRUE(saw_demoted_conv);
}

// --- Guarded serving ------------------------------------------------------

TEST(InferenceService, GuardStopsCorruptedRequestsThenBreakerRecoversService)
{
    EngineOptions engine_options;
    engine_options.backend.forced_impl["Conv"] = "im2col_gemm";
    engine_options.guard.enabled = true;
    engine_options.guard.open_after_trips = 2;
    engine_options.guard.cooldown_ms = 1e9; // Breaker stays open.
    engine_options.fault_injector = std::make_shared<FaultInjector>();
    // Poison the first two im2col_gemm invocations; with
    // fail_on_corruption the first two requests each die at the first
    // conv, so exactly two requests observe corruption.
    engine_options.fault_injector->arm_corruption(
        "", "im2col_gemm", CorruptionKind::kNaNPoke, 0, 2);

    ServiceOptions options;
    options.workers = 1;

    InferenceService service(models::tiny_cnn(), engine_options, options);

    const InferenceResponse first = service.run(cnn_inputs(0x9a01));
    EXPECT_EQ(first.status.code(), StatusCode::kDataCorruption)
        << first.status.to_string();
    EXPECT_TRUE(first.outputs.empty())
        << "corrupted data must never be served";

    const InferenceResponse second = service.run(cnn_inputs(0x9a02));
    EXPECT_EQ(second.status.code(), StatusCode::kDataCorruption);

    // The breaker is now open and routes the poisoned kernel to the
    // reference implementation: the service heals without restart.
    const InferenceResponse healed = service.run(cnn_inputs(0x9a03));
    ASSERT_TRUE(healed.status.is_ok()) << healed.status.to_string();
    ASSERT_EQ(healed.outputs.size(), 1u);

    Engine reference(models::tiny_cnn(), {});
    const auto expected = reference.run(cnn_inputs(0x9a03));
    testing::expect_close(healed.outputs.begin()->second,
                          expected.begin()->second, 1e-4f, 1e-3f);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.data_corruption, 2);
    EXPECT_GE(stats.completed_ok, 1);
    EXPECT_EQ(engine_options.fault_injector->corruptions_injected(), 2);
}

// --- Concurrency ----------------------------------------------------------

TEST(InferenceService, ConcurrentCallersMatchSerialEngineBitwise)
{
    constexpr int kRequests = 16;

    // Kernel-level parallelism on the shared global pool at the same
    // time as request-level parallelism across workers.
    set_global_num_threads(2);

    Engine reference(models::tiny_cnn(), {});
    std::vector<std::map<std::string, Tensor>> expected;
    expected.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i)
        expected.push_back(
            reference.run(cnn_inputs(0x6000 + static_cast<unsigned>(i))));

    ServiceOptions options;
    options.workers = 4;
    options.max_queue_depth = kRequests;
    InferenceService service(models::tiny_cnn(), {}, options);

    std::vector<std::future<InferenceResponse>> futures;
    futures.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i)
        futures.push_back(service.submit(
            cnn_inputs(0x6000 + static_cast<unsigned>(i))));

    for (int i = 0; i < kRequests; ++i) {
        const InferenceResponse response = futures[static_cast<std::size_t>(
            i)].get();
        ASSERT_TRUE(response.status.is_ok())
            << i << ": " << response.status.to_string();
        for (const auto &[name, tensor] :
             expected[static_cast<std::size_t>(i)])
            EXPECT_EQ(max_abs_diff(response.outputs.at(name), tensor),
                      0.0f)
                << "request " << i << ", output " << name;
    }
    EXPECT_EQ(service.stats().completed_ok, kRequests);

    set_global_num_threads(1);
}

// --- Latency classes ------------------------------------------------------

TEST(InferenceService, RealtimeDispatchesBeforeInteractiveAndBatch)
{
    EngineOptions engine_options;
    engine_options.fault_injector = std::make_shared<FaultInjector>();
    // Every request stalls 200 ms at its first conv, spacing
    // completions far apart relative to scheduling jitter.
    engine_options.fault_injector->arm_delay("Conv_0", "", 200, 0, -1);

    ServiceOptions options;
    options.workers = 1;
    options.enable_watchdog = false;
    InferenceService service(models::tiny_cnn(), engine_options, options);

    auto stall = service.submit(cnn_inputs(0x7a00));
    wait_for_empty_queue(service); // The worker is inside the stall.

    // Submission order is batch, interactive, real-time; pop order
    // must be class order. Each dispatch runs 200 ms, so "the others
    // are still pending when this one resolves" has a wide margin.
    auto batch = service.submit(cnn_inputs(0x7a01), DeadlineToken(), 0,
                                RequestPriority::kBatch);
    auto interactive = service.submit(cnn_inputs(0x7a02));
    auto realtime = service.submit(cnn_inputs(0x7a03), DeadlineToken(), 0,
                                   RequestPriority::kRealtime);

    EXPECT_TRUE(realtime.get().status.is_ok());
    EXPECT_EQ(interactive.wait_for(std::chrono::seconds(0)),
              std::future_status::timeout);
    EXPECT_EQ(batch.wait_for(std::chrono::seconds(0)),
              std::future_status::timeout);
    EXPECT_TRUE(interactive.get().status.is_ok());
    EXPECT_EQ(batch.wait_for(std::chrono::seconds(0)),
              std::future_status::timeout);
    EXPECT_TRUE(batch.get().status.is_ok());
    EXPECT_TRUE(stall.get().status.is_ok());

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.class_count[priority_index(RequestPriority::kRealtime)],
              1);
    EXPECT_EQ(
        stats.class_count[priority_index(RequestPriority::kInteractive)],
        2);
    EXPECT_EQ(stats.class_count[priority_index(RequestPriority::kBatch)],
              1);
    EXPECT_GT(stats.class_p50_ms[priority_index(RequestPriority::kRealtime)],
              0.0);
}

TEST(InferenceService, AgingCreditPreventsBatchStarvation)
{
    EngineOptions engine_options;
    engine_options.fault_injector = std::make_shared<FaultInjector>();
    engine_options.fault_injector->arm_delay("Conv_0", "", 150, 0, -1);

    ServiceOptions options;
    options.workers = 1;
    options.enable_watchdog = false;
    options.aging_credit_limit = 2;
    InferenceService service(models::tiny_cnn(), engine_options, options);

    auto stall = service.submit(cnn_inputs(0x7b00));
    wait_for_empty_queue(service);

    auto batch = service.submit(cnn_inputs(0x7b01), DeadlineToken(), 0,
                                RequestPriority::kBatch);
    auto i1 = service.submit(cnn_inputs(0x7b02));
    auto i2 = service.submit(cnn_inputs(0x7b03));
    auto i3 = service.submit(cnn_inputs(0x7b04));

    // Strict priority pops i1 and i2 first, each bypass earning the
    // batch lane one credit; at the limit of 2 the batch request gets
    // the next pop, overtaking i3.
    EXPECT_TRUE(batch.get().status.is_ok());
    EXPECT_EQ(i3.wait_for(std::chrono::seconds(0)),
              std::future_status::timeout)
        << "the aged batch request must overtake the last interactive one";
    EXPECT_TRUE(i1.get().status.is_ok());
    EXPECT_TRUE(i2.get().status.is_ok());
    EXPECT_TRUE(i3.get().status.is_ok());
    EXPECT_TRUE(stall.get().status.is_ok());
    EXPECT_EQ(
        service.stats().class_count[priority_index(RequestPriority::kBatch)],
        1);
}

TEST(InferenceService, ExpiredDeadlineRejectedAtSubmitWithoutQueueing)
{
    InferenceService service(models::tiny_cnn());

    const auto started = std::chrono::steady_clock::now();
    auto doomed =
        service.submit(cnn_inputs(0x7c00), DeadlineToken::after_ms(0));
    const std::chrono::duration<double, std::milli> submit_ms =
        std::chrono::steady_clock::now() - started;

    // Admission-time rejection: the future is already resolved when
    // submit() returns — no queueing, no dispatch, no worker involved.
    ASSERT_EQ(doomed.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const InferenceResponse response = doomed.get();
    EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(response.queue_ms, 0.0);
    EXPECT_EQ(response.run_ms, 0.0);
    EXPECT_LT(submit_ms.count(), 50.0); // Sub-ms in practice; CI slack.

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.accepted, 0);
    EXPECT_EQ(stats.deadline_exceeded, 1);
    EXPECT_EQ(stats.rejected_infeasible, 1);
    EXPECT_EQ(
        stats.class_infeasible[priority_index(RequestPriority::kInteractive)],
        1);
}

TEST(InferenceService, InfeasibleQueueWaitRejectedAtSubmit)
{
    EngineOptions engine_options;
    engine_options.fault_injector = std::make_shared<FaultInjector>();
    // Every request stalls ~100 ms at its first conv, so the
    // interactive service-time P50 dwarfs the doomed request's 10 ms
    // budget.
    engine_options.fault_injector->arm_delay("Conv_0", "", 100, 0, -1);

    ServiceOptions options;
    options.workers = 1;
    options.enable_watchdog = false;
    InferenceService service(models::tiny_cnn(), engine_options, options);

    // Warm the interactive service-time estimate.
    ASSERT_TRUE(service.run(cnn_inputs(0x7d00)).status.is_ok());

    auto in_flight = service.submit(cnn_inputs(0x7d01));
    wait_for_empty_queue(service);
    auto queued = service.submit(cnn_inputs(0x7d02));

    // One queued interactive request ahead (~100 ms estimated wait)
    // against a 10 ms budget: refused at submit, before any dispatch.
    auto doomed =
        service.submit(cnn_inputs(0x7d03), DeadlineToken::after_ms(10));
    ASSERT_EQ(doomed.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(doomed.get().status.code(), StatusCode::kDeadlineExceeded);

    // The real-time lane is empty, so the same budget is feasible
    // there: admitted at submit; the miss (the in-flight stall
    // outlasts it) is charged to the class at dispatch instead.
    auto realtime =
        service.submit(cnn_inputs(0x7d04), DeadlineToken::after_ms(10), 0,
                       RequestPriority::kRealtime);
    const InferenceResponse rt = realtime.get();
    EXPECT_EQ(rt.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(rt.run_ms, 0.0);

    EXPECT_TRUE(in_flight.get().status.is_ok());
    EXPECT_TRUE(queued.get().status.is_ok());

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.rejected_infeasible, 1);
    EXPECT_EQ(
        stats.class_infeasible[priority_index(RequestPriority::kInteractive)],
        1);
    EXPECT_EQ(stats.class_deadline_miss[priority_index(
                  RequestPriority::kRealtime)],
              1);
    EXPECT_EQ(stats.completed_ok, 3);
}

TEST(InferenceService, RetrySkippedWhenBackoffOutlastsDeadline)
{
    EngineOptions engine_options;
    engine_options.guard.enabled = true;
    engine_options.fault_injector = std::make_shared<FaultInjector>();
    // Corrupt every kernel invocation: the first attempt fails fast
    // with kDataCorruption, which is retryable.
    engine_options.fault_injector->arm_corruption(
        "", "", CorruptionKind::kNaNPoke, 0, -1);

    ServiceOptions options;
    options.workers = 1;
    options.replicas = 2;
    options.max_retries = 3;
    options.retry_budget = 1.0;
    // Backoff >= 200 ms even at minimum jitter, far above the budget.
    options.retry_backoff_ms = 400;
    options.retry_backoff_max_ms = 600;
    options.enable_watchdog = false;
    InferenceService service(models::tiny_cnn(), engine_options, options);

    const InferenceResponse response =
        service.run(cnn_inputs(0x7e00), DeadlineToken::after_ms(100));

    // The first attempt failed with most of the 100 ms still on the
    // clock, but the smallest possible backoff already outlasts it:
    // the request fails as a deadline miss without burning a retry
    // token or a second replica lease.
    EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(response.retries, 0);
    EXPECT_FALSE(response.retry_denied_by_budget);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.retries, 0);
    EXPECT_EQ(stats.retry_budget_denied, 0);
    EXPECT_EQ(stats.deadline_exceeded, 1);
    EXPECT_EQ(engine_options.fault_injector->corruptions_injected(), 1);
}

TEST(InferenceService, RealtimeRetriesBypassTheTokenBucket)
{
    auto injector = std::make_shared<FaultInjector>();
    EngineOptions engine_options;
    engine_options.guard.enabled = true;
    engine_options.fault_injector = injector;

    ServiceOptions options;
    options.workers = 1;
    options.replicas = 2;
    options.max_retries = 2;
    // The bucket cap clamps to a single token; each dispatched
    // request earns back only 0.001 of one.
    options.retry_budget = 0.001;
    options.retry_backoff_ms = 1;
    options.enable_watchdog = false;
    InferenceService service(models::tiny_cnn(), engine_options, options);

    // Drain the single token: the first interactive request corrupts
    // once, retries on the other replica, and succeeds.
    injector->arm_corruption("", "", CorruptionKind::kNaNPoke, 0, 1);
    const InferenceResponse drain = service.run(cnn_inputs(0x7f00));
    ASSERT_TRUE(drain.status.is_ok()) << drain.status.to_string();
    EXPECT_EQ(drain.retries, 1);

    // An interactive request now finds the bucket empty: the retry is
    // denied and the corruption surfaces.
    injector->arm_corruption("", "", CorruptionKind::kNaNPoke, 0, 1);
    const InferenceResponse denied = service.run(cnn_inputs(0x7f01));
    EXPECT_EQ(denied.status.code(), StatusCode::kDataCorruption);
    EXPECT_TRUE(denied.retry_denied_by_budget);

    // The same failure on a real-time request retries anyway.
    injector->arm_corruption("", "", CorruptionKind::kNaNPoke, 0, 1);
    const InferenceResponse rt = service.run(
        cnn_inputs(0x7f02), DeadlineToken(), RequestPriority::kRealtime);
    ASSERT_TRUE(rt.status.is_ok()) << rt.status.to_string();
    EXPECT_EQ(rt.retries, 1);
    EXPECT_FALSE(rt.retry_denied_by_budget);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.retries, 2);
    EXPECT_EQ(stats.retry_budget_denied, 1);
}

TEST(InferenceService, BrownoutShedsBatchButServesRealtime)
{
    EngineOptions engine_options;
    engine_options.fault_injector = std::make_shared<FaultInjector>();
    engine_options.fault_injector->arm_delay("Conv_0", "", 200, 0, -1);

    ServiceOptions options;
    options.workers = 1;
    options.enable_watchdog = false;
    options.enable_brownout = true;
    options.brownout_high_watermark = 2;
    options.brownout_low_watermark = 1;
    InferenceService service(models::tiny_cnn(), engine_options, options);

    auto stall = service.submit(cnn_inputs(0x8000));
    wait_for_empty_queue(service);

    auto b1 = service.submit(cnn_inputs(0x8001), DeadlineToken(), 0,
                             RequestPriority::kBatch);
    auto b2 = service.submit(cnn_inputs(0x8002), DeadlineToken(), 0,
                             RequestPriority::kBatch);
    auto b3 = service.submit(cnn_inputs(0x8003), DeadlineToken(), 0,
                             RequestPriority::kBatch);
    EXPECT_TRUE(service.browned_out()); // Depth 3 >= high watermark 2.
    auto rt = service.submit(cnn_inputs(0x8004), DeadlineToken(), 0,
                             RequestPriority::kRealtime);

    // Pop order under brownout: the real-time request dispatches
    // (never shed), b1 pops at depth 2 > low and is shed, popping b2
    // drops the queue to the low watermark so brownout exits and b2
    // and b3 run normally.
    EXPECT_TRUE(rt.get().status.is_ok());
    const InferenceResponse shed = b1.get();
    EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(shed.run_ms, 0.0);
    EXPECT_TRUE(b2.get().status.is_ok());
    EXPECT_TRUE(b3.get().status.is_ok());
    EXPECT_TRUE(stall.get().status.is_ok());
    EXPECT_FALSE(service.browned_out());

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.brownout_entered, 1);
    EXPECT_EQ(stats.brownout_exited, 1);
    EXPECT_EQ(stats.brownout_shed, 1);
    EXPECT_EQ(stats.class_shed[priority_index(RequestPriority::kBatch)], 1);
    EXPECT_EQ(stats.class_shed[priority_index(RequestPriority::kRealtime)],
              0);
    EXPECT_EQ(stats.completed_ok, 4);
}

TEST(InferenceService, ConcurrentClassAccountingStaysConsistent)
{
    EngineOptions engine_options;
    engine_options.fault_injector = std::make_shared<FaultInjector>();
    // A small uniform stall keeps a backlog, so queue-full rejection,
    // feasibility admission and brownout all engage while the stats
    // surfaces are read hot from another thread.
    engine_options.fault_injector->arm_delay("", "", 2, 0, -1);

    ServiceOptions options;
    options.workers = 2;
    options.replicas = 2;
    options.max_queue_depth = 8;
    options.enable_brownout = true;
    options.enable_watchdog = false;
    InferenceService service(models::tiny_cnn(), engine_options, options);

    constexpr int kPerClass = 40;
    const RequestPriority classes[kPriorityClasses] = {
        RequestPriority::kRealtime, RequestPriority::kInteractive,
        RequestPriority::kBatch};
    std::vector<std::future<InferenceResponse>> futures[kPriorityClasses];
    std::atomic<bool> done{false};

    std::thread reader([&] {
        while (!done.load()) {
            const ServiceStats snapshot = service.stats();
            EXPECT_LE(snapshot.completed_ok, snapshot.accepted);
            (void)service.queue_depth();
            (void)service.queue_depth(RequestPriority::kRealtime);
            (void)service.browned_out();
            std::this_thread::yield();
        }
    });

    std::thread submitters[kPriorityClasses];
    for (std::size_t c = 0; c < kPriorityClasses; ++c) {
        futures[c].reserve(kPerClass);
        submitters[c] = std::thread([&service, &futures, &classes, c] {
            for (int i = 0; i < kPerClass; ++i) {
                // Every fourth request carries a budget that cannot
                // survive a backlog, exercising the infeasible and
                // deadline-miss paths alongside the happy one.
                DeadlineToken token = (i % 4 == 3)
                                          ? DeadlineToken::after_ms(1)
                                          : DeadlineToken();
                futures[c].push_back(service.submit(
                    cnn_inputs(0x8100 + static_cast<unsigned>(i)),
                    std::move(token), 0, classes[c]));
            }
        });
    }
    for (std::thread &submitter : submitters)
        submitter.join();
    for (auto &lane : futures)
        for (auto &future : lane)
            (void)future.get(); // Every promise resolved => counters final.
    done.store(true);
    reader.join();

    const ServiceStats stats = service.stats();
    const std::int64_t total = 3 * kPerClass;
    EXPECT_EQ(stats.submitted, total);
    // Admission partitions submissions exactly.
    EXPECT_EQ(stats.accepted + stats.rejected_queue_full +
                  stats.rejected_infeasible,
              total);
    // Workers account for every accepted request exactly once: it is
    // either finished (per-class histogram) or shed.
    std::int64_t finished = 0, shed = 0, missed = 0, infeasible = 0;
    for (std::size_t c = 0; c < kPriorityClasses; ++c) {
        finished += stats.class_count[c];
        shed += stats.class_shed[c];
        missed += stats.class_deadline_miss[c];
        infeasible += stats.class_infeasible[c];
    }
    EXPECT_EQ(finished + shed, stats.accepted);
    EXPECT_EQ(shed, stats.brownout_shed);
    EXPECT_EQ(infeasible, stats.rejected_infeasible);
    // Finished requests split into successes and SLO misses.
    EXPECT_EQ(stats.failed, 0);
    EXPECT_EQ(stats.data_corruption, 0);
    EXPECT_EQ(finished, stats.completed_ok + missed);
    EXPECT_EQ(stats.deadline_exceeded, stats.rejected_infeasible + missed);
    // Real-time work is never shed.
    EXPECT_EQ(stats.class_shed[priority_index(RequestPriority::kRealtime)],
              0);
}

TEST(InferenceService, StopFailsQueuedRequests)
{
    EngineOptions engine_options;
    engine_options.fault_injector = std::make_shared<FaultInjector>();
    engine_options.fault_injector->arm_delay("", "", 200, 0, 1);

    ServiceOptions options;
    options.workers = 1;
    options.enable_watchdog = false;
    InferenceService service(models::tiny_cnn(), engine_options, options);

    auto in_flight = service.submit(cnn_inputs(0x5e90));
    wait_for_empty_queue(service);
    auto queued = service.submit(cnn_inputs(0x5e91));

    service.stop();

    // The in-flight request completes; the queued one is failed.
    EXPECT_TRUE(in_flight.get().status.is_ok());
    EXPECT_EQ(queued.get().status.code(),
              StatusCode::kFailedPrecondition);
}

// --- Dynamic batching -------------------------------------------------------

std::map<std::string, Tensor>
random_request(const Engine &engine, std::uint64_t seed)
{
    std::map<std::string, Tensor> inputs;
    for (const auto &info : engine.request_inputs())
        inputs[info.name] = make_random(info.shape, seed++);
    return inputs;
}

TEST(EngineBatching, BatchedRunsBitwiseEqualSequentialAcrossBackends)
{
    set_global_num_threads(1);
    // conv-, gemm- and quantized-conv-dominated models: the fused run
    // must reuse the same kernels over the same per-sample layouts, so
    // outputs are bitwise identical to sequential execution.
    std::vector<std::pair<std::string, Graph>> cases;
    cases.emplace_back("conv", models::tiny_cnn());
    cases.emplace_back("gemm", models::tiny_mlp());
    QuantizationOptions quant_options;
    quant_options.calibration_runs = 2;
    cases.emplace_back(
        "qconv", quantize_model(Graph(models::tiny_cnn()), quant_options));

    for (auto &[label, graph] : cases) {
        Engine reference(Graph(graph), {});
        EngineOptions batched_options;
        batched_options.max_batch = 4;
        Engine batched(Graph(graph), batched_options);
        ASSERT_EQ(batched.batch_capacity(), 4)
            << label << ": " << batched.batch_fallback_reason();

        for (const std::size_t n : {std::size_t{1}, std::size_t{3},
                                    std::size_t{4}}) {
            std::vector<std::map<std::string, Tensor>> requests;
            std::vector<const std::map<std::string, Tensor> *> pointers;
            for (std::size_t r = 0; r < n; ++r)
                requests.push_back(random_request(
                    reference, 0xba7c0 + 16 * n + 4 * r));
            for (const auto &request : requests)
                pointers.push_back(&request);

            const auto results = batched.run_batch(pointers);
            ASSERT_EQ(results.size(), n) << label << " n=" << n;
            for (std::size_t r = 0; r < n; ++r) {
                const auto expected = reference.run(requests[r]);
                ASSERT_EQ(results[r].size(), expected.size());
                for (const auto &[name, tensor] : expected)
                    EXPECT_EQ(max_abs_diff(results[r].at(name), tensor),
                              0.0f)
                        << label << " n=" << n << " request " << r
                        << " output " << name;
            }
        }
    }
}

TEST(EngineBatching, SampleMixingOpFallsBackToSingleRequest)
{
    // Softmax over axis 0 mixes samples once requests are stacked
    // along the batch dimension: the engine must refuse to batch and
    // keep serving single requests.
    Graph graph("softmax_axis0");
    graph.add_input("x", Shape({4, 8}));
    AttributeMap attrs;
    attrs.set("axis", std::int64_t{0});
    graph.add_node(op_names::kSoftmax, {"x"}, {"y"}, attrs);
    graph.add_output("y");

    EngineOptions options;
    options.max_batch = 4;
    Engine engine(std::move(graph), options);
    EXPECT_EQ(engine.batch_capacity(), 1);
    EXPECT_FALSE(engine.batch_fallback_reason().empty());

    const auto outputs =
        engine.run({{"x", make_random(Shape({4, 8}), 0xa51)}});
    EXPECT_EQ(outputs.count("y"), 1u);
}

TEST(InferenceService, BatchedServingMatchesEngineAndFormsBatches)
{
    set_global_num_threads(1);
    Engine reference(models::tiny_cnn(), {});

    ServiceOptions options;
    options.workers = 1;
    options.max_batch = 4;
    options.batch_window_ms = 200;
    options.enable_watchdog = false;
    InferenceService service(models::tiny_cnn(), {}, options);

    std::vector<std::future<InferenceResponse>> futures;
    for (unsigned i = 0; i < 4; ++i)
        futures.push_back(service.submit(cnn_inputs(0xb100 + i)));
    for (unsigned i = 0; i < 4; ++i) {
        const InferenceResponse response = futures[i].get();
        ASSERT_TRUE(response.status.is_ok())
            << response.status.to_string();
        const auto expected = reference.run(cnn_inputs(0xb100 + i));
        for (const auto &[name, tensor] : expected)
            EXPECT_EQ(max_abs_diff(response.outputs.at(name), tensor),
                      0.0f)
                << "request " << i << " output " << name;
    }

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed_ok, 4);
    EXPECT_GE(stats.batches_formed, 1);
    EXPECT_GE(stats.batched_requests, 2);
    EXPECT_LE(stats.batch_max_occupancy, 4);
    EXPECT_GE(stats.batch_mean_occupancy, 2.0);
    EXPECT_EQ(stats.batch_splits, 0);
}

TEST(InferenceService, RealtimeNeverWaitsOnBatchWindow)
{
    ServiceOptions options;
    options.workers = 1;
    options.max_batch = 4;
    options.batch_window_ms = 5000;
    options.enable_watchdog = false;
    InferenceService service(models::tiny_cnn(), {}, options);

    const auto started = std::chrono::steady_clock::now();
    const InferenceResponse response =
        service.run(cnn_inputs(0xb200), DeadlineToken(),
                    RequestPriority::kRealtime);
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - started;

    ASSERT_TRUE(response.status.is_ok()) << response.status.to_string();
    EXPECT_LT(elapsed.count(), 2500.0)
        << "a lone real-time request must not wait out the batch window";
}

TEST(InferenceService, TightDeadlineLeaderSkipsBatchWindow)
{
    ServiceOptions options;
    options.workers = 1;
    options.max_batch = 4;
    options.batch_window_ms = 5000;
    options.enable_watchdog = false;
    InferenceService service(models::tiny_cnn(), {}, options);

    // The leader's 500 ms budget cannot cover the 5 s window: the
    // assembler must dispatch immediately instead of holding the
    // request into a guaranteed deadline miss.
    const auto started = std::chrono::steady_clock::now();
    const InferenceResponse response =
        service.run(cnn_inputs(0xb300), DeadlineToken::after_ms(500));
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - started;

    ASSERT_TRUE(response.status.is_ok()) << response.status.to_string();
    EXPECT_LT(elapsed.count(), 2500.0);
}

TEST(InferenceService, MidBatchFaultSplitsAndSparesOtherBatches)
{
    set_global_num_threads(1);
    auto sick = std::make_shared<FaultInjector>();

    EngineOptions engine_options;
    engine_options.guard.enabled = true;

    ServiceOptions options;
    options.workers = 1;
    options.replicas = 2;
    options.max_batch = 3;
    options.batch_window_ms = 500;
    options.enable_watchdog = false;
    options.per_replica_injectors = {sick, nullptr};
    InferenceService service(models::tiny_cnn(), engine_options, options);

    // One corrupted kernel invocation on replica 0: the first fused
    // run fails as a whole, splits, and every member re-dispatches on
    // the clean replica — no corruption surfaces to any caller.
    sick->arm_corruption("", "", CorruptionKind::kNaNPoke, 0, 1);

    std::vector<std::future<InferenceResponse>> first_wave;
    for (unsigned i = 0; i < 3; ++i)
        first_wave.push_back(service.submit(cnn_inputs(0xb400 + i)));
    for (auto &future : first_wave) {
        const InferenceResponse response = future.get();
        ASSERT_TRUE(response.status.is_ok())
            << response.status.to_string();
        EXPECT_TRUE(response.batch_split);
    }

    // A second, clean wave is untouched by the earlier fault.
    std::vector<std::future<InferenceResponse>> second_wave;
    for (unsigned i = 0; i < 3; ++i)
        second_wave.push_back(service.submit(cnn_inputs(0xb410 + i)));
    for (auto &future : second_wave) {
        const InferenceResponse response = future.get();
        ASSERT_TRUE(response.status.is_ok())
            << response.status.to_string();
        EXPECT_FALSE(response.batch_split);
    }

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed_ok, 6);
    EXPECT_EQ(stats.batch_splits, 1);
    EXPECT_EQ(stats.data_corruption, 0)
        << "the mid-batch corruption must not surface to callers";
    EXPECT_EQ(stats.failed, 0);
}

TEST(InferenceService, FusedRunSplitIsNotARetry)
{
    set_global_num_threads(1);
    auto sick = std::make_shared<FaultInjector>();

    EngineOptions engine_options;
    engine_options.guard.enabled = true;

    ServiceOptions options;
    options.workers = 1;
    options.replicas = 2;
    options.max_batch = 3;
    options.batch_window_ms = 500;
    // No retries at all: only the split can save the batch's members.
    options.max_retries = 0;
    options.retry_budget = 0;
    options.enable_watchdog = false;
    options.per_replica_injectors = {sick, nullptr};
    InferenceService service(models::tiny_cnn(), engine_options, options);

    sick->arm_corruption("", "", CorruptionKind::kNaNPoke, 0, 1);
    std::vector<std::future<InferenceResponse>> futures;
    for (unsigned i = 0; i < 3; ++i)
        futures.push_back(service.submit(cnn_inputs(0xb500 + i)));
    for (auto &future : futures) {
        const InferenceResponse response = future.get();
        ASSERT_TRUE(response.status.is_ok())
            << response.status.to_string();
        EXPECT_TRUE(response.batch_split);
        EXPECT_EQ(response.batch_size, 3);
        EXPECT_EQ(response.retries, 0);
        EXPECT_FALSE(response.retry_denied_by_budget);
    }

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed_ok, 3);
    EXPECT_EQ(stats.batch_splits, 1);
    EXPECT_EQ(stats.retries, 0);
    EXPECT_EQ(stats.retry_budget_denied, 0);
}

TEST(InferenceService, ConcurrentBatchAssemblyStaysConsistent)
{
    EngineOptions engine_options;
    engine_options.fault_injector = std::make_shared<FaultInjector>();
    // A small uniform stall keeps a backlog so batches actually form
    // while two workers race over the same lanes. Run under TSan to
    // check the assembler's locking.
    engine_options.fault_injector->arm_delay("", "", 2, 0, -1);

    ServiceOptions options;
    options.workers = 2;
    options.replicas = 2;
    options.max_queue_depth = 8;
    options.max_batch = 4;
    options.batch_window_ms = 2;
    options.enable_watchdog = false;
    InferenceService service(models::tiny_cnn(), engine_options, options);

    constexpr int kPerClass = 40;
    const RequestPriority classes[kPriorityClasses] = {
        RequestPriority::kRealtime, RequestPriority::kInteractive,
        RequestPriority::kBatch};
    std::vector<std::future<InferenceResponse>> futures[kPriorityClasses];
    std::atomic<bool> done{false};

    std::thread reader([&] {
        while (!done.load()) {
            const ServiceStats snapshot = service.stats();
            EXPECT_LE(snapshot.completed_ok, snapshot.accepted);
            EXPECT_LE(snapshot.batch_max_occupancy, 4);
            std::this_thread::yield();
        }
    });

    std::thread submitters[kPriorityClasses];
    for (std::size_t c = 0; c < kPriorityClasses; ++c) {
        futures[c].reserve(kPerClass);
        submitters[c] = std::thread([&service, &futures, &classes, c] {
            for (int i = 0; i < kPerClass; ++i) {
                DeadlineToken token = (i % 4 == 3)
                                          ? DeadlineToken::after_ms(1)
                                          : DeadlineToken();
                futures[c].push_back(service.submit(
                    cnn_inputs(0xb500 + static_cast<unsigned>(i)),
                    std::move(token), 0, classes[c]));
            }
        });
    }
    for (std::thread &submitter : submitters)
        submitter.join();
    for (auto &lane : futures)
        for (auto &future : lane)
            (void)future.get();
    done.store(true);
    reader.join();

    const ServiceStats stats = service.stats();
    const std::int64_t total = 3 * kPerClass;
    EXPECT_EQ(stats.submitted, total);
    EXPECT_EQ(stats.accepted + stats.rejected_queue_full +
                  stats.rejected_infeasible,
              total);
    // Accepted requests are accounted exactly once even when they ride
    // through fused runs.
    std::int64_t finished = 0, shed = 0;
    for (std::size_t c = 0; c < kPriorityClasses; ++c) {
        finished += stats.class_count[c];
        shed += stats.class_shed[c];
    }
    EXPECT_EQ(finished + shed, stats.accepted);
    EXPECT_EQ(stats.failed, 0);
    EXPECT_EQ(stats.data_corruption, 0);
    // Batching bookkeeping: occupancy is bounded by the capacity, and
    // every counted flush cause corresponds to a formed batch
    // (coalesce-only flushes carry no cause).
    EXPECT_GE(stats.batched_requests, 2 * stats.batches_formed);
    EXPECT_LE(stats.batched_requests, 4 * stats.batches_formed);
    EXPECT_LE(stats.batch_flush_full + stats.batch_flush_window +
                  stats.batch_flush_deadline,
              stats.batches_formed);
}

// --- Bugfix regressions -----------------------------------------------------

TEST(InferenceService, ColdBacklogStillCountsTowardFeasibility)
{
    EngineOptions engine_options;
    engine_options.fault_injector = std::make_shared<FaultInjector>();
    // Every run stalls ~50 ms so queued work represents real wait.
    engine_options.fault_injector->arm_delay("", "", 50, 0, -1);

    ServiceOptions options;
    options.workers = 1;
    options.rt_queue_depth = 8;
    options.enable_watchdog = false;
    InferenceService service(models::tiny_cnn(), engine_options, options);

    // Give the interactive lane service history (~50 ms P50); the
    // real-time lane stays cold.
    ASSERT_TRUE(service.run(cnn_inputs(0xb600)).status.is_ok());

    // Occupy the worker, then fill the real-time lane. That lane has
    // no recorded service times — the admission estimate must borrow
    // another lane's P50 instead of pricing the backlog at zero.
    auto stall = service.submit(cnn_inputs(0xb601));
    wait_for_empty_queue(service);
    std::vector<std::future<InferenceResponse>> backlog;
    for (unsigned i = 0; i < 4; ++i)
        backlog.push_back(service.submit(cnn_inputs(0xb610 + i),
                                         DeadlineToken(), 0,
                                         RequestPriority::kRealtime));

    // ~4 x 50 ms of real-time work is ahead of this 60 ms budget: a
    // guaranteed miss, rejected at admission without queue time or a
    // replica lease.
    const InferenceResponse infeasible =
        service.run(cnn_inputs(0xb620), DeadlineToken::after_ms(60),
                    RequestPriority::kBatch);
    EXPECT_EQ(infeasible.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(infeasible.run_ms, 0.0);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.rejected_infeasible, 1);
    EXPECT_EQ(
        stats.class_infeasible[priority_index(RequestPriority::kBatch)],
        1);

    EXPECT_TRUE(stall.get().status.is_ok());
    for (auto &future : backlog)
        EXPECT_TRUE(future.get().status.is_ok());
}

TEST(ServiceRetry, BackoffClampAppliesAfterJitter)
{
    ServiceOptions options;
    options.retry_backoff_ms = 400;
    options.retry_backoff_max_ms = 600;

    // Below the cap the jitter passes through untouched.
    EXPECT_DOUBLE_EQ(retry_backoff_for_attempt_ms(options, 0, 0.5),
                     200.0);
    // Boundary: 400 x 1.5 lands exactly on the cap.
    EXPECT_DOUBLE_EQ(retry_backoff_for_attempt_ms(options, 0, 1.5),
                     600.0);
    // Attempt 1 doubles to 800; clamp-before-jitter used to return
    // 600 x 1.5 = 900, overshooting the configured ceiling.
    EXPECT_DOUBLE_EQ(retry_backoff_for_attempt_ms(options, 1, 1.5),
                     600.0);
    // Deep saturation stays pinned at the cap for any jitter draw.
    for (const double jitter : {0.5, 1.0, 1.4999})
        EXPECT_DOUBLE_EQ(retry_backoff_for_attempt_ms(options, 30, jitter),
                         600.0);
}

} // namespace
} // namespace orpheus
