/**
 * @file
 * Tests for the versioned model lifecycle (runtime/model_registry.hpp)
 * and the graceful-shutdown drain that shares its machinery:
 *
 *  - a hot swap under sustained live load completes with zero failed
 *    requests while capacity never dips below N-1 replicas;
 *  - a bad generation is rejected at the canary — by the warm-up probe
 *    when it is broken outright, or by the live error-rate verdict when
 *    it corrupts under traffic — with the typed kModelRejected status
 *    while the incumbent keeps serving;
 *  - a generation that is slow on its canary is rolled back by the
 *    latency (P99) verdict;
 *  - signature-incompatible models never touch the pool;
 *  - every replica of a generation shares one folded weight set;
 *  - shutdown(deadline) sheds only batch-priority work when the
 *    deadline is tight (pricing the backlog per worker) and returns
 *    with no leases held.
 *
 * Timing-dependent cases use injected delays an order of magnitude
 * larger than the thresholds they cross, so they hold on slow CI.
 */
#include "runtime/model_registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "core/threadpool.hpp"
#include "models/model_zoo.hpp"
#include "runtime/service.hpp"
#include "test_util.hpp"

namespace orpheus {
namespace {

using testing::make_random;

std::map<std::string, Tensor>
cnn_inputs(std::uint64_t seed)
{
    return {{"input", make_random(Shape({1, 3, 8, 8}), seed)}};
}

/** tiny-cnn re-seeded as a "new version": identical weights and
 *  signature, different graph name, so rollout tests can tell the
 *  generations apart while outputs stay bitwise comparable. */
Graph
tiny_cnn_version(const std::string &name)
{
    Graph graph = models::tiny_cnn();
    graph.set_name(name);
    return graph;
}

// --- Acceptance (a): hot swap under sustained load --------------------------

TEST(ModelRegistry, HotSwapUnderLoadDropsNothingAndKeepsCapacity)
{
    set_global_num_threads(1);
    ServiceOptions options;
    options.workers = 3;
    options.replicas = 3;
    options.max_queue_depth = 64;
    options.enable_watchdog = false;
    InferenceService service(models::tiny_cnn(), {}, options);

    Engine reference(models::tiny_cnn(), {});
    const auto expected = reference.run(cnn_inputs(0x40a));

    std::atomic<bool> stop{false};
    std::atomic<std::int64_t> completed{0};
    std::atomic<std::int64_t> failed{0};
    std::atomic<std::int64_t> wrong_bits{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c)
        clients.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed)) {
                const InferenceResponse response =
                    service.submit(cnn_inputs(0x40a)).get();
                ++completed;
                if (!response.status.is_ok()) {
                    ++failed;
                    continue;
                }
                for (const auto &[name, tensor] : expected)
                    if (max_abs_diff(response.outputs.at(name), tensor) !=
                        0.0f)
                        ++wrong_bits;
            }
        });

    // Capacity sampler: the drain-and-swap fences one replica at a
    // time, so at least N-1 replicas must stay available throughout.
    std::atomic<std::int64_t> capacity_low{0};
    std::thread sampler([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            std::size_t available = 0;
            for (const ReplicaSnapshot &replica : service.pool().snapshot())
                if (replica.state == ReplicaState::kActive &&
                    !replica.draining)
                    ++available;
            if (available < 2)
                ++capacity_low;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });

    // Let the incumbent serve a little, then roll out the new version
    // with a live canary slice.
    while (completed.load() < 30)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    RolloutOptions rollout;
    rollout.canary_fraction = 0.5;
    rollout.min_canary_samples = 6;
    rollout.observe_timeout_ms = 10'000;
    const RolloutReport report =
        service.reload(tiny_cnn_version("tiny-cnn-v2"), rollout);

    stop.store(true);
    for (std::thread &client : clients)
        client.join();
    sampler.join();

    ASSERT_TRUE(report.status.is_ok()) << report.status.to_string();
    EXPECT_FALSE(report.rolled_back);
    EXPECT_EQ(report.replicas_swapped, 3u);
    EXPECT_GE(report.canary_samples, 1);

    EXPECT_EQ(failed.load(), 0);
    EXPECT_EQ(wrong_bits.load(), 0);
    EXPECT_GT(completed.load(), 30);
    EXPECT_EQ(capacity_low.load(), 0) << "capacity dipped below N-1";

    EXPECT_EQ(service.registry().active_generation(), 2u);
    EXPECT_EQ(service.registry().active_model(), "tiny-cnn-v2");
    for (const ReplicaSnapshot &replica : service.pool().snapshot()) {
        EXPECT_EQ(replica.generation, 2u);
        EXPECT_FALSE(replica.draining);
    }
    const auto generations = service.registry().generations();
    ASSERT_EQ(generations.size(), 2u);
    EXPECT_EQ(generations[0].state, GenerationState::kRetired);
    EXPECT_EQ(generations[1].state, GenerationState::kActive);
    EXPECT_GE(service.stats().model_swaps, 3);
    EXPECT_GE(service.stats().canary_routed, 1);
}

// --- Acceptance (b): bad generations are rolled back automatically ----------

TEST(ModelRegistry, WarmupProbeQuarantinesBrokenGeneration)
{
    set_global_num_threads(1);
    EngineOptions engine_options;
    engine_options.fault_injector = std::make_shared<FaultInjector>();
    // Only the staged generation corrupts; the incumbent "tiny-cnn"
    // shares the injector but never matches.
    engine_options.fault_injector->arm_model_corruption(
        "tiny-cnn-bad", CorruptionKind::kNaNPoke);

    ServiceOptions options;
    options.workers = 1;
    options.replicas = 2;
    options.enable_watchdog = false;
    InferenceService service(models::tiny_cnn(), engine_options, options);

    EXPECT_TRUE(service.run(cnn_inputs(0x40b)).status.is_ok());

    const RolloutReport report =
        service.reload(tiny_cnn_version("tiny-cnn-bad"));
    EXPECT_EQ(report.status.code(), StatusCode::kModelRejected);
    EXPECT_EQ(report.replicas_swapped, 0u);

    // The incumbent never stopped serving and the pool is untouched.
    EXPECT_TRUE(service.run(cnn_inputs(0x40c)).status.is_ok());
    EXPECT_EQ(service.registry().active_generation(), 1u);
    EXPECT_EQ(service.registry().rollbacks(), 1);
    EXPECT_EQ(service.stats().model_rollbacks, 1);
    for (const ReplicaSnapshot &replica : service.pool().snapshot()) {
        EXPECT_EQ(replica.generation, 1u);
        EXPECT_EQ(replica.state, ReplicaState::kActive);
        EXPECT_FALSE(replica.draining);
    }
    const auto generations = service.registry().generations();
    ASSERT_EQ(generations.size(), 2u);
    EXPECT_EQ(generations[1].state, GenerationState::kQuarantined);
    EXPECT_NE(generations[1].detail.find("probe"), std::string::npos)
        << generations[1].detail;
}

/** The warm-up probe's own non-finite scan is the verdict the pool
 *  sees: the canary replica is charged one failure for the NaN it
 *  produced, not rewarded with the engine's OK. */
TEST(ModelRegistry, CorruptedWarmupProbeIsReleasedAsAFailure)
{
    set_global_num_threads(1);
    EngineOptions engine_options;
    engine_options.fault_injector = std::make_shared<FaultInjector>();
    engine_options.fault_injector->arm_model_corruption(
        "tiny-cnn-bad", CorruptionKind::kNaNPoke);

    ServiceOptions options;
    options.workers = 1;
    options.replicas = 2;
    options.enable_watchdog = false;
    InferenceService service(models::tiny_cnn(), engine_options, options);

    EXPECT_TRUE(service.run(cnn_inputs(0x40b)).status.is_ok());
    const RolloutReport report =
        service.reload(tiny_cnn_version("tiny-cnn-bad"));
    EXPECT_EQ(report.status.code(), StatusCode::kModelRejected);

    std::int64_t failures = 0;
    for (const ReplicaSnapshot &replica : service.pool().snapshot())
        failures += replica.failures;
    EXPECT_EQ(failures, 1);
}

TEST(ModelRegistry, LiveCanaryRolledBackWhileIncumbentServes)
{
    set_global_num_threads(1);
    EngineOptions engine_options;
    engine_options.guard.enabled = true;
    engine_options.fault_injector = std::make_shared<FaultInjector>();
    engine_options.fault_injector->arm_model_corruption(
        "tiny-cnn-bad", CorruptionKind::kNaNPoke);

    ServiceOptions options;
    options.workers = 2;
    options.replicas = 2;
    options.max_queue_depth = 64;
    options.enable_watchdog = false;
    // Failover keeps clients whole while the canary misbehaves.
    options.max_retries = 2;
    options.retry_budget = 1.0;
    InferenceService service(models::tiny_cnn(), engine_options, options);

    std::atomic<bool> stop{false};
    std::atomic<std::int64_t> failed{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 2; ++c)
        clients.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed))
                if (!service.submit(cnn_inputs(0x40d)).get().status.is_ok())
                    ++failed;
        });

    // Skip the warm-up probes so the NaN generation reaches the live
    // canary phase; the guard catches every corrupted canary response
    // and the error-rate verdict must roll the generation back.
    // Three corrupted responses (1.2 penalty each) quarantine the
    // canary, so three samples is all the window can ever hold; the
    // timeout is only a backstop for that race.
    RolloutOptions rollout;
    rollout.warmup_probes = 0;
    rollout.canary_fraction = 0.5;
    rollout.min_canary_samples = 3;
    rollout.observe_timeout_ms = 1500;
    const RolloutReport report =
        service.reload(tiny_cnn_version("tiny-cnn-bad"), rollout);

    stop.store(true);
    for (std::thread &client : clients)
        client.join();

    EXPECT_EQ(report.status.code(), StatusCode::kModelRejected);
    EXPECT_TRUE(report.rolled_back);
    EXPECT_GE(report.canary_samples, 1);
    EXPECT_EQ(failed.load(), 0)
        << "failover must shield clients from the bad canary";

    EXPECT_EQ(service.registry().active_generation(), 1u);
    const auto generations = service.registry().generations();
    ASSERT_EQ(generations.size(), 2u);
    EXPECT_EQ(generations[1].state, GenerationState::kRolledBack);
    // The displaced incumbent engine was restored on the canary
    // replica; the whole pool serves generation 1 again.
    for (const ReplicaSnapshot &replica : service.pool().snapshot()) {
        EXPECT_EQ(replica.generation, 1u);
        EXPECT_FALSE(replica.draining);
    }
    EXPECT_TRUE(service.run(cnn_inputs(0x40e)).status.is_ok());
}

/** The latency verdict: a generation that runs ~20 ms per request on
 *  its canary, against a ~0.02 ms incumbent, must be rolled back once
 *  both windows hold enough samples for a P99. */
TEST(ModelRegistry, SlowCanaryRolledBackByLatencyVerdict)
{
    set_global_num_threads(1);
    const auto canary_injector = std::make_shared<FaultInjector>();
    ServiceOptions options;
    options.workers = 2;
    options.replicas = 2;
    options.max_queue_depth = 64;
    options.enable_watchdog = false;
    options.per_replica_injectors = {canary_injector, nullptr};
    InferenceService service(models::tiny_cnn(), {}, options);

    std::atomic<bool> stop{false};
    std::atomic<std::int64_t> failed{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 2; ++c)
        clients.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed))
                if (!service.submit(cnn_inputs(0x431)).get().status.is_ok())
                    ++failed;
        });

    // Replica 0 is the first active replica, so it takes the canary;
    // its injector slows the first step of whatever engine it runs.
    const std::string first_node =
        service.pool().engine(0).steps().front().node_name;
    canary_injector->arm_delay(first_node, "", /*delay_ms=*/20);
    RolloutOptions rollout;
    rollout.canary_fraction = 0.5;
    rollout.min_canary_samples = 100;
    rollout.observe_timeout_ms = 30'000;
    const RolloutReport report =
        service.reload(tiny_cnn_version("tiny-cnn-slow"), rollout);
    canary_injector->reset();

    stop.store(true);
    for (std::thread &client : clients)
        client.join();

    EXPECT_EQ(report.status.code(), StatusCode::kModelRejected);
    EXPECT_TRUE(report.rolled_back);
    EXPECT_GE(report.canary_samples, 100);
    EXPECT_NE(report.detail.find("P99"), std::string::npos) << report.detail;
    EXPECT_EQ(failed.load(), 0);
    EXPECT_EQ(service.registry().active_generation(), 1u);
    for (const ReplicaSnapshot &replica : service.pool().snapshot())
        EXPECT_EQ(replica.generation, 1u);
}

TEST(ModelRegistry, SignatureMismatchRejectedWithoutTouchingPool)
{
    set_global_num_threads(1);
    ServiceOptions options;
    options.workers = 1;
    options.replicas = 2;
    options.enable_watchdog = false;
    InferenceService service(models::tiny_cnn(), {}, options);

    const RolloutReport report = service.reload(models::tiny_mlp());
    EXPECT_EQ(report.status.code(), StatusCode::kModelRejected);
    EXPECT_NE(report.status.message().find("signature"),
              std::string::npos)
        << report.status.message();
    EXPECT_EQ(service.stats().model_swaps, 0);
    EXPECT_EQ(service.registry().active_generation(), 1u);
    EXPECT_TRUE(service.run(cnn_inputs(0x40f)).status.is_ok());
}

TEST(ModelRegistry, RollOutFileOnDirectoryRejectedWithoutThrowing)
{
    // reload_file is roll_out_file behind the service: a path that is no
    // model file comes back as a rejected report, never as an exception.
    set_global_num_threads(1);
    ServiceOptions options;
    options.workers = 1;
    options.replicas = 1;
    options.enable_watchdog = false;
    InferenceService service(models::tiny_cnn(), {}, options);

    RolloutReport report;
    ASSERT_NO_THROW(report = service.reload_file(::testing::TempDir()));
    EXPECT_EQ(report.status.code(), StatusCode::kModelRejected);
    EXPECT_NE(report.status.message().find("not a regular file"),
              std::string::npos)
        << report.status.message();
    EXPECT_EQ(service.registry().active_generation(), 1u);
    EXPECT_TRUE(service.run(cnn_inputs(0x410)).status.is_ok());
}

// --- One simplified graph per generation -----------------------------------

/** Leases replica @p replica, runs @p inputs and checks the outputs are
 *  bitwise @p expected. */
void
expect_replica_output(EnginePool &pool, std::size_t replica,
                      const std::map<std::string, Tensor> &inputs,
                      const std::map<std::string, Tensor> &expected)
{
    Status why;
    EnginePool::Lease lease =
        pool.acquire_specific(replica, DeadlineToken::after_ms(5000), &why);
    ASSERT_TRUE(lease.valid()) << why.to_string();
    std::map<std::string, Tensor> outputs;
    const Status status = lease.engine().try_run(inputs, outputs);
    ASSERT_TRUE(status.is_ok()) << status.to_string();
    for (const auto &[name, tensor] : expected)
        EXPECT_EQ(max_abs_diff(outputs.at(name), tensor), 0.0f)
            << "replica " << replica << " output " << name;
    pool.release(std::move(lease), status);
}

/** The pool simplifies each model once: every replica of a generation,
 *  the seed model's and a reloaded one's alike, reads each weight
 *  (BN-folded conv weights included) from the same Buffer, and still
 *  matches a standalone engine bitwise. */
TEST(ModelRegistry, ReplicasShareOneFoldedWeightSetPerGeneration)
{
    set_global_num_threads(1);
    EnginePoolOptions pool_options;
    pool_options.replicas = 3;
    EnginePool pool(models::tiny_cnn(), {}, pool_options);
    ModelRegistry registry(pool);

    Engine reference(models::tiny_cnn(), {});
    ASSERT_TRUE(reference.simplification_report().changed());
    const auto inputs = cnn_inputs(0x432);
    const auto expected = reference.run(inputs);

    const auto expect_one_weight_set = [&](const char *phase) {
        const Graph &first = pool.engine(0).graph();
        for (const Node &node : first.nodes())
            EXPECT_NE(node.op_type(), "BatchNormalization")
                << phase << ": the pool must have folded BN";
        ASSERT_FALSE(first.initializers().empty());
        for (const auto &[name, weight] : first.initializers())
            for (std::size_t i = 1; i < pool.replica_count(); ++i)
                EXPECT_EQ(pool.engine(i).graph().initializer(name).raw_data(),
                          weight.raw_data())
                    << phase << ": replica " << i << " initializer "
                    << name;
        for (std::size_t i = 0; i < pool.replica_count(); ++i)
            expect_replica_output(pool, i, inputs, expected);
    };
    expect_one_weight_set("seed model");

    const RolloutReport report =
        registry.roll_out(tiny_cnn_version("tiny-cnn-v2"));
    ASSERT_TRUE(report.status.is_ok()) << report.status.to_string();
    ASSERT_EQ(report.replicas_swapped, 3u);
    expect_one_weight_set("after reload");
}

// --- Acceptance (c): tight shutdown deadline sheds batch work only ----------

TEST(ModelRegistry, TightShutdownDeadlineShedsOnlyBatchWork)
{
    set_global_num_threads(1);
    Graph graph = models::tiny_cnn();
    const std::string first_node = graph.nodes().front().name();

    EngineOptions engine_options;
    engine_options.fault_injector = std::make_shared<FaultInjector>();
    // The seed request (training the latency estimate) and the request
    // in flight at shutdown each take ~300 ms; everything queued
    // behind them is fast.
    engine_options.fault_injector->arm_delay(first_node, "",
                                             /*delay_ms=*/300,
                                             /*delay_from_call=*/0,
                                             /*max_delays=*/2);

    ServiceOptions options;
    options.workers = 1;
    options.max_queue_depth = 16;
    options.enable_watchdog = false;
    InferenceService service(std::move(graph), engine_options, options);

    // Seed the P50 estimate with one slow completed request.
    ASSERT_TRUE(service.run(cnn_inputs(0x410)).status.is_ok());

    // Occupy the worker, then queue batch and interactive work.
    auto in_flight = service.submit(cnn_inputs(0x411));
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (service.queue_depth() > 0 &&
           std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    auto batch_a = service.submit(cnn_inputs(0x412), DeadlineToken(), 0,
                                  RequestPriority::kBatch);
    auto batch_b = service.submit(cnn_inputs(0x413), DeadlineToken(), 0,
                                  RequestPriority::kBatch);
    auto interactive = service.submit(cnn_inputs(0x414));

    // ~300 ms in flight + a ~375 ms-per-request estimate over four
    // requests cannot fit in 1 s, so batch work must be shed up front;
    // the interactive requests still fit comfortably.
    const ShutdownReport report = service.shutdown(/*deadline_ms=*/1000);
    EXPECT_TRUE(report.status.is_ok()) << report.status.to_string();
    EXPECT_EQ(report.shed, 2);
    EXPECT_EQ(report.flushed, 1);
    EXPECT_LE(report.duration_ms, 1500.0);

    EXPECT_TRUE(in_flight.get().status.is_ok());
    EXPECT_TRUE(interactive.get().status.is_ok());
    const InferenceResponse shed_a = batch_a.get();
    const InferenceResponse shed_b = batch_b.get();
    EXPECT_EQ(shed_a.status.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(shed_b.status.code(), StatusCode::kResourceExhausted);
    EXPECT_NE(shed_a.status.message().find("batch"), std::string::npos)
        << shed_a.status.message();

    // No lease survives shutdown, and admission is closed for good.
    for (const ReplicaSnapshot &replica : service.pool().snapshot())
        EXPECT_FALSE(replica.leased);
    EXPECT_FALSE(
        service.submit(cnn_inputs(0x415)).get().status.is_ok());
    EXPECT_EQ(service.stats().shutdown_shed, 2);
}

/** The backlog is priced per worker, at service time: two workers
 *  drain two requests in flight and four queued, at ~100 ms each, in
 *  ~300 ms, which a 600 ms deadline covers with a 2x margin. An
 *  estimate that counts queue time (queue+run P50 ~200 ms after a
 *  queued seed) and ignores the worker count reads ~1200 ms, twice the
 *  deadline, and would shed the batch work for nothing. */
TEST(ModelRegistry, ShutdownPricesBacklogPerWorker)
{
    set_global_num_threads(1);
    Graph graph = models::tiny_cnn();
    const std::string first_node = graph.nodes().front().name();
    EngineOptions engine_options;
    engine_options.fault_injector = std::make_shared<FaultInjector>();
    engine_options.fault_injector->arm_delay(first_node, "",
                                             /*delay_ms=*/100);

    ServiceOptions options;
    options.workers = 2;
    options.max_queue_depth = 16;
    options.enable_watchdog = false;
    InferenceService service(std::move(graph), engine_options, options);

    // Seed: six requests queue on two workers, so the ~100 ms service
    // time is learned while queue+run latency reads ~200 ms at P50.
    std::vector<std::future<InferenceResponse>> seed;
    for (int i = 0; i < 6; ++i)
        seed.push_back(service.submit(
            cnn_inputs(0x440 + static_cast<std::uint64_t>(i))));
    for (auto &future : seed)
        ASSERT_TRUE(future.get().status.is_ok());

    // Occupy both workers, then queue batch and interactive work.
    std::vector<std::future<InferenceResponse>> pending;
    for (int i = 0; i < 2; ++i)
        pending.push_back(service.submit(
            cnn_inputs(0x450 + static_cast<std::uint64_t>(i))));
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (service.queue_depth() > 0 &&
           std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (int i = 0; i < 4; ++i)
        pending.push_back(service.submit(
            cnn_inputs(0x460 + static_cast<std::uint64_t>(i)),
            DeadlineToken(), 0,
            i % 2 == 0 ? RequestPriority::kBatch
                       : RequestPriority::kInteractive));

    const ShutdownReport report = service.shutdown(/*deadline_ms=*/600);
    EXPECT_TRUE(report.status.is_ok()) << report.status.to_string();
    EXPECT_EQ(report.shed, 0);
    EXPECT_EQ(report.flushed, 4);
    for (auto &future : pending)
        EXPECT_TRUE(future.get().status.is_ok());
    EXPECT_EQ(service.stats().shutdown_shed, 0);
}

TEST(ModelRegistry, UnlimitedShutdownFlushesEverything)
{
    set_global_num_threads(1);
    ServiceOptions options;
    options.workers = 1;
    options.max_queue_depth = 16;
    options.enable_watchdog = false;
    InferenceService service(models::tiny_cnn(), {}, options);

    std::vector<std::future<InferenceResponse>> pending;
    for (int i = 0; i < 6; ++i)
        pending.push_back(service.submit(
            cnn_inputs(0x420 + static_cast<std::uint64_t>(i)),
            DeadlineToken(), 0,
            i % 2 == 0 ? RequestPriority::kBatch
                       : RequestPriority::kInteractive));

    const ShutdownReport report = service.shutdown(/*deadline_ms=*/0);
    EXPECT_TRUE(report.status.is_ok()) << report.status.to_string();
    EXPECT_EQ(report.shed, 0);
    for (auto &future : pending)
        EXPECT_TRUE(future.get().status.is_ok());
}

} // namespace
} // namespace orpheus
