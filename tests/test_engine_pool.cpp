/**
 * @file
 * Tests for the resilient engine pool (runtime/engine_pool.hpp) and
 * the retry/brownout machinery the InferenceService builds on it:
 * packed weights shared by every replica (one allocation per model,
 * not per replica), bitwise-identical replica outputs, health-driven
 * quarantine with probe-gated readmission, warm-spare promotion,
 * fail-fast when every replica is quarantined, failover retries on a
 * different replica, the retry-storm budget, deadline expiry during
 * retry backoff, and brownout shedding of batch-priority work.
 */
#include "runtime/engine_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <new>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/threadpool.hpp"
#include "models/builder.hpp"
#include "models/model_zoo.hpp"
#include "runtime/service.hpp"
#include "test_util.hpp"

// --- Allocation byte counting -----------------------------------------------
// Replaces the global allocation functions for this test binary: when
// counting is armed, every operator new and every aligned_alloc (the
// storage of each Buffer, packed weights included) tallies its byte
// size. Used to prove that replicas compiled from a lowered graph really
// allocate no weights instead of merely sharing pointers.

namespace {
std::atomic<std::int64_t> g_alloc_bytes{0};
std::atomic<bool> g_counting{false};

void *
counted_alloc(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_alloc_bytes.fetch_add(static_cast<std::int64_t>(size),
                                std::memory_order_relaxed);
    void *ptr = std::malloc(size == 0 ? 1 : size);
    if (ptr == nullptr)
        throw std::bad_alloc();
    return ptr;
}
} // namespace

// The full replacement family: omitting the nothrow/aligned variants
// would pair the default operator new with our free()-based delete (an
// alloc-dealloc mismatch under sanitizers).
void *
operator new(std::size_t size)
{
    return counted_alloc(size);
}

void *
operator new[](std::size_t size)
{
    return counted_alloc(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    if (g_counting.load(std::memory_order_relaxed))
        g_alloc_bytes.fetch_add(static_cast<std::int64_t>(size),
                                std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return operator new(size, std::nothrow);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_alloc_bytes.fetch_add(static_cast<std::int64_t>(size),
                                std::memory_order_relaxed);
    const std::size_t alignment = static_cast<std::size_t>(align);
    void *ptr = nullptr;
    if (posix_memalign(&ptr, std::max(alignment, sizeof(void *)), size) !=
        0)
        throw std::bad_alloc();
    return ptr;
}

// Buffer::allocate's storage. posix_memalign is not replaced, so this
// does not recurse.
extern "C" void *
aligned_alloc(std::size_t alignment, std::size_t size) noexcept
{
    if (g_counting.load(std::memory_order_relaxed))
        g_alloc_bytes.fetch_add(static_cast<std::int64_t>(size),
                                std::memory_order_relaxed);
    void *ptr = nullptr;
    return posix_memalign(&ptr, std::max(alignment, sizeof(void *)),
                          size) == 0
               ? ptr
               : nullptr;
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return operator new(size, align);
}

void
operator delete(void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::align_val_t, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::align_val_t, std::size_t) noexcept
{
    std::free(ptr);
}

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

/** Engine options pinning convolutions to spatial-pack, whose weights
 *  in spatial-pack order are a derived constant. */
EngineOptions
pinned_spatial_pack()
{
    EngineOptions options;
    options.backend.forced_impl["Conv"] = "spatial_pack";
    return options;
}

/** Bytes of the constants the lowering made: packed weights and
 *  derived constants. */
std::size_t
lowered_bytes(const Graph &graph)
{
    std::size_t bytes = 0;
    for (const auto &[name, tensor] : graph.initializers())
        if (tensor.layout().packed())
            bytes += tensor.buffer()->size();
    for (const auto &[key, constant] : graph.derived_constants())
        bytes += constant.value.buffer()->size();
    return bytes;
}

// --- Packed weights shared across replicas ---------------------------------

TEST(EnginePool, ReplicasShareOnePackedBufferPerWeight)
{
    set_global_num_threads(1);
    for (const EngineOptions &options :
         {EngineOptions{}, pinned_spatial_pack()}) {
        EnginePoolOptions pool_options;
        pool_options.replicas = 4;
        EnginePool pool(models::tiny_cnn(), options, pool_options);

        const Graph &first = pool.engine(0).graph();
        ASSERT_GT(lowered_bytes(first), 0u)
            << "tiny_cnn must get packed or derived weights; the sharing "
               "test is vacuous otherwise";
        // Every replica reads every weight, packed and derived ones
        // included, from replica 0's Buffer.
        for (std::size_t i = 1; i < pool.replica_count(); ++i) {
            const Graph &graph = pool.engine(i).graph();
            for (const auto &[name, weight] : first.initializers())
                EXPECT_EQ(graph.initializer(name).raw_data(),
                          weight.raw_data())
                    << "replica " << i << " initializer " << name;
            for (const auto &[key, constant] : first.derived_constants())
                EXPECT_EQ(graph.derived_constants().at(key).value.raw_data(),
                          constant.value.raw_data())
                    << "replica " << i << " derived constant " << key;
            EXPECT_EQ(graph.initializers().size(),
                      first.initializers().size());
            EXPECT_EQ(graph.derived_constants().size(),
                      first.derived_constants().size());
        }
    }
}

TEST(EnginePool, CompilingALaterReplicaAllocatesNoWeights)
{
    set_global_num_threads(1);
    for (const EngineOptions &options :
         {EngineOptions{}, pinned_spatial_pack()}) {
        EnginePool pool(models::tiny_cnn(), options, EnginePoolOptions{});
        Graph model = models::tiny_cnn();
        pool.simplify(model);
        // Holding the row-major weights elsewhere makes the first
        // compile pack them into fresh storage instead of in place.
        const Graph original = model;

        // Cold: the first compile lowers every weight.
        g_alloc_bytes.store(0);
        g_counting.store(true);
        {
            const std::unique_ptr<Engine> cold =
                pool.compile_replica(model, 0);
        }
        g_counting.store(false);
        const std::int64_t cold_bytes = g_alloc_bytes.load();
        const std::size_t packed = lowered_bytes(model);
        ASSERT_GT(packed, 0u);

        // Warm: the model now holds the lowered weights, which the next
        // replica reads in place.
        g_alloc_bytes.store(0);
        g_counting.store(true);
        {
            const std::unique_ptr<Engine> warm =
                pool.compile_replica(model, 0);
        }
        g_counting.store(false);
        const std::int64_t warm_bytes = g_alloc_bytes.load();

        // The warm build must skip at least the packed storage itself
        // (the two builds are otherwise identical code paths).
        EXPECT_LE(warm_bytes + static_cast<std::int64_t>(packed) / 2,
                  cold_bytes)
            << "warm replica allocated " << warm_bytes << " bytes vs "
            << cold_bytes << " cold; lowered weights are " << packed
            << " bytes and must not be rebuilt per replica";
    }
}

/**
 * The guard's shadow runs the reference kernel (direct conv, the scalar
 * packed Gemm) on the step's own packed weights: a kernel that cannot
 * read panels unpacks them per call, so no replica keeps a row-major
 * copy of any weight once its reference kernels exist. Measured as the
 * heap bytes still in use after every replica shadow-ran every step.
 */
TEST(EnginePool, ShadowRunsLeaveNoWeightCopiesInReplicas)
{
#if !defined(__GLIBC__)
    GTEST_SKIP() << "needs glibc's mallinfo2";
#else
    set_global_num_threads(1);
    GraphBuilder b("shadowed", 0x5ad0);
    std::string x = b.input("input", Shape({1, 16, 8, 8}));
    x = b.cbr(x, 64, 3, 1, 1);
    x = b.cbr(x, 64, 3, 1, 1);
    x = b.global_average_pool(x);
    x = b.flatten(x);
    b.output(b.dense(x, 256));
    const Graph model = b.take();
    const std::map<std::string, Tensor> inputs = {
        {"input", make_random(Shape({1, 16, 8, 8}), 0x5ad1)}};

    EngineOptions options;
    options.guard.enabled = true;
    options.guard.shadow_every_n = 1;
    EnginePoolOptions pool_options;
    pool_options.replicas = 3;
    EnginePool pool(Graph(model), options, pool_options);
    const std::size_t packed = lowered_bytes(pool.engine(0).graph());
    ASSERT_GT(packed, 200u * 1024u)
        << "the weights must dwarf the reference layers' own state";

    const auto heap_in_use = [] {
        const struct mallinfo2 info = mallinfo2();
        return static_cast<std::int64_t>(info.uordblks + info.hblkhd);
    };
    const std::int64_t before = heap_in_use();
    for (std::size_t i = 0; i < pool.replica_count(); ++i) {
        Status why;
        EnginePool::Lease lease =
            pool.acquire_specific(i, DeadlineToken::after_ms(5000), &why);
        ASSERT_TRUE(lease.valid()) << why.to_string();
        for (int run = 0; run < 3; ++run) {
            std::map<std::string, Tensor> outputs;
            ASSERT_TRUE(lease.engine().try_run(inputs, outputs).is_ok());
        }
        pool.release(std::move(lease), Status::ok());
    }
    const std::int64_t held = heap_in_use() - before;

    // A private row-major copy per replica would hold 3 x packed.
    EXPECT_LT(held, static_cast<std::int64_t>(packed) / 2)
        << "replicas hold " << held << " more heap bytes after shadow "
        << "runs; the packed weights are " << packed << " bytes";
    // Every step with a reference kernel shadow-ran; a step without
    // one (the scalar Gemm with the SIMD tier off) has nothing to
    // shadow.
    std::size_t shadowed_convs = 0;
    for (std::size_t i = 0; i < pool.replica_count(); ++i)
        for (const PlanStep &step : pool.engine(i).steps()) {
            if (step.reference_impl.empty() ||
                (step.op_type != "Conv" && step.op_type != "Gemm"))
                continue;
            EXPECT_GT(step.health.shadow_runs, 0)
                << "replica " << i << " " << step.node_name;
            shadowed_convs += step.op_type == "Conv" ? 1 : 0;
        }
    EXPECT_EQ(shadowed_convs, 2 * pool.replica_count())
        << "both packed convs of every replica must shadow-run";
#endif
}

TEST(EnginePool, ReplicasProduceBitwiseIdenticalOutputs)
{
    set_global_num_threads(1);
    Engine reference(models::tiny_cnn(), pinned_spatial_pack());
    const auto expected = reference.run(cnn_inputs(0xb17));

    EnginePoolOptions pool_options;
    pool_options.replicas = 4;
    EnginePool pool(models::tiny_cnn(), pinned_spatial_pack(),
                    pool_options);

    // Hold all four leases at once so each acquire lands on a distinct
    // replica, then run the same input everywhere.
    std::vector<EnginePool::Lease> leases;
    for (int i = 0; i < 4; ++i) {
        Status why;
        leases.push_back(pool.acquire(DeadlineToken::after_ms(5000),
                                      EnginePool::kNoReplica, &why));
        ASSERT_TRUE(leases.back().valid()) << why.to_string();
    }
    for (auto &lease : leases) {
        std::map<std::string, Tensor> outputs;
        const Status status =
            lease.engine().try_run(cnn_inputs(0xb17), outputs);
        ASSERT_TRUE(status.is_ok()) << status.to_string();
        ASSERT_EQ(outputs.size(), expected.size());
        for (const auto &[name, tensor] : expected)
            EXPECT_EQ(max_abs_diff(outputs.at(name), tensor), 0.0f)
                << "replica " << lease.replica_id() << " output " << name;
    }
    for (auto &lease : leases)
        pool.release(std::move(lease), Status::ok());
    EXPECT_EQ(pool.stats().acquires, 4);
}

// --- Quarantine, probing, readmission ---------------------------------------

TEST(EnginePool, QuarantineProbeReadmitsRecoveredReplica)
{
    set_global_num_threads(1);
    EngineOptions engine_options;
    engine_options.fault_injector = std::make_shared<FaultInjector>();
    // Two kernel faults: the first request's fast kernel AND its
    // reference fallback both fail (exhausting the fallback chain into
    // kInternal); the readmission probe then runs clean.
    engine_options.fault_injector->arm("", "", /*fail_from_call=*/0,
                                       /*max_faults=*/2);

    EnginePoolOptions pool_options;
    pool_options.replicas = 1;
    pool_options.quarantine_threshold = 1.0;
    EnginePool pool(models::tiny_cnn(), engine_options, pool_options);

    Status why;
    EnginePool::Lease lease = pool.acquire(DeadlineToken::after_ms(5000),
                                           EnginePool::kNoReplica, &why);
    ASSERT_TRUE(lease.valid()) << why.to_string();
    std::map<std::string, Tensor> outputs;
    const Status failed =
        lease.engine().try_run(cnn_inputs(0x9a1), outputs);
    EXPECT_EQ(failed.code(), StatusCode::kInternal);
    pool.release(std::move(lease), failed);
    EXPECT_EQ(pool.stats().quarantines, 1);
    EXPECT_EQ(pool.stats().quarantined_replicas, 1u);

    // The only replica is quarantined: the next acquire must probe it
    // and, since the fault budget is exhausted, readmit it.
    lease = pool.acquire(DeadlineToken::after_ms(5000),
                         EnginePool::kNoReplica, &why);
    ASSERT_TRUE(lease.valid()) << why.to_string();
    const Status healed =
        lease.engine().try_run(cnn_inputs(0x9a1), outputs);
    EXPECT_TRUE(healed.is_ok()) << healed.to_string();
    pool.release(std::move(lease), healed);

    const EnginePoolStats stats = pool.stats();
    EXPECT_EQ(stats.probes, 1);
    EXPECT_EQ(stats.readmissions, 1);
    EXPECT_EQ(stats.quarantined_replicas, 0u);
    EXPECT_EQ(stats.active_replicas, 1u);
}

/**
 * Probe readmission racing concurrent acquire(): replicas fault in
 * bursts (quarantined at threshold 1.0, then the fault budget runs
 * dry, the readmission probe passes, and the replica is revived) while
 * several threads hammer acquire/run/release the whole time. The
 * nightly chaos soak loops this suite under TSan, so the test's job is
 * to put revive() and the acquire wait path on a collision course; the
 * assertions check the ledger still balances afterwards.
 */
TEST(EnginePool, ProbeReadmissionRacesConcurrentAcquires)
{
    set_global_num_threads(1);
    EngineOptions engine_options;
    engine_options.fault_injector = std::make_shared<FaultInjector>();
    // A finite fault budget shared by both replicas: enough failures
    // to quarantine them repeatedly, then probes run clean and readmit.
    engine_options.fault_injector->arm("", "", /*fail_from_call=*/0,
                                       /*max_faults=*/12);

    EnginePoolOptions pool_options;
    pool_options.replicas = 2;
    pool_options.quarantine_threshold = 1.0;
    EnginePool pool(models::tiny_cnn(), engine_options, pool_options);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 24;
    std::atomic<std::int64_t> leased{0};
    std::atomic<std::int64_t> denied{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                Status why;
                EnginePool::Lease lease =
                    pool.acquire(DeadlineToken::after_ms(30000),
                                 EnginePool::kNoReplica, &why);
                if (!lease.valid()) {
                    // Both replicas down mid-burst: a typed rejection,
                    // never a hang or a torn lease.
                    EXPECT_FALSE(why.is_ok());
                    ++denied;
                    continue;
                }
                std::map<std::string, Tensor> outputs;
                const Status verdict = lease.engine().try_run(
                    cnn_inputs(0xace0 +
                               static_cast<std::uint64_t>(t * 100 + i)),
                    outputs);
                pool.release(std::move(lease), verdict);
                ++leased;
            }
        });
    for (std::thread &thread : threads)
        thread.join();

    const EnginePoolStats stats = pool.stats();
    EXPECT_EQ(leased.load() + denied.load(), kThreads * kPerThread);
    EXPECT_EQ(stats.acquires, leased.load());
    EXPECT_LE(stats.readmissions, stats.probes);
    for (const ReplicaSnapshot &replica : pool.snapshot()) {
        EXPECT_FALSE(replica.leased);
        EXPECT_FALSE(replica.draining);
    }
}

TEST(EnginePool, AllReplicasQuarantinedFailsFastNotHang)
{
    set_global_num_threads(1);
    EngineOptions engine_options;
    engine_options.fault_injector = std::make_shared<FaultInjector>();
    // Every invocation faults, forever: probes can never pass.
    engine_options.fault_injector->arm("", "");

    EnginePoolOptions pool_options;
    pool_options.replicas = 2;
    pool_options.quarantine_threshold = 1.0;
    EnginePool pool(models::tiny_cnn(), engine_options, pool_options);

    for (int i = 0; i < 2; ++i) {
        Status why;
        EnginePool::Lease lease =
            pool.acquire(DeadlineToken::after_ms(5000),
                         EnginePool::kNoReplica, &why);
        ASSERT_TRUE(lease.valid()) << why.to_string();
        std::map<std::string, Tensor> outputs;
        const Status failed =
            lease.engine().try_run(cnn_inputs(0x9a2), outputs);
        EXPECT_EQ(failed.code(), StatusCode::kInternal);
        pool.release(std::move(lease), failed);
    }
    EXPECT_EQ(pool.stats().quarantined_replicas, 2u);

    // Both replicas are out and the probe keeps failing: acquire must
    // return kResourceExhausted promptly instead of blocking.
    const auto started = std::chrono::steady_clock::now();
    Status why;
    EnginePool::Lease lease = pool.acquire(DeadlineToken::after_ms(30000),
                                           EnginePool::kNoReplica, &why);
    const double waited_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - started)
            .count();
    EXPECT_FALSE(lease.valid());
    EXPECT_EQ(why.code(), StatusCode::kResourceExhausted);
    EXPECT_LT(waited_ms, 10000.0) << "acquire must fail fast, not hang";
    EXPECT_GE(pool.stats().probe_failures, 1);
}

/** The readmission probe runs under the acquirer's deadline too: a
 *  hung probe returns kDeadlineExceeded when that deadline passes, not
 *  after the probe deadline, and gives no verdict on the replica; an
 *  acquirer waiting on another's probe also stops at its deadline. */
TEST(EnginePool, ReadmissionProbeBoundedByCallerDeadline)
{
    set_global_num_threads(1);
    const auto injector = std::make_shared<FaultInjector>();
    EnginePoolOptions pool_options;
    pool_options.replicas = 1;
    pool_options.per_replica_injectors = {injector};
    EnginePool pool(models::tiny_cnn(), {}, pool_options);

    // Three kInternal releases (1.0 each) reach the 3.0 threshold.
    for (int i = 0; i < 3; ++i) {
        Status why;
        EnginePool::Lease lease =
            pool.acquire(DeadlineToken::after_ms(5000),
                         EnginePool::kNoReplica, &why);
        ASSERT_TRUE(lease.valid()) << why.to_string();
        pool.release(std::move(lease), internal_error("synthetic fault"));
    }
    ASSERT_EQ(pool.stats().quarantined_replicas, 1u);

    injector->arm_delay("", "", /*delay_ms=*/20000);
    const auto started = std::chrono::steady_clock::now();
    Status why;
    EnginePool::Lease lease = pool.acquire(DeadlineToken::after_ms(100),
                                           EnginePool::kNoReplica, &why);
    const double waited_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - started)
            .count();
    EXPECT_FALSE(lease.valid());
    EXPECT_EQ(why.code(), StatusCode::kDeadlineExceeded) << why.to_string();
    EXPECT_LT(waited_ms, 1000.0);
    EXPECT_EQ(pool.stats().probe_failures, 0);
    EXPECT_EQ(pool.stats().quarantined_replicas, 1u);

    // While another acquirer's probe runs, a second acquirer waits for
    // its verdict only within its own deadline.
    std::thread prober([&] {
        Status prober_why;
        EnginePool::Lease probed = pool.acquire(
            DeadlineToken::after_ms(1500), EnginePool::kNoReplica,
            &prober_why);
        EXPECT_FALSE(probed.valid());
        EXPECT_EQ(prober_why.code(), StatusCode::kDeadlineExceeded)
            << prober_why.to_string();
    });
    while (pool.stats().probes < 2)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const auto waiting = std::chrono::steady_clock::now();
    lease = pool.acquire(DeadlineToken::after_ms(100),
                         EnginePool::kNoReplica, &why);
    const double waited_for_verdict_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - waiting)
            .count();
    prober.join();
    EXPECT_FALSE(lease.valid());
    EXPECT_EQ(why.code(), StatusCode::kDeadlineExceeded) << why.to_string();
    EXPECT_LT(waited_for_verdict_ms, 1000.0);
    EXPECT_EQ(pool.stats().probe_failures, 0);

    // With the delay gone the next acquire readmits the replica.
    injector->reset();
    lease = pool.acquire(DeadlineToken::after_ms(5000),
                         EnginePool::kNoReplica, &why);
    ASSERT_TRUE(lease.valid()) << why.to_string();
    pool.release(std::move(lease), Status::ok());
    EXPECT_EQ(pool.stats().readmissions, 1);
    EXPECT_EQ(pool.stats().probe_failures, 0);
}

/** Readmission runs the same probe as a canary warm-up: with the guard
 *  off the engine reports OK on NaN outputs, so the probe itself must
 *  reject them and keep the replica out. */
TEST(EnginePool, ReadmissionProbeRejectsNonFiniteOutput)
{
    set_global_num_threads(1);
    const auto injector = std::make_shared<FaultInjector>();
    EnginePoolOptions pool_options;
    pool_options.replicas = 1;
    pool_options.per_replica_injectors = {injector};
    EnginePool pool(models::tiny_cnn(), {}, pool_options);

    // Two hangs (1.6 each) cross the 3.0 threshold at a neutral release.
    Status why;
    EnginePool::Lease lease = pool.acquire(DeadlineToken::after_ms(5000),
                                           EnginePool::kNoReplica, &why);
    ASSERT_TRUE(lease.valid()) << why.to_string();
    pool.report_hang(0, 0, "synthetic hang");
    pool.report_hang(0, 0, "synthetic hang");
    pool.release(std::move(lease),
                 deadline_exceeded_error("synthetic deadline"));
    ASSERT_EQ(pool.stats().quarantined_replicas, 1u);

    injector->arm_corruption("", "", CorruptionKind::kNaNPoke);
    lease = pool.acquire(DeadlineToken::after_ms(5000),
                         EnginePool::kNoReplica, &why);
    EXPECT_FALSE(lease.valid());
    EXPECT_EQ(why.code(), StatusCode::kResourceExhausted)
        << why.to_string();
    const EnginePoolStats stats = pool.stats();
    EXPECT_EQ(stats.probe_failures, 1);
    EXPECT_EQ(stats.readmissions, 0);
    EXPECT_EQ(stats.quarantined_replicas, 1u);
}

TEST(EnginePool, WarmSparePromotedWhenReplicaQuarantined)
{
    set_global_num_threads(1);
    EnginePoolOptions pool_options;
    pool_options.replicas = 1;
    pool_options.warm_spares = 1;
    pool_options.quarantine_threshold = 1.0;
    EnginePool pool(models::tiny_cnn(), {}, pool_options);
    EXPECT_EQ(pool.stats().spare_replicas, 1u);

    Status why;
    EnginePool::Lease lease = pool.acquire(DeadlineToken::after_ms(5000),
                                           EnginePool::kNoReplica, &why);
    ASSERT_TRUE(lease.valid()) << why.to_string();
    EXPECT_EQ(lease.replica_id(), 0u);
    pool.release(std::move(lease),
                 internal_error("synthetic kernel fault"));

    const EnginePoolStats stats = pool.stats();
    EXPECT_EQ(stats.quarantines, 1);
    EXPECT_EQ(stats.spare_promotions, 1);
    EXPECT_EQ(stats.active_replicas, 1u);
    EXPECT_EQ(stats.spare_replicas, 0u);

    // The next lease lands on the promoted spare, not the sick replica.
    lease = pool.acquire(DeadlineToken::after_ms(5000),
                         EnginePool::kNoReplica, &why);
    ASSERT_TRUE(lease.valid()) << why.to_string();
    EXPECT_EQ(lease.replica_id(), 1u);
    pool.release(std::move(lease), Status::ok());
}

/**
 * The fixed penalty weights at the default quarantine threshold of
 * 3.0: a kernel fault adds 1.0, a clean completion subtracts 0.5, a
 * confirmed corruption adds 1.2 and a watchdog hang adds 1.6.
 */
TEST(EnginePool, DefaultPenaltyWeightsDriveQuarantine)
{
    set_global_num_threads(1);
    EnginePool pool(models::tiny_cnn(), {}, EnginePoolOptions{});
    const auto release_with = [&pool](const Status &outcome) {
        Status why;
        EnginePool::Lease lease = pool.acquire(
            DeadlineToken::after_ms(5000), EnginePool::kNoReplica, &why);
        ASSERT_TRUE(lease.valid()) << why.to_string();
        pool.release(std::move(lease), outcome);
    };

    release_with(internal_error("synthetic kernel fault"));
    release_with(internal_error("synthetic kernel fault"));
    EXPECT_DOUBLE_EQ(pool.snapshot()[0].health_penalty, 2.0);
    release_with(Status::ok());
    EXPECT_DOUBLE_EQ(pool.snapshot()[0].health_penalty, 1.5);
    release_with(data_corruption_error("synthetic corruption"));
    EXPECT_DOUBLE_EQ(pool.snapshot()[0].health_penalty, 2.7);
    EXPECT_EQ(pool.snapshot()[0].state, ReplicaState::kActive);
    release_with(internal_error("synthetic kernel fault"));
    EXPECT_EQ(pool.snapshot()[0].state, ReplicaState::kQuarantined);
    EXPECT_EQ(pool.stats().quarantines, 1);

    EnginePool hung(models::tiny_cnn(), {}, EnginePoolOptions{});
    Status why;
    EnginePool::Lease lease = hung.acquire(DeadlineToken::after_ms(5000),
                                           EnginePool::kNoReplica, &why);
    ASSERT_TRUE(lease.valid()) << why.to_string();
    hung.report_hang(0, 0, "synthetic hang");
    hung.release(std::move(lease), Status::ok());
    EXPECT_DOUBLE_EQ(hung.snapshot()[0].health_penalty, 1.6 - 0.5);
}

/**
 * snapshot() racing a lease holder whose guard keeps opening breakers.
 * The breaker counters live in the leased engine; snapshot() must read
 * the copy the pool takes at release, not the engine itself. TSan
 * (this suite runs under it) flags a direct read.
 */
TEST(EnginePool, SnapshotDuringBreakerOpensIsRaceFree)
{
    set_global_num_threads(1);
    EngineOptions engine_options;
    engine_options.backend.forced_impl["Conv"] = "im2col_gemm";
    engine_options.guard.enabled = true;
    engine_options.guard.cooldown_ms = 0;
    engine_options.guard.fail_on_corruption = false;
    engine_options.fault_injector = std::make_shared<FaultInjector>();
    engine_options.fault_injector->arm_corruption(
        "", "im2col_gemm", CorruptionKind::kNaNPoke);
    EnginePool pool(models::tiny_cnn(), engine_options, EnginePoolOptions{});

    std::atomic<bool> done{false};
    std::thread reader([&] {
        while (!done.load())
            (void)pool.snapshot();
    });
    for (int i = 0; i < 40; ++i) {
        Status why;
        EnginePool::Lease lease = pool.acquire(
            DeadlineToken::after_ms(5000), EnginePool::kNoReplica, &why);
        if (!lease.valid()) {
            ADD_FAILURE() << why.to_string();
            break;
        }
        std::map<std::string, Tensor> outputs;
        const Status verdict =
            lease.engine().try_run(cnn_inputs(0x5a9), outputs);
        pool.release(std::move(lease), verdict);
    }
    done.store(true);
    reader.join();
    EXPECT_GE(pool.snapshot()[0].breaker_opens, 2);
}

// --- Service-level failover, retry budget, backoff --------------------------

TEST(ServiceRetry, FailsOverToDifferentReplicaOnCorruption)
{
    set_global_num_threads(1);
    // Replica 0 corrupts every output; replica 1 is clean. The guard
    // turns the corruption into kDataCorruption, and the retry must
    // land on replica 1 and succeed.
    auto sick = std::make_shared<FaultInjector>();
    sick->arm_corruption("", "", CorruptionKind::kNaNPoke);

    EngineOptions engine_options;
    engine_options.guard.enabled = true;

    ServiceOptions options;
    options.workers = 1;
    options.replicas = 2;
    options.enable_watchdog = false;
    options.max_retries = 2;
    options.per_replica_injectors = {sick, nullptr};

    InferenceService service(models::tiny_cnn(), engine_options, options);
    const InferenceResponse response = service.run(cnn_inputs(0xfa11));

    ASSERT_TRUE(response.status.is_ok()) << response.status.to_string();
    EXPECT_EQ(response.retries, 1);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed_ok, 1);
    EXPECT_EQ(stats.retries, 1);
    EXPECT_EQ(stats.data_corruption, 0)
        << "the corrupted attempt must not surface to the caller";
}

TEST(ServiceRetry, RetryStormCappedByBudget)
{
    set_global_num_threads(1);
    // Every attempt on the only replica corrupts: each request wants
    // max_retries retries, and the token bucket must refuse most of
    // them (initial burst 3 tokens + 0.2 earned per request).
    auto sick = std::make_shared<FaultInjector>();
    sick->arm_corruption("", "", CorruptionKind::kNaNPoke);

    EngineOptions engine_options;
    engine_options.guard.enabled = true;
    // Keep the breaker closed: once it opens, execution routes to the
    // reference kernel and the injected corruption no longer applies,
    // which would end the retry storm this test is about.
    engine_options.guard.open_after_trips = 1 << 30;
    engine_options.fault_injector = sick;

    ServiceOptions options;
    options.workers = 1;
    options.replicas = 1;
    options.enable_watchdog = false;
    options.max_retries = 2;
    options.retry_budget = 0.2;
    options.quarantine_threshold = 1e9; // Isolate the budget behaviour.

    InferenceService service(models::tiny_cnn(), engine_options, options);
    const int kRequests = 10;
    for (int i = 0; i < kRequests; ++i) {
        const InferenceResponse response = service.run(cnn_inputs(0x1000 + i));
        EXPECT_EQ(response.status.code(), StatusCode::kDataCorruption);
    }

    const ServiceStats stats = service.stats();
    // Supply: 3 initial tokens + 0.2 earned per dispatched request —
    // far below the 20 retries the requests would otherwise attempt.
    EXPECT_LE(stats.retries, 6);
    EXPECT_GE(stats.retry_budget_denied, 5);
    EXPECT_EQ(stats.data_corruption, kRequests);
}

TEST(ServiceRetry, DeadlineExpiresDuringBackoff)
{
    set_global_num_threads(1);
    auto sick = std::make_shared<FaultInjector>();
    sick->arm_corruption("", "", CorruptionKind::kNaNPoke);

    EngineOptions engine_options;
    engine_options.guard.enabled = true;
    engine_options.fault_injector = sick;

    ServiceOptions options;
    options.workers = 1;
    options.replicas = 1;
    options.enable_watchdog = false;
    options.max_retries = 3;
    // Backoff floor (500 ms * 0.5 jitter = 250 ms) far beyond the
    // remaining deadline, so the backoff sleep must be what expires.
    options.retry_backoff_ms = 500;
    options.retry_backoff_max_ms = 500;
    options.quarantine_threshold = 1e9;

    InferenceService service(models::tiny_cnn(), engine_options, options);
    const InferenceResponse response =
        service.run(cnn_inputs(0xdead), DeadlineToken::after_ms(150));

    EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_NE(response.status.message().find("backoff"),
              std::string::npos)
        << response.status.to_string();
    EXPECT_EQ(service.stats().deadline_exceeded, 1);
}

// --- Brownout ---------------------------------------------------------------

TEST(ServiceBrownout, ShedsBatchPriorityWorkUnderOverload)
{
    set_global_num_threads(1);
    EngineOptions engine_options;
    engine_options.fault_injector = std::make_shared<FaultInjector>();
    // Stall the first dispatched request so the queue fills behind it.
    engine_options.fault_injector->arm_delay("", "", /*delay_ms=*/400,
                                             /*delay_from_call=*/0,
                                             /*max_delays=*/1);

    ServiceOptions options;
    options.workers = 1;
    options.replicas = 1;
    options.max_queue_depth = 4;
    options.enable_watchdog = false;
    options.enable_brownout = true;
    // Enter at 3 queued requests, exit at 1.
    options.brownout_high_watermark = 3;
    options.brownout_low_watermark = 1;

    InferenceService service(models::tiny_cnn(), engine_options, options);

    auto in_flight = service.submit(cnn_inputs(0xb0));
    wait_for_empty_queue(service); // The worker is now inside the delay.
    std::vector<std::future<InferenceResponse>> batch;
    for (int i = 0; i < 4; ++i)
        batch.push_back(service.submit(cnn_inputs(0xb1 + i), {}, 0,
                                       RequestPriority::kBatch));
    EXPECT_TRUE(service.browned_out());

    EXPECT_TRUE(in_flight.get().status.is_ok());
    int shed = 0;
    for (auto &future : batch) {
        const InferenceResponse response = future.get();
        if (response.status.code() == StatusCode::kResourceExhausted) {
            ++shed;
            EXPECT_NE(response.status.message().find("brownout"),
                      std::string::npos);
        }
    }
    EXPECT_GE(shed, 2);

    const ServiceStats stats = service.stats();
    EXPECT_GE(stats.brownout_entered, 1);
    EXPECT_EQ(stats.brownout_shed, shed);
    EXPECT_GE(stats.brownout_exited, 1)
        << "draining the queue below the low watermark must restore "
           "full fidelity";
    EXPECT_FALSE(service.browned_out());
}

// --- Latency histogram ------------------------------------------------------

TEST(LatencyHistogram, PercentilesTrackRecordedSamples)
{
    LatencyHistogram histogram;
    for (int i = 0; i < 99; ++i)
        histogram.record(1.0);
    histogram.record(1000.0);

    EXPECT_EQ(histogram.count(), 100);
    const double p50 = histogram.percentile(0.50);
    const double p999 = histogram.percentile(0.999);
    // Geometric buckets: bounds are within one 1.3x ratio of the truth.
    EXPECT_GE(p50, 1.0 / 1.3);
    EXPECT_LE(p50, 1.0 * 1.3);
    EXPECT_GE(p999, 1000.0 / 1.3);
    EXPECT_LE(p999, 1000.0 * 1.3);
    EXPECT_LE(histogram.percentile(0.50), histogram.percentile(0.99));
}

TEST(LatencyHistogram, OutlierPercentileClampsToRecordedMax)
{
    // One 10 s hang among fast requests: the tail percentile must
    // report the recorded maximum, not the outlier bucket's geometric
    // upper bound (which over-reports by up to the bucket ratio).
    LatencyHistogram histogram;
    for (int i = 0; i < 99; ++i)
        histogram.record(1.0);
    histogram.record(10000.0);
    EXPECT_DOUBLE_EQ(histogram.percentile(0.999), 10000.0);
    EXPECT_DOUBLE_EQ(histogram.max_ms(), 10000.0);

    // A sample beyond the geometric range lands in the unbounded top
    // bucket, which used to report that bucket's lower bound and
    // silently cap the tail; it must report the recorded max.
    LatencyHistogram extreme;
    extreme.record(1.0e7);
    EXPECT_DOUBLE_EQ(extreme.percentile(0.999), 1.0e7);

    // merge() carries the max across histograms; reset() clears it.
    histogram.merge(extreme);
    EXPECT_DOUBLE_EQ(histogram.max_ms(), 1.0e7);
    histogram.reset();
    EXPECT_DOUBLE_EQ(histogram.max_ms(), 0.0);
    EXPECT_EQ(histogram.count(), 0);
}

TEST(ServiceStatsLatency, PercentilesPopulatedAfterTraffic)
{
    set_global_num_threads(1);
    ServiceOptions options;
    options.workers = 1;
    options.enable_watchdog = false;
    InferenceService service(models::tiny_cnn(), {}, options);
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(service.run(cnn_inputs(0xce + i)).status.is_ok());

    const ServiceStats stats = service.stats();
    EXPECT_GT(stats.latency_p50_ms, 0.0);
    EXPECT_GE(stats.latency_p99_ms, stats.latency_p50_ms);
    EXPECT_GE(stats.latency_p999_ms, stats.latency_p99_ms);
}

} // namespace
} // namespace orpheus
