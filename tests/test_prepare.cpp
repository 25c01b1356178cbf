/**
 * @file
 * Tests for the plan-time kernel-preparation stage (backend/layer.hpp):
 * prepared engines must match unprepared ones bit for bit, grouped and
 * depthwise convolutions must stay correct on every backend after
 * preparation, prepared state must be engine-private (the old
 * thread_local caches made cross-engine contamination untestable), the
 * workspace segment must be counted in the request footprint, and the
 * steady-state kernel path must not touch the heap.
 */
#include "runtime/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <cstdlib>
#include <cstring>
#include <new>

#include "core/threadpool.hpp"
#include "ops/gemm/gemm.hpp"
#include "runtime/engine_pool.hpp"
#include "models/builder.hpp"
#include "models/model_zoo.hpp"
#include "quant/quantizer.hpp"
#include "test_util.hpp"

// --- Allocation counting ----------------------------------------------------
// Replaces the global allocation functions for this test binary: when
// counting is armed, every operator new is tallied. The steady-state
// zero-allocation guarantee is verified by arming the counter around
// run_step() on kernel-bearing steps.

namespace {
std::atomic<std::int64_t> g_alloc_count{0};
std::atomic<bool> g_counting{false};

void *
counted_alloc(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
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
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
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
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    const std::size_t alignment = static_cast<std::size_t>(align);
    void *ptr = std::aligned_alloc(
        alignment, (size + alignment - 1) / alignment * alignment);
    if (ptr == nullptr)
        throw std::bad_alloc();
    return ptr;
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
operator delete(void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}

namespace orpheus {
namespace {

using testing::expect_close;
using testing::make_random;

/** A small conv network: two 3x3 convs, pooling head, dense classifier.
 *  @p group applies to the second conv (1 = dense conv, in_c = depthwise,
 *  other divisors = grouped). */
Graph
conv_net(std::int64_t channels, std::int64_t hw, std::int64_t group,
         std::uint64_t seed)
{
    GraphBuilder b("prep-net", seed);
    std::string x = b.input("input", Shape({1, 3, hw, hw}));
    x = b.cbr(x, channels, 3, 1, 1);
    x = b.conv_k(x, channels, 3, 1, 1, group, /*bias=*/true);
    x = b.relu(x);
    x = b.global_average_pool(x);
    x = b.flatten(x);
    x = b.dense(x, 10);
    b.output(b.softmax(x));
    return b.take();
}

EngineOptions
pinned(const std::string &conv_impl, bool prepare = true)
{
    EngineOptions options;
    options.prepare_kernels = prepare;
    if (!conv_impl.empty())
        options.backend.forced_impl[op_names::kConv] = conv_impl;
    return options;
}

// --- Correctness across backends after preparation --------------------------

TEST(Prepare, GroupedConvBackendsMatchReferenceWhenPrepared)
{
    set_global_num_threads(1);
    // channels = 8, group = 4: a grouped conv none of the fast paths may
    // silently mishandle once their weight caches are prepacked.
    Graph graph = conv_net(8, 12, /*group=*/4, /*seed=*/0x91);
    const Tensor input = make_random(Shape({1, 3, 12, 12}), 0xa1);

    Engine reference(Graph(graph), pinned("direct"));
    const Tensor expected = reference.run(input);

    for (const char *impl : {"im2col_gemm", "spatial_pack"}) {
        Engine engine(Graph(graph), pinned(impl));
        expect_close(engine.run(input), expected, 1e-3f, 1e-3f);
    }
}

TEST(Prepare, DepthwiseConvBackendsMatchReferenceWhenPrepared)
{
    set_global_num_threads(1);
    // A purely depthwise graph (group == in_c == out_c) so every conv
    // node supports the pinned depthwise kernel.
    GraphBuilder b("depthwise-net", 0x92);
    std::string x = b.input("input", Shape({1, 8, 12, 12}));
    x = b.conv_k(x, 8, 3, 1, 1, /*group=*/8, /*bias=*/true);
    x = b.relu(x);
    x = b.conv_k(x, 8, 3, 1, 1, /*group=*/8, /*bias=*/true);
    b.output(x);
    Graph graph = b.take();
    const Tensor input = make_random(Shape({1, 8, 12, 12}), 0xa2);

    Engine reference(Graph(graph), pinned("direct"));
    const Tensor expected = reference.run(input);

    for (const char *impl :
         {"im2col_gemm", "spatial_pack", "depthwise_direct"}) {
        Engine engine(Graph(graph), pinned(impl));
        expect_close(engine.run(input), expected, 1e-3f, 1e-3f);
    }
}

TEST(Prepare, WinogradMatchesReferenceWhenPrepared)
{
    set_global_num_threads(1);
    Graph graph = conv_net(8, 12, /*group=*/1, /*seed=*/0x93);
    const Tensor input = make_random(Shape({1, 3, 12, 12}), 0xa3);

    Engine reference(Graph(graph), pinned("direct"));
    const Tensor expected = reference.run(input);

    EngineOptions options = pinned("winograd");
    options.backend.allow_winograd = true;
    Engine engine(Graph(graph), options);
    expect_close(engine.run(input), expected, 1e-3f, 1e-3f);
}

// --- Prepared == unprepared, bit for bit ------------------------------------

TEST(Prepare, PreparedMatchesUnpreparedBitwise)
{
    set_global_num_threads(1);
    // Preparation hoists work to plan time but must not change the
    // arithmetic: identical kernels on identical data -> identical bits.
    for (const char *impl : {"im2col_gemm", "spatial_pack", "direct"}) {
        Graph graph = conv_net(8, 12, /*group=*/2, /*seed=*/0x94);
        const Tensor input = make_random(Shape({1, 3, 12, 12}), 0xa4);

        Engine prepared(Graph(graph), pinned(impl, true));
        Engine unprepared(Graph(graph), pinned(impl, false));
        EXPECT_EQ(max_abs_diff(prepared.run(input), unprepared.run(input)),
                  0.0f)
            << "impl " << impl;
    }
}

TEST(Prepare, WinogradPreparedMatchesUnpreparedBitwise)
{
    set_global_num_threads(1);
    Graph graph = conv_net(8, 12, /*group=*/1, /*seed=*/0x95);
    const Tensor input = make_random(Shape({1, 3, 12, 12}), 0xa5);

    EngineOptions prepared_options = pinned("winograd", true);
    prepared_options.backend.allow_winograd = true;
    EngineOptions unprepared_options = pinned("winograd", false);
    unprepared_options.backend.allow_winograd = true;

    // The prepared engine caches U = G g G^T at plan time; the
    // unprepared one recomputes it per run. Same formula, same bits.
    Engine prepared(Graph(graph), prepared_options);
    Engine unprepared(Graph(graph), unprepared_options);
    EXPECT_EQ(max_abs_diff(prepared.run(input), unprepared.run(input)),
              0.0f);
}

TEST(Prepare, QuantizedPreparedMatchesUnpreparedBitwise)
{
    set_global_num_threads(1);
    Graph quantized = quantize_model(models::tiny_cnn());
    const Tensor input =
        make_random(Shape({1, 3, 8, 8}), 0xa6);

    EngineOptions prepared_options;
    EngineOptions unprepared_options;
    unprepared_options.prepare_kernels = false;
    Engine prepared(Graph(quantized), prepared_options);
    Engine unprepared(Graph(quantized), unprepared_options);
    EXPECT_EQ(max_abs_diff(prepared.run(input), unprepared.run(input)),
              0.0f);
}

// --- Engine-private prepared state ------------------------------------------

TEST(Prepare, TwoEnginesOnOnePoolDoNotCrossContaminate)
{
    set_global_num_threads(1);
    // Different channel counts, spatial sizes and weights: if prepared
    // caches or workspace segments were shared (as the old thread_local
    // scratch was), interleaved runs would read each other's state.
    Graph graph_a = conv_net(8, 16, /*group=*/1, /*seed=*/0x21);
    Graph graph_b = conv_net(12, 12, /*group=*/1, /*seed=*/0x22);
    const Tensor input_a = make_random(Shape({1, 3, 16, 16}), 0xb1);
    const Tensor input_b = make_random(Shape({1, 3, 12, 12}), 0xb2);

    // Ground truth from engines that never interleave.
    const Tensor expected_a =
        Engine(Graph(graph_a), pinned("spatial_pack")).run(input_a);
    const Tensor expected_b =
        Engine(Graph(graph_b), pinned("spatial_pack")).run(input_b);

    Engine engine_a(Graph(graph_a), pinned("spatial_pack"));
    Engine engine_b(Graph(graph_b), pinned("spatial_pack"));
    for (int round = 0; round < 3; ++round) {
        EXPECT_EQ(max_abs_diff(engine_a.run(input_a), expected_a), 0.0f)
            << "round " << round;
        EXPECT_EQ(max_abs_diff(engine_b.run(input_b), expected_b), 0.0f)
            << "round " << round;
    }
}

// --- Workspace accounting ---------------------------------------------------

TEST(Prepare, WorkspaceIsCountedInRequestFootprint)
{
    set_global_num_threads(1);
    Graph graph = models::tiny_cnn();

    EngineOptions unprepared_options;
    unprepared_options.prepare_kernels = false;
    Engine unprepared(Graph(graph), unprepared_options);
    Engine prepared(Graph(graph), EngineOptions{});

    EXPECT_EQ(unprepared.workspace_bytes(), 0u);
    EXPECT_GT(prepared.workspace_bytes(), 0u);
    // The only footprint difference preparation makes is the workspace
    // segment itself.
    EXPECT_EQ(prepared.request_footprint_bytes(),
              unprepared.request_footprint_bytes() +
                  prepared.workspace_bytes());
}

// --- Plan-time Gemm weight transpose ----------------------------------------

constexpr std::uint64_t kGemmWeightSeed = 0xc1;

/** One transB=1 Gemm with bias: Y[m, n] = A[m, k] * B[n, k]^T + C. B is
 *  an initializer, or with @p runtime_b a second graph input that the
 *  caller feeds with gemm_weight(). */
Graph
gemm_graph(std::int64_t m, std::int64_t k, std::int64_t n, bool runtime_b)
{
    Graph graph("gemm-net");
    graph.add_input("a", Shape({m, k}));
    if (runtime_b)
        graph.add_input("b", Shape({n, k}));
    else
        graph.add_initializer("b",
                              make_random(Shape({n, k}), kGemmWeightSeed));
    graph.add_initializer("c", make_random(Shape({n}), 0xc2));
    AttributeMap attrs;
    attrs.set("transB", std::int64_t{1});
    graph.add_node(op_names::kGemm, {"a", "b", "c"}, {"y"},
                   std::move(attrs));
    graph.add_output("y");
    return graph;
}

Tensor
gemm_weight(std::int64_t k, std::int64_t n)
{
    return make_random(Shape({n, k}), kGemmWeightSeed);
}

bool
bitwise_equal(const Tensor &x, const Tensor &y)
{
    return x.shape() == y.shape() &&
           std::memcmp(x.data<float>(), y.data<float>(),
                       static_cast<std::size_t>(x.numel()) *
                           sizeof(float)) == 0;
}

constexpr std::int64_t kGemmM = 3, kGemmK = 40, kGemmN = 24;
constexpr std::size_t kGemmTransposeBytes = kGemmK * kGemmN * sizeof(float);

TEST(Prepare, ConstantGemmWeightTransposedOnceAtPlanTime)
{
    set_global_num_threads(1);
    const Graph graph = gemm_graph(kGemmM, kGemmK, kGemmN, false);
    const Tensor a = make_random(Shape({kGemmM, kGemmK}), 0xc3);

    EngineOptions unprepared_options;
    unprepared_options.prepare_kernels = false;
    Engine prepared(Graph(graph), EngineOptions{});
    Engine unprepared(Graph(graph), unprepared_options);
    EXPECT_TRUE(bitwise_equal(prepared.run(a), unprepared.run(a)));

    // The transpose moved out of the per-request workspace into the
    // plan-time B panels, which replace the weight: the same Gemm over a
    // runtime B still reserves it.
    Engine runtime_b(gemm_graph(kGemmM, kGemmK, kGemmN, true),
                     EngineOptions{});
    EXPECT_LE(prepared.workspace_bytes() + kGemmTransposeBytes,
              runtime_b.workspace_bytes());
    const Tensor &weight = prepared.graph().initializer("b");
    EXPECT_EQ(weight.layout().kind, TensorLayout::Kind::kPanelB);
    EXPECT_TRUE(weight.layout().transposed);
    EXPECT_EQ(weight.buffer()->size(), kGemmTransposeBytes);
    EXPECT_FALSE(unprepared.graph().initializer("b").layout().packed());
    for (const auto &[name, tensor] : runtime_b.graph().initializers())
        EXPECT_FALSE(tensor.layout().packed()) << name;
}

TEST(Prepare, RuntimeGemmWeightKeepsPerCallTranspose)
{
    set_global_num_threads(1);
    const Tensor a = make_random(Shape({kGemmM, kGemmK}), 0xc4);
    Engine constant_b(gemm_graph(kGemmM, kGemmK, kGemmN, false),
                      EngineOptions{});
    const Tensor expected = constant_b.run(a);

    // A runtime B is transposed on every call, so a changed B must show.
    Engine runtime_b(gemm_graph(kGemmM, kGemmK, kGemmN, true),
                     EngineOptions{});
    Tensor b = gemm_weight(kGemmK, kGemmN);
    EXPECT_TRUE(bitwise_equal(runtime_b.run({{"a", a}, {"b", b}}).at("y"),
                              expected));
    b.data<float>()[0] += 1.0f;
    EXPECT_GT(max_abs_diff(runtime_b.run({{"a", a}, {"b", b}}).at("y"),
                           expected),
              0.0f);
}

TEST(Prepare, ReplicasShareOneGemmWeightPanelSet)
{
    set_global_num_threads(1);
    const Graph graph = gemm_graph(kGemmM, kGemmK, kGemmN, false);
    const Tensor a = make_random(Shape({kGemmM, kGemmK}), 0xc5);

    // Replicas compile from the graph the first compile lowered: the
    // weight is packed once, and every replica reads that one buffer.
    EnginePool pool(Graph(graph), EngineOptions{}, EnginePoolOptions{});
    Graph model = graph;
    pool.simplify(model);
    const std::unique_ptr<Engine> first = pool.compile_replica(model, 0);
    const std::unique_ptr<Engine> second = pool.compile_replica(model, 0);
    const Tensor &weight = first->graph().initializer("b");
    EXPECT_EQ(weight.layout().kind, TensorLayout::Kind::kPanelB);
    EXPECT_EQ(weight.buffer()->size(), kGemmTransposeBytes);
    EXPECT_EQ(second->graph().initializer("b").raw_data(),
              weight.raw_data());
    EXPECT_EQ(model.initializer("b").raw_data(), weight.raw_data());
    EXPECT_TRUE(bitwise_equal(first->run(a), second->run(a)));
}

// --- Lowered weights ---------------------------------------------------------

TEST(Prepare, SoleOwnedWeightsArePackedInTheirOwnStorage)
{
    set_global_num_threads(1);
    // The engine is the weights' only holder: panels hold exactly the
    // weight's floats, so each weight is repacked where it was stored.
    Graph graph = models::tiny_mlp(128, 256, 10);
    std::map<std::string, const void *> storage;
    for (const auto &[name, tensor] : graph.initializers())
        storage[name] = tensor.raw_data();
    Engine engine(std::move(graph));
    std::size_t packed = 0;
    for (const auto &[name, tensor] : engine.graph().initializers()) {
        EXPECT_EQ(tensor.raw_data(), storage.at(name)) << name;
        packed += tensor.layout().packed() ? 1 : 0;
    }
    EXPECT_EQ(packed, 2u);
}

TEST(Prepare, PreparedDenseReservesNoPackedBBlock)
{
    set_global_num_threads(1);
    // tiny-mlp's weights are B panels, so no step packs B per call: the
    // 1 MiB packed-B block is gone from the workspace and the footprint.
    Engine engine(models::tiny_mlp(128, 256, 10));
    EXPECT_LT(engine.workspace_bytes(),
              gemm_packed_b_pack_floats() * sizeof(float));
}

TEST(Prepare, ZooModelsPreparedMatchUnpreparedBitwise)
{
    set_global_num_threads(1);
    struct Case {
        const char *name;
        Graph graph;
        Shape input;
    };
    const std::vector<Case> cases = {
        {"tiny-mlp", models::tiny_mlp(128, 256, 10), Shape({1, 128})},
        {"mobilenet-v1", models::mobilenet_v1(), Shape({1, 3, 224, 224})},
        {"resnet-18", models::resnet18(), Shape({1, 3, 224, 224})},
    };
    EngineOptions unprepared_options;
    unprepared_options.prepare_kernels = false;
    for (const Case &c : cases) {
        const Tensor input = make_random(c.input, 0xd1);
        Engine prepared(Graph(c.graph), EngineOptions{});
        Engine unprepared(Graph(c.graph), unprepared_options);
        std::size_t lowered = 0;
        for (const auto &[name, tensor] : prepared.graph().initializers())
            lowered += tensor.layout().packed() ? 1 : 0;
        EXPECT_GT(lowered, 0u) << c.name;
        EXPECT_TRUE(bitwise_equal(prepared.run(input),
                                  unprepared.run(input)))
            << c.name;
    }
}

TEST(Prepare, OpenBreakerOnPackedStepsMatchesUnloweredReference)
{
    set_global_num_threads(1);
    const Graph graph = models::tiny_cnn();
    const Tensor input = make_random(Shape({1, 3, 8, 8}), 0xd2);

    Engine engine(Graph(graph), EngineOptions{});
    // Every step that reads a packed weight and has a fallback kernel:
    // the conv steps, and the Gemm step when the SIMD tier gives it one
    // (scalar-only, "reference" is its only impl).
    std::vector<std::size_t> packed_steps;
    bool conv = false, gemm = false;
    for (std::size_t i = 0; i < engine.steps().size(); ++i) {
        const PlanStep &step = engine.steps()[i];
        if (step.inputs.size() < 2 || step.inputs[1] == nullptr ||
            !step.inputs[1]->layout().packed() ||
            step.reference_impl.empty())
            continue;
        packed_steps.push_back(i);
        conv |= step.op_type == op_names::kConv;
        gemm |= step.op_type == op_names::kGemm;
    }
    ASSERT_TRUE(conv);
    if (gemm_packed_simd_available()) {
        ASSERT_TRUE(gemm);
    }

    // The reference engine pins those nodes to the impls the breaker
    // falls back to, so they never read panels.
    EngineOptions reference_options;
    for (const std::size_t i : packed_steps)
        reference_options.backend.node_impl[engine.steps()[i].node_name] =
            engine.steps()[i].reference_impl;
    Engine reference(Graph(graph), reference_options);

    for (const std::size_t i : packed_steps) {
        engine.demote_step(i, "test: open the breaker");
        ASSERT_TRUE(engine.steps()[i].degraded);
    }
    EXPECT_TRUE(bitwise_equal(engine.run(input), reference.run(input)));

    // Closing the breakers puts the packed kernels back, bit for bit.
    Engine fresh(Graph(graph), EngineOptions{});
    for (const std::size_t i : packed_steps)
        engine.restore_step(i);
    EXPECT_TRUE(bitwise_equal(engine.run(input), fresh.run(input)));
}

// --- Demotion / restore with prepared state ---------------------------------

TEST(Prepare, DemoteAndRestoreKeepPreparedStepsCorrect)
{
    set_global_num_threads(1);
    Graph graph = conv_net(8, 12, /*group=*/1, /*seed=*/0x96);
    const Tensor input = make_random(Shape({1, 3, 12, 12}), 0xa7);

    Engine engine(Graph(graph), pinned("spatial_pack"));
    const Tensor baseline = engine.run(input);

    std::size_t conv_step = engine.steps().size();
    for (std::size_t i = 0; i < engine.steps().size(); ++i) {
        if (engine.steps()[i].op_type == op_names::kConv) {
            conv_step = i;
            break;
        }
    }
    ASSERT_LT(conv_step, engine.steps().size());

    // The fallback layer is instantiated and prepared on demotion; its
    // result only needs numerical agreement (different algorithm).
    engine.demote_step(conv_step, "test demotion");
    expect_close(engine.run(input), baseline, 1e-3f, 1e-3f);

    // Restoring re-instantiates and re-prepares the plan-time kernel:
    // bitwise identical to the original prepared run.
    engine.restore_step(conv_step);
    EXPECT_EQ(max_abs_diff(engine.run(input), baseline), 0.0f);
}

// --- Zero allocations in the steady state -----------------------------------

TEST(Prepare, SteadyStateKernelStepsDoNotAllocate)
{
    set_global_num_threads(1);
    Engine engine(models::tiny_cnn());
    const Tensor input = make_random(Shape({1, 3, 8, 8}), 0xa8);
    (void)engine.run(input); // Warm-up: populates every step's tensors.

    for (std::size_t i = 0; i < engine.steps().size(); ++i) {
        const PlanStep &step = engine.steps()[i];
        if (step.op_type != op_names::kConv &&
            step.op_type != op_names::kGemm &&
            step.op_type != op_names::kMatMul)
            continue;
        g_alloc_count.store(0);
        g_counting.store(true);
        engine.run_step(i);
        g_counting.store(false);
        EXPECT_EQ(g_alloc_count.load(), 0)
            << "step " << i << " (" << step.op_type << " via "
            << step.node_name << ") allocated in the steady state";
    }
}

TEST(Prepare, SteadyStateLargeKernelStepsDoNotAllocate)
{
    // tiny_cnn has only 3x3 convs. Pin the contract for large kernels,
    // whose im2col windows the packed GEMM gathers with per-tap state
    // that must not grow with the kernel: a 7x7 stride-2 conv and an
    // 11x11 conv (K = 392 and 1936, so K blocks start mid-tap), with the
    // ResNet stem's 3x3 stride-2 MaxPool between them.
    set_global_num_threads(1);
    GraphBuilder b("large-kernel-net", 0xd4);
    std::string x = b.input("input", Shape({1, 8, 40, 40}));
    x = b.relu(b.conv_k(x, 16, 7, 2, 3, /*group=*/1, /*bias=*/true));
    x = b.maxpool(x, 3, 2, 1);
    x = b.conv_k(x, 12, 11, 1, 5);
    b.output(x);
    const Graph graph = b.take();
    const Tensor input = make_random(Shape({1, 8, 40, 40}), 0xab);

    // The scalar-kernel impl, then whichever impl the heuristic picks
    // (the SIMD one where the host has it).
    for (const EngineOptions &options : {pinned("im2col_gemm"),
                                         EngineOptions{}}) {
        Engine engine(Graph(graph), options);
        (void)engine.run(input);

        int checked = 0;
        for (std::size_t i = 0; i < engine.steps().size(); ++i) {
            const PlanStep &step = engine.steps()[i];
            if (step.op_type == op_names::kConv)
                EXPECT_EQ(step.layer->impl_name().rfind("im2col_gemm", 0),
                          0u)
                    << step.layer->impl_name();
            else if (step.op_type != op_names::kMaxPool)
                continue;
            ++checked;
            g_alloc_count.store(0);
            g_counting.store(true);
            engine.run_step(i);
            g_counting.store(false);
            EXPECT_EQ(g_alloc_count.load(), 0)
                << "step " << i << " (" << step.op_type << " via "
                << step.layer->impl_name()
                << ") allocated in the steady state";
        }
        EXPECT_EQ(checked, 3);
    }
}

TEST(Prepare, SteadyStateDepthwiseStepsDoNotAllocate)
{
    // tiny_cnn has no depthwise step: cover the depthwise kernels (whose
    // row staging lives on the stack) at stride 1 and 2 with fused Relu.
    set_global_num_threads(1);
    GraphBuilder b("depthwise-net", 0xd3);
    std::string x = b.input("input", Shape({1, 16, 56, 56}));
    x = b.relu(b.conv_k(x, 16, 3, 1, 1, /*group=*/16, /*bias=*/true));
    x = b.relu(b.conv_k(x, 16, 3, 2, 1, /*group=*/16, /*bias=*/true));
    b.output(x);
    Engine engine(b.take());
    const Tensor input = make_random(Shape({1, 16, 56, 56}), 0xaa);
    (void)engine.run(input);

    int depthwise_steps = 0;
    for (std::size_t i = 0; i < engine.steps().size(); ++i) {
        const PlanStep &step = engine.steps()[i];
        EXPECT_NE(step.op_type, op_names::kRelu) << "Relu was not fused";
        if (step.op_type != op_names::kConv)
            continue;
        EXPECT_NE(step.layer->impl_name().find("depthwise"),
                  std::string::npos)
            << step.layer->impl_name();
        ++depthwise_steps;
        g_alloc_count.store(0);
        g_counting.store(true);
        engine.run_step(i);
        g_counting.store(false);
        EXPECT_EQ(g_alloc_count.load(), 0)
            << "depthwise step " << i << " (" << step.node_name
            << " via " << step.layer->impl_name()
            << ") allocated in the steady state";
    }
    EXPECT_EQ(depthwise_steps, 2);
}

/** A live request deadline reaches parallel_for as a plain pointer, so a
 *  run under one allocates exactly what the same run under a null token
 *  does (the request-boundary map and output copies), serial or not. */
TEST(Prepare, LiveDeadlineAddsNoAllocation)
{
    const std::map<std::string, Tensor> inputs = {
        {"input", make_random(Shape({1, 3, 8, 8}), 0xac)}};
    for (int threads : {1, 2}) {
        set_global_num_threads(threads);
        Engine engine(models::tiny_cnn());
        const auto allocations = [&](const DeadlineToken &token) {
            (void)engine.run(inputs, token); // Warm-up with this token.
            g_alloc_count.store(0);
            g_counting.store(true);
            (void)engine.run(inputs, token);
            g_counting.store(false);
            return g_alloc_count.load();
        };
        const std::int64_t baseline = allocations(DeadlineToken());
        EXPECT_EQ(allocations(DeadlineToken::after_ms(1e9)), baseline)
            << "at " << threads << " kernel threads";
        EXPECT_EQ(allocations(DeadlineToken::unlimited()), baseline)
            << "at " << threads << " kernel threads";
    }
    set_global_num_threads(1);
}

TEST(Prepare, SteadyStateQuantizedConvDoesNotAllocate)
{
    set_global_num_threads(1);
    Engine engine(quantize_model(models::tiny_cnn()));
    const Tensor input = make_random(Shape({1, 3, 8, 8}), 0xa9);
    (void)engine.run(input);

    bool saw_qconv = false;
    for (std::size_t i = 0; i < engine.steps().size(); ++i) {
        const PlanStep &step = engine.steps()[i];
        if (step.op_type != op_names::kQLinearConv)
            continue;
        saw_qconv = true;
        g_alloc_count.store(0);
        g_counting.store(true);
        engine.run_step(i);
        g_counting.store(false);
        EXPECT_EQ(g_alloc_count.load(), 0)
            << "QLinearConv step " << i << " allocated in the steady state";
    }
    EXPECT_TRUE(saw_qconv) << "quantized model contains no QLinearConv";
}

} // namespace
} // namespace orpheus
