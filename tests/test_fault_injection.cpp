/**
 * @file
 * Fault-injection tests for the engine's kernel-fallback policy.
 *
 * A FaultInjector makes an optimised kernel throw exactly where a
 * misbehaving backend would; the engine must degrade the step to the
 * reference implementation and keep producing correct results. Because
 * every kernel is deterministic, a degraded run must match a run pinned
 * to the reference kernel bit for bit — not merely within tolerance.
 */
#include "runtime/engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>

#include "core/rng.hpp"
#include "models/model_zoo.hpp"
#include "test_util.hpp"

namespace orpheus {
namespace {

using testing::expect_close;
using testing::make_random;

// --- FaultInjector semantics ----------------------------------------------

TEST(FaultInjector, UnarmedNeverFails)
{
    FaultInjector injector;
    EXPECT_FALSE(injector.decide("conv1", "im2col_gemm").fail);
    EXPECT_EQ(injector.calls_seen(), 0);
    EXPECT_EQ(injector.faults_injected(), 0);
}

TEST(FaultInjector, MatchesNodeAndImplPatterns)
{
    FaultInjector injector;
    injector.arm("conv1", "im2col_gemm");
    EXPECT_FALSE(injector.decide("conv2", "im2col_gemm").fail);
    EXPECT_FALSE(injector.decide("conv1", "direct").fail);
    EXPECT_TRUE(injector.decide("conv1", "im2col_gemm").fail);
    EXPECT_EQ(injector.calls_seen(), 1);
    EXPECT_EQ(injector.faults_injected(), 1);
}

TEST(FaultInjector, FailFromCallSkipsEarlierInvocations)
{
    FaultInjector injector;
    injector.arm("", "", /*fail_from_call=*/2);
    EXPECT_FALSE(injector.decide("n", "a").fail);
    EXPECT_FALSE(injector.decide("n", "a").fail);
    EXPECT_TRUE(injector.decide("n", "a").fail);
    EXPECT_EQ(injector.calls_seen(), 3);
    EXPECT_EQ(injector.faults_injected(), 1);
}

TEST(FaultInjector, MaxFaultsCapsInjections)
{
    FaultInjector injector;
    injector.arm("", "", 0, /*max_faults=*/1);
    EXPECT_TRUE(injector.decide("n", "a").fail);
    EXPECT_FALSE(injector.decide("n", "a").fail);
    EXPECT_EQ(injector.faults_injected(), 1);
}

TEST(FaultInjector, ResetDisarms)
{
    FaultInjector injector;
    injector.arm("", "");
    EXPECT_TRUE(injector.decide("n", "a").fail);
    injector.reset();
    EXPECT_FALSE(injector.decide("n", "a").fail);
    EXPECT_EQ(injector.calls_seen(), 0);
    EXPECT_EQ(injector.faults_injected(), 0);
}

// --- Delay (slow/hung kernel) injection -----------------------------------

TEST(FaultInjector, DelayUnarmedReturnsZero)
{
    FaultInjector injector;
    EXPECT_EQ(injector.decide("conv1", "im2col_gemm").delay_ms, 0.0);
    EXPECT_EQ(injector.delay_calls_seen(), 0);
    EXPECT_EQ(injector.delays_injected(), 0);
}

TEST(FaultInjector, DelayMatchesPatternsIndependentlyOfFaults)
{
    FaultInjector injector;
    injector.arm_delay("conv1", "im2col_gemm", 25.0);
    EXPECT_EQ(injector.decide("conv2", "im2col_gemm").delay_ms, 0.0);
    EXPECT_EQ(injector.decide("conv1", "direct").delay_ms, 0.0);
    const InjectionDecision hit = injector.decide("conv1", "im2col_gemm");
    EXPECT_EQ(hit.delay_ms, 25.0);
    // Delay arming does not fault anything.
    EXPECT_FALSE(hit.fail);
    EXPECT_EQ(injector.delay_calls_seen(), 1);
    EXPECT_EQ(injector.delays_injected(), 1);
}

TEST(FaultInjector, DelayFromCallAndCapHonoured)
{
    FaultInjector injector;
    injector.arm_delay("", "", 10.0, /*delay_from_call=*/1,
                       /*max_delays=*/1);
    EXPECT_EQ(injector.decide("n", "a").delay_ms, 0.0);  // ordinal 0: skipped
    EXPECT_EQ(injector.decide("n", "a").delay_ms, 10.0); // ordinal 1: delayed
    EXPECT_EQ(injector.decide("n", "a").delay_ms, 0.0);  // cap reached
    EXPECT_EQ(injector.delays_injected(), 1);
    injector.reset();
    EXPECT_EQ(injector.decide("n", "a").delay_ms, 0.0);
    EXPECT_EQ(injector.delay_calls_seen(), 0);
}

/** The four schedules are one matcher type; this pins what differs
 *  between them: the model matcher's exact, node/impl-blind pattern,
 *  decide()'s precedence, and reset() covering all four. */
TEST(FaultInjector, ModelMatcherPrecedenceAndResetCoverAllFourMatchers)
{
    FaultInjector injector;
    injector.arm_model_corruption("m", CorruptionKind::kNaNPoke,
                                  /*corrupt_from_call=*/1,
                                  /*max_corruptions=*/1);
    // An empty model name never matches; nor does another model.
    EXPECT_EQ(injector.decide("n", "impl", "").corruption,
              CorruptionKind::kNone);
    EXPECT_EQ(injector.decide("n", "impl", "other").corruption,
              CorruptionKind::kNone);
    // Node and impl are ignored; ordinal 0 is skipped, the cap is 1.
    EXPECT_EQ(injector.decide("a", "x", "m").corruption,
              CorruptionKind::kNone);
    EXPECT_EQ(injector.decide("b", "y", "m").corruption,
              CorruptionKind::kNaNPoke);
    EXPECT_EQ(injector.decide("c", "z", "m").corruption,
              CorruptionKind::kNone);

    // Armed with an empty name, it matches no model at all.
    injector.arm_model_corruption("", CorruptionKind::kNaNPoke);
    EXPECT_EQ(injector.decide("n", "impl", "").corruption,
              CorruptionKind::kNone);
    EXPECT_EQ(injector.decide("n", "impl", "m").corruption,
              CorruptionKind::kNone);

    // A (node, impl) corruption wins, and the model matcher's ordinal
    // does not advance on that call: with from_call 1 the model matcher
    // first skips its ordinal 0 on the call after the node/impl cap.
    injector.arm_model_corruption("m", CorruptionKind::kBitFlip,
                                  /*corrupt_from_call=*/1);
    injector.arm_corruption("n", "impl", CorruptionKind::kMagnitudeSpike,
                            0, /*max_corruptions=*/1);
    EXPECT_EQ(injector.decide("n", "impl", "m").corruption,
              CorruptionKind::kMagnitudeSpike);
    EXPECT_EQ(injector.decide("n", "impl", "m").corruption,
              CorruptionKind::kNone);
    EXPECT_EQ(injector.decide("n", "impl", "m").corruption,
              CorruptionKind::kBitFlip);

    // reset() disarms all four matchers and zeroes their counters.
    injector.arm("", "");
    injector.arm_delay("", "", 5.0);
    injector.arm_corruption("", "", CorruptionKind::kNaNPoke);
    injector.arm_model_corruption("m", CorruptionKind::kNaNPoke);
    injector.reset();
    const InjectionDecision decision = injector.decide("n", "impl", "m");
    EXPECT_FALSE(decision.fail);
    EXPECT_EQ(decision.delay_ms, 0.0);
    EXPECT_EQ(decision.corruption, CorruptionKind::kNone);
    EXPECT_EQ(injector.calls_seen(), 0);
    EXPECT_EQ(injector.faults_injected(), 0);
    EXPECT_EQ(injector.delay_calls_seen(), 0);
    EXPECT_EQ(injector.delays_injected(), 0);
    EXPECT_EQ(injector.corruption_calls_seen(), 0);
    EXPECT_EQ(injector.corruptions_injected(), 0);
}

/** An injected delay slows the step but the run still completes and
 *  stays bitwise-correct when no deadline is attached. */
TEST(EngineFaultTolerance, InjectedDelayCompletesWithoutDeadline)
{
    EngineOptions options;
    options.fault_injector = std::make_shared<FaultInjector>();
    options.fault_injector->arm_delay("", "", 30.0, 0, /*max_delays=*/1);
    Engine delayed(models::tiny_cnn(), options);
    Engine reference(models::tiny_cnn(), {});

    Tensor input = make_random(Shape({1, 3, 8, 8}), 0xfa0a);
    const auto started = std::chrono::steady_clock::now();
    const Tensor slow = delayed.run(input);
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - started;

    EXPECT_GE(elapsed.count(), 30.0);
    EXPECT_EQ(options.fault_injector->delays_injected(), 1);
    EXPECT_EQ(max_abs_diff(slow, reference.run(input)), 0.0f);
    // No step degraded: a slow kernel is not a faulty kernel.
    for (const PlanStep &step : delayed.steps()) {
        EXPECT_FALSE(step.degraded) << step.node_name;
    }
}

// --- Engine fallback: bitwise-identical degradation -----------------------

/** Every Conv kernel fails -> every conv degrades to "direct"; the run
 *  must match an engine pinned to Conv="direct" exactly. */
TEST(EngineFaultTolerance, ConvFallsBackToReferenceBitwise)
{
    EngineOptions injected_options;
    injected_options.backend.forced_impl["Conv"] = "im2col_gemm";
    injected_options.fault_injector = std::make_shared<FaultInjector>();
    injected_options.fault_injector->arm("", "im2col_gemm");
    Engine injected(models::tiny_cnn(), injected_options);

    EngineOptions reference_options;
    reference_options.backend.forced_impl["Conv"] = "direct";
    Engine reference(models::tiny_cnn(), reference_options);

    Tensor input = make_random(Shape({1, 3, 8, 8}), 0xfa01);
    const Tensor degraded = injected.run(input);
    const Tensor expected = reference.run(input);

    EXPECT_EQ(max_abs_diff(degraded, expected), 0.0f);
    EXPECT_GE(injected_options.fault_injector->faults_injected(), 2);

    int degraded_convs = 0;
    for (const PlanStep &step : injected.steps()) {
        if (step.op_type != op_names::kConv)
            continue;
        EXPECT_TRUE(step.degraded) << step.node_name;
        EXPECT_EQ(step.layer->impl_name(), "direct") << step.node_name;
        ++degraded_convs;
    }
    EXPECT_GE(degraded_convs, 2);
}

/** The degraded step keeps its fallback kernel: a second run re-uses it
 *  without new faults and still matches the reference bitwise. */
TEST(EngineFaultTolerance, DegradationPersistsAcrossRuns)
{
    EngineOptions options;
    options.backend.forced_impl["Conv"] = "im2col_gemm";
    options.fault_injector = std::make_shared<FaultInjector>();
    options.fault_injector->arm("", "im2col_gemm");
    Engine engine(models::tiny_cnn(), options);

    Tensor input = make_random(Shape({1, 3, 8, 8}), 0xfa02);
    const Tensor first = engine.run(input);
    const std::int64_t faults_after_first =
        options.fault_injector->faults_injected();
    const Tensor second = engine.run(input);

    EXPECT_EQ(max_abs_diff(first, second), 0.0f);
    // The fallback kernels are named "direct", so the armed pattern no
    // longer matches anything.
    EXPECT_EQ(options.fault_injector->faults_injected(),
              faults_after_first);
}

Graph
matmul_graph()
{
    Graph graph("mm");
    graph.add_input("x", Shape({4, 8}));
    Rng rng(0xfa03);
    graph.add_initializer("w", random_tensor(Shape({8, 5}), rng));
    graph.add_node(op_names::kMatMul, {"x", "w"}, {"y"});
    graph.add_output("y");
    return graph;
}

/** The third-party (minnl) MatMul backend fails -> reference fallback,
 *  again bitwise-identical to an engine pinned to the reference. */
TEST(EngineFaultTolerance, ThirdPartyMatMulFallsBackToReferenceBitwise)
{
    EngineOptions injected_options;
    injected_options.backend.forced_impl["MatMul"] = "minnl";
    injected_options.fault_injector = std::make_shared<FaultInjector>();
    injected_options.fault_injector->arm("", "minnl");
    Engine injected(matmul_graph(), injected_options);

    EngineOptions reference_options;
    reference_options.backend.forced_impl["MatMul"] = "reference";
    Engine reference(matmul_graph(), reference_options);

    Tensor input = make_random(Shape({4, 8}), 0xfa04);
    const Tensor degraded = injected.run(input);
    const Tensor expected = reference.run(input);

    EXPECT_EQ(max_abs_diff(degraded, expected), 0.0f);
    EXPECT_EQ(injected_options.fault_injector->faults_injected(), 1);
    ASSERT_EQ(injected.steps().size(), 1u);
    EXPECT_TRUE(injected.steps().front().degraded);
    EXPECT_EQ(injected.steps().front().layer->impl_name(), "reference");
}

/** Every registered non-reference Conv backend, forced and then failed,
 *  must land on the same reference result bit for bit. */
TEST(EngineFaultTolerance, EveryConvBackendFallsBackToReferenceBitwise)
{
    EngineOptions reference_options;
    reference_options.backend.forced_impl["Conv"] = "direct";
    Engine reference(models::tiny_cnn(), reference_options);
    Tensor input = make_random(Shape({1, 3, 8, 8}), 0xfa09);
    const Tensor expected = reference.run(input);

    for (const std::string impl :
         {"im2col_gemm", "spatial_pack", "winograd", "minnl"}) {
        EngineOptions options;
        options.backend.allow_winograd = true; // 3x3/s1 convs qualify.
        options.backend.forced_impl["Conv"] = impl;
        options.fault_injector = std::make_shared<FaultInjector>();
        options.fault_injector->arm("", impl);
        Engine injected(models::tiny_cnn(), options);

        const Tensor degraded = injected.run(input);
        EXPECT_EQ(max_abs_diff(degraded, expected), 0.0f) << impl;
        EXPECT_GE(options.fault_injector->faults_injected(), 1) << impl;
        for (const PlanStep &step : injected.steps()) {
            if (step.op_type == op_names::kConv) {
                EXPECT_EQ(step.layer->impl_name(), "direct") << impl;
            }
        }
    }
}

/** Guard off, a kernel fault is one fact with two readers: the step's
 *  StepHealth and the process-wide ledger must agree on it. */
TEST(EngineFaultTolerance, UnguardedFaultReachesStepHealthAndLedger)
{
    KernelHealthLedger &ledger = KernelRegistry::instance().health();
    ledger.reset();
    EngineOptions options;
    options.backend.forced_impl["Conv"] = "im2col_gemm";
    options.fault_injector = std::make_shared<FaultInjector>();
    options.fault_injector->arm("", "im2col_gemm");
    Engine engine(models::tiny_cnn(), options);

    engine.run(make_random(Shape({1, 3, 8, 8}), 0xfa08));

    std::int64_t conv_steps = 0;
    for (const PlanStep &step : engine.steps()) {
        if (step.op_type != op_names::kConv)
            continue;
        EXPECT_EQ(step.health.faults_total, 1) << step.node_name;
        ++conv_steps;
    }
    EXPECT_GE(conv_steps, 2);
    EXPECT_EQ(ledger.record("Conv.im2col_gemm").faults, conv_steps);
}

/** Guard off, the fault fallback is the step's circuit breaker with
 *  fixed thresholds: the first fault opens it, and it never half-opens,
 *  however short the cool-down. restore_step() swaps the fast kernel
 *  back in. */
TEST(EngineFaultTolerance, UnguardedFaultOpensBreakerThatNeverHalfOpens)
{
    auto injector = std::make_shared<FaultInjector>();
    EngineOptions options;
    options.backend.forced_impl["MatMul"] = "minnl";
    options.fault_injector = injector;
    injector->arm("", "minnl");
    Engine engine(matmul_graph(), options);
    ASSERT_EQ(engine.steps().size(), 1u);
    const PlanStep &step = engine.steps().front();

    Tensor input = make_random(Shape({4, 8}), 0xfa0b);
    engine.run(input);
    EXPECT_EQ(step.health.state, BreakerState::kOpen);
    EXPECT_EQ(step.health.opens_total, 1);
    EXPECT_EQ(step.layer->impl_name(), step.reference_impl);

    // An elapsed cool-down changes nothing with the guard off: no probe
    // re-runs minnl, so the still-armed injector sees no new call.
    GuardPolicy policy;
    policy.cooldown_ms = 0;
    engine.set_guard_policy(policy);
    engine.run(input);
    EXPECT_EQ(injector->faults_injected(), 1);
    EXPECT_EQ(step.health.state, BreakerState::kOpen);
    EXPECT_EQ(step.health.opens_total, 1);

    injector->reset();
    engine.restore_step(0);
    EXPECT_EQ(step.health.state, BreakerState::kClosed);
    EXPECT_EQ(step.layer->impl_name(), "minnl");
    EngineOptions clean_options;
    clean_options.backend.forced_impl["MatMul"] = "minnl";
    Engine clean(matmul_graph(), clean_options);
    EXPECT_EQ(max_abs_diff(engine.run(input), clean.run(input)), 0.0f);
}

/** A fault striking mid-run (second conv only) still completes with a
 *  numerically valid result. */
TEST(EngineFaultTolerance, MidRunFaultDegradesOnlyTheFailingStep)
{
    EngineOptions options;
    options.backend.forced_impl["Conv"] = "im2col_gemm";
    options.fault_injector = std::make_shared<FaultInjector>();
    options.fault_injector->arm("", "im2col_gemm", /*fail_from_call=*/1,
                                /*max_faults=*/1);
    Engine injected(models::tiny_cnn(), options);

    EngineOptions clean_options;
    clean_options.backend.forced_impl["Conv"] = "im2col_gemm";
    Engine clean(models::tiny_cnn(), clean_options);

    Tensor input = make_random(Shape({1, 3, 8, 8}), 0xfa05);
    const Tensor degraded = injected.run(input);
    expect_close(degraded, clean.run(input), 1e-4f, 1e-3f);

    int degraded_steps = 0;
    for (const PlanStep &step : injected.steps())
        degraded_steps += step.degraded ? 1 : 0;
    EXPECT_EQ(degraded_steps, 1);
}

// --- No fallback available ------------------------------------------------

/** With the SIMD tier disabled, Gemm has only the reference
 *  implementation registered, so a fault there has nowhere to fall
 *  back to and must surface as an Error. */
TEST(EngineFaultTolerance, NoFallbackAvailableRaisesError)
{
    auto injector = std::make_shared<FaultInjector>();
    EngineOptions options;
    options.backend.allow_simd = false;
    options.fault_injector = injector;
    Engine engine(models::tiny_mlp(), options);

    std::string gemm_node;
    for (const PlanStep &step : engine.steps()) {
        if (step.op_type == op_names::kGemm) {
            gemm_node = step.node_name;
            break;
        }
    }
    ASSERT_FALSE(gemm_node.empty()) << engine.plan_summary();
    injector->arm(gemm_node, "");

    Tensor input = make_random(Shape({1, 32}), 0xfa07);
    EXPECT_THROW(engine.run(input), Error);

    // The non-throwing boundary reports the same failure as kInternal.
    injector->reset();
    injector->arm(gemm_node, "");
    std::map<std::string, Tensor> outputs;
    const Status status = engine.try_run({{"input", input}}, outputs);
    EXPECT_EQ(status.code(), StatusCode::kInternal);
    EXPECT_TRUE(outputs.empty());
}

// --- try_run / validate_inputs --------------------------------------------

TEST(EngineTryRun, MissingInputIsInvalidArgumentNamingTheInput)
{
    Engine engine(models::tiny_cnn());
    std::map<std::string, Tensor> outputs;
    const Status status = engine.try_run({}, outputs);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("input"), std::string::npos)
        << status.to_string();
}

TEST(EngineTryRun, WrongShapeIsInvalidArgument)
{
    Engine engine(models::tiny_cnn());
    std::map<std::string, Tensor> outputs;
    const Status status = engine.try_run(
        {{"input", make_random(Shape({1, 3, 9, 9}))}}, outputs);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("shape"), std::string::npos)
        << status.to_string();
}

TEST(EngineTryRun, WrongDtypeIsInvalidArgument)
{
    Engine engine(models::tiny_cnn());
    std::map<std::string, Tensor> outputs;
    const Status status = engine.try_run(
        {{"input", Tensor(Shape({1, 3, 8, 8}), DataType::kInt32)}},
        outputs);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("dtype"), std::string::npos)
        << status.to_string();
}

TEST(EngineTryRun, SucceedsAndMatchesThrowingRun)
{
    Engine engine(models::tiny_cnn());
    Tensor input = make_random(Shape({1, 3, 8, 8}), 0xfa08);
    std::map<std::string, Tensor> outputs;
    const Status status = engine.try_run({{"input", input}}, outputs);
    ASSERT_TRUE(status.is_ok()) << status.to_string();
    ASSERT_EQ(outputs.size(), 1u);
    EXPECT_EQ(max_abs_diff(outputs.begin()->second, engine.run(input)),
              0.0f);
}

TEST(EngineTryRun, ValidateInputsAcceptsDeclaredSignature)
{
    Engine engine(models::tiny_cnn());
    const Status status = engine.validate_inputs(
        {{"input", make_random(Shape({1, 3, 8, 8}))}});
    EXPECT_TRUE(status.is_ok()) << status.to_string();
}

} // namespace
} // namespace orpheus
