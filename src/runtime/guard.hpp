/**
 * @file
 * Guarded execution: silent-corruption detection and per-kernel
 * circuit breakers.
 *
 * The watchdog (watchdog.hpp) catches kernels that hang and the
 * engine's fault fallback catches kernels that throw — but a
 * fast-but-miscompiled kernel that silently writes wrong numbers
 * triggers neither. The guard layer closes that gap with two
 * detectors, both off by default and costing one branch when off, and
 * tunes the breaker every step has anyway:
 *
 *  1. Output scanning: after each plan step, outputs are scanned for
 *     NaN/Inf and magnitude blow-ups in one vectorized pass.
 *  2. Sampled shadow execution: every Nth invocation of a
 *     non-reference kernel, the step is re-run on the reference
 *     implementation and the results compared with absolute/relative/
 *     ULP tolerance, flagging divergence no scan can see.
 *  3. The per-step circuit breaker over a per-kernel health ledger
 *     (kernel_registry.hpp) is the one way a step changes kernels:
 *     kernel faults, watchdog demotions and (guard on) repeated
 *     confirmed trips open it, swapping the step onto the reference
 *     kernel. With the guard on, after a cool-down a half-open probe
 *     re-tries the fast kernel (verified by a forced shadow
 *     comparison) so transient failures recover instead of degrading
 *     forever. With the guard off the breaker opens on the first
 *     fault and never half-opens.
 *
 * A trip is only *confirmed* against the reference implementation: an
 * overflow-prone model that legitimately produces Inf does so on every
 * kernel, which the guard treats as the model's true answer rather
 * than corruption.
 *
 *          trips >= open_after_trips (guard off: first fault)
 *        CLOSED ----------------------------> OPEN: step.layer is the
 *       ^  |  ^                                |   reference kernel
 *       |  |  | probe clean                    | cooldown_ms elapsed
 *       |  |  |                                v (guard on only)
 *       |  |  +----------------------------- HALF-OPEN: fast kernel
 *       |  |                                   |   swapped back in
 *       |  +--- clean run resets trip count    | probe trips/faults
 *       |                                      v
 *       +----- restore_step() (manual) <---- OPEN (cooldown restarts)
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "core/tensor.hpp"

namespace orpheus {

/** What the guard checks and how the breaker reacts (EngineOptions). */
struct GuardPolicy {
    /** Master switch: whether outputs are scanned and shadow-run, and
     *  whether the breaker uses the thresholds below. Off, the breaker
     *  opens on the first kernel fault and never half-opens. */
    bool enabled = false;

    /** Scan step outputs for NaN/Inf. */
    bool check_non_finite = true;

    /** Flag finite outputs whose |value| exceeds this (0 disables). */
    float magnitude_limit = 0.0f;

    /** Re-run every Nth invocation of a non-reference kernel on the
     *  reference implementation and compare (0 disables). */
    int shadow_every_n = 0;

    /** Shadow comparison: |fast - ref| <= atol + rtol * |ref| passes
     *  (multiply form — an exact-zero reference never divides), and a
     *  residual difference within 64 ULPs also passes. */
    float shadow_atol = 1e-5f;
    float shadow_rtol = 1e-4f;

    /**
     * Scan outputs produced by the reference implementation too, and
     * treat a hit as corruption outright (there is nothing to confirm
     * against). Off by default: the reference kernel is the trusted
     * root, so its non-finite output is the model's true answer —
     * which is what lets legitimately overflowing models run guarded.
     */
    bool flag_reference_outputs = false;

    /**
     * Fail the request with DataCorruptionError when a trip is
     * confirmed. When false the engine serves the (correct) reference
     * re-execution instead and only the breaker state records the
     * event — availability over fail-stop.
     */
    bool fail_on_corruption = true;

    /** Consecutive confirmed trips/faults that open the breaker. */
    int open_after_trips = 2;

    /** How long an open breaker routes to the reference kernel before
     *  a half-open probe re-tries the fast kernel. */
    double cooldown_ms = 250.0;

    /** Allow half-open probes at all; false makes an open breaker
     *  permanent until restore_step(), as it always is with the guard
     *  off. */
    bool allow_recovery = true;
};

/** Why a step tripped the guard. */
enum class GuardTrip {
    kNone = 0,
    kNonFinite,      ///< NaN or Inf in an output.
    kMagnitude,      ///< Finite output beyond magnitude_limit.
    kShadowDiverged, ///< Reference re-execution disagrees.
    kFault,          ///< The kernel threw (unified into the breaker).
};

const char *to_string(GuardTrip trip);

/** Outcome of scanning one step's outputs. */
struct GuardVerdict {
    GuardTrip trip = GuardTrip::kNone;
    /** Index of the offending output tensor within the step. */
    std::size_t output_index = 0;
    /** Flat element index of the first offending value (-1 if n/a). */
    std::int64_t element_index = -1;
    std::string detail;

    bool ok() const { return trip == GuardTrip::kNone; }
};

/**
 * Scans @p output (fp32; other dtypes pass trivially) against
 * @p policy. Pure function of the tensor — confirmation against the
 * reference implementation is the engine's job.
 */
GuardVerdict scan_output(const Tensor &output, const GuardPolicy &policy);

/** Result of comparing a fast kernel's output against the reference. */
struct ShadowComparison {
    bool diverged = false;
    std::int64_t element_index = -1;
    float fast_value = 0.0f;
    float reference_value = 0.0f;
    /** Largest |fast - ref| seen (0 when shapes mismatch trivially). */
    float max_abs_diff = 0.0f;
};

/**
 * Elementwise comparison of @p fast against @p reference under
 * @p policy's shadow tolerances. Bitwise-equal values (including two
 * NaNs or equal infinities) always pass, so a legitimately
 * overflowing model shadows cleanly.
 */
ShadowComparison compare_shadow(const Tensor &fast, const Tensor &reference,
                                const GuardPolicy &policy);

/** Circuit-breaker state of one plan step. */
enum class BreakerState {
    kClosed = 0, ///< Fast kernel active.
    kOpen,       ///< On the reference kernel, cooling down.
    kHalfOpen,   ///< Probe in flight: fast kernel, forced verification.
};

const char *to_string(BreakerState state);

/** Per-step health ledger driving the breaker (introspectable via
 *  Engine::steps()). */
struct StepHealth {
    BreakerState state = BreakerState::kClosed;
    /** Confirmed trips/faults since the last clean execution. */
    int consecutive_trips = 0;
    std::int64_t trips_total = 0;
    std::int64_t faults_total = 0;
    std::int64_t shadow_runs = 0;
    /** Breaker transitions to kOpen (including probe failures). */
    std::int64_t opens_total = 0;
    /** Successful half-open probes that re-promoted the fast kernel. */
    std::int64_t recoveries_total = 0;
    std::chrono::steady_clock::time_point opened_at{};
    std::string last_trip_reason;
};

} // namespace orpheus
