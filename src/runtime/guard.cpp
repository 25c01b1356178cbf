#include "runtime/guard.hpp"

#include <cmath>
#include <sstream>

namespace orpheus {

namespace {

/** Shadow comparison passes a residual difference within this many
 *  ULPs, whatever the absolute/relative tolerances say. */
constexpr std::int64_t kShadowMaxUlps = 64;

} // namespace

const char *
to_string(GuardTrip trip)
{
    switch (trip) {
      case GuardTrip::kNone: return "none";
      case GuardTrip::kNonFinite: return "non-finite output";
      case GuardTrip::kMagnitude: return "magnitude blow-up";
      case GuardTrip::kShadowDiverged: return "shadow divergence";
      case GuardTrip::kFault: return "kernel fault";
    }
    return "invalid";
}

const char *
to_string(BreakerState state)
{
    switch (state) {
      case BreakerState::kClosed: return "closed";
      case BreakerState::kOpen: return "open";
      case BreakerState::kHalfOpen: return "half-open";
    }
    return "invalid";
}

GuardVerdict
scan_output(const Tensor &output, const GuardPolicy &policy)
{
    GuardVerdict verdict;
    if (!output.has_storage() || output.dtype() != DataType::kFloat32)
        return verdict;

    const FloatScan scan = scan_floats(output);
    if (policy.check_non_finite && !scan.all_finite()) {
        verdict.trip = GuardTrip::kNonFinite;
        verdict.element_index = scan.first_non_finite;
        std::ostringstream detail;
        detail << (scan.has_nan ? "NaN" : "Inf") << " at element "
               << scan.first_non_finite << " of " << output.to_string();
        verdict.detail = detail.str();
        return verdict;
    }
    if (policy.magnitude_limit > 0.0f &&
        scan.max_abs > policy.magnitude_limit) {
        verdict.trip = GuardTrip::kMagnitude;
        std::ostringstream detail;
        detail << "max |value| " << scan.max_abs << " exceeds limit "
               << policy.magnitude_limit << " in " << output.to_string();
        verdict.detail = detail.str();
        return verdict;
    }
    return verdict;
}

ShadowComparison
compare_shadow(const Tensor &fast, const Tensor &reference,
               const GuardPolicy &policy)
{
    ShadowComparison comparison;
    if (fast.shape() != reference.shape() ||
        fast.dtype() != DataType::kFloat32 ||
        reference.dtype() != DataType::kFloat32)
        return comparison;

    const float *pf = fast.data<float>();
    const float *pr = reference.data<float>();
    const std::int64_t n = fast.numel();
    for (std::int64_t i = 0; i < n; ++i) {
        const float f = pf[i];
        const float r = pr[i];
        // Bitwise equality covers equal infinities and identical NaN
        // payloads; two differently-encoded NaNs are still "the same
        // wrong answer" for divergence purposes.
        if (f == r || (std::isnan(f) && std::isnan(r)))
            continue;
        const float diff = std::fabs(f - r);
        comparison.max_abs_diff = std::max(comparison.max_abs_diff, diff);
        if (diff <= policy.shadow_atol +
                        policy.shadow_rtol * std::fabs(r))
            continue;
        if (ulp_distance(f, r) <= kShadowMaxUlps)
            continue;
        comparison.diverged = true;
        comparison.element_index = i;
        comparison.fast_value = f;
        comparison.reference_value = r;
        return comparison;
    }
    return comparison;
}

} // namespace orpheus
