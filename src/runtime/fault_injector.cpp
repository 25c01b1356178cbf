#include "runtime/fault_injector.hpp"

#include <cstring>
#include <limits>

namespace orpheus {

const char *
to_string(CorruptionKind kind)
{
    switch (kind) {
      case CorruptionKind::kNone: return "none";
      case CorruptionKind::kNaNPoke: return "nan-poke";
      case CorruptionKind::kBitFlip: return "bit-flip";
      case CorruptionKind::kMagnitudeSpike: return "magnitude-spike";
    }
    return "invalid";
}

void
apply_corruption(CorruptionKind kind, Tensor &output)
{
    if (kind == CorruptionKind::kNone || !output.has_storage() ||
        output.dtype() != DataType::kFloat32 || output.numel() == 0)
        return;
    float *data = output.data<float>();
    switch (kind) {
      case CorruptionKind::kNone:
        break;
      case CorruptionKind::kNaNPoke:
        data[0] = std::numeric_limits<float>::quiet_NaN();
        break;
      case CorruptionKind::kBitFlip: {
        const std::int64_t index = output.numel() / 2;
        std::uint32_t bits;
        std::memcpy(&bits, &data[index], sizeof(bits));
        bits ^= 0x00400000u; // top mantissa bit: up to 1.5x, still finite
        std::memcpy(&data[index], &bits, sizeof(bits));
        break;
      }
      case CorruptionKind::kMagnitudeSpike:
        data[0] = 1e30f;
        break;
    }
}

void
FaultInjector::arm(std::string node_name, std::string impl_name,
                   std::int64_t fail_from_call, std::int64_t max_faults)
{
    std::lock_guard<std::mutex> lock(mutex_);
    armed_ = true;
    node_name_ = std::move(node_name);
    impl_name_ = std::move(impl_name);
    fail_from_call_ = fail_from_call;
    max_faults_ = max_faults;
    calls_seen_ = 0;
    faults_injected_ = 0;
}

void
FaultInjector::arm_delay(std::string node_name, std::string impl_name,
                         double delay_ms, std::int64_t delay_from_call,
                         std::int64_t max_delays)
{
    std::lock_guard<std::mutex> lock(mutex_);
    delay_armed_ = true;
    delay_node_name_ = std::move(node_name);
    delay_impl_name_ = std::move(impl_name);
    delay_ms_ = delay_ms;
    delay_from_call_ = delay_from_call;
    max_delays_ = max_delays;
    delay_calls_seen_ = 0;
    delays_injected_ = 0;
}

void
FaultInjector::arm_corruption(std::string node_name, std::string impl_name,
                              CorruptionKind kind,
                              std::int64_t corrupt_from_call,
                              std::int64_t max_corruptions)
{
    std::lock_guard<std::mutex> lock(mutex_);
    corruption_armed_ = true;
    corruption_node_name_ = std::move(node_name);
    corruption_impl_name_ = std::move(impl_name);
    corruption_kind_ = kind;
    corrupt_from_call_ = corrupt_from_call;
    max_corruptions_ = max_corruptions;
    corruption_calls_seen_ = 0;
    corruptions_injected_ = 0;
}

void
FaultInjector::arm_model_corruption(std::string model_name,
                                    CorruptionKind kind,
                                    std::int64_t corrupt_from_call,
                                    std::int64_t max_corruptions)
{
    std::lock_guard<std::mutex> lock(mutex_);
    model_corruption_armed_ = true;
    model_corruption_name_ = std::move(model_name);
    model_corruption_kind_ = kind;
    model_corrupt_from_call_ = corrupt_from_call;
    model_max_corruptions_ = max_corruptions;
    model_corruption_calls_seen_ = 0;
    model_corruptions_injected_ = 0;
}

void
FaultInjector::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    armed_ = false;
    node_name_.clear();
    impl_name_.clear();
    fail_from_call_ = 0;
    max_faults_ = -1;
    calls_seen_ = 0;
    faults_injected_ = 0;
    delay_armed_ = false;
    delay_node_name_.clear();
    delay_impl_name_.clear();
    delay_ms_ = 0;
    delay_from_call_ = 0;
    max_delays_ = -1;
    delay_calls_seen_ = 0;
    delays_injected_ = 0;
    corruption_armed_ = false;
    corruption_node_name_.clear();
    corruption_impl_name_.clear();
    corruption_kind_ = CorruptionKind::kNone;
    corrupt_from_call_ = 0;
    max_corruptions_ = -1;
    corruption_calls_seen_ = 0;
    corruptions_injected_ = 0;
    model_corruption_armed_ = false;
    model_corruption_name_.clear();
    model_corruption_kind_ = CorruptionKind::kNone;
    model_corrupt_from_call_ = 0;
    model_max_corruptions_ = -1;
    model_corruption_calls_seen_ = 0;
    model_corruptions_injected_ = 0;
}

InjectionDecision
FaultInjector::decide(const std::string &node_name,
                      const std::string &impl_name,
                      const std::string &model_name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    InjectionDecision decision;
    decision.delay_ms = delay_ms_locked(node_name, impl_name);
    decision.fail = should_fail_locked(node_name, impl_name);
    decision.corruption = corruption_locked(node_name, impl_name);
    if (decision.corruption == CorruptionKind::kNone)
        decision.corruption = model_corruption_locked(model_name);
    return decision;
}

bool
FaultInjector::should_fail(const std::string &node_name,
                           const std::string &impl_name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return should_fail_locked(node_name, impl_name);
}

bool
FaultInjector::should_fail_locked(const std::string &node_name,
                                  const std::string &impl_name)
{
    if (!armed_)
        return false;
    if (!node_name_.empty() && node_name_ != node_name)
        return false;
    if (!impl_name_.empty() && impl_name_ != impl_name)
        return false;
    const std::int64_t ordinal = calls_seen_++;
    if (ordinal < fail_from_call_)
        return false;
    if (max_faults_ >= 0 && faults_injected_ >= max_faults_)
        return false;
    ++faults_injected_;
    return true;
}

double
FaultInjector::delay_ms(const std::string &node_name,
                        const std::string &impl_name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return delay_ms_locked(node_name, impl_name);
}

double
FaultInjector::delay_ms_locked(const std::string &node_name,
                               const std::string &impl_name)
{
    if (!delay_armed_)
        return 0;
    if (!delay_node_name_.empty() && delay_node_name_ != node_name)
        return 0;
    if (!delay_impl_name_.empty() && delay_impl_name_ != impl_name)
        return 0;
    const std::int64_t ordinal = delay_calls_seen_++;
    if (ordinal < delay_from_call_)
        return 0;
    if (max_delays_ >= 0 && delays_injected_ >= max_delays_)
        return 0;
    ++delays_injected_;
    return delay_ms_;
}

CorruptionKind
FaultInjector::corruption(const std::string &node_name,
                          const std::string &impl_name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return corruption_locked(node_name, impl_name);
}

CorruptionKind
FaultInjector::corruption_locked(const std::string &node_name,
                                 const std::string &impl_name)
{
    if (!corruption_armed_)
        return CorruptionKind::kNone;
    if (!corruption_node_name_.empty() &&
        corruption_node_name_ != node_name)
        return CorruptionKind::kNone;
    if (!corruption_impl_name_.empty() &&
        corruption_impl_name_ != impl_name)
        return CorruptionKind::kNone;
    const std::int64_t ordinal = corruption_calls_seen_++;
    if (ordinal < corrupt_from_call_)
        return CorruptionKind::kNone;
    if (max_corruptions_ >= 0 && corruptions_injected_ >= max_corruptions_)
        return CorruptionKind::kNone;
    ++corruptions_injected_;
    return corruption_kind_;
}

CorruptionKind
FaultInjector::model_corruption_locked(const std::string &model_name)
{
    if (!model_corruption_armed_ || model_name.empty() ||
        model_corruption_name_ != model_name)
        return CorruptionKind::kNone;
    const std::int64_t ordinal = model_corruption_calls_seen_++;
    if (ordinal < model_corrupt_from_call_)
        return CorruptionKind::kNone;
    if (model_max_corruptions_ >= 0 &&
        model_corruptions_injected_ >= model_max_corruptions_)
        return CorruptionKind::kNone;
    ++model_corruptions_injected_;
    return model_corruption_kind_;
}

std::int64_t
FaultInjector::faults_injected() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return faults_injected_;
}

std::int64_t
FaultInjector::calls_seen() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return calls_seen_;
}

std::int64_t
FaultInjector::delays_injected() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return delays_injected_;
}

std::int64_t
FaultInjector::delay_calls_seen() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return delay_calls_seen_;
}

std::int64_t
FaultInjector::corruptions_injected() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return corruptions_injected_;
}

std::int64_t
FaultInjector::corruption_calls_seen() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return corruption_calls_seen_;
}

} // namespace orpheus
