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

bool
FaultInjector::Matcher::fire()
{
    const std::int64_t ordinal = seen++;
    if (ordinal < from_call || (cap >= 0 && fired >= cap))
        return false;
    ++fired;
    return true;
}

bool
FaultInjector::Matcher::hit(const std::string &node_name,
                            const std::string &impl_name)
{
    if (!armed || (!node.empty() && node != node_name) ||
        (!impl.empty() && impl != impl_name))
        return false;
    return fire();
}

void
FaultInjector::arm(std::string node_name, std::string impl_name,
                   std::int64_t fail_from_call, std::int64_t max_faults)
{
    std::lock_guard<std::mutex> lock(mutex_);
    fault_ = Matcher{true, std::move(node_name), std::move(impl_name),
                     fail_from_call, max_faults};
}

void
FaultInjector::arm_delay(std::string node_name, std::string impl_name,
                         double delay_ms, std::int64_t delay_from_call,
                         std::int64_t max_delays)
{
    std::lock_guard<std::mutex> lock(mutex_);
    delay_ = Matcher{true, std::move(node_name), std::move(impl_name),
                     delay_from_call, max_delays};
    delay_ms_ = delay_ms;
}

void
FaultInjector::arm_corruption(std::string node_name, std::string impl_name,
                              CorruptionKind kind,
                              std::int64_t corrupt_from_call,
                              std::int64_t max_corruptions)
{
    std::lock_guard<std::mutex> lock(mutex_);
    corruption_ = Matcher{true, std::move(node_name), std::move(impl_name),
                          corrupt_from_call, max_corruptions};
    corruption_kind_ = kind;
}

void
FaultInjector::arm_model_corruption(std::string model_name,
                                    CorruptionKind kind,
                                    std::int64_t corrupt_from_call,
                                    std::int64_t max_corruptions)
{
    std::lock_guard<std::mutex> lock(mutex_);
    model_corruption_ = Matcher{true, std::move(model_name), std::string(),
                                corrupt_from_call, max_corruptions};
    model_corruption_kind_ = kind;
}

void
FaultInjector::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    fault_ = delay_ = corruption_ = model_corruption_ = Matcher{};
}

InjectionDecision
FaultInjector::decide(const std::string &node_name,
                      const std::string &impl_name,
                      const std::string &model_name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    InjectionDecision decision;
    if (delay_.hit(node_name, impl_name))
        decision.delay_ms = delay_ms_;
    decision.fail = fault_.hit(node_name, impl_name);
    // A (node, impl) corruption wins; the model matcher is consulted,
    // and its ordinal advanced, only when that one does not fire.
    if (corruption_.hit(node_name, impl_name))
        decision.corruption = corruption_kind_;
    else if (!model_name.empty() && model_name == model_corruption_.node &&
             model_corruption_.fire())
        decision.corruption = model_corruption_kind_;
    return decision;
}

std::int64_t
FaultInjector::faults_injected() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return fault_.fired;
}

std::int64_t
FaultInjector::calls_seen() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return fault_.seen;
}

std::int64_t
FaultInjector::delays_injected() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return delay_.fired;
}

std::int64_t
FaultInjector::delay_calls_seen() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return delay_.seen;
}

std::int64_t
FaultInjector::corruptions_injected() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return corruption_.fired;
}

std::int64_t
FaultInjector::corruption_calls_seen() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return corruption_.seen;
}

} // namespace orpheus
