#include "backend/kernel_registry.hpp"

#include <algorithm>
#include <mutex>

#include "core/status.hpp"

namespace orpheus {

std::string
kernel_health_id(const std::string &op_type, const std::string &impl_name)
{
    return op_type + "." + impl_name;
}

void
KernelHealthLedger::add(const std::string &kernel_id, HealthEvent event)
{
    std::lock_guard<std::mutex> lock(mutex_);
    KernelHealthRecord &record = records_[kernel_id];
    switch (event) {
      case HealthEvent::kTrip: ++record.guard_trips; break;
      case HealthEvent::kFault: ++record.faults; break;
      case HealthEvent::kBreakerOpen: ++record.breaker_opens; break;
      case HealthEvent::kRecovery: ++record.recoveries; break;
      case HealthEvent::kShadowRun: ++record.shadow_runs; break;
      case HealthEvent::kShadowDivergence:
        ++record.shadow_runs;
        ++record.shadow_divergences;
        break;
    }
}

KernelHealthRecord
KernelHealthLedger::record(const std::string &kernel_id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = records_.find(kernel_id);
    return it != records_.end() ? it->second : KernelHealthRecord{};
}

std::map<std::string, KernelHealthRecord>
KernelHealthLedger::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_;
}

void
KernelHealthLedger::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    records_.clear();
}

KernelRegistry &
KernelRegistry::instance()
{
    static KernelRegistry registry;
    static std::once_flag builtin_once;
    std::call_once(builtin_once, [] { register_builtin_kernels(registry); });
    return registry;
}

void
KernelRegistry::add(KernelDef def)
{
    ORPHEUS_CHECK(!def.op_type.empty() && !def.impl_name.empty(),
                  "kernel must have an op type and an impl name");
    ORPHEUS_CHECK(def.create != nullptr,
                  "kernel " << def.op_type << "." << def.impl_name
                            << " has no factory");
    auto &kernels = kernels_by_op_[def.op_type];
    for (KernelDef &existing : kernels) {
        if (existing.impl_name == def.impl_name) {
            existing = std::move(def);
            return;
        }
    }
    kernels.push_back(std::move(def));
    std::stable_sort(kernels.begin(), kernels.end(),
                     [](const KernelDef &a, const KernelDef &b) {
                         return a.priority > b.priority;
                     });
}

std::vector<const KernelDef *>
KernelRegistry::kernels(const std::string &op_type) const
{
    std::vector<const KernelDef *> result;
    auto it = kernels_by_op_.find(op_type);
    if (it == kernels_by_op_.end())
        return result;
    result.reserve(it->second.size());
    for (const KernelDef &def : it->second)
        result.push_back(&def);
    return result;
}

std::vector<const KernelDef *>
KernelRegistry::candidates(const LayerInit &init) const
{
    std::vector<const KernelDef *> result;
    for (const KernelDef *def : kernels(init.node->op_type())) {
        if (!def->supported || def->supported(init))
            result.push_back(def);
    }
    return result;
}

const KernelDef *
KernelRegistry::find(const std::string &op_type,
                     const std::string &impl_name) const
{
    auto it = kernels_by_op_.find(op_type);
    if (it == kernels_by_op_.end())
        return nullptr;
    for (const KernelDef &def : it->second) {
        if (def.impl_name == impl_name)
            return &def;
    }
    return nullptr;
}

bool
KernelRegistry::has_op(const std::string &op_type) const
{
    return kernels_by_op_.count(op_type) > 0;
}

std::vector<std::string>
KernelRegistry::op_types() const
{
    std::vector<std::string> result;
    result.reserve(kernels_by_op_.size());
    for (const auto &[op_type, kernels] : kernels_by_op_) {
        (void)kernels;
        result.push_back(op_type);
    }
    return result;
}

std::unique_ptr<Layer>
KernelRegistry::instantiate(const KernelDef &def, const LayerInit &init) const
{
    ORPHEUS_CHECK(!def.supported || def.supported(init),
                  "kernel " << def.op_type << "." << def.impl_name
                            << " does not support node "
                            << init.node->name());
    std::unique_ptr<Layer> layer = def.create(init);
    ORPHEUS_ASSERT(layer != nullptr, "factory for " << def.op_type << "."
                                                    << def.impl_name
                                                    << " returned null");
    layer->impl_name_ = def.impl_name;
    return layer;
}

} // namespace orpheus
