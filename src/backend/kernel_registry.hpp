/**
 * @file
 * The kernel registry: (op type x implementation) -> Layer factory.
 *
 * Integrating a new backend — the paper's headline extensibility claim —
 * means registering kernels here; neither the engine nor the graph layer
 * changes. Each kernel carries a support predicate (so specialised
 * kernels only claim nodes they can execute) and a priority (so the
 * default heuristic has a deterministic preference order).
 *
 * Built-in priorities (higher wins):
 *   100  conv.depthwise_direct   (depthwise nodes only)
 *    90  conv.winograd           (3x3/s1, opt-in via config)
 *    80  conv.im2col_gemm        (the Orpheus default)
 *    70  conv.spatial_pack
 *    20  *.minnl                 (third-party demo backend)
 *    10  *.direct / reference kernels
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "backend/layer.hpp"

namespace orpheus {

/** Aggregated health of one kernel implementation across all engines. */
struct KernelHealthRecord {
    /** Confirmed output-guard trips (non-finite, magnitude, shadow). */
    std::int64_t guard_trips = 0;
    /** Kernel faults (thrown from forward() or injected). */
    std::int64_t faults = 0;
    /** Circuit-breaker open transitions attributed to this kernel. */
    std::int64_t breaker_opens = 0;
    /** Successful half-open probes that re-promoted this kernel. */
    std::int64_t recoveries = 0;
    std::int64_t shadow_runs = 0;
    std::int64_t shadow_divergences = 0;
};

/** One health fact about a kernel, as an engine observes it. */
enum class HealthEvent {
    kTrip,             ///< Confirmed output-guard trip.
    kFault,            ///< The kernel threw (or a fault was injected).
    kBreakerOpen,      ///< A step's breaker opened on this kernel.
    kRecovery,         ///< A half-open probe re-promoted this kernel.
    kShadowRun,        ///< A shadow comparison that agreed.
    kShadowDivergence, ///< A shadow comparison that diverged.
};

/**
 * Process-wide health ledger, keyed by kernel id
 * ("op_type.impl_name"). Engines add every HealthEvent here so
 * operators can see which backend is misbehaving across every replica,
 * not just one engine. Thread-safe; recording is off the hot path
 * (trips are rare, shadow runs sampled).
 */
class KernelHealthLedger
{
  public:
    /** Counts @p event against @p kernel_id (a divergence is also a
     *  shadow run). */
    void add(const std::string &kernel_id, HealthEvent event);

    /** Record for @p kernel_id (zeroes when never seen). */
    KernelHealthRecord record(const std::string &kernel_id) const;

    /** Snapshot of every kernel with recorded activity. */
    std::map<std::string, KernelHealthRecord> snapshot() const;

    /** Clears all records (tests). */
    void reset();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, KernelHealthRecord> records_;
};

/** Canonical ledger key for a kernel: "op_type.impl_name". */
std::string kernel_health_id(const std::string &op_type,
                             const std::string &impl_name);

/** One registered kernel implementation. */
struct KernelDef {
    std::string op_type;
    std::string impl_name;
    int priority = 0;
    /** May be empty (kernel supports every node of its op type). */
    std::function<bool(const LayerInit &)> supported;
    std::function<std::unique_ptr<Layer>(const LayerInit &)> create;
};

class KernelRegistry
{
  public:
    /** Process-wide registry; built-in kernels are registered on first
     *  access. */
    static KernelRegistry &instance();

    /** Adds a kernel. Re-registering (op_type, impl_name) replaces the
     *  previous definition. */
    void add(KernelDef def);

    /** All kernels for @p op_type (empty if none), priority-sorted
     *  descending. */
    std::vector<const KernelDef *> kernels(const std::string &op_type) const;

    /** Kernels for the op type whose predicate accepts @p init,
     *  priority-sorted descending. */
    std::vector<const KernelDef *> candidates(const LayerInit &init) const;

    /** Specific kernel or nullptr. */
    const KernelDef *find(const std::string &op_type,
                          const std::string &impl_name) const;

    /** True if at least one kernel exists for @p op_type. */
    bool has_op(const std::string &op_type) const;

    /** All registered op types (sorted). */
    std::vector<std::string> op_types() const;

    /**
     * Instantiates @p def for @p init and stamps the impl name. Asserts
     * that the predicate (if any) accepts the node.
     */
    std::unique_ptr<Layer> instantiate(const KernelDef &def,
                                       const LayerInit &init) const;

    /** Process-wide kernel health ledger (guarded execution). */
    KernelHealthLedger &health() { return health_; }
    const KernelHealthLedger &health() const { return health_; }

  private:
    KernelRegistry() = default;

    std::map<std::string, std::vector<KernelDef>> kernels_by_op_;
    KernelHealthLedger health_;
};

/** Registers every built-in kernel (idempotent; called by instance()). */
void register_builtin_kernels(KernelRegistry &registry);

} // namespace orpheus
