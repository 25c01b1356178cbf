/**
 * @file
 * ModelRegistry — versioned model lifecycle on top of EnginePool:
 * off-hot-path preparation, canary rollout, automatic rollback.
 *
 * The registry keeps generation policy only: the signature gate, the
 * canary slice, the verdict, rollback and generation bookkeeping. How a
 * replica engine is simplified, built and probed is the pool's
 * (EnginePool::simplify, compile_replica, probe), so a new generation's
 * engines are made exactly as the seed model's were.
 *
 * Updating a deployed model must not drop requests. The registry turns
 * "replace the model" into a staged state machine per *generation* (one
 * loaded model version):
 *
 *   LOADING ──compile + signature check──▶ CANARY ──verdict──▶ ROLLING
 *      │                                     │                    │
 *      │ compile error /                     │ worse than         │ every
 *      │ signature mismatch                  │ incumbent          │ replica
 *      ▼                                     ▼                    ▼ swapped
 *   QUARANTINED                         ROLLED_BACK            ACTIVE
 *                                    (incumbent untouched)  (old gen RETIRED)
 *
 *  - LOADING: the graph signature must match the incumbent's — clients
 *    keep sending the same tensors. The pool then validates and
 *    simplifies the graph once and compiles the canary's engine from
 *    it, entirely off the hot path (plan-time preparation runs here:
 *    the compile lowers the generation's weights into the kernels'
 *    panel order before any live request sees the generation).
 *  - CANARY: one replica is drained (EnginePool::swap_replica — new
 *    leases skip it, in-flight ones finish, so capacity never dips
 *    below N−1) and swapped to the new generation. Warm-up probes
 *    (EnginePool::probe, the same probe that gates readmission) catch
 *    hard-broken models even with no traffic; then a configurable
 *    slice of live acquires is routed to the canary while per-replica
 *    outcome/latency windows accumulate.
 *  - Verdict: the canary's corruption/fault/hang rate is compared
 *    against the merged incumbent windows, and so is its P99 once both
 *    windows hold enough samples for a P99 to be more than their
 *    maximum. Fail → the
 *    displaced incumbent engine (kept aside) is swapped straight back,
 *    the generation is quarantined, and roll_out returns the typed
 *    kModelRejected status. The incumbent never stopped serving.
 *  - ROLLING: on pass, the remaining replicas and warm spares are
 *    compiled from the graph the canary's compile lowered (sharing its
 *    packed weights, so no prepare packs anything again) and
 *    drained-and-swapped one at a time. The old generation is RETIRED;
 *    its weights go with its last engine.
 *
 * Thread-safe: roll_out serialises against itself (a second concurrent
 * rollout is rejected with kFailedPrecondition, not queued), and all
 * introspection is safe against a rollout in progress.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/engine_pool.hpp"

namespace orpheus {

/** Lifecycle state of one model generation. */
enum class GenerationState {
    kLoading = 0,  ///< Compiling + preparing off the hot path.
    kCanary,       ///< One replica swapped; observing live traffic.
    kRolling,      ///< Verdict passed; swapping remaining replicas.
    kActive,       ///< Serving on every replica.
    kRolledBack,   ///< Canary verdict failed; incumbent restored.
    kQuarantined,  ///< Rejected before taking traffic (compile error,
                   ///< signature mismatch, failed warm-up probe).
    kRetired,      ///< Displaced by a newer active generation.
};

const char *to_string(GenerationState state);

/** Tuning knobs for one rollout. Defaults suit tests and small pools;
 *  production deployments raise the sample count and timeout. */
struct RolloutOptions {
    /** Slice of live acquires routed to the canary replica. */
    double canary_fraction = 0.25;

    /** Warm-up probes (EnginePool::probe) run on the canary before it
     *  takes live traffic; any failed probe rejects the generation
     *  outright. */
    int warmup_probes = 2;

    /** Live canary samples required before the verdict; 0 skips the
     *  observation phase (probes only). */
    std::int64_t min_canary_samples = 0;

    /** Give up waiting for min_canary_samples after this long and
     *  judge on whatever the windows hold. */
    double observe_timeout_ms = 2000;
};

/** Introspection view of one generation (CLI tables, stats). */
struct GenerationInfo {
    std::uint64_t id = 0;
    std::string model_name;
    GenerationState state = GenerationState::kLoading;
    /** Rejection reason / rollout detail. */
    std::string detail;
};

/** Outcome of one roll_out call. */
struct RolloutReport {
    /** OK on full promotion; kModelRejected on rollback/quarantine. */
    Status status;
    std::uint64_t generation = 0;
    /** Replicas (including spares) now running the new generation. */
    std::size_t replicas_swapped = 0;
    /** Live requests the canary served during observation. */
    std::int64_t canary_samples = 0;
    bool rolled_back = false;
    std::string detail;
};

class ModelRegistry
{
  public:
    /**
     * Wraps @p pool, whose engine template also compiles every new
     * generation (through EnginePool::compile_replica). The incumbent
     * model becomes generation 1.
     */
    explicit ModelRegistry(EnginePool &pool);

    ModelRegistry(const ModelRegistry &) = delete;
    ModelRegistry &operator=(const ModelRegistry &) = delete;

    /**
     * Stages @p graph as a new generation and runs the full lifecycle:
     * compile off the hot path, canary one replica, judge against the
     * incumbent, then roll forward (all replicas) or roll back (none).
     * Blocks the calling thread for the duration — live traffic keeps
     * flowing through the pool throughout. A concurrent rollout is
     * rejected with kFailedPrecondition.
     */
    RolloutReport roll_out(Graph graph, const RolloutOptions &options = {});

    /**
     * Imports @p path as ONNX (import_onnx_file: a directory, device or
     * over-limit file is refused before any read) and rolls it out. An
     * import failure comes back as a kModelRejected report, never as an
     * exception. Replace the file by rename, not by rewriting it in
     * place, while a rollout may read it.
     */
    RolloutReport roll_out_file(const std::string &path,
                                const RolloutOptions &options = {});

    /** All generations, oldest first. */
    std::vector<GenerationInfo> generations() const;

    /** Id of the generation currently serving (0 before the first). */
    std::uint64_t active_generation() const;

    /** Model name of the active generation. */
    std::string active_model() const;

    /** Generations rejected (rolled back or quarantined) so far. */
    std::int64_t rollbacks() const;

  private:
    struct Signature {
        std::vector<ValueInfo> inputs;
        std::vector<ValueInfo> outputs;
    };

    /** Signature compatibility of @p graph vs the incumbent. */
    Status check_signature(const Graph &graph) const;

    /** Runs EnginePool::probe on a lease of the canary replica and
     *  releases the lease with its verdict, so the pool charges the
     *  replica for a failed probe. */
    Status probe_canary(std::size_t replica);

    void set_state(std::uint64_t generation, GenerationState state,
                   std::string detail = std::string());

    EnginePool &pool_;

    mutable std::mutex mutex_;
    std::vector<GenerationInfo> generations_;
    std::uint64_t last_generation_ = 0;
    std::uint64_t active_generation_ = 0;
    std::string active_model_;
    std::int64_t rollbacks_ = 0;
    bool rollout_in_progress_ = false;
    Signature signature_;
};

} // namespace orpheus
