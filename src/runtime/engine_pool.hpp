/**
 * @file
 * EnginePool — N engine replicas of one model with health-aware
 * dispatch, quarantine and readmission.
 *
 * A single Engine is a single point of failure: one wedged or
 * breaker-opened step degrades every request in flight. The pool
 * validates and simplifies the model once, compiles N replicas from
 * copies of that one simplified graph, and routes each request to the
 * healthiest free replica. The first compile lowers each GEMM weight
 * into the panel order its kernel reads, in place of the original, and
 * adds the derived constants (spatial-pack weight order, Winograd U,
 * quantized row sums) to the graph; every later replica compiles
 * from that lowered graph. The copies share every weight Buffer, folded
 * and packed ones included, so each is allocated once per model rather
 * than once per replica. The pool owns the replica lifecycle:
 * compile_replica() is the one place a replica engine is built (the
 * model registry calls it for each new generation too) and probe() the
 * one health probe (readmission and canary warm-up alike).
 *
 * Per-replica health is a decaying penalty score fed by outcomes:
 * guard-confirmed corruption, kernel faults and watchdog hangs add
 * penalty; clean completions subtract it. A replica whose penalty
 * crosses the quarantine threshold is taken out of rotation (a warm
 * spare, if configured, is promoted in its place). Quarantine is
 * applied at lease release, so a replica is always drained before it
 * is touched. Readmission is probe-gated: when the pool runs out of
 * healthy replicas it restores the quarantined replica's demoted steps
 * via Engine::restore_step, runs probe() (a zero-input inference under
 * the probe deadline, or the acquirer's if that comes first, whose
 * outputs must be finite) and only readmits on a clean result — a
 * persistently faulty replica stays out and acquire() fails fast with
 * kResourceExhausted instead of hanging.
 *
 *   ACTIVE ──(penalty ≥ threshold at release)──▶ QUARANTINED
 *     ▲                                              │
 *     │  probe clean: restore_step + readmit         │ acquire() finds
 *     └──────────────── PROBING ◀────────────────────┘ no healthy replica
 *
 * The pool also carries the service's brownout lever: in degraded mode
 * every replica is switched to a cheaper guard policy (no shadow
 * sampling) the next time it is leased, and restored when pressure
 * subsides.
 *
 * Thread-safe: any number of dispatcher threads may acquire/release
 * concurrently; a leased replica is exclusively owned by its holder.
 */
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/engine.hpp"
#include "runtime/latency_histogram.hpp"
#include "runtime/watchdog.hpp"

namespace orpheus {

struct EnginePoolOptions {
    /** Engine replicas serving traffic. */
    int replicas = 1;

    /** Additional compiled replicas held in reserve; one is promoted
     *  whenever an active replica is quarantined. */
    int warm_spares = 0;

    /** Health penalty at which a replica is quarantined at release. */
    double quarantine_threshold = 3.0;

    /**
     * Per-replica fault injectors (chaos harnesses): entry i, when
     * non-null, replaces EngineOptions::fault_injector for replica i so
     * each replica can be given an independent fault schedule.
     */
    std::vector<std::shared_ptr<FaultInjector>> per_replica_injectors;
};

/**
 * Dispatch hint for EnginePool::acquire. When every replica is busy,
 * real-time leaseholders wait at the front of the line: a freed
 * replica goes to a waiting real-time acquirer before any normal one,
 * so batch/interactive congestion in the pool cannot add head-of-line
 * latency to real-time traffic. No effect while replicas are free.
 */
enum class LeasePriority {
    kNormal = 0,
    kRealtime,
};

enum class ReplicaState {
    kActive = 0,  ///< In rotation.
    kSpare,       ///< Compiled, idle, awaiting promotion.
    kQuarantined, ///< Out of rotation pending a clean probe.
};

const char *to_string(ReplicaState state);

/** Introspection view of one replica (CLI tables, tests). */
struct ReplicaSnapshot {
    std::size_t id = 0;
    ReplicaState state = ReplicaState::kActive;
    bool leased = false;
    /** Fenced off from new leases while swap_replica drains it. */
    bool draining = false;
    bool degraded_mode = false;
    double health_penalty = 0;
    /** Model generation currently compiled into this replica. */
    std::uint64_t generation = 0;
    std::int64_t served = 0;
    std::int64_t failures = 0;
    /** Breaker-open transitions across this replica's plan steps, as
     *  of its last lease release. */
    std::int64_t breaker_opens = 0;
    std::string last_fault;
};

/**
 * Per-replica outcome + latency window since the last reset_windows():
 * exactly what the canary verdict reads. The model registry resets the
 * windows when a canary starts taking traffic and later compares the
 * canary replica's window against the incumbents' merged window to
 * reach a promote/rollback verdict.
 */
struct ReplicaWindow {
    std::int64_t served = 0;
    /** Requests whose outcome counts as a failure (corruption, fault)
     *  plus watchdog hangs. */
    std::int64_t bad = 0;
    LatencyHistogram latency;

    double
    error_rate() const
    {
        return served == 0 ? 0.0
                           : static_cast<double>(bad) /
                                 static_cast<double>(served);
    }

    void
    merge(const ReplicaWindow &other)
    {
        served += other.served;
        bad += other.bad;
        latency.merge(other.latency);
    }
};

/** Monotonic pool counters (merged into ServiceStats). */
struct EnginePoolStats {
    std::int64_t acquires = 0;
    std::int64_t demotions = 0;
    std::int64_t quarantines = 0;
    std::int64_t spare_promotions = 0;
    std::int64_t probes = 0;
    std::int64_t probe_failures = 0;
    std::int64_t readmissions = 0;
    /** Drained-and-swapped replica engines (model hot-swap). */
    std::int64_t swaps = 0;
    /** Acquires routed to the canary replica by its traffic slice. */
    std::int64_t canary_routed = 0;
    /** Watchdog hangs reported against any replica. */
    std::int64_t hangs = 0;
    std::size_t active_replicas = 0;
    std::size_t spare_replicas = 0;
    std::size_t quarantined_replicas = 0;
};

class EnginePool
{
  public:
    static constexpr std::size_t kNoReplica = static_cast<std::size_t>(-1);

    /**
     * Simplifies @p graph once (simplify()) and compiles replicas +
     * warm_spares engines from it through compile_replica(), so every
     * replica shares the one folded weight set. @p engine_options is
     * the template for every replica engine, including those the model
     * registry compiles for later generations. Every replica gets a
     * private ExecutionMonitor whose index in monitors() equals the
     * replica id. Throws on validation or compile errors, exactly like
     * Engine's constructor.
     */
    EnginePool(Graph graph, EngineOptions engine_options,
               EnginePoolOptions options);

    EnginePool(const EnginePool &) = delete;
    EnginePool &operator=(const EnginePool &) = delete;

    /**
     * Exclusive hold on one replica. Move-only; destroying an
     * unreleased lease returns the replica with a neutral outcome
     * (pending hang demotions still apply). Dispatchers normally call
     * EnginePool::release with the request's Status instead.
     */
    class Lease
    {
      public:
        Lease() = default;
        Lease(Lease &&other) noexcept { swap(other); }
        Lease &operator=(Lease &&other) noexcept
        {
            swap(other);
            return *this;
        }
        Lease(const Lease &) = delete;
        Lease &operator=(const Lease &) = delete;
        ~Lease();

        bool valid() const { return pool_ != nullptr; }
        std::size_t replica_id() const { return id_; }
        Engine &engine() const { return *engine_; }

      private:
        friend class EnginePool;
        Lease(EnginePool *pool, std::size_t id, Engine *engine)
            : pool_(pool), id_(id), engine_(engine)
        {
        }
        void
        swap(Lease &other)
        {
            std::swap(pool_, other.pool_);
            std::swap(id_, other.id_);
            std::swap(engine_, other.engine_);
        }

        EnginePool *pool_ = nullptr;
        std::size_t id_ = kNoReplica;
        Engine *engine_ = nullptr;
    };

    /**
     * Acquires the healthiest free replica, preferring one other than
     * @p exclude_replica (pass kNoReplica for no preference) so a retry
     * lands on a different replica; the excluded replica is still used
     * when it is the only healthy one. Promotes a warm spare when every
     * active replica is quarantined or busy. Blocks while healthy
     * replicas are merely leased; when every replica is quarantined it
     * attempts probe-gated readmission of the least-unhealthy one and,
     * if that fails, returns an invalid lease with @p why set to
     * kResourceExhausted ("all replicas quarantined") — never a hang.
     * An expired @p deadline surfaces as kDeadlineExceeded, also when
     * it cuts the readmission probe short: that probe gives no verdict,
     * so the replica stays quarantined and no probe failure is counted.
     * @p priority is the wait-line hint: while a real-time acquirer is
     * waiting, normal acquirers defer to it (see LeasePriority).
     */
    Lease acquire(const DeadlineToken &deadline,
                  std::size_t exclude_replica, Status *why,
                  LeasePriority priority = LeasePriority::kNormal);

    /**
     * Acquires replica @p replica specifically, blocking while it is
     * leased (within @p deadline). Used by the model registry's canary
     * warm-up probes and by tests; fails with kFailedPrecondition when
     * the replica is quarantined or draining instead of waiting for a
     * state change that may never come.
     */
    Lease acquire_specific(std::size_t replica,
                           const DeadlineToken &deadline, Status *why);

    /**
     * Returns @p lease's replica to the pool, folding @p outcome into
     * its health: corruption/fault outcomes add penalty, OK subtracts,
     * deadline expiry is neutral (the client's budget, not the
     * replica's fault). Pending watchdog demotions are applied here —
     * the replica is drained by construction — and the replica is
     * quarantined when its penalty crosses the threshold. A
     * non-negative @p run_ms additionally records the request's
     * execution latency in the replica's canary window. @p requests is
     * the number of co-batched requests the lease served in one fused
     * run (the batch assembler passes the occupancy): the replica's
     * window counts every request it served, each at the fused run's
     * latency, while health penalty/reward stays per-lease so batching
     * does not skew quarantine dynamics.
     */
    void release(Lease lease, const Status &outcome, double run_ms = -1,
                 std::int64_t requests = 1);

    // --- Model lifecycle (generations) ------------------------------------

    /**
     * Validates @p model (an imported graph is untrusted input, so
     * validation runs before any pass) and, unless the engine template
     * turns simplifications off, runs the standard simplification
     * pipeline on it. Runs once per model: the pool's constructor and
     * the registry's LOADING phase call it, then compile every replica
     * from the result. Throws on a malformed graph.
     */
    void simplify(Graph &model) const;

    /**
     * The one place a replica engine is built: compiles the simplified
     * @p model from the engine template with replica @p replica's
     * monitor and per-replica injector, skipping the simplification
     * pipeline (simplify() already ran it). The engine takes @p model
     * over, so it is the weights' only holder and repacks each in its
     * own storage while it lowers them, then hands the lowered graph
     * back in @p model: the next replica compiled from it finds every
     * weight already in its layout, allocates none and shares every
     * Buffer. On a throw @p model is left empty. Reads only
     * state fixed at construction, so it takes no lock and may run
     * while the pool serves.
     */
    std::unique_ptr<Engine> compile_replica(Graph &model,
                                            std::size_t replica) const;

    /**
     * The one replica health probe: a zero-input request under the
     * probe deadline, or @p caller's deadline when that is earlier.
     * Fails on a non-OK status and, with kDataCorruption, on a
     * non-finite output, so a guard-less engine that silently produces
     * NaN does not pass. The caller must hold @p engine exclusively (a
     * lease, or a replica marked leased).
     */
    Status probe(Engine &engine, const DeadlineToken &caller = {}) const;

    /**
     * Drain-and-swap: fences replica @p id off from new leases, waits
     * (within @p drain_deadline) for its current lease to be released,
     * then exchanges its engine for @p engine tagged with
     * @p generation, resetting health, windows and pending demotions.
     * Capacity never dips below N−1: only this one replica is fenced
     * and the exchange itself is a pointer swap under the lock.
     *
     * Returns the displaced engine (the registry keeps it for
     * rollback); returns nullptr with @p why set when the drain
     * deadline expires or the replica is already draining — @p engine
     * is destroyed in that case. A quarantined replica is readmitted
     * as active by the swap (its replacement engine is fresh).
     *
     * Build @p engine with compile_replica(model, id): it
     * carries replica @p id's monitor (so watchdog attribution keeps
     * working across the swap) and per-replica injector.
     */
    std::unique_ptr<Engine> swap_replica(std::size_t id,
                                         std::unique_ptr<Engine> engine,
                                         std::uint64_t generation,
                                         const DeadlineToken &drain_deadline,
                                         Status *why);

    /**
     * Routes a fraction of acquires to replica @p replica (the canary)
     * via a credit accumulator: each acquire with the canary free adds
     * @p fraction credit and the canary is picked whenever the credit
     * reaches 1. Other replicas skip the canary while a slice is
     * armed, except when it is the only free replica (availability
     * beats slicing). Pass kNoReplica to clear.
     */
    void set_canary(std::size_t replica, double fraction);

    /** The canary replica id, or kNoReplica when no slice is armed. */
    std::size_t canary_replica() const;

    /** Tags every replica as running model generation @p generation
     *  (registry bootstrap: the compiled-in model is generation 1). */
    void tag_generation(std::uint64_t generation);

    /** Copies of every replica's outcome/latency window. */
    std::vector<ReplicaWindow> windows() const;

    /** Zeroes every replica's window (canary observation start). */
    void reset_windows();

    /**
     * Records a watchdog hang against @p replica: queues the demotion
     * of @p step_index (applied at release, when the replica is
     * drained) and the hang penalty. Called from the watchdog thread
     * while the hung request is still in flight.
     */
    void report_hang(std::size_t replica, std::size_t step_index,
                     const std::string &reason);

    /**
     * Brownout lever: in degraded mode replicas are switched to a
     * no-shadow guard policy at their next acquire (and switched back
     * when the mode clears). A no-op for engines compiled without
     * guarding.
     */
    void set_degraded_mode(bool degraded);
    bool degraded_mode() const;

    // --- Introspection ----------------------------------------------------

    /** All monitors, replica id == index (Watchdog input). */
    const std::vector<std::shared_ptr<ExecutionMonitor>> &monitors() const
    {
        return monitors_;
    }

    ExecutionMonitor &monitor(std::size_t replica)
    {
        return *monitors_.at(replica);
    }

    /** Replicas + warm spares. */
    std::size_t replica_count() const { return replicas_.size(); }

    /**
     * Requests one fused run may coalesce on any replica: the compiled
     * engines' Engine::batch_capacity(). 1 when batching is disabled
     * or the model proved unbatchable (the batch assembler sizes
     * itself from this, so an unbatchable model degrades to
     * single-request dispatch, not an error).
     */
    std::int64_t batch_capacity() const { return batch_capacity_; }

    const Engine &engine(std::size_t index) const;

    EnginePoolStats stats() const;
    std::vector<ReplicaSnapshot> snapshot() const;

  private:
    struct PendingDemotion {
        std::size_t step_index = 0;
        std::string reason;
    };

    struct Replica {
        std::unique_ptr<Engine> engine;
        ReplicaState state = ReplicaState::kActive;
        bool leased = false;
        bool draining = false;
        bool degraded_applied = false;
        double health_penalty = 0;
        std::uint64_t generation = 0;
        std::int64_t served = 0;
        std::int64_t failures = 0;
        /** Breaker opens summed over the engine's steps at the last
         *  release; the engine itself belongs to the lease holder. */
        std::int64_t breaker_opens = 0;
        std::string last_fault;
        std::vector<PendingDemotion> pending_demotions;
        double pending_hang_penalty = 0;
        ReplicaWindow window;
    };

    /** Best free active replica by health (kNoReplica when none);
     *  @p exclude and @p exclude2 are skipped, as are draining
     *  replicas. Caller holds mutex_. */
    std::size_t pick_free_active_locked(std::size_t exclude,
                                        std::size_t exclude2 =
                                            kNoReplica) const;

    /** Promotes one spare to active; kNoReplica when none. Caller
     *  holds mutex_. */
    std::size_t promote_spare_locked();

    /** Applies queued hang demotions to the (drained) replica. Caller
     *  holds mutex_ and the replica is leased (exclusive). */
    void apply_pending_demotions_locked(std::size_t id);

    /** Syncs the replica's guard policy with degraded_mode_. Caller
     *  holds mutex_ and the replica is leased (exclusive). */
    void sync_degraded_mode_locked(std::size_t id);

    /** Waits on replica_free_ (a release, a probe verdict or a state
     *  change), at most until @p deadline. @p lock holds mutex_. */
    void wait_for_release(std::unique_lock<std::mutex> &lock,
                          const DeadlineToken &deadline);

    /** Restore + probe() of a quarantined replica, bounded by
     *  @p caller's deadline too. Called WITHOUT mutex_ (the probe is a
     *  full inference); the replica must already be marked leased. OK
     *  when the replica is clean. */
    Status revive(std::size_t id, const DeadlineToken &caller);

    std::size_t count_in_rotation_locked() const;

    EnginePoolOptions options_;
    /** Template for every replica engine (full guard policy included). */
    EngineOptions engine_options_;
    GuardPolicy brownout_policy_;
    std::vector<std::shared_ptr<ExecutionMonitor>> monitors_;
    std::int64_t batch_capacity_ = 1;
    /** Zero-valued inputs matching the per-request signature (probe
     *  runs; a probe is a single request even on a batched engine). */
    std::map<std::string, Tensor> probe_inputs_;

    mutable std::mutex mutex_;
    std::condition_variable replica_free_;
    std::vector<Replica> replicas_;
    /** Real-time acquirers currently blocked waiting for a lease;
     *  while nonzero, normal-priority acquirers stand aside. */
    std::size_t rt_waiters_ = 0;
    bool degraded_mode_ = false;
    std::size_t canary_replica_ = kNoReplica;
    double canary_fraction_ = 0;
    double canary_credit_ = 0;
    EnginePoolStats stats_;
};

} // namespace orpheus
