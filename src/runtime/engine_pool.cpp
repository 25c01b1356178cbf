#include "runtime/engine_pool.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/logging.hpp"

namespace orpheus {

namespace {

/**
 * The outcome table: the health penalty one outcome adds to a replica
 * (negative: the clean-completion reward; the score is floored at 0)
 * and whether it counts as a failure (the replica's failures, its
 * canary window's bad requests and last_fault). Deadline expiry and
 * every other status are neutral: the client's budget ran out, which
 * says nothing about the replica.
 */
struct OutcomeWeight {
    double penalty;
    bool failure;
};
/** A watchdog hang (report_hang), charged at the next release. */
constexpr OutcomeWeight kHangOutcome{1.6, true};

OutcomeWeight
weight_of(const Status &outcome)
{
    switch (outcome.code()) {
      case StatusCode::kOk: return {-0.5, false};
      case StatusCode::kDataCorruption: return {1.2, true};
      case StatusCode::kInternal: return {1.0, true};
      default: return {0.0, false};
    }
}

/** Deadline of a probe() inference (readmission and canary warm-up).
 *  Generous because a probe runs the whole model, resnet-50 included,
 *  on a first run and possibly under a sanitizer: a deadline miss
 *  rejects a healthy replica or generation. */
constexpr double kProbeDeadlineMs = 5000.0;

} // namespace

const char *
to_string(ReplicaState state)
{
    switch (state) {
      case ReplicaState::kActive: return "active";
      case ReplicaState::kSpare: return "spare";
      case ReplicaState::kQuarantined: return "quarantined";
    }
    return "invalid";
}

EnginePool::Lease::~Lease()
{
    if (pool_ != nullptr) {
        // Unreleased lease: neutral outcome, but pending hang
        // demotions must still be applied before the next holder.
        EnginePool *pool = pool_;
        const std::size_t id = id_;
        pool_ = nullptr;
        std::lock_guard<std::mutex> lock(pool->mutex_);
        pool->apply_pending_demotions_locked(id);
        pool->replicas_[id].leased = false;
        pool->replica_free_.notify_all();
    }
}

EnginePool::EnginePool(Graph graph, EngineOptions engine_options,
                       EnginePoolOptions options)
    : options_(std::move(options)),
      engine_options_(std::move(engine_options))
{
    ORPHEUS_CHECK(options_.replicas >= 1,
                  "engine pool needs >= 1 replica, got "
                      << options_.replicas);
    ORPHEUS_CHECK(options_.warm_spares >= 0,
                  "engine pool needs >= 0 warm spares, got "
                      << options_.warm_spares);

    // Brownout fidelity: same guard, no shadow sampling.
    brownout_policy_ = engine_options_.guard;
    brownout_policy_.shadow_every_n = 0;

    simplify(graph);
    replicas_.resize(static_cast<std::size_t>(options_.replicas) +
                     static_cast<std::size_t>(options_.warm_spares));
    for (std::size_t i = 0; i < replicas_.size(); ++i)
        monitors_.push_back(std::make_shared<ExecutionMonitor>());
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
        // Every replica after the first compiles from the graph the
        // first one lowered, so it packs nothing.
        replicas_[i].engine = compile_replica(graph, i);
        if (i >= static_cast<std::size_t>(options_.replicas))
            replicas_[i].state = ReplicaState::kSpare;
    }

    batch_capacity_ = replicas_.front().engine->batch_capacity();
    for (const ValueInfo &input :
         replicas_.front().engine->request_inputs())
        probe_inputs_.emplace(input.name,
                              Tensor(input.shape, input.dtype));
}

void
EnginePool::simplify(Graph &model) const
{
    model.validate();
    if (engine_options_.apply_simplifications)
        simplify_graph(model);
}

std::unique_ptr<Engine>
EnginePool::compile_replica(Graph &model, std::size_t replica) const
{
    EngineOptions options = engine_options_;
    options.apply_simplifications = false;
    options.execution_monitor = monitors_.at(replica);
    if (replica < options_.per_replica_injectors.size() &&
        options_.per_replica_injectors[replica] != nullptr)
        options.fault_injector = options_.per_replica_injectors[replica];
    auto engine = std::make_unique<Engine>(std::move(model),
                                           std::move(options));
    // The engine's graph differs from the model only in its lowered
    // initializers, its derived constants and, after a batch rewrite,
    // in its declared signature, which the per-request one restores.
    model = engine->graph();
    model.inputs() = engine->request_inputs();
    model.outputs() = engine->request_outputs();
    return engine;
}

Status
EnginePool::probe(Engine &engine, const DeadlineToken &caller) const
{
    DeadlineToken deadline = DeadlineToken::after_ms(kProbeDeadlineMs);
    const auto caller_point = caller.deadline_point();
    if (caller_point && *caller_point < *deadline.deadline_point())
        deadline = DeadlineToken::at(*caller_point);
    std::map<std::string, Tensor> outputs;
    const Status verdict = engine.try_run(probe_inputs_, outputs, deadline);
    if (!verdict.is_ok())
        return verdict;
    // A guard-less engine returns OK on silently corrupted outputs.
    for (const auto &[name, tensor] : outputs)
        if (!scan_floats(tensor).all_finite())
            return data_corruption_error("probe output '" + name +
                                         "' contains non-finite values");
    return verdict;
}

std::size_t
EnginePool::pick_free_active_locked(std::size_t exclude,
                                    std::size_t exclude2) const
{
    std::size_t best = kNoReplica;
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
        const Replica &replica = replicas_[i];
        if (replica.state != ReplicaState::kActive || replica.leased ||
            replica.draining || i == exclude || i == exclude2)
            continue;
        if (best == kNoReplica ||
            replica.health_penalty < replicas_[best].health_penalty ||
            (replica.health_penalty == replicas_[best].health_penalty &&
             replica.served < replicas_[best].served))
            best = i;
    }
    return best;
}

std::size_t
EnginePool::promote_spare_locked()
{
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
        if (replicas_[i].state == ReplicaState::kSpare) {
            replicas_[i].state = ReplicaState::kActive;
            ++stats_.spare_promotions;
            ORPHEUS_WARN("engine pool: promoted warm spare replica "
                         << i << " into rotation");
            return i;
        }
    }
    return kNoReplica;
}

std::size_t
EnginePool::count_in_rotation_locked() const
{
    std::size_t count = 0;
    for (const Replica &replica : replicas_)
        if (replica.state != ReplicaState::kQuarantined)
            ++count;
    return count;
}

void
EnginePool::sync_degraded_mode_locked(std::size_t id)
{
    Replica &replica = replicas_[id];
    if (replica.degraded_applied == degraded_mode_ ||
        !engine_options_.guard.enabled)
        return;
    replica.engine->set_guard_policy(
        degraded_mode_ ? brownout_policy_ : engine_options_.guard);
    replica.degraded_applied = degraded_mode_;
}

void
EnginePool::wait_for_release(std::unique_lock<std::mutex> &lock,
                             const DeadlineToken &deadline)
{
    if (deadline.has_deadline())
        replica_free_.wait_for(lock,
                               std::chrono::duration<double, std::milli>(
                                   std::max(deadline.remaining_ms(), 0.0)));
    else
        replica_free_.wait(lock);
}

EnginePool::Lease
EnginePool::acquire(const DeadlineToken &deadline,
                    std::size_t exclude_replica, Status *why,
                    LeasePriority priority)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        if (deadline.expired()) {
            if (why != nullptr)
                *why = deadline_exceeded_error(
                    "deadline expired while waiting for a pool replica");
            return Lease();
        }

        // A real-time acquirer is waiting for a lease: normal traffic
        // stands aside so the next freed replica goes to it first.
        if (priority == LeasePriority::kNormal && rt_waiters_ > 0 &&
            count_in_rotation_locked() > 0) {
            wait_for_release(lock, deadline);
            continue;
        }

        // Canary slicing: when a slice is armed and the canary is free,
        // a credit accumulator routes `fraction` of acquires to it; the
        // rest of the traffic skips it so the slice stays honest.
        std::size_t id = kNoReplica;
        const bool canary_eligible =
            canary_replica_ != kNoReplica &&
            canary_replica_ != exclude_replica &&
            canary_replica_ < replicas_.size() &&
            replicas_[canary_replica_].state == ReplicaState::kActive &&
            !replicas_[canary_replica_].leased &&
            !replicas_[canary_replica_].draining;
        if (canary_eligible) {
            canary_credit_ += canary_fraction_;
            if (canary_credit_ >= 1.0) {
                canary_credit_ -= 1.0;
                id = canary_replica_;
                ++stats_.canary_routed;
            }
        }

        if (id == kNoReplica)
            id = pick_free_active_locked(exclude_replica, canary_replica_);
        if (id == kNoReplica) {
            id = promote_spare_locked();
            if (id != kNoReplica && id == exclude_replica)
                id = kNoReplica; // A spare that is the excluded replica
                                 // stays promoted; look again below.
        }
        if (id == kNoReplica && exclude_replica != kNoReplica)
            // Failing over beats failing: reuse the excluded replica
            // when it is the only healthy one.
            id = pick_free_active_locked(kNoReplica, canary_replica_);
        if (id == kNoReplica && canary_eligible)
            // Availability beats slicing: the canary is the only free
            // replica, so use it rather than queueing behind the rest.
            id = canary_replica_;

        if (id != kNoReplica) {
            Replica &replica = replicas_[id];
            replica.leased = true;
            sync_degraded_mode_locked(id);
            ++stats_.acquires;
            return Lease(this, id, replica.engine.get());
        }

        if (count_in_rotation_locked() > 0) {
            // Healthy replicas exist but all are leased: wait for one.
            // Real-time waiters register so normal acquirers defer to
            // them until the line clears.
            if (priority == LeasePriority::kRealtime)
                ++rt_waiters_;
            wait_for_release(lock, deadline);
            if (priority == LeasePriority::kRealtime &&
                --rt_waiters_ == 0)
                replica_free_.notify_all();
            continue;
        }

        // Every replica is quarantined. Try to revive the least-bad
        // unleased one; if that is impossible, fail fast — the caller
        // must see kResourceExhausted, not a hang.
        std::size_t candidate = kNoReplica;
        for (std::size_t i = 0; i < replicas_.size(); ++i) {
            const Replica &replica = replicas_[i];
            if (replica.state != ReplicaState::kQuarantined ||
                replica.leased)
                continue;
            if (candidate == kNoReplica ||
                replica.health_penalty <
                    replicas_[candidate].health_penalty)
                candidate = i;
        }
        if (candidate == kNoReplica) {
            // Quarantined replicas exist but are all mid-probe on other
            // threads; wait for a verdict, within the deadline.
            wait_for_release(lock, deadline);
            continue;
        }

        Replica &replica = replicas_[candidate];
        replica.leased = true; // Exclusive for the probe.
        ++stats_.probes;
        lock.unlock();
        const Status verdict = revive(candidate, deadline);
        lock.lock();
        if (verdict.is_ok()) {
            replica.state = ReplicaState::kActive;
            replica.health_penalty = 0;
            replica.last_fault.clear();
            ++stats_.readmissions;
            sync_degraded_mode_locked(candidate);
            ++stats_.acquires;
            ORPHEUS_WARN("engine pool: replica " << candidate
                                                 << " probed clean; "
                                                    "readmitted");
            return Lease(this, candidate, replica.engine.get());
        }
        replica.leased = false;
        replica_free_.notify_all();
        if (verdict.code() == StatusCode::kDeadlineExceeded &&
            deadline.expired()) {
            // The caller's deadline cut the probe short: no verdict on
            // the replica, which stays quarantined for the next probe.
            if (why != nullptr)
                *why = deadline_exceeded_error(
                    "deadline expired during the readmission probe: " +
                    verdict.to_string());
            return Lease();
        }
        ++stats_.probe_failures;
        const std::string failure = verdict.to_string();
        replica.last_fault = "probe failed: " + failure;
        ORPHEUS_WARN("engine pool: replica " << candidate
                                             << " failed its readmission "
                                                "probe: "
                                             << failure);

        bool any_hope = false;
        for (const Replica &other : replicas_)
            if (other.state != ReplicaState::kQuarantined || other.leased)
                any_hope = true;
        if (!any_hope) {
            if (why != nullptr)
                *why = resource_exhausted_error(
                    "all replicas quarantined and the readmission probe "
                    "failed: " +
                    failure);
            return Lease();
        }
    }
}

EnginePool::Lease
EnginePool::acquire_specific(std::size_t replica,
                             const DeadlineToken &deadline, Status *why)
{
    std::unique_lock<std::mutex> lock(mutex_);
    ORPHEUS_CHECK(replica < replicas_.size(),
                  "replica index " << replica
                                   << " out of range (pool has "
                                   << replicas_.size() << " replicas)");
    for (;;) {
        Replica &target = replicas_[replica];
        if (target.state == ReplicaState::kQuarantined ||
            target.draining) {
            if (why != nullptr)
                *why = failed_precondition_error(
                    "replica " + std::to_string(replica) + " is " +
                    (target.draining ? "draining"
                                     : to_string(target.state)) +
                    "; cannot be acquired specifically");
            return Lease();
        }
        if (deadline.expired()) {
            if (why != nullptr)
                *why = deadline_exceeded_error(
                    "deadline expired while waiting for replica " +
                    std::to_string(replica));
            return Lease();
        }
        if (!target.leased) {
            target.leased = true;
            sync_degraded_mode_locked(replica);
            ++stats_.acquires;
            return Lease(this, replica, target.engine.get());
        }
        wait_for_release(lock, deadline);
    }
}

std::unique_ptr<Engine>
EnginePool::swap_replica(std::size_t id, std::unique_ptr<Engine> engine,
                         std::uint64_t generation,
                         const DeadlineToken &drain_deadline, Status *why)
{
    ORPHEUS_CHECK(engine != nullptr, "swap_replica needs an engine");
    std::unique_lock<std::mutex> lock(mutex_);
    ORPHEUS_CHECK(id < replicas_.size(),
                  "replica index " << id << " out of range (pool has "
                                   << replicas_.size() << " replicas)");
    Replica &replica = replicas_[id];
    if (replica.draining) {
        if (why != nullptr)
            *why = failed_precondition_error(
                "replica " + std::to_string(id) +
                " is already draining for another swap");
        return nullptr;
    }
    // Fence off new leases; existing holders finish undisturbed. Only
    // this one replica leaves rotation, so capacity stays >= N-1.
    replica.draining = true;
    while (replica.leased) {
        if (drain_deadline.expired()) {
            replica.draining = false;
            replica_free_.notify_all();
            if (why != nullptr)
                *why = deadline_exceeded_error(
                    "drain deadline expired while replica " +
                    std::to_string(id) + " was still leased");
            return nullptr;
        }
        wait_for_release(lock, drain_deadline);
    }

    std::unique_ptr<Engine> displaced = std::move(replica.engine);
    replica.engine = std::move(engine);
    replica.generation = generation;
    replica.health_penalty = 0;
    replica.breaker_opens = 0;
    replica.pending_demotions.clear();
    replica.pending_hang_penalty = 0;
    replica.last_fault.clear();
    replica.degraded_applied = false;
    replica.window = ReplicaWindow{};
    if (replica.state == ReplicaState::kQuarantined)
        // The replacement engine is fresh; readmit the slot.
        replica.state = ReplicaState::kActive;
    replica.draining = false;
    ++stats_.swaps;
    replica_free_.notify_all();
    return displaced;
}

void
EnginePool::set_canary(std::size_t replica, double fraction)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (replica != kNoReplica)
        ORPHEUS_CHECK(replica < replicas_.size(),
                      "canary replica " << replica
                                        << " out of range (pool has "
                                        << replicas_.size()
                                        << " replicas)");
    canary_replica_ = replica;
    canary_fraction_ = std::min(std::max(fraction, 0.0), 1.0);
    canary_credit_ = 0;
}

std::size_t
EnginePool::canary_replica() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return canary_replica_;
}

void
EnginePool::tag_generation(std::uint64_t generation)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (Replica &replica : replicas_)
        replica.generation = generation;
}

std::vector<ReplicaWindow>
EnginePool::windows() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<ReplicaWindow> windows;
    windows.reserve(replicas_.size());
    for (const Replica &replica : replicas_)
        windows.push_back(replica.window);
    return windows;
}

void
EnginePool::reset_windows()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (Replica &replica : replicas_)
        replica.window = ReplicaWindow{};
}

Status
EnginePool::revive(std::size_t id, const DeadlineToken &caller)
{
    Engine &engine = *replicas_[id].engine;
    try {
        for (std::size_t step = 0; step < engine.steps().size(); ++step)
            if (engine.steps()[step].degraded)
                engine.restore_step(step);
    } catch (const std::exception &error) {
        return internal_error(error.what());
    }
    return probe(engine, caller);
}

void
EnginePool::apply_pending_demotions_locked(std::size_t id)
{
    Replica &replica = replicas_[id];
    replica.health_penalty += replica.pending_hang_penalty;
    if (replica.pending_hang_penalty > 0)
        ++replica.failures;
    replica.pending_hang_penalty = 0;
    std::vector<PendingDemotion> todo;
    todo.swap(replica.pending_demotions);
    for (const PendingDemotion &demotion : todo) {
        Engine &engine = *replica.engine;
        if (demotion.step_index >= engine.steps().size() ||
            engine.steps()[demotion.step_index].degraded)
            continue;
        try {
            engine.demote_step(demotion.step_index, demotion.reason);
            ++stats_.demotions;
        } catch (const Error &error) {
            // No alternative implementation; keep serving on the
            // original kernel rather than losing the replica.
            ORPHEUS_WARN("engine pool: could not demote step "
                         << demotion.step_index << " of replica " << id
                         << ": " << error.what());
        }
    }
}

void
EnginePool::release(Lease lease, const Status &outcome, double run_ms,
                    std::int64_t requests)
{
    if (!lease.valid())
        return;
    const std::size_t id = lease.id_;
    lease.pool_ = nullptr; // The destructor must not double-release.
    requests = std::max<std::int64_t>(1, requests);

    std::lock_guard<std::mutex> lock(mutex_);
    Replica &replica = replicas_[id];
    // The window counts requests, not leases: a fused run served
    // `requests` of them, each experiencing the fused run's latency.
    replica.served += requests;
    replica.window.served += requests;
    if (run_ms >= 0)
        for (std::int64_t r = 0; r < requests; ++r)
            replica.window.latency.record(run_ms);
    apply_pending_demotions_locked(id);
    // The replica is drained: read its breaker counters here, never
    // from snapshot() while a holder's guard may be writing them.
    replica.breaker_opens = 0;
    for (const PlanStep &step : replica.engine->steps())
        replica.breaker_opens += step.health.opens_total;

    // Health penalty/reward is per lease, so batching does not skew
    // quarantine; watchdog hangs arrive separately through report_hang.
    const OutcomeWeight weight = weight_of(outcome);
    replica.health_penalty =
        std::max(0.0, replica.health_penalty + weight.penalty);
    if (weight.failure) {
        ++replica.failures;
        replica.window.bad += requests;
        replica.last_fault = outcome.to_string();
    }

    if (replica.state == ReplicaState::kActive &&
        replica.health_penalty >= options_.quarantine_threshold) {
        replica.state = ReplicaState::kQuarantined;
        ++stats_.quarantines;
        ORPHEUS_WARN("engine pool: replica "
                     << id << " quarantined (health penalty "
                     << replica.health_penalty << " >= "
                     << options_.quarantine_threshold << ", last fault: "
                     << replica.last_fault << ")");
        promote_spare_locked();
    }

    replica.leased = false;
    replica_free_.notify_all();
}

void
EnginePool::report_hang(std::size_t replica, std::size_t step_index,
                        const std::string &reason)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.hangs;
    if (replica >= replicas_.size())
        return;
    Replica &target = replicas_[replica];
    target.pending_demotions.push_back(PendingDemotion{step_index, reason});
    // A hang is a failure: it counts in the window now, and its
    // penalty (and the replica's failure count) at the next release.
    target.pending_hang_penalty += kHangOutcome.penalty;
    ++target.window.bad;
    target.last_fault = reason;
}

void
EnginePool::set_degraded_mode(bool degraded)
{
    std::lock_guard<std::mutex> lock(mutex_);
    degraded_mode_ = degraded;
    // Replicas pick the new policy up lazily at their next acquire,
    // when they are exclusively held.
}

bool
EnginePool::degraded_mode() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return degraded_mode_;
}

const Engine &
EnginePool::engine(std::size_t index) const
{
    ORPHEUS_CHECK(index < replicas_.size(),
                  "replica index " << index << " out of range (pool has "
                                   << replicas_.size() << " replicas)");
    return *replicas_[index].engine;
}

EnginePoolStats
EnginePool::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    EnginePoolStats stats = stats_;
    for (const Replica &replica : replicas_) {
        switch (replica.state) {
          case ReplicaState::kActive: ++stats.active_replicas; break;
          case ReplicaState::kSpare: ++stats.spare_replicas; break;
          case ReplicaState::kQuarantined:
            ++stats.quarantined_replicas;
            break;
        }
    }
    return stats;
}

std::vector<ReplicaSnapshot>
EnginePool::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<ReplicaSnapshot> snapshots;
    snapshots.reserve(replicas_.size());
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
        const Replica &replica = replicas_[i];
        ReplicaSnapshot view;
        view.id = i;
        view.state = replica.state;
        view.leased = replica.leased;
        view.draining = replica.draining;
        view.degraded_mode = replica.degraded_applied;
        view.health_penalty = replica.health_penalty;
        view.generation = replica.generation;
        view.served = replica.served;
        view.failures = replica.failures;
        view.breaker_opens = replica.breaker_opens;
        view.last_fault = replica.last_fault;
        snapshots.push_back(std::move(view));
    }
    return snapshots;
}

} // namespace orpheus
