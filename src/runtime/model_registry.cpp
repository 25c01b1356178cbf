#include "runtime/model_registry.hpp"

#include <chrono>
#include <sstream>
#include <thread>
#include <utility>

#include "core/logging.hpp"
#include "onnx/importer.hpp"

namespace orpheus {

namespace {

/** The canary's error rate may exceed the incumbent's by at most this
 *  much. */
constexpr double kMaxErrorRateExcess = 0.05;

/** The canary's P99 may be at most this multiple of the incumbent's
 *  (histogram buckets are ~30 % wide; keep >= 2). */
constexpr double kMaxP99Ratio = 4.0;

/** Samples each window needs before its P99 is judged. Below 100 a
 *  "P99" is the window's largest sample, so one preempted request on a
 *  ~0.02 ms model (tiny-cnn runs inside the histogram's first, 50 µs,
 *  bucket, where the reported bound is the recorded maximum) would
 *  decide the verdict. */
constexpr std::int64_t kMinP99Samples = 100;

/** Per-replica drain deadline during swaps; also bounds the wait for
 *  each canary warm-up probe's lease. */
constexpr double kDrainDeadlineMs = 5000;

double
elapsed_ms_since(std::chrono::steady_clock::time_point start)
{
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count();
}

bool
same_value_infos(const std::vector<ValueInfo> &a,
                 const std::vector<ValueInfo> &b, std::string *mismatch)
{
    if (a.size() != b.size()) {
        std::ostringstream out;
        out << "count " << b.size() << " vs incumbent " << a.size();
        *mismatch = out.str();
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].name != b[i].name || a[i].dtype != b[i].dtype ||
            !(a[i].shape == b[i].shape)) {
            std::ostringstream out;
            out << "'" << b[i].name << "' " << b[i].shape
                << " vs incumbent '" << a[i].name << "' " << a[i].shape;
            *mismatch = out.str();
            return false;
        }
    }
    return true;
}

} // namespace

const char *
to_string(GenerationState state)
{
    switch (state) {
      case GenerationState::kLoading: return "loading";
      case GenerationState::kCanary: return "canary";
      case GenerationState::kRolling: return "rolling";
      case GenerationState::kActive: return "active";
      case GenerationState::kRolledBack: return "rolled-back";
      case GenerationState::kQuarantined: return "quarantined";
      case GenerationState::kRetired: return "retired";
    }
    return "invalid";
}

ModelRegistry::ModelRegistry(EnginePool &pool) : pool_(pool)
{
    // The signature gate compares incoming (per-request) graphs, so it
    // must use the per-request signature — with batching on, the
    // compiled graph's extents are scaled by max_batch.
    signature_.inputs = pool_.engine(0).request_inputs();
    signature_.outputs = pool_.engine(0).request_outputs();
    last_generation_ = 1;
    active_generation_ = 1;
    active_model_ = pool_.engine(0).graph().name();
    pool_.tag_generation(1);

    GenerationInfo info;
    info.id = 1;
    info.model_name = active_model_;
    info.state = GenerationState::kActive;
    info.detail = "compiled-in seed model";
    generations_.push_back(std::move(info));
}

Status
ModelRegistry::check_signature(const Graph &graph) const
{
    std::string mismatch;
    if (!same_value_infos(signature_.inputs, graph.inputs(), &mismatch))
        return model_rejected_error("input signature mismatch: " + mismatch);
    if (!same_value_infos(signature_.outputs, graph.outputs(), &mismatch))
        return model_rejected_error("output signature mismatch: " +
                                    mismatch);
    return Status::ok();
}

Status
ModelRegistry::probe_canary(std::size_t replica)
{
    Status why = internal_error("canary probe acquire failed");
    EnginePool::Lease lease = pool_.acquire_specific(
        replica, DeadlineToken::after_ms(kDrainDeadlineMs), &why);
    if (!lease.valid())
        return why;

    const auto started = std::chrono::steady_clock::now();
    const Status verdict = pool_.probe(lease.engine());
    const double run_ms = elapsed_ms_since(started);
    pool_.release(std::move(lease), verdict, run_ms);
    return verdict;
}

void
ModelRegistry::set_state(std::uint64_t generation, GenerationState state,
                         std::string detail)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (GenerationInfo &info : generations_) {
        if (info.id != generation)
            continue;
        info.state = state;
        if (!detail.empty())
            info.detail = std::move(detail);
        return;
    }
}

RolloutReport
ModelRegistry::roll_out(Graph graph, const RolloutOptions &options)
{
    RolloutReport report;
    const std::uint64_t incumbent_generation = active_generation();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (rollout_in_progress_) {
            report.status = failed_precondition_error(
                "a model rollout is already in progress");
            report.detail = report.status.message();
            return report;
        }
        rollout_in_progress_ = true;
        report.generation = ++last_generation_;
        GenerationInfo info;
        info.id = report.generation;
        info.model_name = graph.name();
        info.state = GenerationState::kLoading;
        generations_.push_back(std::move(info));
    }

    // Finishes the rollout as a rejection. `state` distinguishes a
    // generation that never took traffic (kQuarantined) from one
    // rolled back after its canary phase (kRolledBack).
    const auto reject = [&](Status status,
                            GenerationState state) -> RolloutReport {
        ORPHEUS_WARN("model registry: generation "
                     << report.generation << " (" << graph.name() << ") "
                     << to_string(state) << ": " << status.to_string());
        set_state(report.generation, state, status.message());
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++rollbacks_;
            rollout_in_progress_ = false;
        }
        report.rolled_back = state == GenerationState::kRolledBack;
        report.detail = status.message();
        report.status = std::move(status);
        return report;
    };

    // --- LOADING: everything here is off the hot path -------------------
    Status signature_check = check_signature(graph);
    if (!signature_check.is_ok())
        return reject(std::move(signature_check),
                      GenerationState::kQuarantined);

    std::size_t canary = EnginePool::kNoReplica;
    for (const ReplicaSnapshot &snap : pool_.snapshot()) {
        if (snap.state == ReplicaState::kActive && !snap.draining) {
            canary = snap.id;
            break;
        }
    }
    if (canary == EnginePool::kNoReplica)
        return reject(failed_precondition_error(
                          "no active replica available to canary on"),
                      GenerationState::kQuarantined);

    // The pool simplifies the generation once; every replica compiles
    // from that graph and shares its weights. The canary's compile
    // lowers them into the kernels' panel order here, off the hot path;
    // every later replica of this generation compiles from the lowered
    // graph and packs nothing.
    std::unique_ptr<Engine> canary_engine;
    try {
        pool_.simplify(graph);
        canary_engine = pool_.compile_replica(graph, canary);
    } catch (const std::exception &error) {
        return reject(model_rejected_error(
                          std::string("generation failed to compile: ") +
                          error.what()),
                      GenerationState::kQuarantined);
    }

    // --- CANARY: drain-and-swap one replica ------------------------------
    set_state(report.generation, GenerationState::kCanary);
    Status swap_why = internal_error("swap failed");
    std::unique_ptr<Engine> displaced = pool_.swap_replica(
        canary, std::move(canary_engine), report.generation,
        DeadlineToken::after_ms(kDrainDeadlineMs), &swap_why);
    if (displaced == nullptr)
        return reject(std::move(swap_why), GenerationState::kQuarantined);

    // Restores the displaced incumbent engine onto the canary replica.
    const auto roll_back = [&]() {
        Status restore_why;
        std::unique_ptr<Engine> bad = pool_.swap_replica(
            canary, std::move(displaced), incumbent_generation,
            DeadlineToken::after_ms(kDrainDeadlineMs), &restore_why);
        if (bad == nullptr)
            // The drain deadline expired mid-rollback; the replica
            // keeps the rejected engine but stays health-governed (the
            // pool will quarantine it if it keeps misbehaving).
            ORPHEUS_WARN("model registry: rollback swap of replica "
                         << canary << " failed: "
                         << restore_why.to_string());
    };

    for (int probe = 0; probe < options.warmup_probes; ++probe) {
        Status verdict = probe_canary(canary);
        if (!verdict.is_ok()) {
            roll_back();
            return reject(model_rejected_error(
                              "canary warm-up probe failed: " +
                              verdict.to_string()),
                          GenerationState::kQuarantined);
        }
    }

    // Observe a slice of live traffic on the canary.
    if (options.min_canary_samples > 0) {
        pool_.reset_windows();
        pool_.set_canary(canary, options.canary_fraction);
        const auto observe_start = std::chrono::steady_clock::now();
        for (;;) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            const std::vector<ReplicaWindow> windows = pool_.windows();
            if (windows[canary].served >= options.min_canary_samples ||
                elapsed_ms_since(observe_start) >
                    options.observe_timeout_ms)
                break;
        }
        const std::vector<ReplicaWindow> windows = pool_.windows();
        pool_.set_canary(EnginePool::kNoReplica, 0);
        report.canary_samples = windows[canary].served;

        ReplicaWindow incumbent;
        for (std::size_t i = 0; i < windows.size(); ++i)
            if (i != canary)
                incumbent.merge(windows[i]);

        std::ostringstream verdict;
        bool failed = false;
        const ReplicaWindow &can = windows[canary];
        if (can.bad > 0 &&
            can.error_rate() >
                incumbent.error_rate() + kMaxErrorRateExcess) {
            failed = true;
            verdict << "canary error rate " << can.error_rate()
                    << " exceeds incumbent " << incumbent.error_rate()
                    << " by more than " << kMaxErrorRateExcess;
        } else if (can.latency.count() >= kMinP99Samples &&
                   incumbent.latency.count() >= kMinP99Samples) {
            const double incumbent_p99 =
                incumbent.latency.percentile(0.99);
            const double canary_p99 = can.latency.percentile(0.99);
            if (incumbent_p99 > 0 &&
                canary_p99 > incumbent_p99 * kMaxP99Ratio) {
                failed = true;
                verdict << "canary P99 " << canary_p99
                        << " ms exceeds incumbent P99 " << incumbent_p99
                        << " ms by more than x" << kMaxP99Ratio;
            }
        }
        if (failed) {
            roll_back();
            return reject(model_rejected_error(verdict.str()),
                          GenerationState::kRolledBack);
        }
    }

    // --- ROLLING: drain-and-swap the rest, one at a time ------------------
    set_state(report.generation, GenerationState::kRolling);
    report.replicas_swapped = 1; // the canary
    std::ostringstream rolling_detail;
    for (const ReplicaSnapshot &snap : pool_.snapshot()) {
        if (snap.id == canary || snap.generation == report.generation)
            continue;
        // A copy of the lowered graph shares its Buffers and packs
        // nothing, and a failed compile leaves `graph` whole for the
        // replicas after this one.
        Graph model(graph);
        std::unique_ptr<Engine> replacement;
        try {
            replacement = pool_.compile_replica(model, snap.id);
        } catch (const std::exception &error) {
            rolling_detail << "; replica " << snap.id
                           << " recompile failed: " << error.what();
            continue;
        }
        Status why = internal_error("swap failed");
        std::unique_ptr<Engine> old = pool_.swap_replica(
            snap.id, std::move(replacement), report.generation,
            DeadlineToken::after_ms(kDrainDeadlineMs), &why);
        if (old != nullptr)
            ++report.replicas_swapped;
        else
            rolling_detail << "; replica " << snap.id
                           << " swap failed: " << why.to_string();
    }

    // --- ACTIVE ----------------------------------------------------------
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (GenerationInfo &info : generations_)
            if (info.id == incumbent_generation &&
                info.state == GenerationState::kActive)
                info.state = GenerationState::kRetired;
        active_generation_ = report.generation;
        active_model_ = graph.name();
        rollout_in_progress_ = false;
    }
    std::string detail = "promoted to " +
                         std::to_string(report.replicas_swapped) +
                         " replica(s)" + rolling_detail.str();
    set_state(report.generation, GenerationState::kActive, detail);
    report.detail = std::move(detail);
    ORPHEUS_WARN("model registry: generation "
                 << report.generation << " (" << graph.name()
                 << ") is now active on " << report.replicas_swapped
                 << " replica(s)");
    return report;
}

RolloutReport
ModelRegistry::roll_out_file(const std::string &path,
                             const RolloutOptions &options)
{
    Graph graph;
    const Status imported = import_onnx_file(path, graph);
    if (!imported.is_ok()) {
        RolloutReport report;
        report.status = model_rejected_error("failed to import '" + path +
                                             "': " + imported.to_string());
        report.detail = report.status.message();
        return report;
    }
    return roll_out(std::move(graph), options);
}

std::vector<GenerationInfo>
ModelRegistry::generations() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return generations_;
}

std::uint64_t
ModelRegistry::active_generation() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return active_generation_;
}

std::string
ModelRegistry::active_model() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return active_model_;
}

std::int64_t
ModelRegistry::rollbacks() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rollbacks_;
}

} // namespace orpheus
