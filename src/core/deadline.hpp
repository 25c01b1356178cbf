/**
 * @file
 * Request deadlines and cooperative cancellation.
 *
 * A DeadlineToken is a cheap, copyable handle to shared cancellation
 * state: it expires either when its wall-clock budget runs out or when
 * some other party (the admission controller, the hang watchdog) calls
 * cancel(). The engine threads the token through Engine::run → step
 * execution, where a ScopedDeadline installs it as the thread's one
 * cancellation hook; ThreadPool::parallel_for reads that hook and hands
 * the token's address to its workers, so a long-running kernel stops at
 * the next tile boundary and the request returns kDeadlineExceeded
 * instead of blocking a worker indefinitely. Nothing on that path heap
 * allocates: the scope's copy of the token is a refcount bump.
 *
 * Expiry is detected at *cancellation points* (step boundaries, tile
 * boundaries, injected-delay slices) — there is no preemption, which is
 * why the detection latency is bounded by the tile granularity rather
 * than being instantaneous.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>

#include "core/status.hpp"

namespace orpheus {

class DeadlineToken
{
  public:
    /**
     * A null token: never expires, cancel() is a no-op. This is the
     * default for direct Engine::run callers so the legacy API pays no
     * allocation or checking cost.
     */
    DeadlineToken() = default;

    /** A cancellable token with no time budget (watchdog-only). */
    static DeadlineToken unlimited();

    /** A token expiring @p ms milliseconds from now (ms <= 0 is
     *  already expired). */
    static DeadlineToken after_ms(double ms);

    /** A token expiring at @p deadline. */
    static DeadlineToken at(std::chrono::steady_clock::time_point deadline);

    /** False for the default-constructed null token. */
    bool valid() const { return state_ != nullptr; }

    /** True when the token carries a wall-clock deadline. */
    bool has_deadline() const;

    /** True once cancelled or past the deadline (null tokens: never). */
    bool expired() const;

    /** Marks the token expired immediately. Thread-safe; no-op on a
     *  null token. */
    void cancel();

    /** True when cancel() has been called (as opposed to timing out). */
    bool cancelled() const;

    /**
     * Milliseconds until expiry: +infinity without a deadline, clamped
     * at 0 once expired or cancelled.
     */
    double remaining_ms() const;

    /**
     * True when the remaining budget covers @p ms more milliseconds of
     * work — always true without a deadline, never true once expired.
     * The feasibility admission check and the retry scheduler use this
     * to refuse work that is already a guaranteed deadline miss.
     */
    bool can_cover_ms(double ms) const;

    /**
     * The wall-clock deadline, or nullopt when the token carries none.
     * Unlike remaining_ms() this is unaffected by cancel(), so a
     * dispatcher that cancelled a token to abandon one replica (the
     * watchdog path) can mint a fresh token for the retry with
     * DeadlineToken::at(*deadline_point()) and keep the request's
     * original time budget.
     */
    std::optional<std::chrono::steady_clock::time_point>
    deadline_point() const
    {
        if (state_ == nullptr || !state_->has_deadline)
            return std::nullopt;
        return state_->deadline;
    }

  private:
    struct State {
        std::atomic<bool> cancelled{false};
        bool has_deadline = false;
        std::chrono::steady_clock::time_point deadline{};
    };

    explicit DeadlineToken(std::shared_ptr<State> state)
        : state_(std::move(state))
    {
    }

    std::shared_ptr<State> state_;
};

/**
 * Installs a copy of @p token as the current thread's cancellation hook
 * (current_deadline()) for the scope's lifetime. While it is installed,
 * parallel_for calls issued from this thread split each worker's chunk
 * into tiles and stop at the first tile boundary after the token
 * expires. A null token installs nothing, so an enclosing scope stays
 * in force. Scopes nest: the destructor restores the previous hook.
 * Used by the engine around each kernel invocation.
 */
class ScopedDeadline
{
  public:
    explicit ScopedDeadline(const DeadlineToken &token);
    ~ScopedDeadline();

    ScopedDeadline(const ScopedDeadline &) = delete;
    ScopedDeadline &operator=(const ScopedDeadline &) = delete;

  private:
    /** Owned copy: the hook never points at the caller's argument,
     *  which may be a temporary. */
    DeadlineToken token_;
    const DeadlineToken *previous_;
};

/**
 * The token the innermost live ScopedDeadline on this thread installed,
 * or nullptr when none is active.
 */
const DeadlineToken *current_deadline();

/**
 * Sleeps for @p ms milliseconds in ~1 ms slices, checking @p token
 * between slices; throws DeadlineExceededError as soon as the token
 * expires. This is the cancellation-friendly sleep the fault injector's
 * delay/hang injection runs on.
 */
void cooperative_delay_ms(double ms, const DeadlineToken &token);

} // namespace orpheus
