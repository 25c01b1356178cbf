#include "core/deadline.hpp"

#include <algorithm>
#include <limits>
#include <thread>

namespace orpheus {

namespace {

/** Token of the innermost live ScopedDeadline on this thread. */
thread_local const DeadlineToken *t_deadline = nullptr;

} // namespace

DeadlineToken
DeadlineToken::unlimited()
{
    return DeadlineToken(std::make_shared<State>());
}

DeadlineToken
DeadlineToken::after_ms(double ms)
{
    auto state = std::make_shared<State>();
    state->has_deadline = true;
    state->deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(std::max(0.0, ms)));
    return DeadlineToken(std::move(state));
}

DeadlineToken
DeadlineToken::at(std::chrono::steady_clock::time_point deadline)
{
    auto state = std::make_shared<State>();
    state->has_deadline = true;
    state->deadline = deadline;
    return DeadlineToken(std::move(state));
}

bool
DeadlineToken::has_deadline() const
{
    return state_ != nullptr && state_->has_deadline;
}

bool
DeadlineToken::expired() const
{
    if (state_ == nullptr)
        return false;
    if (state_->cancelled.load(std::memory_order_relaxed))
        return true;
    return state_->has_deadline &&
           std::chrono::steady_clock::now() >= state_->deadline;
}

void
DeadlineToken::cancel()
{
    if (state_ != nullptr)
        state_->cancelled.store(true, std::memory_order_relaxed);
}

bool
DeadlineToken::cancelled() const
{
    return state_ != nullptr &&
           state_->cancelled.load(std::memory_order_relaxed);
}

double
DeadlineToken::remaining_ms() const
{
    if (state_ == nullptr || !state_->has_deadline)
        return expired() ? 0.0 : std::numeric_limits<double>::infinity();
    if (cancelled())
        return 0.0;
    const std::chrono::duration<double, std::milli> left =
        state_->deadline - std::chrono::steady_clock::now();
    return std::max(0.0, left.count());
}

bool
DeadlineToken::can_cover_ms(double ms) const
{
    if (state_ == nullptr)
        return true;
    if (expired())
        return false;
    if (!state_->has_deadline)
        return true;
    return remaining_ms() >= ms;
}

ScopedDeadline::ScopedDeadline(const DeadlineToken &token)
    : token_(token), previous_(t_deadline)
{
    if (token_.valid())
        t_deadline = &token_;
}

ScopedDeadline::~ScopedDeadline()
{
    t_deadline = previous_;
}

const DeadlineToken *
current_deadline()
{
    return t_deadline;
}

void
cooperative_delay_ms(double ms, const DeadlineToken &token)
{
    using clock = std::chrono::steady_clock;
    const clock::time_point until =
        clock::now() +
        std::chrono::duration_cast<clock::duration>(
            std::chrono::duration<double, std::milli>(std::max(0.0, ms)));
    while (true) {
        if (token.expired())
            throw DeadlineExceededError(
                "injected delay interrupted: deadline expired or request "
                "cancelled");
        const clock::time_point now = clock::now();
        if (now >= until)
            return;
        const auto slice = std::min<clock::duration>(
            until - now, std::chrono::milliseconds(1));
        std::this_thread::sleep_for(slice);
    }
}

} // namespace orpheus
