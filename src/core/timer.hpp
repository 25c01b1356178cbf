/**
 * @file
 * Wall-clock timing utilities used by the experiment harness, kernel
 * auto-tuning and the service. Header-only.
 */
#pragma once

#include <chrono>
#include <cstdint>

namespace orpheus {

/** Monotonic stopwatch measuring elapsed wall-clock time. */
class Timer
{
  public:
    using clock = std::chrono::steady_clock;

    /** Starts (or restarts) the stopwatch. */
    void start() { begin_ = clock::now(); }

    /** Elapsed time since start() in nanoseconds. */
    std::int64_t
    elapsed_ns() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   clock::now() - begin_)
            .count();
    }

    /** Elapsed time since start() in milliseconds (fractional). */
    double elapsed_ms() const { return elapsed_ns() * 1e-6; }

    /** Elapsed time since start() in seconds (fractional). */
    double elapsed_s() const { return elapsed_ns() * 1e-9; }

  private:
    clock::time_point begin_ = clock::now();
};

/** RAII timer that accumulates its scope's duration into a counter. */
class ScopedTimer
{
  public:
    explicit ScopedTimer(double &accumulator_ms)
        : accumulator_ms_(accumulator_ms)
    {
        timer_.start();
    }

    ~ScopedTimer() { accumulator_ms_ += timer_.elapsed_ms(); }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    double &accumulator_ms_;
    Timer timer_;
};

} // namespace orpheus
