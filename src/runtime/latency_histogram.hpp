/**
 * @file
 * Fixed-size geometric latency histogram shared by the service-level
 * stats and the per-replica canary windows in EnginePool.
 */
#pragma once

#include <array>
#include <cstdint>

namespace orpheus {

/**
 * Fixed-size geometric latency histogram: 64 buckets from 50 µs with
 * ratio 1.3 cover ~50 µs to ~13 min at ≤30 % resolution. record() is a
 * linear scan over the 63 finite bucket bounds (O(buckets), no heap);
 * callers serialise access under their own mutex.
 */
class LatencyHistogram
{
  public:
    static constexpr int kBuckets = 64;

    void
    record(double ms)
    {
        ++counts_[bucket_for(ms)];
        ++total_;
        if (ms > max_ms_)
            max_ms_ = ms;
    }

    std::int64_t count() const { return total_; }

    /** Upper bound of the bucket holding the @p quantile-th sample
     *  (quantile in [0,1]); 0 when empty. */
    double
    percentile(double quantile) const
    {
        if (total_ == 0)
            return 0;
        const double rank = quantile * static_cast<double>(total_);
        std::int64_t seen = 0;
        for (int i = 0; i < kBuckets; ++i) {
            seen += counts_[i];
            if (static_cast<double>(seen) >= rank)
                return reported_bound(i);
        }
        return reported_bound(kBuckets - 1);
    }

    /** Largest sample ever recorded (0 when empty). Survives merges;
     *  exact, unlike the ≤30 % bucket resolution. */
    double max_ms() const { return max_ms_; }

    void
    reset()
    {
        counts_.fill(0);
        total_ = 0;
        max_ms_ = 0;
    }

    /** Accumulates @p other's samples into this histogram. */
    void
    merge(const LatencyHistogram &other)
    {
        for (int i = 0; i < kBuckets; ++i)
            counts_[i] += other.counts_[i];
        total_ += other.total_;
        if (other.max_ms_ > max_ms_)
            max_ms_ = other.max_ms_;
    }

    static double
    upper_bound(int bucket)
    {
        double bound = kFirstBoundMs;
        for (int i = 0; i < bucket; ++i)
            bound *= kRatio;
        return bound;
    }

  private:
    static constexpr double kFirstBoundMs = 0.05;
    static constexpr double kRatio = 1.3;

    /** Value reported for a quantile resolving to @p bucket. The top
     *  bucket is unbounded, so its geometric lower edge used to be
     *  returned as-is and P99.9 under-reported any sample past the
     *  ~13 min range; the recorded max is the tightest true bound
     *  there, and also caps the ≤30 % over-report of every other
     *  bucket's upper edge. */
    double
    reported_bound(int bucket) const
    {
        if (bucket == kBuckets - 1)
            return max_ms_;
        return upper_bound(bucket) < max_ms_ ? upper_bound(bucket)
                                             : max_ms_;
    }

    static int
    bucket_for(double ms)
    {
        double bound = kFirstBoundMs;
        for (int i = 0; i < kBuckets - 1; ++i) {
            if (ms <= bound)
                return i;
            bound *= kRatio;
        }
        return kBuckets - 1;
    }

    std::array<std::int64_t, kBuckets> counts_{};
    std::int64_t total_ = 0;
    double max_ms_ = 0;
};

} // namespace orpheus
