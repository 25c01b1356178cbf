#include "runtime/watchdog.hpp"

#include <algorithm>

#include "core/logging.hpp"

namespace orpheus {

void
ExecutionMonitor::begin_request(DeadlineToken token)
{
    std::lock_guard<std::mutex> lock(mutex_);
    token_ = std::move(token);
}

void
ExecutionMonitor::end_request()
{
    std::lock_guard<std::mutex> lock(mutex_);
    token_ = DeadlineToken();
    step_active_ = false;
}

void
ExecutionMonitor::begin_step(std::size_t step_index,
                             const std::string &node_name,
                             const std::string &impl_name,
                             std::chrono::steady_clock::time_point started)
{
    std::lock_guard<std::mutex> lock(mutex_);
    step_active_ = true;
    ++sequence_;
    step_index_ = step_index;
    node_name_ = node_name;
    impl_name_ = impl_name;
    step_started_ = started;
}

void
ExecutionMonitor::end_step()
{
    std::lock_guard<std::mutex> lock(mutex_);
    step_active_ = false;
}

ExecutionMonitor::Snapshot
ExecutionMonitor::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Snapshot snap;
    snap.step_active = step_active_;
    snap.sequence = sequence_;
    snap.step_index = step_index_;
    snap.node_name = node_name_;
    snap.impl_name = impl_name_;
    if (step_active_) {
        const std::chrono::duration<double, std::milli> elapsed =
            std::chrono::steady_clock::now() - step_started_;
        snap.elapsed_ms = elapsed.count();
    }
    return snap;
}

void
ExecutionMonitor::cancel_active_request()
{
    std::lock_guard<std::mutex> lock(mutex_);
    token_.cancel();
}

Watchdog::Watchdog(WatchdogConfig config,
                   std::vector<std::shared_ptr<ExecutionMonitor>> monitors,
                   std::function<void(const HangReport &)> on_hang)
    : config_(config), monitors_(std::move(monitors)),
      on_hang_(std::move(on_hang)), flagged_(monitors_.size(), 0)
{
    thread_ = std::thread([this] { poll_loop(); });
}

Watchdog::~Watchdog()
{
    stop();
}

void
Watchdog::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable())
        thread_.join();
}

void
Watchdog::poll_loop()
{
    const auto interval =
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(
                std::max(0.1, config_.poll_interval_ms)));
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopping_) {
        wake_.wait_for(lock, interval, [this] { return stopping_; });
        if (stopping_)
            return;
        for (std::size_t i = 0; i < monitors_.size(); ++i) {
            lock.unlock();
            const ExecutionMonitor::Snapshot snap = monitors_[i]->snapshot();
            lock.lock();
            if (!snap.step_active ||
                snap.elapsed_ms < config_.hang_threshold_ms ||
                flagged_[i] == snap.sequence)
                continue;
            flagged_[i] = snap.sequence;
            HangReport report;
            report.monitor_index = i;
            report.step_index = snap.step_index;
            report.node_name = snap.node_name;
            report.impl_name = snap.impl_name;
            report.elapsed_ms = snap.elapsed_ms;
            ORPHEUS_WARN("watchdog: step " << report.step_index << " (node "
                                           << report.node_name << ", impl "
                                           << report.impl_name
                                           << ") has been running for "
                                           << report.elapsed_ms << " ms");
            if (on_hang_) {
                lock.unlock();
                on_hang_(report);
                lock.lock();
            }
        }
    }
}

} // namespace orpheus
