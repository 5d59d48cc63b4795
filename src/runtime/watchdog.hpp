/**
 * @file
 * Hang detection for in-flight inference.
 *
 * Cooperative deadlines (deadline.hpp) only work when the kernel
 * reaches a cancellation point; a genuinely wedged backend — stuck in a
 * syscall, spinning in native code — never does. The watchdog covers
 * that gap from the outside: the engine publishes "step N of request R
 * started at time T" into an ExecutionMonitor, and a dedicated watchdog
 * thread polls the monitors, flagging any step that has been running
 * longer than the hang threshold. Names are resolved from the engine's
 * plan (PlanStep) by whoever acts on the report. The InferenceService
 * reacts by cancelling the request's token (un-wedging cooperative
 * kernels) and demoting the offending step to the reference
 * implementation for subsequent requests — the same degradation path a
 * throwing kernel takes (Engine::demote_step).
 */
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/deadline.hpp"

namespace orpheus {

/**
 * One engine's execution trace, written by the executing thread at step
 * granularity and read by the watchdog thread. All methods are
 * thread-safe; begin/end pairs cost one mutex acquisition each and copy
 * no strings, which is negligible next to a kernel invocation.
 */
class ExecutionMonitor
{
  public:
    struct Snapshot {
        /** True while a step is executing. */
        bool step_active = false;
        /** Monotonic id of the active (request, step) occurrence; lets
         *  the watchdog flag each occurrence at most once. */
        std::uint64_t sequence = 0;
        std::size_t step_index = 0;
        /** Milliseconds the active step has been running. */
        double elapsed_ms = 0;
    };

    /** Marks a request in flight and retains its token so the watchdog
     *  can cancel it. */
    void begin_request(DeadlineToken token);
    void end_request();

    /** Marks plan step @p step_index running since @p started (the
     *  engine's step-timing clock read). */
    void begin_step(std::size_t step_index,
                    std::chrono::steady_clock::time_point started);
    void end_step();

    Snapshot snapshot() const;

    /** Cancels the in-flight request's token (no-op when idle). */
    void cancel_active_request();

  private:
    mutable std::mutex mutex_;
    DeadlineToken token_;
    bool step_active_ = false;
    std::uint64_t sequence_ = 0;
    std::size_t step_index_ = 0;
    std::chrono::steady_clock::time_point step_started_{};
};

struct WatchdogConfig {
    /** Poll period of the watchdog thread. */
    double poll_interval_ms = 5.0;
    /** A step running longer than this is reported as hung. */
    double hang_threshold_ms = 1000.0;
};

/** What the watchdog saw when it flagged a hang. */
struct HangReport {
    /** Index into the monitor list handed to the Watchdog (the service's
     *  replica id). */
    std::size_t monitor_index = 0;
    /** Plan step of that replica's engine that hung. */
    std::size_t step_index = 0;
    double elapsed_ms = 0;
};

/**
 * Polls a fixed set of ExecutionMonitors from a dedicated thread and
 * invokes @p on_hang (on the watchdog thread) once per hung step
 * occurrence. The callback decides the response — the service cancels
 * and demotes; tests count.
 */
class Watchdog
{
  public:
    Watchdog(WatchdogConfig config,
             std::vector<std::shared_ptr<ExecutionMonitor>> monitors,
             std::function<void(const HangReport &)> on_hang);
    ~Watchdog();

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /** Stops the polling thread (idempotent; the destructor calls it). */
    void stop();

  private:
    void poll_loop();

    WatchdogConfig config_;
    std::vector<std::shared_ptr<ExecutionMonitor>> monitors_;
    std::function<void(const HangReport &)> on_hang_;

    std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
    /** Last flagged sequence per monitor (0 = none). */
    std::vector<std::uint64_t> flagged_;
    std::thread thread_;
};

} // namespace orpheus
