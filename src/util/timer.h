// Simple wall-clock timer used by the experiment harness to measure
// per-update processing cost.
#ifndef SWSKETCH_UTIL_TIMER_H_
#define SWSKETCH_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace swsketch {

/// Monotonic wall-clock stopwatch with nanosecond resolution.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Resets the epoch to now.
  void Reset() { start_ = Clock::now(); }

  /// Nanoseconds elapsed since construction / last Reset().
  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

  /// Seconds elapsed since construction / last Reset().
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedNanos()) * 1e-9;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates total time across many timed sections plus a count, for
/// average-cost reporting.
class CostAccumulator {
 public:
  void Add(int64_t nanos) {
    total_nanos_ += nanos;
    ++count_;
  }

  /// Records one timed section covering `events` events (a batched update
  /// covering many rows); AverageNanos() stays per-event.
  void AddSpanning(int64_t nanos, int64_t events) {
    total_nanos_ += nanos;
    count_ += events;
  }

  int64_t count() const { return count_; }

  /// Average nanoseconds per recorded event (0 when empty).
  double AverageNanos() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(total_nanos_) /
                             static_cast<double>(count_);
  }

 private:
  int64_t total_nanos_ = 0;
  int64_t count_ = 0;
};

}  // namespace swsketch

#endif  // SWSKETCH_UTIL_TIMER_H_
