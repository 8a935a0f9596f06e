// Approximate sum over a sliding window.
//
// The paper (Section 5) tracks ||A||_F^2 = sum of squared row norms over the
// window with the Exponential Histogram of Datar et al. [11]. We implement
// the functionally equivalent smooth-histogram formulation (Braverman &
// Ostrovsky) specialized to sums, which gives the same (1 +/- eps)
// multiplicative guarantee and O((1/eps) log (N R)) stored boundaries for
// values in [1, R], while supporting both sequence-based (integer index
// timestamps) and time-based (real timestamps) windows uniformly.
//
// Structure: a list of suffix boundaries x_1 < x_2 < ... (by start
// timestamp), where boundary i carries s_i = sum of all values arriving at
// or after x_i. Invariant: for consecutive kept boundaries, either
// s_{i+1} >= (1 - eps) * s_i or they are adjacent arrivals. A window query
// [w, now] returns the sum of the youngest boundary starting at or after w,
// which under-estimates the true window sum by at most a (1 - eps) factor.
#ifndef SWSKETCH_UTIL_EXPONENTIAL_HISTOGRAM_H_
#define SWSKETCH_UTIL_EXPONENTIAL_HISTOGRAM_H_

#include <cstddef>
#include <deque>
#include <limits>

#include "util/serialize.h"

namespace swsketch {

/// eps-approximate sliding-window sum of positive values.
class ExponentialHistogram {
 public:
  /// @param eps relative error bound, in (0, 1).
  explicit ExponentialHistogram(double eps);

  /// Adds a value arriving at `ts`. Timestamps must be non-decreasing.
  /// Values must be positive.
  void Add(double value, double ts);

  /// Estimated sum of values with timestamp >= window_start. Returns the
  /// sum of the youngest suffix boundary that starts inside the window:
  /// estimate <= true sum and estimate >= (1 - eps) * true sum.
  double Estimate(double window_start) const;

  /// Drops state that can never be needed for windows starting at or after
  /// `window_start` (call with the oldest window start still queried).
  void EvictBefore(double window_start);

  /// Number of stored suffix boundaries (the sketch's space usage).
  size_t NumBuckets() const { return boundaries_.size(); }

  double eps() const { return eps_; }

  /// Checkpoint/resume support. Deserialize refuses a payload whose last
  /// arrival is after the owner's clock `now` (the next Add would fail).
  void Serialize(ByteWriter* writer) const;
  bool Deserialize(ByteReader* reader,
                   double now = std::numeric_limits<double>::infinity());

 private:
  struct Boundary {
    double start_ts;   // Arrival time of the first element of this suffix.
    double suffix_sum; // Sum of all values from start_ts to now.
    bool adjacent_to_next;  // True if the next boundary is the very next
                            // arrival (cannot be compacted away).
  };

  void Compact(double added);

  double eps_;
  double last_ts_;
  // Oldest suffix at the front (largest suffix_sum), newest at the back.
  std::deque<Boundary> boundaries_;
};

}  // namespace swsketch

#endif  // SWSKETCH_UTIL_EXPONENTIAL_HISTOGRAM_H_
