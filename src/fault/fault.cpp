#include "fault/fault.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"

namespace spear {

namespace {

/// Maps a 64-bit hash to a uniform double in [0, 1).
double to_unit(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

FaultInjector::FaultInjector(FaultOptions options,
                             const ResourceVector& capacity)
    : options_(options), dims_(capacity.dims()) {
  if (options_.fault_rate < 0.0 || options_.fault_rate > 1.0 ||
      options_.straggler_rate < 0.0 || options_.straggler_rate > 1.0) {
    throw std::invalid_argument("FaultInjector: rates must be in [0, 1]");
  }
  if (options_.fail_fraction_min < 0.0 || options_.fail_fraction_max > 1.0 ||
      options_.fail_fraction_min > options_.fail_fraction_max) {
    throw std::invalid_argument(
        "FaultInjector: fail fractions must satisfy 0 <= min <= max <= 1");
  }
  if (options_.straggler_factor < 1.0) {
    throw std::invalid_argument(
        "FaultInjector: straggler_factor must be >= 1");
  }
  if (options_.loss_fraction < 0.0 || options_.loss_fraction > 1.0) {
    throw std::invalid_argument(
        "FaultInjector: loss_fraction must be in [0, 1]");
  }
  if (options_.num_loss_windows > 0) {
    if (options_.loss_window_length <= 0 || options_.loss_horizon <= 0) {
      throw std::invalid_argument(
          "FaultInjector: loss window length and horizon must be positive");
    }
    // One window per equal segment of [0, loss_horizon), at a sampled
    // offset, truncated to the segment — windows never overlap, so at most
    // one loss is active at any instant.
    SplitMix64 g(options_.seed ^ 0xfa517b10c5ULL);
    const Time segment =
        options_.loss_horizon / static_cast<Time>(options_.num_loss_windows);
    if (segment <= 0) {
      throw std::invalid_argument(
          "FaultInjector: loss_horizon too short for num_loss_windows");
    }
    const ResourceVector amount = [&] {
      ResourceVector a(dims_);
      for (std::size_t r = 0; r < dims_; ++r) {
        a[r] = capacity[r] * options_.loss_fraction;
      }
      return a;
    }();
    for (std::size_t w = 0; w < options_.num_loss_windows; ++w) {
      const Time seg_start = static_cast<Time>(w) * segment;
      const Time max_offset =
          std::max<Time>(segment - options_.loss_window_length, 0);
      const Time offset = max_offset > 0
                              ? static_cast<Time>(to_unit(g.next()) *
                                                  static_cast<double>(
                                                      max_offset + 1))
                              : 0;
      const Time start = seg_start + std::min(offset, max_offset);
      const Time end =
          std::min(start + options_.loss_window_length, seg_start + segment);
      if (end > start) loss_windows_.push_back({start, end, amount});
    }
  }
}

AttemptOutcome FaultInjector::attempt_outcome(const Task& task,
                                              int attempt) const {
  AttemptOutcome out;
  out.duration = task.runtime;
  if (options_.fault_rate <= 0.0 && options_.straggler_rate <= 0.0) {
    return out;
  }
  // Two SplitMix64 passes decorrelate (task, attempt) pairs, mirroring the
  // slot-stream derivation in leaf-parallel MCTS.
  SplitMix64 outer(options_.seed ^
                   (static_cast<std::uint64_t>(task.id) + 1) *
                       0x9e3779b97f4a7c15ULL);
  SplitMix64 g(outer.next() ^ (static_cast<std::uint64_t>(attempt) + 1));
  const double u_straggle = to_unit(g.next());
  const double u_fail = to_unit(g.next());
  const double u_fraction = to_unit(g.next());

  if (u_straggle < options_.straggler_rate) {
    out.duration = static_cast<Time>(
        std::ceil(static_cast<double>(task.runtime) *
                  options_.straggler_factor));
  }
  if (u_fail < options_.fault_rate) {
    out.fails = true;
    const double fraction =
        options_.fail_fraction_min +
        u_fraction *
            (options_.fail_fraction_max - options_.fail_fraction_min);
    out.duration = std::max<Time>(
        static_cast<Time>(std::llround(fraction *
                                       static_cast<double>(out.duration))),
        1);
  }
  return out;
}

Time retry_backoff_delay(const RetryOptions& retry, int attempts, Time now,
                         Time first_start) {
  Time delay = std::min(retry.backoff_base, retry.backoff_cap);
  for (int k = 1; k < attempts; ++k) {
    // Saturating doubling: delay <= cap/2 guarantees delay * 2 <= cap, so
    // the multiplication cannot overflow before the min() would clamp it.
    if (delay > retry.backoff_cap / 2) {
      delay = retry.backoff_cap;
      break;
    }
    delay *= 2;
  }
  if (retry.task_deadline > 0) {
    const Time window_end = first_start <= std::numeric_limits<Time>::max() -
                                               retry.task_deadline
                                ? first_start + retry.task_deadline
                                : std::numeric_limits<Time>::max();
    if (now < window_end) delay = std::min(delay, window_end - now);
  }
  // now + delay must stay representable even with a saturated cap.
  return std::min(delay, std::numeric_limits<Time>::max() - now);
}

ResourceVector FaultInjector::capacity_loss_at(Time t) const {
  for (const auto& w : loss_windows_) {
    if (t >= w.start && t < w.end) return w.amount;
    if (t < w.start) break;  // sorted, non-overlapping
  }
  return ResourceVector(dims_);
}

Time FaultInjector::next_capacity_event_after(Time t) const {
  for (const auto& w : loss_windows_) {
    if (w.start > t) return w.start;
    if (w.end > t) return w.end;
  }
  return kNoEvent;
}

}  // namespace spear
