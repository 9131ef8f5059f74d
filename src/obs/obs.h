// The global observability sink (DESIGN.md §8).
//
// Overhead contract: observability is OFF by default, and every
// instrumentation site is gated on enabled() — a single relaxed atomic load
// plus a predictable branch.  Disabled runs take no clocks, allocate
// nothing, and touch no locks, so the serial scheduling path stays
// bit-identical to the uninstrumented build and bench_micro regresses by
// no more than the cost of that branch.
//
// Enabling is explicit: install a MetricsRegistry and/or a
// TraceEventWriter (benches do this from --metrics-out / --trace-out),
// do the work, then read a snapshot / shutdown().  Install sinks before
// spawning concurrent work and shut down after joining it — the accessors
// intentionally hand out raw pointers without per-call locking.
//
//   obs::install_metrics(std::make_shared<obs::MetricsRegistry>());
//   obs::install_trace(std::make_shared<obs::TraceEventWriter>("trace.json"));
//   ... run ...
//   auto snap = obs::metrics()->snapshot();
//   obs::shutdown();
//
// Instrumentation sites look like:
//
//   if (obs::enabled()) obs::count("mcts.decisions");
//   obs::ScopedTimer span("mcts.decision", "mcts");   // no-op when disabled
//   span.set_args("\"depth\":" + std::to_string(depth));

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace spear::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True iff any sink is installed.  The one check hot paths pay.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Installed registry / writer; null when not installed.  Pointers are
/// stable between install and shutdown (see the header comment).
MetricsRegistry* metrics();
TraceEventWriter* trace();

void install_metrics(std::shared_ptr<MetricsRegistry> registry);
void install_trace(std::shared_ptr<TraceEventWriter> writer);

/// Closes the trace (if any), drops both sinks and disables.
void shutdown();

/// Counter / gauge / histogram shorthands that tolerate a missing registry
/// (e.g. trace-only runs).  Call only under enabled() on hot paths.
inline void count(const std::string& name, std::int64_t delta = 1) {
  if (MetricsRegistry* m = metrics()) m->add(name, delta);
}
inline void gauge(const std::string& name, double value) {
  if (MetricsRegistry* m = metrics()) m->set(name, value);
}
inline void observe(const std::string& name, double value) {
  if (MetricsRegistry* m = metrics()) m->observe(name, value);
}

/// RAII span: measures its scope's wall time, records it into the
/// "<name>.ms" histogram, and (unless with_trace is false) emits a Chrome
/// complete event on the calling thread's track.  Construction when
/// disabled is a branch — no clock is read, and nothing is allocated: the
/// name and category are copied only when the span is active.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string_view name,
                       std::string_view category = "spear",
                       bool with_trace = true)
      : active_(enabled()), with_trace_(with_trace) {
    if (active_) {
      name_ = name;
      category_ = category;
      start_ = std::chrono::steady_clock::now();
    }
  }

  ~ScopedTimer() {
    if (active_) finish();  // disabled: a branch, not a call
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  bool active() const { return active_; }

  /// Attaches a JSON args body (no braces) to the trace event.
  void set_args(std::string args_json) {
    if (active_) args_ = std::move(args_json);
  }

  /// Ends the span early (idempotent; the destructor is then a no-op).
  void finish();

 private:
  bool active_;
  bool with_trace_;
  std::string name_;
  std::string category_;
  std::string args_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace spear::obs
