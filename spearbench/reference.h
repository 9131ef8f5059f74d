// A fixed CPU workload owned by the benchmark, timed in short probes next
// to a workload's timed work.  The machine this benchmark runs on is a
// shared VM whose speed drifts by up to 2x over minutes; the probes measure
// that drift in the same run, so timings can also be stated at a fixed
// nominal machine speed.  The kernel never calls into the code under test,
// so a change to that code cannot move it.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"

namespace spearbench {

class SpeedProbe {
 public:
  /// `threads` kernels run at once in every probe, matching how many
  /// threads the workload keeps busy.
  explicit SpeedProbe(int threads = 1);

  /// Runs `calls` kernel calls on every probe thread at once and records
  /// the mean cost per call; returns this probe's slowdown.
  double probe(int calls = kProbeCalls);
  /// Probes when at least `every_s` seconds passed since the last probe;
  /// returns true when it probed.
  bool maybe_probe(double every_s);

  /// Mean cost per call of the recorded probes over the nominal cost: > 1
  /// when the machine ran slower than nominal.  1 when nothing was recorded.
  double slowdown() const;
  /// The same over the two most recent probes.
  double recent_slowdown() const;

  /// Nominal cost of one kernel call, in ns (one call on an unloaded vCPU of
  /// the 4-vCPU VM the baseline was recorded on).
  static constexpr double kNominalNsPerCall = 60'000.0;
  /// ~12 ms per probe at nominal speed.
  static constexpr int kProbeCalls = 200;

 private:
  /// One thread's kernel and its private data.
  struct Kernel {
    Kernel();
    std::uint64_t run();
    std::vector<double> matrix, vec, out;
    std::vector<std::uint32_t> keys, sorted;
    std::vector<std::uint32_t> chain;
  };

  std::vector<Kernel> kernels_;
  std::vector<double> ns_per_call_;
  Clock::time_point last_probe_;
  std::uint64_t sink_ = 0;
};

/// Job wall times stated at nominal machine speed: the jobs between two
/// probes are divided by the mean slowdown of those two probes, so drift
/// during a run is followed job by job.
class NominalClock {
 public:
  /// Probes on `threads` threads now and then every `probe_every_s`.
  NominalClock(int threads, double probe_every_s);

  /// Records one job's wall time (ms); probes when one is due.
  void add(double ms);
  /// Probes once more and settles the jobs since the previous probe.
  void finish();

  const std::vector<double>& raw_ms() const { return raw_; }
  const std::vector<double>& nominal_ms() const { return nominal_; }
  double slowdown() const { return probe_.slowdown(); }

 private:
  void settle();

  SpeedProbe probe_;
  double every_s_;
  std::vector<double> raw_, nominal_;
};

/// Probes on a thread of its own every `every_s` until stopped, for a phase
/// whose work runs on threads the benchmark does not drive (the service's
/// workers).  At the serve workload's offered rate most CPUs are idle, so
/// the probe does not compete with the work it measures.
class BackgroundProbe {
 public:
  explicit BackgroundProbe(double every_s);
  ~BackgroundProbe() { stop(); }
  BackgroundProbe(const BackgroundProbe&) = delete;
  BackgroundProbe& operator=(const BackgroundProbe&) = delete;

  void stop();
  /// Mean slowdown of the probes that ended within `margin_s` of
  /// [from, to]; the nearest probe when none did.  Call after stop().
  double slowdown_around(Clock::time_point from, Clock::time_point to,
                         double margin_s) const;
  /// Mean slowdown of every probe.  Call after stop().
  double slowdown() const;

 private:
  SpeedProbe probe_;
  double every_s_;
  std::vector<std::pair<Clock::time_point, double>> samples_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace spearbench
