#include "reference.h"

#include <algorithm>
#include <numeric>
#include <thread>

namespace spearbench {
namespace {

constexpr std::size_t kDim = 96;          // dense matrix-vector product
constexpr std::size_t kKeys = 1024;       // sort
constexpr std::size_t kChain = 1 << 16;   // pointer chase over 256 KiB

std::uint32_t lcg(std::uint32_t& state) {
  state = state * 1664525u + 1013904223u;
  return state;
}

}  // namespace

SpeedProbe::Kernel::Kernel()
    : matrix(kDim * kDim), vec(kDim), out(kDim), keys(kKeys), chain(kChain) {
  std::uint32_t state = 12345;
  for (double& w : matrix) w = (lcg(state) % 2001) / 1000.0 - 1.0;
  for (double& x : vec) x = (lcg(state) % 1001) / 1000.0;
  for (std::uint32_t& k : keys) k = lcg(state);
  // A single random cycle through the chain, so every step is a dependent
  // load that misses L1.
  std::vector<std::uint32_t> order(kChain);
  std::iota(order.begin(), order.end(), 0u);
  for (std::size_t i = kChain - 1; i > 0; --i) {
    std::swap(order[i], order[lcg(state) % (i + 1)]);
  }
  for (std::size_t i = 0; i < kChain; ++i) {
    chain[order[i]] = order[(i + 1) % kChain];
  }
}

std::uint64_t SpeedProbe::Kernel::run() {
  // Floating point: relu(W x), four rounds, feeding back.
  for (int round = 0; round < 4; ++round) {
    for (std::size_t r = 0; r < kDim; ++r) {
      double acc = 0.0;
      const double* row = &matrix[r * kDim];
      for (std::size_t c = 0; c < kDim; ++c) acc += row[c] * vec[c];
      out[r] = acc > 0.0 ? acc * 0.01 : 0.0;
    }
    std::swap(out, vec);
    vec[round] += 0.5;
  }
  // Allocation, copy and a branchy sort.
  sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  // Dependent loads.
  std::uint32_t at = sorted[kKeys / 2] % kChain;
  for (int step = 0; step < 4096; ++step) at = chain[at];
  return at + static_cast<std::uint64_t>(vec[0] * 1000.0);
}

SpeedProbe::SpeedProbe(int threads)
    : kernels_(static_cast<std::size_t>(std::max(1, threads))),
      last_probe_(Clock::now()) {}

double SpeedProbe::probe(int calls) {
  std::vector<double> ns(kernels_.size());
  std::vector<std::uint64_t> sums(kernels_.size());
  const auto work = [&](std::size_t t) {
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i) sums[t] += kernels_[t].run();
    ns[t] = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  };
  std::vector<std::thread> helpers;
  for (std::size_t t = 1; t < kernels_.size(); ++t) helpers.emplace_back(work, t);
  work(0);
  for (std::thread& h : helpers) h.join();
  double total = 0.0;
  for (std::size_t t = 0; t < kernels_.size(); ++t) {
    total += ns[t];
    sink_ += sums[t];
  }
  ns_per_call_.push_back(total / static_cast<double>(kernels_.size()) / calls);
  last_probe_ = Clock::now();
  return ns_per_call_.back() / kNominalNsPerCall;
}

bool SpeedProbe::maybe_probe(double every_s) {
  if (seconds_between(last_probe_, Clock::now()) < every_s) return false;
  probe();
  return true;
}

double SpeedProbe::slowdown() const {
  if (ns_per_call_.empty()) return 1.0;
  double sum = 0.0;
  for (const double ns : ns_per_call_) sum += ns;
  return sum / static_cast<double>(ns_per_call_.size()) / kNominalNsPerCall;
}

double SpeedProbe::recent_slowdown() const {
  const std::size_t n = ns_per_call_.size();
  if (n == 0) return 1.0;
  if (n == 1) return ns_per_call_[0] / kNominalNsPerCall;
  return (ns_per_call_[n - 2] + ns_per_call_[n - 1]) / 2.0 / kNominalNsPerCall;
}

NominalClock::NominalClock(int threads, double probe_every_s)
    : probe_(threads), every_s_(probe_every_s) {
  probe_.probe();
}

void NominalClock::add(double ms) {
  raw_.push_back(ms);
  if (probe_.maybe_probe(every_s_)) settle();
}

void NominalClock::finish() {
  probe_.probe();
  settle();
}

BackgroundProbe::BackgroundProbe(double every_s)
    : probe_(1), every_s_(every_s) {
  samples_.emplace_back(Clock::now(), probe_.probe());
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!wake_.wait_for(lock, std::chrono::duration<double>(every_s_),
                           [this] { return stopping_; })) {
      lock.unlock();
      const double slowdown = probe_.probe();
      const auto at = Clock::now();
      lock.lock();
      samples_.emplace_back(at, slowdown);
    }
  });
}

void BackgroundProbe::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  wake_.notify_all();
  thread_.join();
  samples_.emplace_back(Clock::now(), probe_.probe());
}

double BackgroundProbe::slowdown_around(Clock::time_point from,
                                        Clock::time_point to,
                                        double margin_s) const {
  const auto margin = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(margin_s));
  double sum = 0.0, nearest = 1.0;
  int count = 0;
  Clock::duration best = Clock::duration::max();
  for (const auto& [at, slowdown] : samples_) {
    if (at >= from - margin && at <= to + margin) {
      sum += slowdown;
      ++count;
    }
    const Clock::duration gap =
        at < from ? from - at : (at > to ? at - to : Clock::duration::zero());
    if (gap < best) {
      best = gap;
      nearest = slowdown;
    }
  }
  return count > 0 ? sum / count : nearest;
}

double BackgroundProbe::slowdown() const {
  double sum = 0.0;
  for (const auto& sample : samples_) sum += sample.second;
  return samples_.empty() ? 1.0 : sum / static_cast<double>(samples_.size());
}

void NominalClock::settle() {
  const double slowdown = probe_.recent_slowdown();
  for (std::size_t i = nominal_.size(); i < raw_.size(); ++i) {
    nominal_.push_back(raw_[i] / slowdown);
  }
}

}  // namespace spearbench
