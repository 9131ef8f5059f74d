// Load/robustness bench for the scheduling service (DESIGN.md §12): drives
// an in-process SchedulerService with seeded Poisson arrivals and reports
// throughput, latency percentiles, the shed rate, the degradation-ladder
// counts, and the inference telemetry (forwards/sec, batch-occupancy
// p50/p99).  The overload soak criterion — sustained 2x arrival rate,
// bounded queue, zero crashes, every request answered — runs as
//
//   ./bench_service_load --rate-multiplier=2 --duration-s=60
//
// Defaults are scaled to finish in seconds; --duration-s stretches the run.
// Requests are generated open-loop (arrivals do not wait for responses),
// which is what makes overload real: when the service falls behind, the
// admission queue fills and try_push sheds.
//
// --guide=drl (default) serves with an untrained paper-topology policy
// network so the request path exercises real inference; every worker
// forwards through its own copy of the network.  --guide=none is unguided
// MCTS.
//
// --two-tenant switches to the fairness scenario (DESIGN.md §13): two
// tenants with configured DRR weights (--tenant-weights=3,1) and SKEWED
// arrivals — the low-weight tenant submits most of the traffic (--skew is
// tenant a's arrival share) — both saturating, with per-tenant queue quotas
// so neither can crowd the other out of the shared queue at admission.
// Reports per-tenant p50/p99 latency, the max starvation gap (longest wall
// time either tenant waited between consecutive placements), and checks the
// measured placement shares land within 10% of the configured weight shares
// — exit 1 otherwise.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "dag/io.h"
#include "support.h"
#include "svc/service.h"

using namespace spear;
using namespace spear::svc;

namespace {

// Client-side per-tenant accounting for the --two-tenant scenario.  A
// "dequeue" is any response proving the scheduler took the tenant's job off
// the queue: placed, or deadline_expired discovered AT dequeue.  Admission
// sheds never reach the queue and do not count.  DRR controls dequeues, so
// the weight-share check is computed over dequeues — robust even when a
// tight --budget-ms expires most of the slow tenant's backlog.
struct TenantTrack {
  std::vector<double> latency_ms;  // placed responses only
  std::int64_t dequeues = 0;
  bool seen = false;
  std::chrono::steady_clock::time_point last{};
  double max_gap_ms = 0.0;  // longest wall gap between consecutive dequeues
};

bool parse_weight_pair(const std::string& text, double* a, double* b) {
  const auto comma = text.find(',');
  if (comma == std::string::npos) return false;
  try {
    std::size_t used = 0;
    *a = std::stod(text.substr(0, comma), &used);
    if (used != comma) return false;
    const std::string rest = text.substr(comma + 1);
    *b = std::stod(rest, &used);
    if (used != rest.size()) return false;
  } catch (const std::exception&) {
    return false;
  }
  return *a > 0.0 && *b > 0.0;
}

/// One load run's fixed inputs.
struct LoadParams {
  ServiceOptions options;
  const std::vector<std::string>* pool_text = nullptr;
  std::int64_t jobs = 0;
  std::int64_t duration_s = 0;
  double arrival_rate = 0.0;  // already multiplied
  std::int64_t budget_ms = 0;
  std::uint64_t seed = 0;
  bool two_tenant = false;
  double skew = 0.35;
};

/// One load run's measurements; physical forward telemetry comes from the
/// service ledger.
struct LoadOutcome {
  ServiceCounters c;
  std::string counters_json;  ///< the same ledger, as the `stats` body
  double elapsed_s = 0.0;
  std::int64_t submitted = 0;
  std::int64_t answered = 0;
  std::vector<double> latency_ms;
  std::vector<double> queue_ms;
  std::map<std::string, TenantTrack> tenant_track;
  double makespan_sum = 0.0;  // placed responses, schedule-quality evidence
  bool lost_requests = false;

  double jobs_per_sec() const {
    return elapsed_s > 0.0 ? static_cast<double>(c.placed) / elapsed_s : 0.0;
  }
  double mean_makespan() const {
    return c.placed > 0 ? makespan_sum / static_cast<double>(c.placed) : 0.0;
  }
  double forwards_per_sec() const {
    return elapsed_s > 0.0 ? static_cast<double>(c.search_forwards) / elapsed_s
                           : 0.0;
  }
  double mean_batch_rows() const {
    return c.search_forwards > 0
               ? static_cast<double>(c.search_forward_rows) /
                     static_cast<double>(c.search_forwards)
               : 0.0;
  }
};

/// Drives one open-loop Poisson run against a fresh service built from
/// `params.options` and returns every measurement; prints nothing.
LoadOutcome run_load(const LoadParams& params) {
  LoadOutcome out;
  SchedulerService service(params.options);
  service.start();

  // Open-loop Poisson arrivals: exponential inter-arrival gaps, submissions
  // never blocked on completions.  Latency samples cover ANSWERED requests
  // (placed or structurally rejected); shed/expired are counted separately.
  std::mt19937_64 rng(params.seed ^ 0x9e3779b9u);
  std::exponential_distribution<double> gap_s(params.arrival_rate);
  std::bernoulli_distribution pick_a(params.skew);

  std::mutex sample_mutex;
  std::atomic<std::int64_t> answered{0};

  const auto bench_start = std::chrono::steady_clock::now();
  const double horizon_s =
      params.duration_s > 0 ? static_cast<double>(params.duration_s) : 1e18;
  std::int64_t submitted = 0;
  auto next_arrival = bench_start;
  while (true) {
    if (params.duration_s > 0) {
      if (bench::seconds_since(bench_start) >= horizon_s) break;
    } else if (submitted >= params.jobs) {
      break;
    }
    next_arrival +=
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(gap_s(rng)));
    std::this_thread::sleep_until(next_arrival);

    SubmitRequest request;
    request.id = "j" + std::to_string(submitted);
    request.dag_text = (*params.pool_text)[static_cast<std::size_t>(
        submitted % static_cast<std::int64_t>(params.pool_text->size()))];
    request.budget_ms = params.budget_ms;
    std::string tenant;
    if (params.two_tenant) {
      tenant = pick_a(rng) ? "a" : "b";
      request.tenant = tenant;
    }
    const auto sent = std::chrono::steady_clock::now();
    service.submit(request, [&, sent, tenant](bool ok,
                                              const SubmitResult& result,
                                              const Rejection& rejection) {
      const auto now = std::chrono::steady_clock::now();
      const double total_ms =
          std::chrono::duration<double, std::milli>(now - sent).count();
      ++answered;
      const bool dequeued =
          ok || rejection.code == ErrorCode::kDeadlineExpired;
      if (ok || (!tenant.empty() && dequeued)) {
        std::lock_guard<std::mutex> lock(sample_mutex);
        if (ok) {
          out.latency_ms.push_back(total_ms);
          out.queue_ms.push_back(result.queue_ms);
          out.makespan_sum += static_cast<double>(result.makespan);
        }
        if (!tenant.empty() && dequeued) {
          TenantTrack& track = out.tenant_track[tenant];
          ++track.dequeues;
          if (track.seen) {
            const double gap_ms =
                std::chrono::duration<double, std::milli>(now - track.last)
                    .count();
            if (gap_ms > track.max_gap_ms) track.max_gap_ms = gap_ms;
          }
          track.seen = true;
          track.last = now;
          if (ok) track.latency_ms.push_back(total_ms);
        }
      }
    });
    ++submitted;
  }
  service.shutdown();  // drain: every admitted request gets its answer
  out.elapsed_s = bench::seconds_since(bench_start);
  out.submitted = submitted;
  out.answered = answered.load();
  out.c = service.counters();
  out.counters_json = service.counters_json();

  // Invariant: nothing vanished — every submission was answered exactly
  // once (placed, structurally rejected, or cancelled).
  const std::int64_t accounted =
      out.c.placed + out.c.rejected_total() + out.c.cancelled;
  out.lost_requests =
      accounted != out.c.submitted || out.answered != out.submitted;
  return out;
}

void print_outcome(const LoadOutcome& out) {
  const ServiceCounters& c = out.c;
  const std::int64_t shed_total =
      c.rejected_queue_full + c.rejected_quota_exceeded;
  const double shed_rate =
      c.submitted > 0 ? static_cast<double>(shed_total) / c.submitted : 0.0;
  std::printf("submitted %lld in %.2fs (%.1f jobs/s offered)\n",
              static_cast<long long>(c.submitted), out.elapsed_s,
              c.submitted / out.elapsed_s);
  std::printf("placed %lld (%.1f jobs/s served), answered %lld\n",
              static_cast<long long>(c.placed), out.jobs_per_sec(),
              static_cast<long long>(out.answered));
  std::printf("shed %lld (%.1f%%: queue_full %lld + quota %lld), "
              "expired-in-queue %lld, shutdown %lld\n",
              static_cast<long long>(shed_total), 100.0 * shed_rate,
              static_cast<long long>(c.rejected_queue_full),
              static_cast<long long>(c.rejected_quota_exceeded),
              static_cast<long long>(c.rejected_deadline_expired),
              static_cast<long long>(c.rejected_shutting_down));
  std::printf("degraded: reduced %lld, heuristic %lld, "
              "search fallbacks %lld, deadline cutoffs %lld\n",
              static_cast<long long>(c.degraded_reduced),
              static_cast<long long>(c.degraded_heuristic),
              static_cast<long long>(c.search_degradations),
              static_cast<long long>(c.search_deadline_cutoffs));
  if (!out.latency_ms.empty()) {
    std::printf("latency ms: p50 %.2f  p99 %.2f  (queue p50 %.2f p99 %.2f)\n",
                percentile(out.latency_ms, 50), percentile(out.latency_ms, 99),
                percentile(out.queue_ms, 50), percentile(out.queue_ms, 99));
  }
  if (c.search_forwards > 0) {
    std::printf("inference: %lld forwards (%.1f/s), batch rows mean %.2f "
                "p50 %.0f p99 %.0f\n",
                static_cast<long long>(c.search_forwards),
                out.forwards_per_sec(), out.mean_batch_rows(),
                hist_percentile(c.forward_hist, 50.0),
                hist_percentile(c.forward_hist, 99.0));
  }
  if (c.placed > 0) {
    std::printf("mean makespan of placed jobs: %.2f\n", out.mean_makespan());
  }
  if (out.lost_requests) {
    std::fprintf(
        stderr, "ERROR: %lld submitted but only %lld accounted / %lld answered\n",
        static_cast<long long>(c.submitted),
        static_cast<long long>(c.placed + c.rejected_total() + c.cancelled),
        static_cast<long long>(out.answered));
  } else {
    std::printf("all %lld requests answered (zero lost)\n",
                static_cast<long long>(c.submitted));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  auto jobs = flags.define_int("jobs", 200, "total requests to submit");
  auto duration_s = flags.define_int(
      "duration-s", 0,
      "run for this many seconds instead of a fixed --jobs count");
  auto rate = flags.define_double(
      "rate", 0.0,
      "arrival rate in jobs/sec; 0 = calibrate to service capacity");
  auto rate_multiplier = flags.define_double(
      "rate-multiplier", 1.0,
      "scale the (calibrated or explicit) arrival rate; 2 = overload soak");
  auto workers = flags.define_int("workers", 2, "service workers");
  auto queue_cap = flags.define_int("queue-cap", 32, "admission queue cap");
  auto budget_ms =
      flags.define_int("budget-ms", 50, "per-request deadline budget");
  auto iterations =
      flags.define_int("iterations", 200, "full search iteration budget");
  auto min_iterations =
      flags.define_int("min-iterations", 50, "minimum iteration budget");
  auto tasks = flags.define_int("tasks", 12, "tasks per generated DAG");
  auto pool_size =
      flags.define_int("dag-pool", 24, "distinct DAGs cycled through");
  auto seed = flags.define_int("seed", 42, "RNG seed (DAGs and arrivals)");
  auto guide = flags.define_string(
      "guide", "drl",
      "search guide: drl = untrained paper-topology policy network (real "
      "inference on the serve path), none = unguided MCTS");
  auto two_tenant = flags.define_bool(
      "two-tenant", false,
      "fairness scenario: two weighted tenants with skewed arrivals");
  auto tenant_weights = flags.define_string(
      "tenant-weights", "3,1", "DRR weights for tenants a,b (--two-tenant)");
  auto skew = flags.define_double(
      "skew", 0.35,
      "tenant a's share of ARRIVALS (--two-tenant); the rest goes to b");
  bench::ObsFlags obs_flags(flags);
  try {
    flags.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n%s", e.what(),
                 flags.usage("bench_service_load").c_str());
    return 2;
  }
  obs_flags.install();

  if (*guide != "drl" && *guide != "none") {
    std::fprintf(stderr, "--guide must be drl or none\n");
    return 2;
  }

  // Workload: the paper's random layered DAGs, pre-rendered to protocol
  // text once so the submit path (parse + validate + search) is measured,
  // not the generator.
  const std::vector<Dag> pool = bench::simulation_workload(
      static_cast<std::size_t>(*pool_size), static_cast<std::size_t>(*tasks),
      static_cast<std::uint64_t>(*seed));
  std::vector<std::string> pool_text;
  pool_text.reserve(pool.size());
  for (const Dag& dag : pool) pool_text.push_back(dag_to_text(dag));

  ServiceOptions options;
  options.workers = static_cast<int>(*workers);
  options.limits.queue_capacity = static_cast<std::size_t>(*queue_cap);
  options.default_budget_ms = *budget_ms;
  options.search_iterations = *iterations;
  options.min_iterations = *min_iterations;
  options.seed = static_cast<std::uint64_t>(*seed);
  if (*guide == "drl") {
    // Untrained paper-topology network (same construction as bench_micro):
    // inference cost and batch shapes match the trained policy exactly —
    // weights change WHAT is computed, not how much.
    Rng policy_rng(6);
    options.policy = std::make_shared<const Policy>(
        Policy::make(FeaturizerOptions{}, options.capacity.dims(),
                     policy_rng));
  }

  double weight_a = 3.0;
  double weight_b = 1.0;
  if (*two_tenant) {
    if (!parse_weight_pair(*tenant_weights, &weight_a, &weight_b)) {
      std::fprintf(stderr, "bad --tenant-weights '%s' (want e.g. 3,1)\n",
                   tenant_weights->c_str());
      return 2;
    }
    if (*skew <= 0.0 || *skew >= 1.0) {
      std::fprintf(stderr, "--skew must be in (0,1)\n");
      return 2;
    }
    // Reserve half the queue per tenant so the chattier tenant cannot crowd
    // the other out of the shared queue at admission; DRR then decides who
    // gets served, and excess arrivals shed with quota_exceeded.
    TenantLimits limits;
    limits.max_queued =
        std::max<std::size_t>(1, static_cast<std::size_t>(*queue_cap) / 2);
    limits.weight = weight_a;
    options.tenant_overrides["a"] = limits;
    limits.weight = weight_b;
    options.tenant_overrides["b"] = limits;
  }

  // Calibrate on a throwaway service: serve a few requests to estimate the
  // service rate, then drive arrivals at rate x multiplier.
  double arrival_rate = *rate;
  if (arrival_rate <= 0.0) {
    SchedulerService calibrator(options);
    calibrator.start();
    const auto t0 = std::chrono::steady_clock::now();
    const int calibration_jobs = 10;
    std::atomic<int> done{0};
    for (int i = 0; i < calibration_jobs; ++i) {
      SubmitRequest request;
      request.id = "cal" + std::to_string(i);
      request.dag_text = pool_text[static_cast<std::size_t>(i) %
                                   pool_text.size()];
      request.budget_ms = *budget_ms;
      calibrator.submit(request, [&done](bool, const SubmitResult&,
                                         const Rejection&) { ++done; });
    }
    while (done.load() < calibration_jobs) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const double elapsed = bench::seconds_since(t0);
    calibrator.shutdown();
    arrival_rate = elapsed > 0 ? calibration_jobs / elapsed : 100.0;
    std::printf("calibrated service rate: %.1f jobs/s\n", arrival_rate);
  }
  if (*two_tenant && *jobs == 200 && *duration_s == 0) {
    // Share measurement needs the startup/drain transients amortized away;
    // the stock 200-job run is over in well under a second.
    *jobs = 2000;
  }
  double multiplier = *rate_multiplier;
  if (*two_tenant && multiplier <= 1.0) {
    // Fair shares are only defined under contention: BOTH tenants must
    // offer more than their weight share of capacity.  4x total with a
    // 0.35/0.65 split gives a 1.4x and b 2.6x — both saturating.
    multiplier = 4.0;
  }
  arrival_rate *= multiplier;
  std::printf("arrival rate: %.1f jobs/s (x%.2g)\n", arrival_rate, multiplier);
  if (*two_tenant) {
    std::printf("two-tenant: weights a=%.2f b=%.2f, arrival split "
                "a=%.0f%% b=%.0f%%\n",
                weight_a, weight_b, 100.0 * *skew, 100.0 * (1.0 - *skew));
  }

  LoadParams params;
  params.options = options;
  params.pool_text = &pool_text;
  params.jobs = *jobs;
  params.duration_s = *duration_s;
  params.arrival_rate = arrival_rate;
  params.budget_ms = *budget_ms;
  params.seed = static_cast<std::uint64_t>(*seed);
  params.two_tenant = *two_tenant;
  params.skew = *skew;

  const LoadOutcome out = run_load(params);
  std::printf("\n");
  print_outcome(out);
  if (out.lost_requests) return 1;

  if (*two_tenant) {
    std::printf("\nper-tenant (weights a=%.2f b=%.2f):\n", weight_a, weight_b);
    for (const std::string name : {"a", "b"}) {
      const auto track_it = out.tenant_track.find(name);
      const TenantTrack track =
          track_it != out.tenant_track.end() ? track_it->second : TenantTrack{};
      TenantCounters slice;
      const auto it = out.c.tenants.find(name);
      if (it != out.c.tenants.end()) slice = it->second;
      std::printf("  %s: submitted %lld placed %lld shed %lld dequeued %lld",
                  name.c_str(), static_cast<long long>(slice.submitted),
                  static_cast<long long>(slice.placed),
                  static_cast<long long>(slice.shed),
                  static_cast<long long>(track.dequeues));
      if (!track.latency_ms.empty()) {
        std::printf("  latency p50 %.2f p99 %.2f ms",
                    percentile(track.latency_ms, 50),
                    percentile(track.latency_ms, 99));
      }
      std::printf("  max-starvation %.1f ms\n", track.max_gap_ms);
    }

    const auto dequeues = [&](const char* name) {
      const auto it = out.tenant_track.find(name);
      return it != out.tenant_track.end()
                 ? static_cast<double>(it->second.dequeues)
                 : 0.0;
    };
    const double dequeues_a = dequeues("a");
    const double dequeues_b = dequeues("b");
    if (dequeues_a + dequeues_b <= 0.0) {
      std::fprintf(stderr, "ERROR: no two-tenant dequeues recorded\n");
      return 1;
    }
    const double measured = dequeues_a / (dequeues_a + dequeues_b);
    const double expected = weight_a / (weight_a + weight_b);
    std::printf("service share a: measured %.3f, weight share %.3f "
                "(tolerance 0.10)\n",
                measured, expected);
    if (std::fabs(measured - expected) > 0.10) {
      std::fprintf(stderr,
                   "ERROR: measured share %.3f deviates more than 0.10 "
                   "from weight share %.3f\n",
                   measured, expected);
      return 1;
    }
    std::printf("fairness check passed\n");
  }

  if (obs_flags.enabled()) {
    const ServiceCounters& c = out.c;
    const std::int64_t shed_total =
        c.rejected_queue_full + c.rejected_quota_exceeded;
    obs::RunReport report("bench_service_load");
    report.set_json("service", out.counters_json);
    report.set("shed_rate", c.submitted > 0 ? static_cast<double>(shed_total) /
                                                  c.submitted
                                            : 0.0);
    report.set("jobs_per_sec", out.jobs_per_sec());
    report.set("forwards_per_sec", out.forwards_per_sec());
    if (!out.latency_ms.empty()) {
      report.set("latency_p50_ms", percentile(out.latency_ms, 50));
      report.set("latency_p99_ms", percentile(out.latency_ms, 99));
    }
    obs_flags.finish(report);
  }
  return 0;
}
