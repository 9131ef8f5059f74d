// Multi-tenant fair admission (DESIGN.md §13): deficit-round-robin weighted
// shares, priority-lane anti-starvation, per-tenant quotas and in-flight
// caps, cancellation across every request state, and the exactness of the
// stats reconciliation invariant under concurrent load.

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dag/io.h"
#include "support/builders.h"
#include "svc/json.h"
#include "svc/service.h"

namespace spear::svc {
namespace {

Job make_job(const std::string& tenant, const std::string& id,
             bool high_priority = false) {
  Job job;
  job.id = id;
  job.tenant = tenant;
  job.high_priority = high_priority;
  job.arrival = std::chrono::steady_clock::now();
  job.deadline = job.arrival + std::chrono::seconds(10);
  return job;
}

// --- deficit round robin ------------------------------------------------

TEST(SvcFairness, WeightedSharesConvergeUnderBacklog) {
  FairQueueOptions fair;
  fair.capacity = 300;
  fair.per_tenant["a"].weight = 3.0;
  fair.per_tenant["b"].weight = 1.0;
  AdmissionQueue queue(fair);
  for (int i = 0; i < 120; ++i) {
    ASSERT_EQ(queue.try_push(make_job("a", "a" + std::to_string(i))),
              std::nullopt);
    ASSERT_EQ(queue.try_push(make_job("b", "b" + std::to_string(i))),
              std::nullopt);
  }

  std::map<std::string, int> served;
  const int pops = 80;
  for (int i = 0; i < pops; ++i) {
    Job out;
    ASSERT_TRUE(queue.pop(out));
    ++served[out.tenant];
    queue.on_done(out);
  }
  // Weights 3:1 over a saturated backlog: a gets 3/4 of the dequeues.
  const double share_a = static_cast<double>(served["a"]) / pops;
  EXPECT_NEAR(share_a, 0.75, 0.05)
      << "a=" << served["a"] << " b=" << served["b"];
}

TEST(SvcFairness, FractionalWeightsBankDeficitAcrossRounds) {
  FairQueueOptions fair;
  fair.capacity = 200;
  fair.per_tenant["slow"].weight = 0.5;  // needs two ring visits per job
  fair.per_tenant["fast"].weight = 1.0;
  AdmissionQueue queue(fair);
  for (int i = 0; i < 60; ++i) {
    ASSERT_EQ(queue.try_push(make_job("slow", "s" + std::to_string(i))),
              std::nullopt);
    ASSERT_EQ(queue.try_push(make_job("fast", "f" + std::to_string(i))),
              std::nullopt);
  }
  std::map<std::string, int> served;
  for (int i = 0; i < 60; ++i) {
    Job out;
    ASSERT_TRUE(queue.pop(out));
    ++served[out.tenant];
    queue.on_done(out);
  }
  // 0.5 : 1.0 weights -> a 1/3 : 2/3 split.
  EXPECT_NEAR(static_cast<double>(served["slow"]) / 60, 1.0 / 3.0, 0.05);
}

TEST(SvcFairness, HighLaneIsCappedSoNormalCannotStarve) {
  FairQueueOptions fair;
  fair.capacity = 300;
  fair.high_lane_share = 0.75;  // 3 high pops per forced normal pop
  AdmissionQueue queue(fair);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(
        queue.try_push(make_job("h", "h" + std::to_string(i), /*high=*/true)),
        std::nullopt);
    ASSERT_EQ(queue.try_push(make_job("n", "n" + std::to_string(i))),
              std::nullopt);
  }
  int normal_served = 0;
  int max_wait = 0, wait = 0;  // consecutive high pops while normal waits
  for (int i = 0; i < 40; ++i) {
    Job out;
    ASSERT_TRUE(queue.pop(out));
    if (out.high_priority) {
      max_wait = std::max(max_wait, ++wait);
    } else {
      wait = 0;
      ++normal_served;
    }
    queue.on_done(out);
  }
  // With share 0.75 both lanes saturated: exactly every 4th pop is normal,
  // and normal work never waits behind more than 3 consecutive high pops.
  EXPECT_EQ(normal_served, 10);
  EXPECT_LE(max_wait, 3);
}

TEST(SvcFairness, HighLanePreemptsWhenNormalIsIdle) {
  AdmissionQueue queue(FairQueueOptions{});
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(
        queue.try_push(make_job("t", "h" + std::to_string(i), /*high=*/true)),
        std::nullopt);
  }
  // No normal work: the run cap never bites (it only counts pops that made
  // normal work wait).
  for (int i = 0; i < 5; ++i) {
    Job out;
    ASSERT_TRUE(queue.pop(out));
    EXPECT_TRUE(out.high_priority);
    queue.on_done(out);
  }
  ASSERT_EQ(queue.try_push(make_job("t", "n0")), std::nullopt);
  Job out;
  ASSERT_TRUE(queue.pop(out));
  EXPECT_EQ(out.id, "n0");
  queue.on_done(out);
}

// --- job-size-aware DRR costs (--tenant-cost-mode=tasks) ----------------

Job make_sized_job(const std::string& tenant, const std::string& id,
                   std::size_t tasks) {
  Job job = make_job(tenant, id);
  job.dag = std::make_shared<const Dag>(testing::make_independent(tasks, 3));
  return job;
}

TEST(SvcFairness, TaskCostModeEqualizesTasksNotRequests) {
  // "small" submits 4-task jobs, "big" submits 16-task jobs, equal weights.
  // Under kTasks a dequeue costs its task count, so both tenants receive
  // the same TASK throughput: 4 small jobs per big one.
  FairQueueOptions fair;
  fair.capacity = 200;
  fair.cost_mode = CostMode::kTasks;
  AdmissionQueue queue(fair);
  for (int i = 0; i < 60; ++i) {
    ASSERT_EQ(
        queue.try_push(make_sized_job("small", "s" + std::to_string(i), 4)),
        std::nullopt);
    ASSERT_EQ(
        queue.try_push(make_sized_job("big", "b" + std::to_string(i), 16)),
        std::nullopt);
  }
  std::map<std::string, long long> jobs, tasks;
  for (int i = 0; i < 30; ++i) {
    Job out;
    ASSERT_TRUE(queue.pop(out));
    ASSERT_TRUE(out.dag);
    ++jobs[out.tenant];
    tasks[out.tenant] += static_cast<long long>(out.dag->num_tasks());
    queue.on_done(out);
  }
  // Task throughput balances to within one big job's worth of quanta.
  EXPECT_LE(std::abs(tasks["small"] - tasks["big"]), 16)
      << "small " << tasks["small"] << " tasks / " << jobs["small"]
      << " jobs, big " << tasks["big"] << " tasks / " << jobs["big"]
      << " jobs";
  // ...which means small gets ~4x the REQUEST rate.
  EXPECT_GE(jobs["small"], 3 * jobs["big"]);
}

TEST(SvcFairness, UnitCostModeIgnoresJobSize) {
  // The default mode stays request-fair even when dags are attached: the
  // same workload as above splits dequeues 50/50 regardless of DAG size.
  FairQueueOptions fair;
  fair.capacity = 200;  // cost_mode defaults to kUnit
  AdmissionQueue queue(fair);
  for (int i = 0; i < 40; ++i) {
    ASSERT_EQ(
        queue.try_push(make_sized_job("small", "s" + std::to_string(i), 4)),
        std::nullopt);
    ASSERT_EQ(
        queue.try_push(make_sized_job("big", "b" + std::to_string(i), 16)),
        std::nullopt);
  }
  std::map<std::string, int> served;
  for (int i = 0; i < 40; ++i) {
    Job out;
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out.cost, 1.0);  // unit mode never charges by size
    ++served[out.tenant];
    queue.on_done(out);
  }
  EXPECT_EQ(served["small"], 20);
  EXPECT_EQ(served["big"], 20);
}

// --- quotas and in-flight caps ------------------------------------------

TEST(SvcFairness, TenantQuotaShedsWithoutTouchingOtherTenants) {
  FairQueueOptions fair;
  fair.capacity = 10;
  fair.per_tenant["capped"].max_queued = 2;
  AdmissionQueue queue(fair);

  ASSERT_EQ(queue.try_push(make_job("capped", "c1")), std::nullopt);
  ASSERT_EQ(queue.try_push(make_job("capped", "c2")), std::nullopt);
  const auto verdict = queue.try_push(make_job("capped", "c3"));
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->code, ErrorCode::kQuotaExceeded);
  EXPECT_GE(verdict->retry_after_ms, 1);
  EXPECT_EQ(queue.shed_count(), 1);

  // The quota charged ONLY the offender; another tenant is still admitted.
  EXPECT_EQ(queue.try_push(make_job("other", "o1")), std::nullopt);
  EXPECT_EQ(queue.tenant_depth("capped"), 2u);
  EXPECT_EQ(queue.tenant_depth("other"), 1u);

  // The global bound still answers queue_full, not quota_exceeded.
  FairQueueOptions tiny;
  tiny.capacity = 1;
  AdmissionQueue global(tiny);
  ASSERT_EQ(global.try_push(make_job("t", "g1")), std::nullopt);
  const auto full = global.try_push(make_job("t", "g2"));
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->code, ErrorCode::kQueueFull);
}

TEST(SvcFairness, InFlightCapDefersUntilOnDone) {
  FairQueueOptions fair;
  fair.capacity = 10;
  fair.per_tenant["a"].max_in_flight = 1;
  AdmissionQueue queue(fair);
  ASSERT_EQ(queue.try_push(make_job("a", "a1")), std::nullopt);
  ASSERT_EQ(queue.try_push(make_job("a", "a2")), std::nullopt);
  ASSERT_EQ(queue.try_push(make_job("b", "b1")), std::nullopt);

  Job first, second, third;
  ASSERT_TRUE(queue.pop(first));
  EXPECT_EQ(first.id, "a1");
  // a is at its in-flight cap: the next pop skips a2 and serves b.
  ASSERT_TRUE(queue.pop(second));
  EXPECT_EQ(second.id, "b1");
  // a2 only becomes eligible once a1's slot is released.
  queue.on_done(first);
  ASSERT_TRUE(queue.pop(third));
  EXPECT_EQ(third.id, "a2");
  queue.on_done(second);
  queue.on_done(third);
}

// --- cancellation at the queue level ------------------------------------

TEST(SvcCancel, QueueRemovesQueuedAndFlagsInFlight) {
  AdmissionQueue queue(8);
  ASSERT_EQ(queue.try_push(make_job("t", "j1")), std::nullopt);
  ASSERT_EQ(queue.try_push(make_job("t", "j2")), std::nullopt);

  Job removed;
  EXPECT_EQ(queue.cancel("t", "nope", removed), CancelState::kNotFound);
  EXPECT_EQ(queue.cancel("other", "j1", removed), CancelState::kNotFound);

  ASSERT_EQ(queue.cancel("t", "j1", removed), CancelState::kQueued);
  EXPECT_EQ(removed.id, "j1");
  EXPECT_EQ(queue.size(), 1u);

  Job out;
  ASSERT_TRUE(queue.pop(out));
  EXPECT_EQ(out.id, "j2");
  EXPECT_FALSE(out.cancelled->load());
  Job unused;
  EXPECT_EQ(queue.cancel("t", "j2", unused), CancelState::kInFlight);
  EXPECT_TRUE(out.cancelled->load());  // token reaches the popped copy
  queue.on_done(out);
  // Once released, the id is gone entirely.
  EXPECT_EQ(queue.cancel("t", "j2", unused), CancelState::kNotFound);
}

// --- service-level cancellation -----------------------------------------

struct Outcome {
  bool ok = false;
  SubmitResult result;
  Rejection rejection;
};

SubmitRequest chain_request(const std::string& id,
                            const std::string& tenant = "") {
  SubmitRequest request;
  request.id = id;
  request.tenant = tenant;
  request.dag_text = dag_to_text(testing::make_chain({3, 3, 3, 3}));
  return request;
}

std::shared_ptr<std::promise<Outcome>> submit_async(SchedulerService& service,
                                                    SubmitRequest request) {
  auto promise = std::make_shared<std::promise<Outcome>>();
  service.submit(request, [promise](bool ok, const SubmitResult& result,
                                    const Rejection& rejection) {
    promise->set_value(Outcome{ok, result, rejection});
  });
  return promise;
}

void expect_invariant(const ServiceCounters& c) {
  EXPECT_EQ(c.submitted,
            c.placed + c.rejected_total() + c.cancelled + c.in_flight);
}

TEST(SvcCancel, QueuedSubmitIsAnsweredCancelled) {
  ServiceOptions options;
  options.workers = 1;
  SchedulerService service(options);  // never started: the job stays queued

  auto promise = submit_async(service, chain_request("q1", "alice"));
  EXPECT_EQ(service.queue_depth(), 1u);

  EXPECT_EQ(service.cancel("alice", "q1"), CancelState::kQueued);
  const Outcome outcome = promise->get_future().get();
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.rejection.code, ErrorCode::kCancelled);

  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.cancelled, 1);
  EXPECT_EQ(counters.cancel_queued, 1);
  EXPECT_EQ(counters.in_flight, 0);
  EXPECT_EQ(counters.tenants.at("alice").cancelled, 1);
  expect_invariant(counters);
  EXPECT_EQ(service.queue_depth(), 0u);
}

TEST(SvcCancel, InFlightSearchIsCutOffEarly) {
  ServiceOptions options;
  options.workers = 1;
  // A search that would otherwise grind for seconds: huge iteration budget,
  // generous deadline.  The cancel token must cut it off at a checkpoint.
  options.search_iterations = 50'000'000;
  options.min_iterations = 100;
  options.max_budget_ms = 30'000;
  SchedulerService service(options);
  service.start();

  SubmitRequest request;
  request.id = "long";
  request.tenant = "bob";
  // A chain would be all FORCED decisions (one ready task each step — no
  // search at all); independent tasks give every decision a real search.
  request.dag_text = dag_to_text(testing::make_independent(10, 3));
  request.budget_ms = 20'000;
  auto promise = submit_async(service, request);
  // Wait for the worker to pick the job up (queued -> in flight).
  while (service.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto cancel_at = std::chrono::steady_clock::now();
  EXPECT_EQ(service.cancel("bob", "long"), CancelState::kInFlight);
  const Outcome outcome = promise->get_future().get();
  const double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - cancel_at)
          .count();
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.rejection.code, ErrorCode::kCancelled);
  // Best-effort but prompt: far sooner than the 20 s deadline.
  EXPECT_LT(waited_ms, 5000.0);

  service.shutdown();
  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.cancelled, 1);
  EXPECT_EQ(counters.cancel_in_flight, 1);
  expect_invariant(counters);
}

TEST(SvcCancel, ResolvedSubmitIsNotFound) {
  ServiceOptions options;
  options.workers = 1;
  options.search_iterations = 40;
  options.min_iterations = 20;
  SchedulerService service(options);
  service.start();

  const Outcome outcome =
      submit_async(service, chain_request("done", "carol"))
          ->get_future()
          .get();
  ASSERT_TRUE(outcome.ok);
  // The responder ran, but the worker may not have released the in-flight
  // slot yet — drain to make the not_found deterministic.
  service.shutdown();

  EXPECT_EQ(service.cancel("carol", "done"), CancelState::kNotFound);
  // Wrong tenant never matches another tenant's request either.
  EXPECT_EQ(service.cancel("mallory", "done"), CancelState::kNotFound);
  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.cancel_not_found, 2);
  EXPECT_EQ(counters.cancelled, 0);
  expect_invariant(counters);
}

TEST(SvcCancel, CancelsRacingDrainResolveEverySubmitExactlyOnce) {
  for (const int workers : {1, 2, 4}) {
    ServiceOptions options;
    options.workers = workers;
    options.search_iterations = 200;
    options.min_iterations = 50;
    SchedulerService service(options);
    service.start();

    const int jobs = 12;
    auto responses = std::make_shared<std::atomic<int>>(0);
    for (int i = 0; i < jobs; ++i) {
      service.submit(chain_request("r" + std::to_string(i), "t"),
                     [responses](bool, const SubmitResult&, const Rejection&) {
                       ++*responses;
                     });
    }
    // Cancel everything while the drain races the workers: every submit
    // must resolve exactly once, as placed or cancelled, never both/neither.
    std::thread canceller([&] {
      for (int i = 0; i < jobs; ++i) {
        service.cancel("t", "r" + std::to_string(i));
      }
    });
    service.begin_drain();
    canceller.join();
    service.shutdown();

    const ServiceCounters counters = service.counters();
    EXPECT_EQ(responses->load(), jobs) << "workers=" << workers;
    EXPECT_EQ(counters.submitted, jobs);
    EXPECT_EQ(counters.in_flight, 0);
    EXPECT_EQ(counters.placed + counters.cancelled +
                  counters.rejected_total(),
              jobs);
    expect_invariant(counters);
  }
}

// --- fairness through the full service ----------------------------------

TEST(SvcFairness, ServiceHonorsQuotasAndTenantCountersAcrossWorkerCounts) {
  for (const int workers : {1, 2, 4}) {
    ServiceOptions options;
    options.workers = workers;
    options.search_iterations = 40;
    options.min_iterations = 20;
    options.limits.queue_capacity = 64;
    options.tenant_overrides["greedy"].max_queued = 2;
    SchedulerService service(options);
    // Not started: submits park in the queue so the quota deterministically
    // binds, regardless of worker count.
    auto done = std::make_shared<std::atomic<int>>(0);
    std::atomic<int> quota_shed{0};
    for (int i = 0; i < 5; ++i) {
      service.submit(
          chain_request("g" + std::to_string(i), "greedy"),
          [done, &quota_shed](bool ok, const SubmitResult&,
                              const Rejection& rejection) {
            if (!ok && rejection.code == ErrorCode::kQuotaExceeded) {
              ++quota_shed;
            }
            ++*done;
          });
    }
    for (int i = 0; i < 3; ++i) {
      service.submit(chain_request("m" + std::to_string(i), "modest"),
                     [done](bool, const SubmitResult&, const Rejection&) {
                       ++*done;
                     });
    }
    service.start();
    service.shutdown();

    const ServiceCounters counters = service.counters();
    EXPECT_EQ(done->load(), 8) << "workers=" << workers;
    EXPECT_EQ(quota_shed.load(), 3);
    EXPECT_EQ(counters.rejected_quota_exceeded, 3);
    EXPECT_EQ(counters.tenants.at("greedy").submitted, 5);
    EXPECT_EQ(counters.tenants.at("greedy").shed, 3);
    EXPECT_EQ(counters.tenants.at("greedy").placed, 2);
    EXPECT_EQ(counters.tenants.at("modest").placed, 3);
    expect_invariant(counters);
  }
}

// --- the reconciliation invariant under fire ----------------------------

// Regression (torn stats reads): the pre-§13 counters were independent
// relaxed atomics with `submitted` bumped before the outcome was chosen, so
// a stats snapshot taken mid-submit saw submitted != placed + rejected +
// queued.  The ledger records (submitted, outcome) transitions under one
// mutex — the invariant must hold in EVERY snapshot, not just at rest.
TEST(SvcStatsHammer, InvariantHoldsInEverySnapshotUnderLoad) {
  ServiceOptions options;
  options.workers = 2;
  options.search_iterations = 60;
  options.min_iterations = 20;
  options.limits.queue_capacity = 4;  // small: force queue_full sheds
  options.tenant_overrides["noisy"].max_queued = 2;  // force quota sheds
  SchedulerService service(options);

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> violations{0};
  std::thread auditor([&] {
    while (!stop.load()) {
      const ServiceCounters c = service.counters();
      if (c.submitted !=
          c.placed + c.rejected_total() + c.cancelled + c.in_flight) {
        ++violations;
      }
      // Also audit the wire form: the JSON snapshot must reconcile too.
      const JsonValue stats = json_parse(service.counters_json());
      if (stats.at("submitted").as_number() !=
          stats.at("placed").as_number() +
              stats.at("rejected").at("total").as_number() +
              stats.at("cancelled").as_number() +
              stats.at("in_flight").as_number()) {
        ++violations;
      }
    }
  });

  auto answered = std::make_shared<std::atomic<int>>(0);
  const auto tally = [answered](bool, const SubmitResult&, const Rejection&) {
    ++*answered;
  };
  // Overfill before the workers start, so both shed kinds happen whatever
  // the relative speed of workers and submit loop: the third noisy submit
  // exceeds its quota of 2, and the third quiet one finds the queue (2
  // noisy + 2 quiet) full.
  const int prefill = 3;
  for (int i = 0; i < prefill; ++i) {
    service.submit(chain_request("n" + std::to_string(i), "noisy"), tally);
    service.submit(chain_request("q" + std::to_string(i), "quiet"), tally);
  }
  service.start();

  const int rounds = 120;
  for (int i = 0; i < rounds; ++i) {
    const std::string id = "h" + std::to_string(i);
    switch (i % 4) {
      case 0: service.submit(chain_request(id, "noisy"), tally); break;
      case 1: service.submit(chain_request(id, "quiet"), tally); break;
      case 2: {
        SubmitRequest bad;
        bad.id = id;
        bad.dag_text = "not a dag";
        service.submit(bad, tally);
        break;
      }
      case 3:
        service.submit(chain_request(id, "quiet"), tally);
        service.cancel("quiet", id);  // races queued/in-flight/placed
        break;
    }
  }
  service.shutdown();
  stop.store(true);
  auditor.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(answered->load(), rounds + 2 * prefill);
  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.in_flight, 0);
  EXPECT_GT(counters.rejected_queue_full, 0);
  EXPECT_GT(counters.rejected_quota_exceeded, 0);
  expect_invariant(counters);
}

}  // namespace
}  // namespace spear::svc
