// SchedulerService: the in-process heart of the scheduling daemon
// (DESIGN.md §12–§13) — transport-free so frontends (stdio/socket) and the
// load bench drive the same code.
//
// Architecture (modeled on the GameServer / GameServerProxy split the
// ROADMAP cites): frontends parse the wire protocol and call submit();
// admission validates and either rejects structurally (invalid_dag /
// unschedulable / too_large), sheds (queue_full / quota_exceeded with
// retry-after), or enqueues into the multi-tenant fair queue
// (svc/admission.h).  N service workers — one thread each, started by
// start() — pop jobs in weighted-fair order and serve each within its
// remaining deadline via a degradation ladder:
//
//   rung 0 "search"     remaining >= full_search_floor_ms: anytime MCTS at
//                       the full iteration budget, wall-clock capped to the
//                       remaining deadline
//   rung 1 "reduced"    remaining < full_search_floor_ms: same search at
//                       the minimum iteration budget
//   rung 2 "heuristic"  remaining < heuristic_floor_ms: the CP x Tetris
//                       heuristic policy, no search at all
//   (expired)           remaining <= 0: structured deadline_expired
//                       rejection — the budget died in the queue
//
// Every rung below 0 counts as a degradation; the anytime search's own
// internal fallback (no iteration finished before the deadline) is counted
// on top (search_degradations).  Each worker owns ONE MctsScheduler and one
// guide clone for its whole life, so the guide's inference buffers and the
// network's ForwardWorkspace warm up once and are reused across requests;
// requests only retarget the budgets (set_anytime_budgets).
//
// Cancellation: cancel() withdraws a submit.  A queued job is removed and
// its responder answered `cancelled`; an in-flight job's token is set so
// the worker's search cuts off at the next anytime checkpoint and the
// worker answers `cancelled` (best-effort: a search past its last
// checkpoint still answers placed, and the cancel reports not_found once
// the outcome was delivered).
//
// Accounting: every submit ends in exactly one of {placed, rejected,
// cancelled} — the ledger records each (submitted, outcome) transition
// under one mutex, so the reconciliation invariant
//
//   submitted == placed + rejected_total + cancelled + in_flight
//
// holds EXACTLY in every counters() snapshot, not just at quiescence
// (in_flight counts admitted jobs still queued or being served).  Frontend-
// answered rejections (bad_request / too_large before parsing) flow through
// count_rejection(), which charges both sides of the invariant.
//
// Isolation: a request that throws anything produces an `internal` error
// response for THAT request; the worker, the queue, and other tenants'
// searches are untouched.  Worker state is per-worker and the MCTS
// transposition/rollout caches are cleared per schedule() call, so no state
// leaks between jobs.
//
// Shutdown: begin_drain() stops admission (submit => shutting_down);
// shutdown() additionally waits until the queue and all in-flight searches
// drain, then joins the workers.  The daemon drives this from the SIGTERM
// stop flag (common/supervisor.h).

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/spear.h"
#include "svc/admission.h"
#include "svc/protocol.h"

namespace spear::svc {

struct ServiceOptions {
  /// Cluster capacity every job is scheduled against.
  ResourceVector capacity{1.0, 1.0};
  /// Concurrent service workers (one search in flight per worker).
  int workers = 2;
  AdmissionLimits limits;
  /// Fair-queueing: limits applied to tenants without an override, named
  /// per-tenant overrides, and the high lane's dequeue share (see
  /// FairQueueOptions::high_lane_share).
  TenantLimits tenant_defaults;
  std::map<std::string, TenantLimits> tenant_overrides;
  double high_lane_share = 0.75;
  /// DRR cost accounting: kUnit = fair in requests (classic), kTasks =
  /// fair in tasks (job-size-aware; --tenant-cost-mode=tasks).
  CostMode tenant_cost_mode = CostMode::kUnit;
  /// Per-request deadline defaults/caps: a submit without budget_ms gets
  /// default_budget_ms; explicit budgets are clamped to max_budget_ms.
  std::int64_t default_budget_ms = 100;
  std::int64_t max_budget_ms = 10'000;
  /// Search iteration budgets (MctsOptions initial/min; Eq. 4).
  std::int64_t search_iterations = 400;
  std::int64_t min_iterations = 100;
  /// Degradation ladder thresholds (see header comment).
  std::int64_t full_search_floor_ms = 20;
  std::int64_t heuristic_floor_ms = 4;
  /// Optional trained DRL guide (Spear).  Null = unguided MCTS.
  std::shared_ptr<const Policy> policy;
  std::uint64_t seed = 42;
};

/// Per-tenant slice of the service counters.
struct TenantCounters {
  std::int64_t submitted = 0;  ///< submits charged to this tenant
  std::int64_t placed = 0;
  /// Load-shed submits (queue_full + quota_exceeded).
  std::int64_t shed = 0;
  std::int64_t cancelled = 0;
};

/// Plain snapshot of the service counters (see counters_json for the wire
/// form).  All counts are since service construction, taken under the
/// ledger mutex so the reconciliation invariant (header comment) is exact.
struct ServiceCounters {
  std::int64_t submitted = 0;
  std::int64_t admitted = 0;
  std::int64_t placed = 0;
  std::int64_t cancelled = 0;
  /// Admitted jobs not yet resolved (queued or being served).
  std::int64_t in_flight = 0;
  std::int64_t rejected_bad_request = 0;
  std::int64_t rejected_invalid_dag = 0;
  std::int64_t rejected_unschedulable = 0;
  std::int64_t rejected_too_large = 0;
  std::int64_t rejected_queue_full = 0;
  std::int64_t rejected_quota_exceeded = 0;
  std::int64_t rejected_deadline_expired = 0;
  std::int64_t rejected_shutting_down = 0;
  std::int64_t rejected_internal = 0;
  std::int64_t degraded_reduced = 0;
  std::int64_t degraded_heuristic = 0;
  /// Anytime-search internal fallbacks (stats.degradations) and deadline
  /// truncations (stats.deadline_cutoffs) summed over served requests.
  std::int64_t search_degradations = 0;
  std::int64_t search_deadline_cutoffs = 0;
  /// PHYSICAL network kernel invocations and rows summed over answered
  /// searches (batched evaluations and single-row guide calls alike), with
  /// the batch-occupancy histogram (forward_hist[w] = forwards that scored
  /// exactly w states).
  std::int64_t search_forwards = 0;
  std::int64_t search_forward_rows = 0;
  std::vector<std::int64_t> forward_hist;
  /// Cancel-request outcomes (not part of the submit invariant).
  std::int64_t cancel_queued = 0;
  std::int64_t cancel_in_flight = 0;
  std::int64_t cancel_not_found = 0;
  /// Per-tenant slices (submits only), keyed by resolved tenant name.
  std::map<std::string, TenantCounters> tenants;

  std::int64_t rejected_total() const {
    return rejected_bad_request + rejected_invalid_dag +
           rejected_unschedulable + rejected_too_large + rejected_queue_full +
           rejected_quota_exceeded + rejected_deadline_expired +
           rejected_shutting_down + rejected_internal;
  }
  /// Requests answered below rung 0 (any degradation ladder step).
  std::int64_t degraded_total() const {
    return degraded_reduced + degraded_heuristic;
  }
};

class SchedulerService {
 public:
  /// Delivers one request's outcome: exactly one of (ok, result) /
  /// (!ok, rejection) — invoked from a worker thread for served jobs, or
  /// synchronously from the submitting thread for admission rejections.
  using Responder =
      std::function<void(bool ok, const SubmitResult& result,
                         const Rejection& rejection)>;

  explicit SchedulerService(ServiceOptions options);
  /// Calls shutdown() if still running.
  ~SchedulerService();

  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  /// Spawns the worker loops.  Idempotent.
  void start();

  /// Admits or rejects `request`; the verdict (and later the result) is
  /// delivered through `respond`.  Thread-safe; never throws — every
  /// failure becomes a structured rejection.
  void submit(const SubmitRequest& request, Responder respond);

  /// Withdraws the submit with the same (tenant, id).  kQueued: the job was
  /// removed and its responder was answered `cancelled` before this
  /// returns.  kInFlight: the serving worker was signalled and will answer
  /// `cancelled` (best-effort).  kNotFound: no such submit is pending.
  /// Thread-safe.
  CancelState cancel(const std::string& tenant, const std::string& id);

  /// Stops admission: every later submit is rejected shutting_down.
  /// Already-queued and in-flight jobs still complete (drain semantics).
  void begin_drain();
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  /// begin_drain() + wait for queue and in-flight searches to finish +
  /// join the workers.  Idempotent.
  void shutdown();

  ServiceCounters counters() const;
  /// Counters as a JSON object (the `stats` response body, also embedded in
  /// the daemon's RunReport).  Includes a per-tenant breakdown with live
  /// queue depths.
  std::string counters_json() const;
  /// Lets frontends count protocol-level rejections (bad_request on a parse
  /// failure, too_large on an oversized line) they answered themselves, so
  /// the stats stay one source of truth.  Charges both `submitted` and the
  /// rejection, keeping the reconciliation invariant exact.
  void count_rejection(ErrorCode code);

  std::size_t queue_depth() const { return queue_.size(); }
  const ServiceOptions& options() const { return options_; }

 private:
  struct Worker;
  /// All invariant-bearing counters behind ONE mutex: every transition
  /// updates both sides (submitted + outcome, or outcome + in_flight)
  /// atomically, so no snapshot can observe a half-applied submit.
  struct Ledger;

  void worker_loop(Worker& worker);
  void serve(Worker& worker, Job& job);
  /// Records a terminal worker-side rejection for `job` in the ledger and
  /// answers the responder.
  void reject_in_flight(Job& job, const Rejection& rejection);

  ServiceOptions options_;
  AdmissionQueue queue_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::future<void>> worker_done_;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};

  std::unique_ptr<Ledger> ledger_;
};

}  // namespace spear::svc
