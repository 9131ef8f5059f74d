// Admission control and multi-tenant fair queueing for the scheduling
// service (DESIGN.md §12–§13).
//
// Two gates stand between a client line and a search worker:
//
//  1. validate_job(): structural admission.  Payload/task-count caps bound
//     per-request memory, and a schedulability check rejects any job with a
//     task demand exceeding cluster capacity — such a task can NEVER be
//     placed, so entering a search would burn a worker until the deadline
//     only to fail.  Rejections are structured (too_large / unschedulable),
//     never exceptions.
//
//  2. AdmissionQueue: a bounded multi-tenant fair queue between frontends
//     and workers.  Every tenant owns a bounded sub-queue per priority
//     lane; admission charges the submitting tenant (quota_exceeded when
//     its quota is spent, queue_full when the GLOBAL bound is hit), and
//     workers dequeue by deficit-round-robin weighted fair queueing so a
//     chatty tenant cannot starve the others.  The high-priority lane is
//     served first but capped (high_lane_share) so saturating it cannot
//     starve the normal lane.  Shedding replies carry a retry-after hint
//     from an EWMA of observed service time, seeded from the configured
//     default budget so even the FIRST shed response backs clients off
//     (a zero hint is an invitation to a retry stampede).
//
//     Cancellation: cancel() removes a queued (tenant, id) — the Job is
//     handed back so the caller can answer its responder — or flips the
//     cancel token of an in-flight one for best-effort early search
//     cutoff.  Shutdown closes the queue: producers get shed
//     (shutting_down upstream) while consumers drain the remaining jobs,
//     still in fair order, before pop() returns false.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dag/dag.h"
#include "svc/protocol.h"

namespace spear::svc {

/// Caps applied before a request may enter the queue.
struct AdmissionLimits {
  std::size_t queue_capacity = 64;      ///< max queued (admitted) requests
  std::size_t max_tasks_per_job = 512;  ///< DAG size cap
  std::size_t max_line_bytes = 1 << 20; ///< wire payload cap per request
};

/// Structural + schedulability validation of a parsed DAG against the
/// cluster.  Returns std::nullopt when admissible, otherwise the structured
/// rejection to send (too_large / unschedulable / invalid_dag for a
/// capacity-dimension mismatch).
std::optional<Rejection> validate_job(const Dag& dag,
                                      const ResourceVector& capacity,
                                      const AdmissionLimits& limits);

/// One admitted unit of work, carrying everything a worker needs to answer
/// the client without touching shared state.
struct Job {
  std::string id;
  std::string tenant;         ///< resolved fair-queueing account (never "")
  bool high_priority = false; ///< admission lane
  std::shared_ptr<const Dag> dag;
  std::chrono::steady_clock::time_point arrival{};
  std::chrono::steady_clock::time_point deadline{};
  std::int64_t budget_ms = 0;      ///< resolved (server-clamped) budget
  std::int64_t iterations = 0;     ///< 0 = server default
  /// Best-effort cancel token, created at admission so a cancel can reach
  /// the job whether it is queued or already in a worker's search.
  std::shared_ptr<std::atomic<bool>> cancelled;
  /// Delivers the serialized outcome; invoked exactly once, from a worker
  /// thread (or the submitting thread for admission rejections upstream).
  std::function<void(bool ok, const SubmitResult&, const Rejection&)> respond;
  /// DRR cost of serving this job, in quanta (>= 1).  Stamped at admission
  /// from FairQueueOptions::cost_mode; 1.0 = the classic per-request DRR.
  double cost = 1.0;
};

/// Per-tenant fair-queueing configuration.
struct TenantLimits {
  /// Max requests this tenant may hold queued (both lanes combined);
  /// 0 = no per-tenant bound (the GLOBAL capacity is the only gate).
  std::size_t max_queued = 0;
  /// Max requests this tenant may have in workers concurrently; 0 = no cap.
  std::size_t max_in_flight = 0;
  /// Deficit-round-robin weight: service share relative to other
  /// backlogged tenants.  Clamped to [0.01, 100].
  double weight = 1.0;
};

/// What one dequeue "costs" a tenant in the DRR accounting.
enum class CostMode {
  /// Every request costs one quantum — fair in REQUESTS per tenant.  A
  /// tenant submitting huge DAGs gets the same request rate as one
  /// submitting tiny DAGs, and therefore far more worker time.
  kUnit,
  /// A request costs its task count in quanta — fair in TASKS (a proxy for
  /// search work, which scales with DAG size).  Tenants with equal weights
  /// then receive dequeues inversely proportional to their job sizes.
  kTasks,
};

/// AdmissionQueue construction options.
struct FairQueueOptions {
  std::size_t capacity = 64;  ///< global queued bound across all tenants
  /// Largest fraction of consecutive dequeues the high lane may take while
  /// the normal lane has eligible work; clamped to [0.10, 0.95].  High
  /// traffic beyond the share waits behind one normal dequeue per cycle.
  double high_lane_share = 0.75;
  /// EWMA cold-start seed for retry_after_ms hints, in milliseconds.  Seed
  /// this from the default request budget: before any job completes the
  /// EWMA would otherwise be zero and the first shed response would tell
  /// the client to retry IMMEDIATELY.
  double service_ms_seed = 100.0;
  TenantLimits default_limits;                   ///< applies to any tenant
  std::map<std::string, TenantLimits> per_tenant;  ///< named overrides
  /// Job-size-aware DRR costs; kUnit (default) is bit-identical to the
  /// pre-cost-mode accounting.
  CostMode cost_mode = CostMode::kUnit;
};

/// Outcome of AdmissionQueue::cancel.
enum class CancelState {
  kQueued,    ///< removed from the queue; the Job is returned
  kInFlight,  ///< token set; the serving worker answers `cancelled`
  kNotFound,  ///< neither queued nor in flight
};

/// Bounded MPMC multi-tenant weighted-fair queue.  All methods are
/// thread-safe.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(FairQueueOptions options);
  /// Single-tenant convenience (tests): global capacity only, defaults
  /// everywhere else.
  explicit AdmissionQueue(std::size_t capacity);

  /// Admits `job` unless its tenant's quota (quota_exceeded), the global
  /// capacity (queue_full), or shutdown (shutting_down) forbids it.
  /// Returns std::nullopt on success.  Shedding rejections carry a
  /// retry_after_ms hint from the service-time EWMA — nonzero even before
  /// the first completion (see FairQueueOptions::service_ms_seed).
  std::optional<Rejection> try_push(Job job);

  /// Blocks until an eligible job is available (true) or the queue is
  /// closed AND empty (false) — so closing drains: queued jobs are still
  /// handed out, still in fair order.  A tenant at its in-flight cap is
  /// skipped until on_done() releases a slot.  The popped job is recorded
  /// as in flight (for cancel() and the per-tenant cap) until on_done().
  bool pop(Job& out);

  /// Releases `job`'s in-flight slot after its outcome was delivered.
  /// Every successful pop() must be paired with exactly one on_done().
  void on_done(const Job& job);

  /// Cancels the queued or in-flight request (tenant, id).  When kQueued,
  /// `removed` receives the Job (its responder has NOT been invoked).
  /// First match wins if a client reused an id.
  CancelState cancel(const std::string& tenant, const std::string& id,
                     Job& removed);

  /// Folds a served job's wall time into the retry-hint EWMA.
  void record_service_ms(double ms);
  /// Current smoothed per-job service time in ms (>= 1 by construction).
  double service_ms_estimate() const;

  /// Stops admission; pending jobs remain poppable (drain semantics).
  void close();

  bool closed() const;
  std::size_t size() const;
  std::size_t capacity() const { return options_.capacity; }
  /// Queued depth per tenant with at least one request ever queued.
  std::map<std::string, std::size_t> depths() const;

 private:
  struct SubQueue {
    std::deque<Job> jobs;
    double deficit = 0.0;  ///< DRR credit, in whole jobs
  };
  struct Lane {
    /// Tenant sub-queues; std::map so the round-robin order is stable and
    /// deterministic (insertion timing cannot reorder service).
    std::map<std::string, SubQueue> tenants;
    /// Round-robin ring of tenants with queued work, served front-first.
    std::deque<std::string> ring;
    std::size_t total = 0;  ///< queued jobs in this lane
  };
  struct InFlight {
    std::string tenant;
    std::string id;
    std::shared_ptr<std::atomic<bool>> token;
  };

  const TenantLimits& limits_for(const std::string& tenant) const;
  /// True when `lane` holds a job whose tenant is below its in-flight cap.
  bool lane_eligible(const Lane& lane) const;
  /// Pops the next DRR-fair job from `lane`; requires lane_eligible(lane).
  Job pop_from_lane(Lane& lane);
  std::int64_t retry_hint_locked() const;

  FairQueueOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  Lane high_;
  Lane normal_;
  /// Consecutive high-lane pops taken while normal work was waiting.
  std::size_t high_run_ = 0;
  /// high_run_ bound derived from high_lane_share (>= 1).
  std::size_t high_run_cap_ = 3;
  /// In-flight registry: cancel() targets and per-tenant concurrency caps.
  std::vector<InFlight> in_flight_;
  std::map<std::string, std::size_t> in_flight_per_tenant_;
  bool closed_ = false;
  double service_ms_ewma_ = 0.0;  ///< seeded in the constructor
};

}  // namespace spear::svc
