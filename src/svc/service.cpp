#include "svc/service.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <sstream>
#include <utility>

#include "common/stats.h"
#include "dag/io.h"
#include "fault/runner.h"
#include "obs/obs.h"

namespace spear::svc {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

ServiceOptions normalize(ServiceOptions options) {
  options.workers = std::max(options.workers, 1);
  options.default_budget_ms = std::max<std::int64_t>(
      std::min(options.default_budget_ms, options.max_budget_ms), 1);
  options.search_iterations =
      std::max<std::int64_t>(options.search_iterations, 1);
  options.min_iterations = std::clamp<std::int64_t>(
      options.min_iterations, 1, options.search_iterations);
  return options;
}

/// Builds the fair-queue configuration from normalized service options.
/// The retry-hint EWMA is seeded from the default budget: pessimistic, so
/// even the FIRST shed response backs clients off instead of inviting a
/// thundering herd (satellite fix: the pre-§13 queue started the hint
/// estimate at zero state and special-cased it at read time).
FairQueueOptions fair_options(const ServiceOptions& options) {
  FairQueueOptions fair;
  fair.capacity = options.limits.queue_capacity;
  fair.high_lane_share = options.high_lane_share;
  fair.service_ms_seed = static_cast<double>(options.default_budget_ms);
  fair.default_limits = options.tenant_defaults;
  fair.per_tenant = options.tenant_overrides;
  fair.cost_mode = options.tenant_cost_mode;
  return fair;
}

/// Tenant names become map keys and JSON keys — keep them
/// short and boring.  (The wire default "" was resolved before this.)
bool valid_tenant_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const auto u = static_cast<unsigned char>(c);
    if (!std::isalnum(u) && c != '_' && c != '-' && c != '.' && c != ':') {
      return false;
    }
  }
  return true;
}

bool is_shed(ErrorCode code) {
  return code == ErrorCode::kQueueFull || code == ErrorCode::kQuotaExceeded;
}

}  // namespace

// All counters live behind one mutex and every state transition updates
// both sides of the reconciliation invariant
//   submitted == placed + rejected_total + cancelled + in_flight
// in a single critical section, so snapshot() can never observe a submit
// whose outcome is half-recorded (the torn-read bug the relaxed-atomics
// predecessor had: `submitted` was bumped at submit() entry, the outcome
// only later, so stats taken in between broke reconciliation).
struct SchedulerService::Ledger {
  mutable std::mutex mutex;
  ServiceCounters c;

  std::int64_t& slot(ErrorCode code) {
    switch (code) {
      case ErrorCode::kBadRequest: return c.rejected_bad_request;
      case ErrorCode::kInvalidDag: return c.rejected_invalid_dag;
      case ErrorCode::kUnschedulable: return c.rejected_unschedulable;
      case ErrorCode::kTooLarge: return c.rejected_too_large;
      case ErrorCode::kQueueFull: return c.rejected_queue_full;
      case ErrorCode::kQuotaExceeded: return c.rejected_quota_exceeded;
      case ErrorCode::kDeadlineExpired: return c.rejected_deadline_expired;
      case ErrorCode::kShuttingDown: return c.rejected_shutting_down;
      case ErrorCode::kCancelled:
      case ErrorCode::kNotFound:
      case ErrorCode::kInternal: return c.rejected_internal;
    }
    return c.rejected_internal;
  }

  /// A submit rejected before admission.  Empty tenant = unattributable
  /// (frontend parse failures): charged globally, no per-tenant slice.
  void submit_rejected(const std::string& tenant, ErrorCode code) {
    std::lock_guard<std::mutex> lock(mutex);
    ++c.submitted;
    ++slot(code);
    if (!tenant.empty()) {
      TenantCounters& t = c.tenants[tenant];
      ++t.submitted;
      if (is_shed(code)) ++t.shed;
    }
  }

  /// A submit about to enter the queue.  Recorded BEFORE try_push so a
  /// fast worker's resolve cannot outrun the submit record.
  void submit_admitted(const std::string& tenant) {
    std::lock_guard<std::mutex> lock(mutex);
    ++c.submitted;
    ++c.admitted;
    ++c.in_flight;
    ++c.tenants[tenant].submitted;
  }

  /// try_push shed the job after all: convert the admit to a rejection
  /// (`submitted` stays — it was a submit).
  void admitted_to_rejected(const std::string& tenant, ErrorCode code) {
    std::lock_guard<std::mutex> lock(mutex);
    --c.admitted;
    --c.in_flight;
    ++slot(code);
    if (is_shed(code)) ++c.tenants[tenant].shed;
  }

  void resolve_placed(const std::string& tenant) {
    std::lock_guard<std::mutex> lock(mutex);
    ++c.placed;
    --c.in_flight;
    ++c.tenants[tenant].placed;
  }

  void resolve_rejected(ErrorCode code) {
    std::lock_guard<std::mutex> lock(mutex);
    ++slot(code);
    --c.in_flight;
  }

  void resolve_cancelled(const std::string& tenant) {
    std::lock_guard<std::mutex> lock(mutex);
    ++c.cancelled;
    --c.in_flight;
    ++c.tenants[tenant].cancelled;
  }

  void cancel_outcome(CancelState state) {
    std::lock_guard<std::mutex> lock(mutex);
    switch (state) {
      case CancelState::kQueued: ++c.cancel_queued; break;
      case CancelState::kInFlight: ++c.cancel_in_flight; break;
      case CancelState::kNotFound: ++c.cancel_not_found; break;
    }
  }

  void count_degraded(ServeMode mode) {
    std::lock_guard<std::mutex> lock(mutex);
    if (mode == ServeMode::kReduced) ++c.degraded_reduced;
    if (mode == ServeMode::kHeuristic) ++c.degraded_heuristic;
  }

  void count_search_stats(const MctsScheduler::Stats& stats) {
    std::lock_guard<std::mutex> lock(mutex);
    c.search_degradations += stats.degradations;
    c.search_deadline_cutoffs += stats.deadline_cutoffs;
    // Physical kernel invocations (batched AND single-row guide calls).
    c.search_forwards += stats.guide_forwards;
    c.search_forward_rows += stats.guide_forward_rows;
    hist_add(c.forward_hist, stats.batch_rows_hist);
  }

  ServiceCounters snapshot() const {
    std::lock_guard<std::mutex> lock(mutex);
    return c;
  }
};

struct SchedulerService::Worker {
  int index = 0;
  std::unique_ptr<MctsScheduler> scheduler;
  /// Rung 2: the CP x Tetris policy run greedily, no search.  Per-worker so
  /// concurrent heuristic serves never share state.
  HeuristicDecisionPolicy heuristic;
};

SchedulerService::SchedulerService(ServiceOptions options)
    : options_(normalize(std::move(options))),
      queue_(fair_options(options_)),
      ledger_(std::make_unique<Ledger>()) {}

SchedulerService::~SchedulerService() { shutdown(); }

void SchedulerService::start() {
  if (started_.exchange(true)) return;

  // One guide prototype, cloned per worker: clone() gives each worker a
  // private copy of the Policy (the network keeps a mutable inference
  // workspace, so sharing one across worker threads would race), and the
  // per-worker copy then lives for the service lifetime — its buffers warm
  // up once and are reused by every request that worker serves.
  std::shared_ptr<DecisionPolicy> prototype;
  if (options_.policy) {
    prototype = std::make_shared<DrlDecisionPolicy>(options_.policy,
                                                    /*greedy=*/true);
  }

  pool_ = std::make_unique<ThreadPool>(
      static_cast<std::size_t>(options_.workers));
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->index = i;

    MctsOptions mcts;
    mcts.initial_budget = options_.search_iterations;
    mcts.min_budget = options_.min_iterations;
    // Independent deterministic stream per worker; which worker serves a
    // request is scheduling-dependent, but each individual search is
    // reproducible from (seed, worker).
    mcts.seed = options_.seed + 0x9e3779b97f4a7c15ull * (i + 1);
    mcts.name = options_.policy ? "Spear" : "MCTS";
    mcts.num_threads = options_.search_threads;
    mcts.search_mode = SearchMode::kLeaf;
    worker->scheduler = std::make_unique<MctsScheduler>(
        mcts, prototype ? prototype->clone() : nullptr);
    workers_.push_back(std::move(worker));
  }
  worker_done_.reserve(workers_.size());
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    worker_done_.push_back(pool_->submit([this, w] { worker_loop(*w); }));
  }
}

void SchedulerService::submit(const SubmitRequest& request,
                              Responder respond) {
  const std::string tenant =
      request.tenant.empty() ? kDefaultTenant : request.tenant;

  const auto reject = [&](const std::string& charged_tenant,
                          const Rejection& rejection) {
    ledger_->submit_rejected(charged_tenant, rejection.code);
    try {
      respond(false, SubmitResult{}, rejection);
    } catch (...) {
      // A responder that throws (dead client fd) must not take down the
      // submitting frontend thread.
    }
  };

  if (!valid_tenant_name(tenant)) {
    // Charged globally: a garbage name must not mint a ledger slice.
    reject("", Rejection{ErrorCode::kBadRequest,
                         "invalid tenant name (1-64 chars of [A-Za-z0-9_.:-])",
                         -1});
    return;
  }
  if (draining()) {
    reject(tenant, Rejection{ErrorCode::kShuttingDown,
                             "daemon is draining; not accepting new jobs", -1});
    return;
  }
  if (request.dag_text.size() > options_.limits.max_line_bytes) {
    reject(tenant,
           Rejection{
               ErrorCode::kTooLarge,
               "dag payload is " + std::to_string(request.dag_text.size()) +
                   " bytes, cap is " +
                   std::to_string(options_.limits.max_line_bytes),
               -1});
    return;
  }

  std::shared_ptr<const Dag> dag;
  try {
    dag = std::make_shared<const Dag>(dag_from_text(request.dag_text));
  } catch (const std::exception& e) {
    reject(tenant, Rejection{ErrorCode::kInvalidDag,
                             std::string("dag rejected: ") + e.what(), -1});
    return;
  }
  if (auto verdict = validate_job(*dag, options_.capacity, options_.limits)) {
    reject(tenant, *verdict);
    return;
  }

  std::int64_t budget_ms = request.budget_ms > 0 ? request.budget_ms
                                                 : options_.default_budget_ms;
  budget_ms = std::min(budget_ms, options_.max_budget_ms);

  Job job;
  job.id = request.id;
  job.tenant = tenant;
  job.high_priority = request.high_priority;
  job.dag = std::move(dag);
  job.arrival = Clock::now();
  job.deadline = job.arrival + std::chrono::milliseconds(budget_ms);
  job.budget_ms = budget_ms;
  job.iterations = request.iterations;
  job.cancelled = std::make_shared<std::atomic<bool>>(false);
  // try_push consumes the job even when shedding, so keep the responder
  // reachable for the rejection path.
  Responder on_reject = respond;
  job.respond = std::move(respond);

  // Record the admit BEFORE the push: the instant the job is in the queue a
  // worker may pop, serve, and resolve it, and the resolve must never find
  // the submit unrecorded.  A shed converts the record below.
  ledger_->submit_admitted(tenant);
  if (auto verdict = queue_.try_push(std::move(job))) {
    ledger_->admitted_to_rejected(tenant, verdict->code);
    try {
      on_reject(false, SubmitResult{}, *verdict);
    } catch (...) {
    }
    return;
  }
}

CancelState SchedulerService::cancel(const std::string& tenant,
                                     const std::string& id) {
  const std::string name = tenant.empty() ? kDefaultTenant : tenant;
  Job removed;
  const CancelState state = queue_.cancel(name, id, removed);
  ledger_->cancel_outcome(state);
  if (state == CancelState::kQueued) {
    // The job never reached a worker: resolve its submit here, exactly
    // once, from the cancelling thread.
    ledger_->resolve_cancelled(name);
    if (removed.respond) {
      try {
        removed.respond(false, SubmitResult{},
                        Rejection{ErrorCode::kCancelled,
                                  "request cancelled while queued", -1});
      } catch (...) {
      }
    }
  }
  // kInFlight: the token is set; the serving worker resolves the submit
  // (cancelled at the next search checkpoint, or placed if the search beat
  // the signal — best-effort).  kNotFound: nothing to resolve.
  return state;
}

void SchedulerService::begin_drain() {
  draining_.store(true, std::memory_order_relaxed);
  queue_.close();
}

void SchedulerService::shutdown() {
  begin_drain();
  if (stopped_.exchange(true)) return;
  for (auto& done : worker_done_) {
    // Worker loops catch per-request failures themselves; get() would only
    // rethrow a catastrophic loop failure, which we surface.
    if (done.valid()) done.get();
  }
  worker_done_.clear();
  pool_.reset();
}

void SchedulerService::worker_loop(Worker& worker) {
  Job job;
  while (queue_.pop(job)) {
    serve(worker, job);
    // Release the in-flight slot only after the outcome was delivered, so
    // a cancel can never hit the registry gap between serve and on_done.
    queue_.on_done(job);
    job = Job{};  // release the DAG and responder promptly
  }
}

void SchedulerService::serve(Worker& worker, Job& job) {
  const auto start = Clock::now();
  const double queue_ms = ms_between(job.arrival, start);
  if (obs::enabled()) obs::observe("svc.queue_ms", queue_ms);

  const auto cancelled = [&] {
    return job.cancelled &&
           job.cancelled->load(std::memory_order_relaxed);
  };
  const auto respond_cancelled = [&] {
    ledger_->resolve_cancelled(job.tenant);
    respond_error(job, Rejection{ErrorCode::kCancelled, "request cancelled",
                                 -1});
  };
  if (cancelled()) {
    // Cancel landed between pop and serve.
    respond_cancelled();
    return;
  }

  const std::int64_t remaining_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(job.deadline -
                                                            start)
          .count();
  if (remaining_ms <= 0) {
    reject_in_flight(job,
                     Rejection{ErrorCode::kDeadlineExpired,
                               "budget of " + std::to_string(job.budget_ms) +
                                   " ms elapsed while queued",
                               -1});
    return;
  }

  try {
    SubmitResult result;
    result.queue_ms = queue_ms;
    Schedule schedule;

    if (remaining_ms < options_.heuristic_floor_ms) {
      // Rung 2: not enough budget for even a minimum search — answer with
      // the deterministic heuristic policy (run greedily through the env,
      // no faults), which costs microseconds.
      result.mode = ServeMode::kHeuristic;
      result.degraded = true;
      ledger_->count_degraded(ServeMode::kHeuristic);
      FaultRunResult run = run_policy_under_faults(
          worker.heuristic, *job.dag, options_.capacity,
          /*faults=*/nullptr, RetryOptions{}, options_.seed);
      schedule = std::move(run.schedule);
    } else {
      std::int64_t iterations =
          job.iterations > 0
              ? std::min(job.iterations, options_.search_iterations)
              : options_.search_iterations;
      if (remaining_ms < options_.full_search_floor_ms) {
        // Rung 1: the deadline is nearly spent — search, but only at the
        // minimum iteration budget.
        result.mode = ServeMode::kReduced;
        result.degraded = true;
        ledger_->count_degraded(ServeMode::kReduced);
        iterations = std::min(iterations, options_.min_iterations);
        worker.scheduler->set_anytime_budgets(iterations, iterations,
                                              remaining_ms);
      } else {
        // Rung 0: full search, wall-clock capped to the remaining deadline.
        worker.scheduler->set_anytime_budgets(
            iterations, std::min(options_.min_iterations, iterations),
            remaining_ms);
      }
      // Attach the cancel token for the search's whole lifetime: a cancel
      // arriving mid-search trips the next anytime checkpoint and the
      // search finishes cheaply with its fallback heuristic.
      worker.scheduler->set_cancel_token(job.cancelled.get());
      schedule = worker.scheduler->schedule(*job.dag, options_.capacity);
      worker.scheduler->set_cancel_token(nullptr);
      const MctsScheduler::Stats& stats = worker.scheduler->last_stats();
      if (!cancelled()) {
        // A cancelled search's degradations are an artifact of the cutoff,
        // not of load — only count stats for answered searches.
        ledger_->count_search_stats(stats);
        // The anytime search itself fell back (not one iteration finished
        // before the deadline on some decision) — degraded even on rung 0.
        if (stats.degradations > 0) result.degraded = true;
      }
    }

    if (cancelled()) {
      // The submit is answered `cancelled`, never a placement the client
      // already disowned.
      respond_cancelled();
      return;
    }

    const auto end = Clock::now();
    result.search_ms = ms_between(start, end);
    result.makespan = schedule.makespan(*job.dag);
    result.placements = placement_names(schedule, *job.dag);
    ledger_->resolve_placed(job.tenant);
    queue_.record_service_ms(result.search_ms);
    if (obs::enabled()) obs::observe("svc.search_ms", result.search_ms);
    if (job.respond) job.respond(true, result, Rejection{});
  } catch (const std::exception& e) {
    // Request isolation: whatever this job did, only this job fails.
    worker.scheduler->set_cancel_token(nullptr);
    reject_in_flight(job, Rejection{ErrorCode::kInternal,
                                    std::string("request failed: ") + e.what(),
                                    -1});
  } catch (...) {
    worker.scheduler->set_cancel_token(nullptr);
    reject_in_flight(job, Rejection{ErrorCode::kInternal,
                                    "request failed: unknown error", -1});
  }
}

void SchedulerService::reject_in_flight(Job& job, const Rejection& rejection) {
  ledger_->resolve_rejected(rejection.code);
  respond_error(job, rejection);
}

void SchedulerService::respond_error(Job& job, const Rejection& rejection) {
  if (!job.respond) return;
  try {
    job.respond(false, SubmitResult{}, rejection);
  } catch (...) {
    // Dead client; nothing further to do for this request.
  }
}

void SchedulerService::count_rejection(ErrorCode code) {
  ledger_->submit_rejected("", code);
}

ServiceCounters SchedulerService::counters() const {
  return ledger_->snapshot();
}

std::string SchedulerService::counters_json() const {
  const ServiceCounters c = counters();
  // Live queued depth per tenant; merged into the slices below so tenants
  // with queued-but-unresolved work still show up.
  const std::map<std::string, std::size_t> depths = queue_.depths();
  std::ostringstream os;
  os << "{\"submitted\":" << c.submitted << ",\"admitted\":" << c.admitted
     << ",\"placed\":" << c.placed << ",\"cancelled\":" << c.cancelled
     << ",\"in_flight\":" << c.in_flight
     << ",\"rejected\":{\"bad_request\":" << c.rejected_bad_request
     << ",\"invalid_dag\":" << c.rejected_invalid_dag
     << ",\"unschedulable\":" << c.rejected_unschedulable
     << ",\"too_large\":" << c.rejected_too_large
     << ",\"queue_full\":" << c.rejected_queue_full
     << ",\"quota_exceeded\":" << c.rejected_quota_exceeded
     << ",\"deadline_expired\":" << c.rejected_deadline_expired
     << ",\"shutting_down\":" << c.rejected_shutting_down
     << ",\"internal\":" << c.rejected_internal
     << ",\"total\":" << c.rejected_total() << "}"
     << ",\"degraded\":{\"reduced\":" << c.degraded_reduced
     << ",\"heuristic\":" << c.degraded_heuristic
     << ",\"search_fallbacks\":" << c.search_degradations
     << ",\"deadline_cutoffs\":" << c.search_deadline_cutoffs
     << ",\"total\":" << c.degraded_total() << "}"
     << ",\"cancel\":{\"queued\":" << c.cancel_queued
     << ",\"in_flight\":" << c.cancel_in_flight
     << ",\"not_found\":" << c.cancel_not_found << "}";
  // Inference telemetry: physical forward totals summed over searches.
  os << ",\"infer\":{\"search_forwards\":" << c.search_forwards
     << ",\"search_forward_rows\":" << c.search_forward_rows
     << ",\"batch_rows_mean\":"
     << (c.search_forwards > 0
             ? static_cast<double>(c.search_forward_rows) /
                   static_cast<double>(c.search_forwards)
             : 0.0)
     << ",\"batch_rows_p50\":" << hist_percentile(c.forward_hist, 50.0)
     << ",\"batch_rows_p99\":" << hist_percentile(c.forward_hist, 99.0)
     << "}"
     << ",\"tenants\":{";
  bool first = true;
  const auto tenant_entry = [&](const std::string& name,
                                const TenantCounters& t,
                                std::size_t queued) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":{\"submitted\":" << t.submitted
       << ",\"placed\":" << t.placed << ",\"shed\":" << t.shed
       << ",\"cancelled\":" << t.cancelled << ",\"queued\":" << queued
       << "}";
  };
  for (const auto& [name, t] : c.tenants) {
    const auto depth = depths.find(name);
    tenant_entry(name, t, depth != depths.end() ? depth->second : 0);
  }
  for (const auto& [name, queued] : depths) {
    if (c.tenants.count(name) == 0) tenant_entry(name, TenantCounters{}, queued);
  }
  os << "}"
     << ",\"queue_depth\":" << queue_.size()
     << ",\"queue_capacity\":" << queue_.capacity()
     << ",\"draining\":" << (draining() ? "true" : "false") << "}";
  return os.str();
}

}  // namespace spear::svc
