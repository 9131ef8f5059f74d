#include "svc/admission.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace spear::svc {

namespace {

TenantLimits sanitize(TenantLimits limits) {
  limits.weight = std::clamp(limits.weight, 0.01, 100.0);
  return limits;
}

}  // namespace

std::optional<Rejection> validate_job(const Dag& dag,
                                      const ResourceVector& capacity,
                                      const AdmissionLimits& limits) {
  if (dag.empty()) {
    return Rejection{ErrorCode::kInvalidDag, "DAG has no tasks", -1};
  }
  if (dag.num_tasks() > limits.max_tasks_per_job) {
    return Rejection{
        ErrorCode::kTooLarge,
        "job has " + std::to_string(dag.num_tasks()) +
            " tasks, cap is " + std::to_string(limits.max_tasks_per_job),
        -1};
  }
  if (dag.resource_dims() != capacity.dims()) {
    return Rejection{
        ErrorCode::kInvalidDag,
        "job has " + std::to_string(dag.resource_dims()) +
            " resource dims, cluster has " + std::to_string(capacity.dims()),
        -1};
  }
  // Schedulability: a task whose demand exceeds capacity in any dimension
  // can never be placed — no budget or degradation rung helps.  Reject at
  // the door instead of wedging a worker in a search that cannot finish.
  // (DagBuilder already guarantees demands are finite and non-negative.)
  for (const Task& task : dag.tasks()) {
    if (!task.demand.fits_within(capacity)) {
      const std::string name =
          task.name.empty() ? "t" + std::to_string(task.id) : task.name;
      return Rejection{
          ErrorCode::kUnschedulable,
          "task '" + name + "' demand " + task.demand.to_string() +
              " exceeds cluster capacity " + capacity.to_string(),
          -1};
    }
  }
  return std::nullopt;
}

AdmissionQueue::AdmissionQueue(FairQueueOptions options)
    : options_(std::move(options)) {
  options_.capacity = std::max<std::size_t>(options_.capacity, 1);
  options_.high_lane_share = std::clamp(options_.high_lane_share, 0.10, 0.95);
  options_.default_limits = sanitize(options_.default_limits);
  for (auto& [name, limits] : options_.per_tenant) limits = sanitize(limits);
  // share/(1-share) consecutive high pops per forced normal pop gives the
  // high lane `share` of the dequeue stream when both lanes are saturated.
  high_run_cap_ = static_cast<std::size_t>(std::max<long>(
      1, std::lround(options_.high_lane_share /
                     (1.0 - options_.high_lane_share))));
  // Satellite fix (cold-start retry hints): seed the EWMA so the first
  // shed response already carries a meaningful nonzero backoff.
  service_ms_ewma_ = std::max(options_.service_ms_seed, 1.0);
}

AdmissionQueue::AdmissionQueue(std::size_t capacity)
    : AdmissionQueue([capacity] {
        FairQueueOptions options;
        options.capacity = std::max<std::size_t>(capacity, 1);
        return options;
      }()) {}

const TenantLimits& AdmissionQueue::limits_for(
    const std::string& tenant) const {
  const auto it = options_.per_tenant.find(tenant);
  return it != options_.per_tenant.end() ? it->second
                                         : options_.default_limits;
}

std::int64_t AdmissionQueue::retry_hint_locked() const {
  // The queue drains one job per service interval, so a full queue (or
  // quota) frees a slot in roughly one smoothed service time.  The EWMA is
  // seeded >= 1 ms at construction, so the hint is never an instant-retry.
  return static_cast<std::int64_t>(
      std::ceil(std::clamp(service_ms_ewma_, 1.0, 60'000.0)));
}

std::optional<Rejection> AdmissionQueue::try_push(Job job) {
  if (job.tenant.empty()) job.tenant = kDefaultTenant;
  if (!job.cancelled) {
    job.cancelled = std::make_shared<std::atomic<bool>>(false);
  }
  // Stamp the DRR cost at admission so the dequeue path never dereferences
  // the DAG (it may be released by the time accounting replays).
  job.cost = options_.cost_mode == CostMode::kTasks && job.dag
                 ? std::max(1.0, static_cast<double>(job.dag->num_tasks()))
                 : 1.0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) {
      return Rejection{ErrorCode::kShuttingDown,
                       "daemon is draining; resubmit elsewhere", -1};
    }
    // Per-tenant quota first: a tenant that exhausted its own share learns
    // that IT is the bottleneck even when the global queue is also full.
    const TenantLimits& limits = limits_for(job.tenant);
    const auto high_it = high_.tenants.find(job.tenant);
    const auto normal_it = normal_.tenants.find(job.tenant);
    const std::size_t queued =
        (high_it != high_.tenants.end() ? high_it->second.jobs.size() : 0) +
        (normal_it != normal_.tenants.end() ? normal_it->second.jobs.size()
                                            : 0);
    if (limits.max_queued > 0 && queued >= limits.max_queued) {
      return Rejection{ErrorCode::kQuotaExceeded,
                       "tenant '" + job.tenant + "' queue quota (" +
                           std::to_string(limits.max_queued) + ") exhausted",
                       retry_hint_locked()};
    }
    if (high_.total + normal_.total >= options_.capacity) {
      return Rejection{ErrorCode::kQueueFull,
                       "admission queue at capacity (" +
                           std::to_string(options_.capacity) + ")",
                       retry_hint_locked()};
    }
    Lane& lane = job.high_priority ? high_ : normal_;
    SubQueue& sub = lane.tenants[job.tenant];
    if (sub.jobs.empty()) lane.ring.push_back(job.tenant);
    sub.jobs.push_back(std::move(job));
    ++lane.total;
  }
  cv_.notify_all();
  return std::nullopt;
}

bool AdmissionQueue::lane_eligible(const Lane& lane) const {
  for (const std::string& name : lane.ring) {
    const auto it = lane.tenants.find(name);
    if (it == lane.tenants.end() || it->second.jobs.empty()) continue;
    const std::size_t cap = limits_for(name).max_in_flight;
    if (cap == 0) return true;
    const auto fl = in_flight_per_tenant_.find(name);
    if (fl == in_flight_per_tenant_.end() || fl->second < cap) return true;
  }
  return false;
}

Job AdmissionQueue::pop_from_lane(Lane& lane) {
  // Deficit round robin over the tenant ring, one job per call: the tenant
  // at the head earns one quantum (its weight) per arrival and serves while
  // its deficit covers its head job's COST (1.0 per job in unit mode, the
  // task count in kTasks mode — job-size-aware fairness); tenants at their
  // in-flight cap rotate without credit.  Weights are clamped >= 0.01, so
  // every full cycle adds at least 0.01 to some eligible tenant — the scan
  // bound below scales with the costliest head job so the accumulation
  // always reaches it.
  double max_cost = 1.0;
  for (const auto& [name, sub] : lane.tenants) {
    if (!sub.jobs.empty()) max_cost = std::max(max_cost, sub.jobs.front().cost);
  }
  std::size_t guard =
      lane.ring.size() * static_cast<std::size_t>(std::ceil(max_cost)) * 102 +
      2;
  while (guard-- > 0) {
    const std::string name = lane.ring.front();
    SubQueue& sub = lane.tenants[name];
    const TenantLimits& limits = limits_for(name);
    const auto fl = in_flight_per_tenant_.find(name);
    const bool at_cap =
        limits.max_in_flight > 0 && fl != in_flight_per_tenant_.end() &&
        fl->second >= limits.max_in_flight;
    if (at_cap) {
      lane.ring.pop_front();
      lane.ring.push_back(name);
      continue;
    }
    const double cost = sub.jobs.front().cost;
    if (sub.deficit < cost) sub.deficit += limits.weight;
    if (sub.deficit < cost) {
      // Banked credit carries to the next visit; move on.
      lane.ring.pop_front();
      lane.ring.push_back(name);
      continue;
    }
    Job job = std::move(sub.jobs.front());
    sub.jobs.pop_front();
    sub.deficit -= cost;
    --lane.total;
    if (sub.jobs.empty()) {
      // Idle tenants bank nothing (classic DRR): drop the entry so the
      // tenant map stays bounded by the set of BACKLOGGED tenants.
      lane.ring.pop_front();
      lane.tenants.erase(name);
    } else if (sub.deficit < sub.jobs.front().cost) {
      lane.ring.pop_front();
      lane.ring.push_back(name);
    }
    return job;
  }
  throw std::logic_error("AdmissionQueue: DRR scan failed to find a job");
}

bool AdmissionQueue::pop(Job& out) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] {
    return lane_eligible(high_) || lane_eligible(normal_) ||
           (closed_ && high_.total + normal_.total == 0);
  });
  const bool high_ok = lane_eligible(high_);
  const bool normal_ok = lane_eligible(normal_);
  if (!high_ok && !normal_ok) return false;  // closed and drained

  Lane* lane = nullptr;
  if (high_ok && (!normal_ok || high_run_ < high_run_cap_)) {
    lane = &high_;
    // The run counter only advances while normal work is actually waiting:
    // high traffic on an idle normal lane spends no credit.
    high_run_ = normal_ok ? high_run_ + 1 : 0;
  } else {
    lane = &normal_;
    high_run_ = 0;
  }
  out = pop_from_lane(*lane);
  in_flight_.push_back({out.tenant, out.id, out.cancelled});
  ++in_flight_per_tenant_[out.tenant];
  return true;
}

void AdmissionQueue::on_done(const Job& job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = in_flight_.begin(); it != in_flight_.end(); ++it) {
      if (it->token == job.cancelled) {
        in_flight_.erase(it);
        break;
      }
    }
    const auto fl = in_flight_per_tenant_.find(job.tenant);
    if (fl != in_flight_per_tenant_.end() && --fl->second == 0) {
      in_flight_per_tenant_.erase(fl);
    }
  }
  // A capped tenant may have become eligible, and drain waiters may now see
  // an empty queue.
  cv_.notify_all();
}

CancelState AdmissionQueue::cancel(const std::string& tenant,
                                   const std::string& id, Job& removed) {
  const std::string name = tenant.empty() ? kDefaultTenant : tenant;
  std::unique_lock<std::mutex> lock(mutex_);
  for (Lane* lane : {&high_, &normal_}) {
    const auto it = lane->tenants.find(name);
    if (it == lane->tenants.end()) continue;
    SubQueue& sub = it->second;
    for (auto job = sub.jobs.begin(); job != sub.jobs.end(); ++job) {
      if (job->id != id) continue;
      removed = std::move(*job);
      sub.jobs.erase(job);
      --lane->total;
      if (sub.jobs.empty()) {
        lane->ring.erase(
            std::find(lane->ring.begin(), lane->ring.end(), name));
        lane->tenants.erase(it);
      }
      lock.unlock();
      // Drain waiters must re-check "closed and empty".
      cv_.notify_all();
      return CancelState::kQueued;
    }
  }
  for (const InFlight& entry : in_flight_) {
    if (entry.tenant == name && entry.id == id) {
      entry.token->store(true, std::memory_order_relaxed);
      return CancelState::kInFlight;
    }
  }
  return CancelState::kNotFound;
}

void AdmissionQueue::record_service_ms(double ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  service_ms_ewma_ = 0.8 * service_ms_ewma_ + 0.2 * std::max(ms, 0.0);
}

double AdmissionQueue::service_ms_estimate() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::max(service_ms_ewma_, 1.0);
}

void AdmissionQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool AdmissionQueue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

std::size_t AdmissionQueue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return high_.total + normal_.total;
}

std::map<std::string, std::size_t> AdmissionQueue::depths() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::size_t> out;
  for (const Lane* lane : {&high_, &normal_}) {
    for (const auto& [name, sub] : lane->tenants) {
      out[name] += sub.jobs.size();
    }
  }
  return out;
}

}  // namespace spear::svc
