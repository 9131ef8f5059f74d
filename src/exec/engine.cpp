#include "exec/engine.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

#include "env/env.h"
#include "mcts/mcts.h"
#include "obs/obs.h"

namespace spear::exec {
namespace {

const char* kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kStart:
      return "start";
    case EventKind::kSpeculate:
      return "speculate";
    case EventKind::kFinish:
      return "finish";
    case EventKind::kCancel:
      return "cancel";
    case EventKind::kAbsorb:
      return "absorb";
    case EventKind::kLocalRepair:
      return "local_repair";
    case EventKind::kResearch:
      return "research";
  }
  return "?";
}

const Dag& checked(const std::shared_ptr<const Dag>& dag) {
  if (!dag) throw std::invalid_argument("ExecutionEngine: null dag");
  return *dag;
}

}  // namespace

std::string format_events(const std::vector<ExecEvent>& events) {
  std::string out;
  for (const ExecEvent& e : events) {
    out += std::to_string(e.time);
    out += ' ';
    out += kind_name(e.kind);
    out += " task=";
    out += std::to_string(e.task);
    out += " attempt=";
    out += std::to_string(e.attempt);
    out += " value=";
    out += std::to_string(e.value);
    out += '\n';
  }
  return out;
}

struct ExecutionEngine::RunningAttempt {
  TaskId task = kInvalidTask;
  int attempt = 0;
  Time start = 0;
  Time finish = 0;     ///< realized finish (start + realized duration)
  bool speculative = false;
};

struct ExecutionEngine::RunState {
  Time now = 0;
  ResourceVector avail{2};
  std::vector<RunningAttempt> running;  // insertion order (deterministic)
  std::vector<TaskId> pending;          // not started, in priority order
  std::vector<char> done;
  std::vector<int> attempts;        // next attempt index per task
  std::vector<char> speculated;     // a task gets at most one duplicate
  std::vector<Time> first_start;    // -1 until first dispatch
  std::vector<Time> planned;        // committed plan's start per task
  std::size_t completed = 0;
  int completions_since_research = 0;
  int research_count = 0;
  std::vector<ExecEvent> events;
  ExecStats stats;
  DurationFn duration;
};

ExecutionEngine::ExecutionEngine(std::shared_ptr<const Dag> dag,
                                 ResourceVector capacity, ExecOptions options)
    : dag_(std::move(dag)),
      capacity_(std::move(capacity)),
      options_(std::move(options)),
      features_(checked(dag_)) {
  if (options_.research_factor < 0.0) {
    throw std::invalid_argument(
        "ExecutionEngine: research_factor must be >= 0");
  }
  if (options_.research_cooldown < 0 ||
      options_.research_initial_budget <= 0 ||
      options_.research_min_budget <= 0 || options_.research_threads < 1) {
    throw std::invalid_argument(
        "ExecutionEngine: re-search options out of range");
  }
  if (options_.speculation_factor < 1.0) {
    throw std::invalid_argument(
        "ExecutionEngine: speculation options out of range");
  }
  for (const Task& t : dag_->tasks()) {
    if (!t.demand.fits_within(capacity_)) {
      throw std::invalid_argument(
          "ExecutionEngine: task " + std::to_string(t.id) +
          " demands more than the cluster capacity");
    }
  }
  if (!options_.realized) {
    perturber_.emplace(options_.perturb);  // validates PerturbOptions
  }
}

bool ExecutionEngine::parents_done(const RunState& s, TaskId id) const {
  for (TaskId p : dag_->parents(id)) {
    if (!s.done[static_cast<std::size_t>(p)]) return false;
  }
  return true;
}

Time ExecutionEngine::speculation_time(const RunState& s,
                                       const RunningAttempt& r) const {
  if (!options_.speculate || r.speculative ||
      s.speculated[static_cast<std::size_t>(r.task)]) {
    return -1;
  }
  const Time runtime = dag_->task(r.task).runtime;
  return r.start +
         std::max<Time>(1, static_cast<Time>(std::ceil(
                               static_cast<double>(runtime) *
                               options_.speculation_factor)));
}

bool ExecutionEngine::try_start_tasks(RunState& s) const {
  bool any = false;
  const ResourceVector loss =
      options_.faults ? options_.faults->capacity_loss_at(s.now)
                      : ResourceVector(capacity_.dims());
  for (auto it = s.pending.begin(); it != s.pending.end();) {
    const TaskId id = *it;
    // Open-loop replay is plan-faithful: never start before the committed
    // start time.  The ladder is work-conserving and ignores the gate.
    if (!parents_done(s, id) ||
        (!options_.repair &&
         s.now < s.planned[static_cast<std::size_t>(id)])) {
      ++it;
      continue;
    }
    const Task& task = dag_->task(id);
    if (!(task.demand + loss).fits_within(s.avail)) {
      ++it;
      continue;
    }
    const int attempt = s.attempts[static_cast<std::size_t>(id)]++;
    const Time realized = s.duration(task, attempt);
    if (s.first_start[static_cast<std::size_t>(id)] < 0) {
      s.first_start[static_cast<std::size_t>(id)] = s.now;
    }
    s.avail -= task.demand;
    s.running.push_back({id, attempt, s.now, s.now + realized, false});
    s.events.push_back({s.now, EventKind::kStart, id, attempt, realized});
    it = s.pending.erase(it);
    any = true;
  }
  return any;
}

void ExecutionEngine::maybe_speculate(RunState& s) const {
  if (!options_.speculate) return;
  const ResourceVector loss =
      options_.faults ? options_.faults->capacity_loss_at(s.now)
                      : ResourceVector(capacity_.dims());
  // Index loop: launching a duplicate appends to s.running.
  const std::size_t primaries = s.running.size();
  for (std::size_t i = 0; i < primaries; ++i) {
    const Time at = speculation_time(s, s.running[i]);
    if (at < 0 || s.now < at) continue;
    // Copy the fields we need — the push_back below may reallocate.
    const TaskId id = s.running[i].task;
    const auto idx = static_cast<std::size_t>(id);
    const Task& task = dag_->task(id);
    if (!(task.demand + loss).fits_within(s.avail)) continue;
    s.speculated[idx] = 1;
    ++s.stats.speculations;
    const int attempt = s.attempts[idx]++;
    const Time realized = s.duration(task, attempt);
    s.avail -= task.demand;
    s.running.push_back({id, attempt, s.now, s.now + realized, true});
    s.events.push_back({s.now, EventKind::kSpeculate, id, attempt, realized});
  }
}

Time ExecutionEngine::next_event_time(const RunState& s) const {
  Time best = -1;
  const auto consider = [&best, &s](Time t) {
    if (t > s.now && (best < 0 || t < best)) best = t;
  };
  for (const RunningAttempt& r : s.running) {
    consider(r.finish);
    // A pending speculation trigger is a wake-up instant too.
    consider(speculation_time(s, r));
  }
  // A ready pending task that could not start is waiting on either the
  // open-loop planned-start gate or a capacity-loss window boundary.
  bool blocked_ready = false;
  for (TaskId id : s.pending) {
    if (!parents_done(s, id)) continue;
    blocked_ready = true;
    if (!options_.repair) {
      consider(s.planned[static_cast<std::size_t>(id)]);
    }
  }
  if (blocked_ready && options_.faults) {
    consider(options_.faults->next_capacity_event_after(s.now));
  }
  return best;
}

void ExecutionEngine::handle_completion(RunState& s, TaskId task,
                                        Time estimate) const {
  // Surprise: the task's realized lateness versus what the plan expected
  // once it started — positive = late, negative = early.
  const Time surprise =
      s.now - (s.first_start[static_cast<std::size_t>(task)] + estimate);
  if (surprise != 0) {
    ++s.stats.surprises;
    s.stats.max_surprise = std::max(s.stats.max_surprise, surprise);
  }
  if (!options_.repair || s.pending.empty()) return;
  const double magnitude = std::abs(static_cast<double>(surprise));
  const double est = static_cast<double>(estimate);
  if (magnitude <= kAbsorbFactor * est) {
    ++s.stats.absorbed;
    s.events.push_back({s.now, EventKind::kAbsorb, task, 0, surprise});
    return;
  }
  if (static_cast<double>(surprise) > options_.research_factor * est &&
      s.completions_since_research >= options_.research_cooldown &&
      s.pending.size() >= options_.research_min_pending) {
    ++s.stats.researches;
    s.events.push_back({s.now, EventKind::kResearch, task, 0, surprise});
    research(s);
    return;
  }
  ++s.stats.local_repairs;
  s.events.push_back({s.now, EventKind::kLocalRepair, task, 0, surprise});
  local_repair(s);
}

void ExecutionEngine::local_repair(RunState& s) const {
  std::sort(s.pending.begin(), s.pending.end(), [this](TaskId a, TaskId b) {
    const Time ba = features_.b_level(a);
    const Time bb = features_.b_level(b);
    return ba != bb ? ba > bb : a < b;
  });
}

void ExecutionEngine::research(RunState& s) const {
  obs::ScopedTimer span("exec.research", "exec");
  s.completions_since_research = 0;
  ++s.research_count;

  // Residual DAG: in-flight work becomes preloaded source stubs whose
  // runtime is the estimated remaining slots (non-clairvoyant — the engine
  // does not peek at realized finishes); pending tasks keep their nominal
  // runtimes; edges survive only among remaining tasks (a pending task's
  // finished parents impose no constraint any more).
  std::vector<TaskId> running_ids;
  for (const RunningAttempt& r : s.running) {
    if (std::find(running_ids.begin(), running_ids.end(), r.task) ==
        running_ids.end()) {
      running_ids.push_back(r.task);
    }
  }
  std::sort(running_ids.begin(), running_ids.end());
  std::vector<TaskId> pending_sorted = s.pending;
  std::sort(pending_sorted.begin(), pending_sorted.end());

  DagBuilder builder(capacity_.dims());
  std::vector<TaskId> res_of(dag_->num_tasks(), kInvalidTask);
  for (TaskId id : running_ids) {
    Time earliest_start = s.now;
    for (const RunningAttempt& r : s.running) {
      if (r.task == id) earliest_start = std::min(earliest_start, r.start);
    }
    const Task& task = dag_->task(id);
    const Time remaining =
        std::max<Time>(1, task.runtime - (s.now - earliest_start));
    res_of[static_cast<std::size_t>(id)] =
        builder.add_task(remaining, task.demand, task.name);
  }
  for (TaskId id : pending_sorted) {
    const Task& task = dag_->task(id);
    res_of[static_cast<std::size_t>(id)] =
        builder.add_task(task.runtime, task.demand, task.name);
  }
  for (TaskId id : pending_sorted) {
    for (TaskId p : dag_->parents(id)) {
      if (res_of[static_cast<std::size_t>(p)] != kInvalidTask) {
        builder.add_edge(res_of[static_cast<std::size_t>(p)],
                         res_of[static_cast<std::size_t>(id)]);
      }
    }
  }
  auto residual = std::make_shared<Dag>(std::move(builder).build());

  EnvOptions env_options;
  env_options.max_ready = std::max<std::size_t>(residual->num_tasks(), 1);
  for (TaskId id : running_ids) {
    env_options.initial_running.push_back(
        res_of[static_cast<std::size_t>(id)]);
  }
  SchedulingEnv env(residual, capacity_, env_options);

  // Bounded anytime re-search: iteration budgets only (never wall-clock)
  // and leaf mode, so the chosen repair is bit-identical across machines
  // and research_threads values.  The seed mixes in the re-search ordinal
  // so consecutive repairs explore independently but reproducibly.
  MctsOptions mcts_options;
  mcts_options.initial_budget = options_.research_initial_budget;
  mcts_options.min_budget = options_.research_min_budget;
  mcts_options.seed = options_.seed ^
                      (static_cast<std::uint64_t>(s.research_count) *
                       0x9e3779b97f4a7c15ULL);
  mcts_options.name = "exec-research";
  mcts_options.num_threads = options_.research_threads;
  mcts_options.search_mode = SearchMode::kLeaf;
  MctsScheduler mcts(mcts_options,
                     std::make_shared<HeuristicDecisionPolicy>());
  const Schedule residual_plan = mcts.schedule_env(std::move(env));

  // Adopt the re-searched order: pending tasks sorted by their residual
  // start times (residual id breaks ties deterministically).
  std::sort(s.pending.begin(), s.pending.end(),
            [&residual_plan, &res_of](TaskId a, TaskId b) {
              const TaskId ra = res_of[static_cast<std::size_t>(a)];
              const TaskId rb = res_of[static_cast<std::size_t>(b)];
              const Time sa = residual_plan.start_of(ra);
              const Time sb = residual_plan.start_of(rb);
              return sa != sb ? sa < sb : ra < rb;
            });
}

ExecResult ExecutionEngine::run(const Schedule& plan) {
  obs::ScopedTimer span("exec.run", "exec");
  const std::size_t n = dag_->num_tasks();
  RunState s;
  s.avail = capacity_;
  s.done.assign(n, 0);
  s.attempts.assign(n, 0);
  s.speculated.assign(n, 0);
  s.first_start.assign(n, -1);
  s.planned.resize(n);
  for (const Task& t : dag_->tasks()) {
    s.planned[static_cast<std::size_t>(t.id)] = plan.start_of(t.id);
  }
  // Initial dispatch priority: the committed plan's start order.
  s.pending.resize(n);
  for (std::size_t i = 0; i < n; ++i) s.pending[i] = static_cast<TaskId>(i);
  std::sort(s.pending.begin(), s.pending.end(),
            [&s](TaskId a, TaskId b) {
              const Time pa = s.planned[static_cast<std::size_t>(a)];
              const Time pb = s.planned[static_cast<std::size_t>(b)];
              return pa != pb ? pa < pb : a < b;
            });
  // Allow the very first surprise to escalate all the way.
  s.completions_since_research = options_.research_cooldown;
  if (options_.realized) {
    s.duration = options_.realized;
  } else {
    s.duration = [this](const Task& task, int attempt) {
      return perturber_->realized_duration(task, attempt);
    };
  }

  Time makespan = 0;
  while (s.completed < n) {
    try_start_tasks(s);
    maybe_speculate(s);
    const Time next = next_event_time(s);
    if (next < 0) {
      throw std::logic_error(
          "ExecutionEngine: no runnable work and no future event at t=" +
          std::to_string(s.now) + " (" + std::to_string(s.completed) + "/" +
          std::to_string(n) + " tasks done)");
    }
    s.now = next;

    // Process every finish at this instant in (task, attempt) order; the
    // first processed attempt of a task wins, every other in-flight attempt
    // of that task is cancelled at the same instant.
    for (;;) {
      std::size_t win = s.running.size();
      for (std::size_t i = 0; i < s.running.size(); ++i) {
        const RunningAttempt& r = s.running[i];
        if (r.finish > s.now) continue;
        if (win == s.running.size() ||
            r.task < s.running[win].task ||
            (r.task == s.running[win].task &&
             r.attempt < s.running[win].attempt)) {
          win = i;
        }
      }
      if (win == s.running.size()) break;
      const RunningAttempt winner = s.running[win];
      const Task& task = dag_->task(winner.task);
      s.running.erase(s.running.begin() +
                      static_cast<std::ptrdiff_t>(win));
      s.avail += task.demand;
      s.done[static_cast<std::size_t>(winner.task)] = 1;
      ++s.completed;
      ++s.completions_since_research;
      makespan = std::max(makespan, s.now);
      if (winner.speculative) ++s.stats.speculation_wins;
      const Time surprise =
          s.now -
          (s.first_start[static_cast<std::size_t>(winner.task)] +
           task.runtime);
      s.events.push_back({s.now, EventKind::kFinish, winner.task,
                          winner.attempt, surprise});
      // First-finish-wins: cancel the losing attempts by dropping them from
      // the running set and releasing their resources now (logged after the
      // winning finish so the log reads causally at this instant).
      for (std::size_t i = 0; i < s.running.size();) {
        if (s.running[i].task != winner.task) {
          ++i;
          continue;
        }
        const RunningAttempt loser = s.running[i];
        s.running.erase(s.running.begin() + static_cast<std::ptrdiff_t>(i));
        s.avail += task.demand;
        ++s.stats.cancellations;
        s.events.push_back({s.now, EventKind::kCancel, loser.task,
                            loser.attempt, s.now - loser.start});
      }
      handle_completion(s, winner.task, task.runtime);
    }
  }

  if (obs::enabled()) {
    obs::count("exec.runs");
    obs::count("exec.surprises", s.stats.surprises);
    obs::count("exec.absorbed", s.stats.absorbed);
    obs::count("exec.local_repairs", s.stats.local_repairs);
    obs::count("exec.researches", s.stats.researches);
    obs::count("exec.speculations", s.stats.speculations);
    obs::count("exec.speculation_wins", s.stats.speculation_wins);
    obs::count("exec.cancellations", s.stats.cancellations);
    obs::gauge("exec.last_makespan", static_cast<double>(makespan));
  }

  ExecResult result;
  result.makespan = makespan;
  result.events = std::move(s.events);
  result.stats = s.stats;
  return result;
}

std::optional<std::string> validate_events(
    const Dag& dag, const ResourceVector& capacity,
    const std::vector<ExecEvent>& events, const FaultInjector* faults) {
  struct Interval {
    Time start = 0;
    Time end = -1;  // -1 = still open
    ResourceVector demand{2};
  };
  const std::size_t n = dag.num_tasks();
  std::vector<Time> finish_time(n, -1);
  std::vector<int> next_attempt(n, 0);
  std::map<std::pair<TaskId, int>, Interval> open;
  const auto err = [](const ExecEvent& e, const std::string& why) {
    return std::optional<std::string>(
        "event t=" + std::to_string(e.time) + " task " +
        std::to_string(e.task) + " attempt " + std::to_string(e.attempt) +
        ": " + why);
  };

  Time prev = 0;
  for (const ExecEvent& e : events) {
    if (e.time < prev) return err(e, "events not in time order");
    prev = e.time;
    if (e.task < 0 || static_cast<std::size_t>(e.task) >= n) {
      return err(e, "unknown task");
    }
    const auto idx = static_cast<std::size_t>(e.task);
    switch (e.kind) {
      case EventKind::kStart:
      case EventKind::kSpeculate: {
        if (finish_time[idx] >= 0) return err(e, "task already finished");
        if (e.attempt != next_attempt[idx]) {
          return err(e, "attempt index out of order (expected " +
                            std::to_string(next_attempt[idx]) + ")");
        }
        ++next_attempt[idx];
        for (TaskId p : dag.parents(e.task)) {
          const Time pf = finish_time[static_cast<std::size_t>(p)];
          if (pf < 0 || pf > e.time) {
            return err(e, "parent " + std::to_string(p) +
                              " not finished at dispatch");
          }
        }
        // Capacity at the dispatch instant: everything already running plus
        // this attempt must fit within capacity minus the loss window.
        ResourceVector used(capacity.dims());
        for (const auto& entry : open) used += entry.second.demand;
        used += dag.task(e.task).demand;
        if (faults) used += faults->capacity_loss_at(e.time);
        if (!used.fits_within(capacity)) {
          return err(e, "capacity exceeded at dispatch");
        }
        open[{e.task, e.attempt}] =
            Interval{e.time, -1, dag.task(e.task).demand};
        break;
      }
      case EventKind::kFinish: {
        const auto it = open.find({e.task, e.attempt});
        if (it == open.end()) return err(e, "finish without open attempt");
        if (finish_time[idx] >= 0) return err(e, "double finish");
        finish_time[idx] = e.time;
        open.erase(it);
        break;
      }
      case EventKind::kCancel: {
        const auto it = open.find({e.task, e.attempt});
        if (it == open.end()) return err(e, "cancel without open attempt");
        if (finish_time[idx] < 0) {
          return err(e, "cancel before the task's winning finish");
        }
        open.erase(it);
        break;
      }
      case EventKind::kAbsorb:
      case EventKind::kLocalRepair:
      case EventKind::kResearch:
        break;  // repair markers carry no resource state
    }
  }
  if (!open.empty()) {
    const auto& key = open.begin()->first;
    return "attempt " + std::to_string(key.second) + " of task " +
           std::to_string(key.first) + " never finished or was cancelled";
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (finish_time[i] < 0) {
      return "task " + std::to_string(i) + " never finished";
    }
  }
  return std::nullopt;
}

Time replay_makespan(const std::vector<ExecEvent>& events) {
  Time makespan = 0;
  for (const ExecEvent& e : events) {
    if (e.kind == EventKind::kFinish) makespan = std::max(makespan, e.time);
  }
  return makespan;
}

Schedule schedule_from_events(const std::vector<ExecEvent>& events) {
  Schedule schedule;
  std::map<std::pair<TaskId, int>, Time> starts;
  for (const ExecEvent& e : events) {
    switch (e.kind) {
      case EventKind::kStart:
      case EventKind::kSpeculate:
        starts[{e.task, e.attempt}] = e.time;
        break;
      case EventKind::kFinish: {
        const Time start = starts.at({e.task, e.attempt});
        schedule.add(e.task, start);
        schedule.add_attempt(e.task, e.attempt, start, e.time - start, true);
        break;
      }
      case EventKind::kCancel: {
        const Time start = starts.at({e.task, e.attempt});
        schedule.add_attempt(e.task, e.attempt, start, e.time - start, false);
        break;
      }
      default:
        break;
    }
  }
  return schedule;
}

}  // namespace spear::exec
