#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/stats.h"
#include "core/spear.h"
#include "dag/generator.h"
#include "dag/io.h"
#include "exec/engine.h"
#include "guide.h"
#include "reference.h"
#include "infer/service.h"
#include "nn/serialize.h"
#include "obs/json.h"
#include "sched/critical_path.h"
#include "svc/json.h"
#include "svc/protocol.h"
#include "svc/service.h"
#include "trace/mapreduce.h"
#include "trace/trace.h"

namespace spearbench {
namespace {

using spear::Dag;
using spear::MctsScheduler;
using spear::Policy;
using spear::Schedule;
using spear::SchedulingEnv;
using spear::Time;

// --- fixed workload parameters -------------------------------------------
//
// Every rate, budget and size is an absolute constant: nothing is calibrated
// per run, so a faster commit is offered exactly the same work.

const spear::ResourceVector& capacity() {
  static const spear::ResourceVector kCapacity{1.0, 1.0};
  return kCapacity;
}

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 15;
/// Seconds between speed probes during a timed phase (NominalClock).
constexpr double kProbeEverySeconds = 0.5;
/// Kernel calls in the probe after each set-up (~6 ms at nominal speed).
constexpr int kSetupProbeCalls = 100;

// Offline: the paper's random layered DAGs at the Fig. 6b default budget.
constexpr std::size_t kOfflineTasks = 50;
/// Distinct DAGs a run cycles through, and how many of them (always the
/// first ones, whatever the speed) make up makespan_ratio.
constexpr std::size_t kOfflineSuite = 64;
constexpr std::size_t kOfflineQualityJobs = 16;
/// Nominal-speed DAGs per second of the baseline (timed_jobs).
constexpr double kOfflineSerialJobsPerSecond = 1.0;
constexpr double kOfflineLeafJobsPerSecond = 4.5;
constexpr std::int64_t kOfflineBudget = 200;
constexpr std::int64_t kOfflineMinBudget = 50;
constexpr int kLeafMaxThreads = 4;
/// DAGs a traced run schedules twice (untraced, then traced).
constexpr std::size_t kOfflineTraceJobsSerial = 4;
constexpr std::size_t kOfflineTraceJobsLeaf = 12;

// Serve: 12-task DAGs from a seeded pool, 2 workers, leaf mode (the
// service default), open-loop Poisson arrivals at fixed absolute rates.
constexpr std::size_t kServeTasks = 12;
constexpr std::size_t kServePool = 256;
constexpr int kServeWorkers = 2;
constexpr std::int64_t kServeIterations = 200;
constexpr std::int64_t kServeMinIterations = 50;
/// Per-request deadline: generous, so no request expires at the offered rate.
constexpr std::int64_t kServeDeadlineMs = 1000;
constexpr double kServeRate = 30.0;  // requests per second
/// Seconds between background speed probes during a serve phase.
constexpr double kServeProbeEverySeconds = 0.25;

// Online: the synthetic MapReduce trace, CP plans, the repair ladder.
/// Distinct jobs a run cycles through, and how many of them (always the
/// first ones, whatever the speed) make up makespan_ratio and jct_slowdown.
constexpr std::size_t kOnlineJobs = 2000;
constexpr std::size_t kOnlineQualityJobs = 1000;
/// Nominal-speed jobs per second of the baseline (timed_jobs).
constexpr double kOnlineJobsPerSecond = 100.0;
/// The trace and its arrival stream are fixed, as the paper's production
/// trace is; --seed draws the realized runtimes.
constexpr std::uint64_t kOnlineTraceSeed = 42;
constexpr double kOnlineMeanInterarrival = 3000.0;  // slots
constexpr std::size_t kOnlineTraceJobs = 100;

void put(Outcome& out, const std::string& name, double value,
         const std::string& unit) {
  out.metrics.push_back({name, value, unit});
}

void fail(Outcome& out, const std::string& why) {
  if (out.errors.size() < 20) out.errors.push_back(why);
}

// --- the policy fixture ----------------------------------------------------

/// Loads the committed trained policy.  A file of the wrong shape is an
/// error, never a reason to retrain: retraining would put minutes into
/// setup_s and swap the guide.
std::shared_ptr<const Policy> load_bench_policy(const std::string& root) {
  const std::string path = root + "/bench_policy.txt";
  spear::Featurizer featurizer;
  spear::Mlp net = spear::load_mlp(path);
  const std::size_t dims = capacity().dims();
  if (net.input_dim() != featurizer.input_dim(dims) ||
      net.output_dim() != featurizer.num_actions()) {
    throw std::runtime_error(
        path + ": policy shape " + std::to_string(net.input_dim()) + "->" +
        std::to_string(net.output_dim()) + " does not match the featurizer (" +
        std::to_string(featurizer.input_dim(dims)) + "->" +
        std::to_string(featurizer.num_actions()) + ")");
  }
  return std::make_shared<const Policy>(featurizer, std::move(net), dims);
}

/// The end-to-end metrics every untraced run reports.
struct EndToEnd {
  /// Median set-up time at nominal machine speed, and as measured.
  double setup_s = 0.0, raw_setup_s = 0.0;
  /// Per-job wall times as measured (+inf for a refused request), and
  /// stated at nominal machine speed (NominalClock).
  std::vector<double> job_ms, nominal_ms;
  /// Jobs per second of busy time, at nominal speed and as measured.
  double jobs_per_s = 0.0, raw_jobs_per_s = 0.0;
  double makespan_ratio = 0.0;
  /// Summed (completion - arrival) over the summed lower bounds.
  double jct_slowdown = 0.0;
  /// Mean reference-kernel slowdown over the run (1 = not probed).
  double machine_slowdown = 1.0;
};

double jobs_per_busy_second(const std::vector<double>& ms) {
  double sum = 0.0;
  for (const double m : ms) sum += m;
  return sum > 0.0 ? 1000.0 * static_cast<double>(ms.size()) / sum : 0.0;
}

/// Takes the job times and speeds of a finished back-to-back phase.
void take_clock(const NominalClock& clock, EndToEnd& e) {
  e.job_ms = clock.raw_ms();
  e.nominal_ms = clock.nominal_ms();
  e.jobs_per_s = jobs_per_busy_second(e.nominal_ms);
  e.raw_jobs_per_s = jobs_per_busy_second(e.job_ms);
  e.machine_slowdown = clock.slowdown();
}

/// How many jobs a back-to-back phase times: what `seconds` holds at
/// `jobs_per_s`, the nominal-speed rate the baseline ran at, and at least
/// `min_jobs`.  The count depends on nothing measured, so every commit
/// times the same jobs, and a faster one just finishes sooner.
std::size_t timed_jobs(int seconds, double jobs_per_s, std::size_t min_jobs) {
  return std::max(min_jobs,
                  static_cast<std::size_t>(std::llround(seconds * jobs_per_s)));
}

/// Runs `setup` kSetupRepeats times and keeps the last result; earlier
/// results are destroyed outside the timed region.  A speed probe follows
/// each set-up, and each set-up is divided by the mean slowdown of the
/// probes on either side of it, as NominalClock does for jobs: the raw
/// median moved by a quarter between runs of the same code as the machine
/// drifted.  e.setup_s is the median of the divided times.
template <class Setup>
auto repeated_setup(Setup setup, EndToEnd& e) {
  std::vector<double> raw, nominal;
  decltype(setup()) kept;
  SpeedProbe probe(1);
  probe.probe(kSetupProbeCalls);
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    auto made = setup();
    raw.push_back(seconds_between(t0, Clock::now()));
    kept = std::move(made);
    probe.probe(kSetupProbeCalls);
    nominal.push_back(raw.back() / probe.recent_slowdown());
  }
  e.setup_s = spear::median(nominal);
  e.raw_setup_s = spear::median(raw);
  return kept;
}

/// Reports the end-to-end metrics from the nominal-speed times; the raw
/// values go to a note line, with the highest tail percentile the sample
/// supports.
void emit_end_to_end(Outcome& out, const EndToEnd& e) {
  const double k = e.machine_slowdown;
  const double p50 = nearest_rank(e.job_ms, 50.0);
  const double p90 = nearest_rank(e.job_ms, 90.0);
  put(out, "setup_s", e.setup_s, "s");
  put(out, "peak_rss_mb", peak_rss_mb(), "MB");
  put(out, "jobs_per_s", e.jobs_per_s, "1/s");
  put(out, "job_p50_ms", nearest_rank(e.nominal_ms, 50.0), "ms");
  put(out, "job_p90_ms", nearest_rank(e.nominal_ms, 90.0), "ms");
  put(out, "makespan_ratio", e.makespan_ratio, "ratio");
  put(out, "jct_slowdown", e.jct_slowdown, "ratio");
  const double tail = tail_percentile(e.job_ms.size());
  out.notes.push_back(
      "job samples " + std::to_string(e.job_ms.size()) +
      (tail > 0.0 ? ", highest supported tail p" +
                        std::to_string(static_cast<int>(tail)) + " " +
                        std::to_string(nearest_rank(e.job_ms, tail)) + " ms"
                  : ", too few samples for a tail"));
  out.notes.push_back("machine slowdown " + std::to_string(k) +
                      "; raw setup_s " + std::to_string(e.raw_setup_s) +
                      ", jobs_per_s " + std::to_string(e.raw_jobs_per_s) +
                      ", job_p50_ms " + std::to_string(p50) +
                      ", job_p90_ms " + std::to_string(p90));
}

// --- per-layer metrics -------------------------------------------------------

/// Per-layer values by name; emit_layers reports every layer metric, 0 for
/// a layer the workload does not exercise.
using Layers = std::map<std::string, double>;

void emit_layers(Outcome& out, const Layers& values) {
  for (const auto& [name, unit] : layer_metrics()) {
    const auto it = values.find(name);
    put(out, name, it != values.end() ? it->second : 0.0, unit);
  }
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Batch-rows percentile from a histogram (hist[w] = forwards of w rows).
double hist_rows(const std::vector<std::int64_t>& hist, double pct) {
  return hist.empty() ? 0.0 : spear::infer::hist_percentile(hist, pct);
}

void add_hist(std::vector<std::int64_t>& into,
              const std::vector<std::int64_t>& from) {
  if (into.size() < from.size()) into.resize(from.size(), 0);
  for (std::size_t w = 0; w < from.size(); ++w) into[w] += from[w];
}

// --- env / rl probes ---------------------------------------------------------

/// States along heuristic trajectories over `dags`, at most `limit`: the
/// inputs the env and policy probes time.
std::vector<SchedulingEnv> harvest_states(const std::vector<const Dag*>& dags,
                                          std::size_t max_ready,
                                          std::size_t limit) {
  std::vector<SchedulingEnv> states;
  spear::HeuristicDecisionPolicy heuristic;
  spear::Rng rng(1);
  for (const Dag* dag : dags) {
    spear::EnvOptions options;
    options.max_ready = max_ready;
    SchedulingEnv env(std::make_shared<Dag>(*dag), capacity(), options);
    while (!env.done() && states.size() < limit) {
      states.push_back(env);
      const int action = heuristic.pick(env, rng);
      if (action == SchedulingEnv::kProcessAction) {
        env.process_to_next_finish();
      } else {
        env.step(action);
      }
    }
    if (states.size() >= limit) break;
  }
  return states;
}

/// Repeats `round` until at least 20 ms of timed work accumulated; `round`
/// adds its timed nanoseconds to `ns` and returns how many operations it
/// timed.  Returns nanoseconds per operation.
double ns_per_op(const std::function<std::int64_t(std::int64_t& ns)>& round) {
  std::int64_t ns = 0, ops = 0;
  while (ns < 20'000'000) {
    const std::int64_t done = round(ns);
    if (done == 0) return 0.0;
    ops += done;
  }
  return static_cast<double>(ns) / static_cast<double>(ops);
}

std::int64_t elapsed_ns(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

/// Keeps the probed calls' results observable, so none is optimized away.
volatile std::int64_t probe_sink = 0;

void probe_env(const std::vector<SchedulingEnv>& states, const Policy& policy,
               Layers& m) {
  if (states.empty()) return;
  std::int64_t sink = 0;
  m["env.copy_ns"] = ns_per_op([&](std::int64_t& ns) {
    const auto t0 = Clock::now();
    for (const SchedulingEnv& s : states) {
      SchedulingEnv copy(s);
      sink += copy.now();
    }
    ns += elapsed_ns(t0);
    return static_cast<std::int64_t>(states.size());
  });
  m["env.valid_actions_ns"] = ns_per_op([&](std::int64_t& ns) {
    const auto t0 = Clock::now();
    for (const SchedulingEnv& s : states) {
      sink += static_cast<std::int64_t>(s.valid_actions().size());
    }
    ns += elapsed_ns(t0);
    return static_cast<std::int64_t>(states.size());
  });
  // step / process mutate their env: copies are made outside the clock.
  std::vector<SchedulingEnv> copies;
  std::vector<int> actions;
  m["env.step_ns"] = ns_per_op([&](std::int64_t& ns) {
    copies.clear();
    actions.clear();
    for (const SchedulingEnv& s : states) {
      for (std::size_t i = 0; i < s.ready().size(); ++i) {
        if (s.can_schedule(i)) {
          copies.push_back(s);
          actions.push_back(static_cast<int>(i));
          break;
        }
      }
    }
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < copies.size(); ++i) {
      sink += static_cast<std::int64_t>(copies[i].step(actions[i]));
    }
    ns += elapsed_ns(t0);
    return static_cast<std::int64_t>(copies.size());
  });
  m["env.process_ns"] = ns_per_op([&](std::int64_t& ns) {
    copies.clear();
    for (const SchedulingEnv& s : states) {
      if (s.can_process()) copies.push_back(s);
    }
    const auto t0 = Clock::now();
    for (SchedulingEnv& c : copies) {
      sink += static_cast<std::int64_t>(c.process_to_next_finish());
    }
    ns += elapsed_ns(t0);
    return static_cast<std::int64_t>(copies.size());
  });
  const spear::Featurizer& featurizer = policy.featurizer();
  std::vector<double> row(featurizer.input_dim(policy.resource_dims()));
  m["env.featurize_ns"] = ns_per_op([&](std::int64_t& ns) {
    const auto t0 = Clock::now();
    for (const SchedulingEnv& s : states) {
      featurizer.featurize_into(s, row.data());
      sink += row[0] > 0.5 ? 1 : 0;
    }
    ns += elapsed_ns(t0);
    return static_cast<std::int64_t>(states.size());
  });
  std::vector<const SchedulingEnv*> ptrs;
  for (const SchedulingEnv& s : states) {
    if (!s.done()) ptrs.push_back(&s);
  }
  std::vector<std::vector<bool>> masks;
  std::vector<std::vector<double>> probs;
  for (const std::size_t width : {std::size_t{1}, std::size_t{32}}) {
    std::vector<const SchedulingEnv*> batch(width);
    const double per_row = ns_per_op([&](std::int64_t& ns) {
      std::int64_t rows = 0;
      for (std::size_t i = 0; i + width <= ptrs.size() || rows == 0;
           i += width) {
        for (std::size_t k = 0; k < width; ++k) {
          batch[k] = ptrs[(i + k) % ptrs.size()];
        }
        const auto t0 = Clock::now();
        policy.action_probs_batch(batch.data(), width, masks, probs);
        ns += elapsed_ns(t0);
        rows += static_cast<std::int64_t>(width);
      }
      return rows;
    });
    m[width == 1 ? "rl.forward_ns_per_row.w1" : "rl.forward_ns_per_row.w32"] =
        per_row;
  }
  probe_sink = sink;
}

// --- offline -----------------------------------------------------------------

spear::SpearOptions offline_spear_options(bool leaf, int threads) {
  spear::SpearOptions options;
  options.initial_budget = kOfflineBudget;
  options.min_budget = kOfflineMinBudget;
  options.num_threads = leaf ? threads : 1;
  options.search_mode = leaf ? spear::SearchMode::kLeaf : spear::SearchMode::kRoot;
  return options;
}

/// The MctsOptions make_spear_scheduler derives from `spear`, so a scheduler
/// built on the public constructor (with a decorated guide) searches
/// exactly like the stock one.
spear::MctsOptions mcts_options_like(const spear::SpearOptions& spear) {
  spear::MctsOptions mcts;
  mcts.initial_budget = spear.initial_budget;
  mcts.min_budget = spear.min_budget;
  mcts.exploration_scale = spear.exploration_scale;
  mcts.seed = spear.seed;
  mcts.num_threads = spear.num_threads;
  mcts.time_budget_ms = spear.time_budget_ms;
  mcts.faults = spear.faults;
  mcts.retry = spear.retry;
  mcts.search_mode = spear.search_mode;
  mcts.leaf_tree_reuse = spear.leaf_tree_reuse;
  mcts.name = "Spear";
  return mcts;
}

/// The env MctsScheduler::schedule builds for a DRL guide, for calling
/// schedule_env on a scheduler whose guide is decorated.
SchedulingEnv spear_env(const Dag& dag, const Policy& policy) {
  spear::EnvOptions options;
  options.max_ready = policy.featurizer().options().max_ready;
  return SchedulingEnv(std::make_shared<Dag>(dag), capacity(), options);
}

struct OfflineInputs {
  std::shared_ptr<const Policy> policy;
  std::vector<Dag> suite;
  std::vector<double> bounds;
  Dag warmup;
  std::unique_ptr<MctsScheduler> scheduler;
};

OfflineInputs offline_setup(const RunOptions& o, bool leaf, int threads) {
  OfflineInputs in;
  in.policy = load_bench_policy(o.root);
  spear::DagGeneratorOptions gen;
  gen.num_tasks = kOfflineTasks;
  spear::Rng rng(o.seed);
  in.suite = spear::generate_random_dags(gen, kOfflineSuite, rng);
  for (const Dag& dag : in.suite) {
    in.bounds.push_back(makespan_lower_bound(dag, capacity()));
  }
  in.scheduler =
      spear::make_spear_scheduler(in.policy, offline_spear_options(leaf, threads));
  // Warm-up on a small DAG: inference workspaces and (leaf mode) the
  // thread pool exist before anything is timed.
  gen.num_tasks = 12;
  in.warmup = spear::generate_random_dag(gen, rng);
  in.scheduler->schedule(in.warmup, capacity());
  return in;
}

std::optional<std::string> check_schedule(const Schedule& s, const Dag& dag) {
  if (auto why = s.validate(dag, capacity())) return why;
  return std::nullopt;
}

/// The Stats fields that are exact functions of the inputs.  The rollout
/// cache is shared between leaf workers at > 1 thread, so its hit/miss
/// split — and with it the forward counts — is timing-dependent there.
std::vector<std::int64_t> exact_counts(const MctsScheduler::Stats& s,
                                       bool with_forwards) {
  std::vector<std::int64_t> v = {
      s.decisions,     s.forced_decisions, s.iterations,     s.rollouts,
      s.nodes_expanded, s.env_copies,      s.deadline_cutoffs, s.degradations,
      s.leaf_ticks,    s.tt_hits,          s.tt_misses,      s.vloss_collisions,
      s.batched_evals, s.batched_rows};
  if (with_forwards) {
    v.insert(v.end(), {s.guide_forwards, s.guide_forward_rows,
                       s.rollout_cache_hits, s.rollout_cache_misses});
  }
  return v;
}

bool same_placements(const Schedule& a, const Schedule& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.placements()[i].task != b.placements()[i].task ||
        a.placements()[i].start != b.placements()[i].start) {
      return false;
    }
  }
  return true;
}

void offline_untraced(OfflineInputs& in, int search_threads, std::size_t jobs,
                      Outcome& out, EndToEnd& e) {
  std::vector<Time> first_pass;  // makespan per suite DAG; -1 = invalid
  double makespan_sum = 0.0, bound_sum = 0.0;
  NominalClock clock(search_threads, kProbeEverySeconds);
  for (std::size_t i = 0; i < jobs; ++i) {
    const std::size_t k = i % in.suite.size();
    const Dag& dag = in.suite[k];
    const auto t0 = Clock::now();
    const Schedule s = in.scheduler->schedule(dag, capacity());
    clock.add(ms_between(t0, Clock::now()));
    ++out.attempted;
    Time makespan = -1;
    if (auto why = check_schedule(s, dag)) {
      ++out.failed;
      fail(out, "dag " + std::to_string(k) + ": " + *why);
    } else {
      makespan = s.makespan(dag);
    }
    if (i < in.suite.size()) {
      first_pass.push_back(makespan);
    } else if (makespan != first_pass[k]) {
      ++out.failed;
      fail(out, "dag " + std::to_string(k) + ": makespan changed between "
                "passes (" + std::to_string(first_pass[k]) + " vs " +
                std::to_string(makespan) + ")");
    }
    if (i < kOfflineQualityJobs) {
      makespan_sum += static_cast<double>(makespan);
      bound_sum += in.bounds[k];
    }
  }
  clock.finish();
  take_clock(clock, e);
  e.makespan_ratio = makespan_sum / bound_sum;
  // An offline job arrives alone on an idle cluster: its JCT is its makespan.
  e.jct_slowdown = e.makespan_ratio;
}

void offline_traced(const RunOptions& o, OfflineInputs& in, bool leaf,
                    int threads, Outcome& out) {
  const spear::SpearOptions spear_options = offline_spear_options(leaf, threads);
  SpanRecorder spans;
  auto tally = std::make_shared<GuideTally>();
  auto guide = std::make_shared<TimedGuide>(
      std::make_shared<spear::DrlDecisionPolicy>(in.policy, /*greedy=*/true),
      tally, &spans);
  MctsScheduler traced(mcts_options_like(spear_options), guide);
  traced.schedule_env(spear_env(in.warmup, *in.policy));
  spans.clear();
  tally->calls = 0;
  tally->rows = 0;
  tally->busy_ns = 0;

  const bool exact_forwards = !leaf || threads == 1;
  const std::size_t jobs = std::min(
      in.suite.size(), leaf ? kOfflineTraceJobsLeaf : kOfflineTraceJobsSerial);
  double untraced_s = 0.0, traced_s = 0.0;
  MctsScheduler::Stats sum;
  for (std::size_t k = 0; k < jobs; ++k) {
    const Dag& dag = in.suite[k];
    const auto t0 = Clock::now();
    const Schedule plain = in.scheduler->schedule(dag, capacity());
    const auto t1 = Clock::now();
    const MctsScheduler::Stats plain_stats = in.scheduler->last_stats();

    const std::int32_t span = spans.open("schedule", -1, static_cast<int>(k));
    spans.set_root(span);
    const auto t2 = Clock::now();
    const Schedule timed = traced.schedule_env(spear_env(dag, *in.policy));
    const auto t3 = Clock::now();
    spans.close(span);
    untraced_s += seconds_between(t0, t1);
    traced_s += seconds_between(t2, t3);

    const MctsScheduler::Stats& s = traced.last_stats();
    ++out.attempted;
    if (auto why = check_schedule(timed, dag)) {
      ++out.failed;
      fail(out, "traced dag " + std::to_string(k) + ": " + *why);
    } else if (!same_placements(plain, timed) ||
               exact_counts(plain_stats, exact_forwards) !=
                   exact_counts(s, exact_forwards)) {
      ++out.failed;
      fail(out, "traced dag " + std::to_string(k) +
                    ": traced run differs from the untraced one");
    }
    sum.iterations += s.iterations;
    sum.rollouts += s.rollouts;
    sum.env_copies += s.env_copies;
    sum.nodes_expanded += s.nodes_expanded;
    sum.search_seconds += s.search_seconds;
    sum.tt_hits += s.tt_hits;
    sum.tt_misses += s.tt_misses;
    sum.rollout_cache_hits += s.rollout_cache_hits;
    sum.rollout_cache_misses += s.rollout_cache_misses;
    sum.vloss_collisions += s.vloss_collisions;
    sum.leaf_ticks += s.leaf_ticks;
    sum.deadline_cutoffs += s.deadline_cutoffs;
    sum.degradations += s.degradations;
    sum.guide_forwards += s.guide_forwards;
    sum.guide_forward_rows += s.guide_forward_rows;
    add_hist(sum.batch_rows_hist, s.batch_rows_hist);
  }

  const std::vector<Span> all = spans.spans();
  const auto totals = span_totals(all);
  Layers m;
  const double rows = static_cast<double>(tally->rows.load());
  const double busy_ns = static_cast<double>(tally->busy_ns.load());
  m["guide.calls"] = static_cast<double>(tally->calls.load());
  m["guide.rows"] = rows;
  m["guide.busy_ms"] = busy_ns / 1e6;
  m["guide.ns_per_row"] = ratio(busy_ns, rows);
  m["nn.forwards"] = static_cast<double>(sum.guide_forwards);
  m["nn.rows_per_forward"] =
      ratio(static_cast<double>(sum.guide_forward_rows),
            static_cast<double>(sum.guide_forwards));
  m["nn.batch_rows_p50"] = hist_rows(sum.batch_rows_hist, 50.0);
  m["nn.batch_rows_p99"] = hist_rows(sum.batch_rows_hist, 99.0);
  if (const auto it = totals.find("schedule"); it != totals.end()) {
    m["mcts.self_ms"] = it->second.self_ms;
  }
  m["mcts.iterations"] = static_cast<double>(sum.iterations);
  m["mcts.rollouts"] = static_cast<double>(sum.rollouts);
  m["mcts.env_copies"] = static_cast<double>(sum.env_copies);
  m["mcts.nodes_expanded"] = static_cast<double>(sum.nodes_expanded);
  m["mcts.iters_per_s"] =
      ratio(static_cast<double>(sum.iterations), sum.search_seconds);
  m["mcts.tt_hit_ratio"] = ratio(static_cast<double>(sum.tt_hits),
                                 static_cast<double>(sum.tt_hits + sum.tt_misses));
  m["mcts.rollout_cache_hit_ratio"] =
      ratio(static_cast<double>(sum.rollout_cache_hits),
            static_cast<double>(sum.rollout_cache_hits + sum.rollout_cache_misses));
  m["mcts.vloss_collision_ratio"] =
      ratio(static_cast<double>(sum.vloss_collisions),
            static_cast<double>(sum.iterations));
  m["mcts.leaf_ticks"] = static_cast<double>(sum.leaf_ticks);
  m["mcts.deadline_cutoffs"] = static_cast<double>(sum.deadline_cutoffs);
  m["mcts.degradations"] = static_cast<double>(sum.degradations);

  std::vector<const Dag*> dags;
  for (const Dag& dag : in.suite) dags.push_back(&dag);
  probe_env(harvest_states(dags, in.policy->featurizer().options().max_ready,
                           256),
            *in.policy, m);
  m["trace_overhead"] = traced_s / untraced_s - 1.0;
  emit_layers(out, m);
  out.notes.push_back("traced dags " + std::to_string(jobs) + ", spans " +
                      std::to_string(all.size()));
  if (!o.trace_dir.empty()) {
    spans.write_jsonl(o.trace_dir + "/" + o.workload + "-seed" +
                          std::to_string(o.seed) + ".jsonl",
                      20000);
  }
}

Outcome run_offline(const RunOptions& o, bool leaf) {
  // Half the CPUs: a leaf search on every CPU waits at each tick for
  // whichever thread the machine's other load delayed, which moved its job
  // times by up to 1.9x between runs of the same code on a shared machine.
  // With half, that load lands on the idle CPUs.
  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  const int threads = std::max(1, std::min(kLeafMaxThreads, cpus / 2));
  Outcome out;
  EndToEnd e;
  OfflineInputs in = repeated_setup(
      [&] { return offline_setup(o, leaf, threads); }, e);
  out.notes.push_back("search threads " + std::to_string(leaf ? threads : 1));
  if (o.trace) {
    offline_traced(o, in, leaf, threads, out);
  } else {
    offline_untraced(in, leaf ? threads : 1,
                     timed_jobs(o.seconds,
                                leaf ? kOfflineLeafJobsPerSecond
                                     : kOfflineSerialJobsPerSecond,
                                kOfflineQualityJobs),
                     out, e);
    emit_end_to_end(out, e);
  }
  return out;
}

// --- serve -------------------------------------------------------------------

struct ServeInputs {
  std::vector<Dag> reference;  // pool DAGs as the service parses them
  std::vector<double> bounds;
  std::vector<std::string> lines;         // request line per due time
  std::vector<std::size_t> pool_index;    // pool DAG per due time
  std::vector<double> due;                // seconds from phase start
  std::shared_ptr<const Policy> policy;
  std::unique_ptr<spear::svc::SchedulerService> service;
};

ServeInputs serve_setup(const RunOptions& o, double rate, double seconds) {
  ServeInputs in;
  in.policy = load_bench_policy(o.root);
  spear::DagGeneratorOptions gen;
  gen.num_tasks = kServeTasks;
  spear::Rng rng(o.seed);
  std::vector<std::string> texts;
  for (const Dag& dag : spear::generate_random_dags(gen, kServePool, rng)) {
    texts.push_back(spear::dag_to_text(dag));
    in.reference.push_back(spear::dag_from_text(texts.back()));
    in.bounds.push_back(makespan_lower_bound(in.reference.back(), capacity()));
  }
  in.due = poisson_due_times(rate, seconds, o.seed);
  spear::Rng pick(o.seed ^ 0x5e12'7e5eULL);
  for (std::size_t i = 0; i < in.due.size(); ++i) {
    const std::size_t k = pick.next_u64() % kServePool;
    in.pool_index.push_back(k);
    in.lines.push_back("{\"id\":\"r" + std::to_string(i) +
                       "\",\"method\":\"submit\",\"dag\":\"" +
                       spear::obs::json_escape(texts[k]) + "\",\"budget_ms\":" +
                       std::to_string(kServeDeadlineMs) + "}");
  }

  spear::svc::ServiceOptions options;
  options.capacity = capacity();
  options.workers = kServeWorkers;
  options.default_budget_ms = kServeDeadlineMs;
  options.search_iterations = kServeIterations;
  options.min_iterations = kServeMinIterations;
  options.policy = in.policy;
  options.seed = o.seed;
  in.service = std::make_unique<spear::svc::SchedulerService>(options);
  in.service->start();
  // Warm-up: one request per worker, answered before set-up ends.
  std::atomic<int> answered{0};
  for (int w = 0; w < kServeWorkers; ++w) {
    spear::svc::SubmitRequest request;
    request.id = "warmup" + std::to_string(w);
    request.dag_text = texts[static_cast<std::size_t>(w)];
    in.service->submit(request, [&answered](bool, const auto&, const auto&) {
      answered.fetch_add(1);
    });
  }
  while (answered.load() < kServeWorkers) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return in;
}

Clock::time_point due_at(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

/// One request's outcome, written by whichever thread answered it.
struct Answer {
  bool ok = false;
  spear::svc::ErrorCode code = spear::svc::ErrorCode::kInternal;
  std::string response;
  Clock::time_point done;
  double queue_ms = 0.0;
  double search_ms = 0.0;
  bool degraded = false;
};

struct Phase {
  std::vector<Answer> answers;
  std::vector<double> late_ms;
  std::vector<double> latency_ms;  // from due time; +inf when refused
  Clock::time_point start;         // due times count from here
  std::int64_t placed = 0;
  spear::svc::ServiceCounters before, after;
};

/// Sends every request at its due time (open loop: sends never wait for
/// answers) through parse_request -> submit -> make_*_response, as the
/// daemon frontend does, then waits for every answer.
Phase serve_phase(ServeInputs& in, SpanRecorder* spans) {
  namespace svc = spear::svc;
  const std::size_t n = in.due.size();
  Phase p;
  p.answers.resize(n);
  p.late_ms.resize(n);
  p.before = in.service->counters();
  std::atomic<std::size_t> answered{0};
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  p.start = start;
  for (std::size_t i = 0; i < n; ++i) {
    const auto due = due_at(start, in.due[i]);
    std::this_thread::sleep_until(due);
    p.late_ms[i] = ms_between(due, Clock::now());
    const auto request_id = static_cast<std::int64_t>(i);
    const std::int32_t request_span =
        spans ? spans->add("request", due, due, -1, request_id) : -1;
    svc::Request request;
    {
      ScopedSpan parse(spans, "parse", request_span, request_id);
      request = svc::parse_request(in.lines[i]);
    }
    Answer* answer = &p.answers[i];
    ScopedSpan submit(spans, "submit", request_span, request_id);
    in.service->submit(
        request.submit,
        [answer, spans, request_span, request_id, &answered,
         id = request.id](bool ok, const svc::SubmitResult& result,
                          const svc::Rejection& rejection) {
          const auto t0 = Clock::now();
          answer->response = ok ? svc::make_placed_response(id, result)
                                : svc::make_error_response(id, rejection);
          answer->done = Clock::now();
          if (spans) {
            spans->add("respond", t0, answer->done, request_span, request_id);
            spans->close_at(request_span, answer->done);
          }
          answer->ok = ok;
          answer->code = rejection.code;
          answer->queue_ms = result.queue_ms;
          answer->search_ms = result.search_ms;
          answer->degraded = result.degraded;
          answered.fetch_add(1, std::memory_order_release);
        });
  }
  while (answered.load(std::memory_order_acquire) < n) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  p.after = in.service->counters();
  for (std::size_t i = 0; i < n; ++i) {
    const Answer& a = p.answers[i];
    const auto due = due_at(start, in.due[i]);
    p.latency_ms.push_back(a.ok ? ms_between(due, a.done)
                                : std::numeric_limits<double>::infinity());
    if (a.ok) ++p.placed;
  }
  return p;
}

/// Rebuilds each placed response into a Schedule and validates it against
/// its DAG; the recomputed makespan must equal the reported one.  Returns
/// the summed makespan over the summed lower bound of the placed requests.
double check_phase(const ServeInputs& in, const Phase& p, Outcome& out) {
  namespace svc = spear::svc;
  double makespan_sum = 0.0, bound_sum = 0.0;
  for (std::size_t i = 0; i < p.answers.size(); ++i) {
    const Answer& a = p.answers[i];
    ++out.attempted;
    if (!a.ok) {
      ++out.failed;
      continue;
    }
    const Dag& dag = in.reference[in.pool_index[i]];
    try {
      const svc::JsonValue v = svc::json_parse(a.response);
      std::map<std::string, spear::TaskId> by_name;
      for (const spear::Task& t : dag.tasks()) {
        by_name[t.name.empty() ? "t" + std::to_string(t.id) : t.name] = t.id;
      }
      Schedule s;
      for (const svc::JsonValue& pl : v.at("placements").as_array()) {
        s.add(by_name.at(pl.at("task").as_string()),
              static_cast<Time>(pl.at("start").as_number()));
      }
      const Time reported = static_cast<Time>(v.at("makespan").as_number());
      if (auto why = s.validate(dag, capacity())) {
        ++out.failed;
        fail(out, "request " + std::to_string(i) + ": " + *why);
      } else if (s.makespan(dag) != reported) {
        ++out.failed;
        fail(out, "request " + std::to_string(i) + ": reported makespan " +
                      std::to_string(reported) + ", schedule gives " +
                      std::to_string(s.makespan(dag)));
      } else {
        makespan_sum += static_cast<double>(reported);
        bound_sum += in.bounds[in.pool_index[i]];
      }
    } catch (const std::exception& e) {
      ++out.failed;
      fail(out, "request " + std::to_string(i) + ": bad response: " + e.what());
    }
  }
  // The ledger must account for every request sent in this phase.
  const auto& b = p.before;
  const auto& c = p.after;
  const std::int64_t sent = static_cast<std::int64_t>(p.answers.size());
  if (c.submitted - b.submitted != sent || c.in_flight != 0 ||
      c.submitted != c.placed + c.rejected_total() + c.cancelled + c.in_flight ||
      (c.placed - b.placed) != p.placed) {
    fail(out, "service ledger does not reconcile: sent " +
                  std::to_string(sent) + ", submitted " +
                  std::to_string(c.submitted - b.submitted) + ", placed " +
                  std::to_string(c.placed - b.placed) + ", in flight " +
                  std::to_string(c.in_flight));
  }
  return ratio(makespan_sum, bound_sum);
}

Outcome run_serve(const RunOptions& o) {
  const double rate = kServeRate;
  Outcome out;
  EndToEnd e;
  // A traced run measures two half-length phases over the same schedule:
  // untraced first, then traced.
  const double phase_s = o.trace ? o.seconds / 2.0 : o.seconds;
  ServeInputs in = repeated_setup(
      [&] { return serve_setup(o, rate, phase_s); }, e);
  out.notes.push_back("rate " + std::to_string(rate) + "/s, deadline " +
                      std::to_string(kServeDeadlineMs) + " ms, requests " +
                      std::to_string(in.due.size()) + " per phase");
  if (!o.trace) {
    BackgroundProbe speed(kServeProbeEverySeconds);
    const Phase p = serve_phase(in, nullptr);
    speed.stop();
    e.makespan_ratio = check_phase(in, p, out);
    // Each request's latency and search time are stated at nominal speed
    // by the probes taken while it was in the system.  The offered rate is
    // fixed, so the speed figure is the workers' busy (search) time: the
    // requests they could place per second if never idle.
    std::vector<double> search_ms, nominal_search_ms;
    for (std::size_t i = 0; i < p.answers.size(); ++i) {
      const Answer& a = p.answers[i];
      if (!a.ok) {
        e.nominal_ms.push_back(p.latency_ms[i]);
        continue;
      }
      const auto due = due_at(p.start, in.due[i]);
      const double slowdown =
          speed.slowdown_around(due, a.done, kServeProbeEverySeconds);
      e.nominal_ms.push_back(p.latency_ms[i] / slowdown);
      search_ms.push_back(a.search_ms);
      nominal_search_ms.push_back(a.search_ms / slowdown);
    }
    e.jobs_per_s = kServeWorkers * jobs_per_busy_second(nominal_search_ms);
    e.raw_jobs_per_s = kServeWorkers * jobs_per_busy_second(search_ms);
    e.machine_slowdown = speed.slowdown();
    e.job_ms = p.latency_ms;
    // Each request is scheduled against an idle cluster of its own.
    e.jct_slowdown = e.makespan_ratio;
    in.service->shutdown();
    emit_end_to_end(out, e);
    out.notes.push_back("generator late p99 " +
                        std::to_string(nearest_rank(p.late_ms, 99.0)) + " ms");
    return out;
  }

  const Phase plain = serve_phase(in, nullptr);
  check_phase(in, plain, out);
  SpanRecorder spans;
  const Phase traced = serve_phase(in, &spans);
  check_phase(in, traced, out);
  in.service->shutdown();

  const auto totals = span_totals(spans.spans());
  const auto mean_us = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : 1000.0 * it->second.total_ms /
                     static_cast<double>(it->second.count);
  };
  std::vector<double> queue_ms, search_ms;
  std::int64_t degraded = 0, expired = 0, shed = 0;
  for (const Answer& a : traced.answers) {
    if (a.ok) {
      queue_ms.push_back(a.queue_ms);
      search_ms.push_back(a.search_ms);
      if (a.degraded) ++degraded;
    } else if (a.code == spear::svc::ErrorCode::kDeadlineExpired) {
      ++expired;
    } else if (a.code == spear::svc::ErrorCode::kQueueFull ||
               a.code == spear::svc::ErrorCode::kQuotaExceeded) {
      ++shed;
    }
  }
  const auto& b = traced.before;
  const auto& c = traced.after;
  std::vector<std::int64_t> hist = c.forward_hist;
  for (std::size_t w = 0; w < b.forward_hist.size(); ++w) hist[w] -= b.forward_hist[w];
  const double forwards = static_cast<double>(c.search_forwards - b.search_forwards);
  Layers m;
  m["nn.forwards"] = forwards;
  m["nn.rows_per_forward"] = ratio(
      static_cast<double>(c.search_forward_rows - b.search_forward_rows), forwards);
  m["nn.batch_rows_p50"] = hist_rows(hist, 50.0);
  m["nn.batch_rows_p99"] = hist_rows(hist, 99.0);
  m["mcts.deadline_cutoffs"] =
      static_cast<double>(c.search_deadline_cutoffs - b.search_deadline_cutoffs);
  m["mcts.degradations"] =
      static_cast<double>(c.search_degradations - b.search_degradations);
  m["svc.parse_us"] = mean_us("parse");
  m["svc.submit_us"] = mean_us("submit");
  m["svc.respond_us"] = mean_us("respond");
  m["svc.queue_ms_p50"] = nearest_rank(queue_ms, 50.0);
  m["svc.queue_ms_p99"] = nearest_rank(queue_ms, 99.0);
  m["svc.search_ms_p50"] = nearest_rank(search_ms, 50.0);
  m["svc.search_ms_p99"] = nearest_rank(search_ms, 99.0);
  m["svc.degraded_share"] = ratio(static_cast<double>(degraded),
                                  static_cast<double>(traced.placed));
  m["svc.expired"] = static_cast<double>(expired);
  m["svc.shed"] = static_cast<double>(shed);
  m["gen.late_p99_ms"] = nearest_rank(traced.late_ms, 99.0);

  std::vector<const Dag*> dags;
  for (const Dag& dag : in.reference) dags.push_back(&dag);
  probe_env(harvest_states(dags, in.policy->featurizer().options().max_ready,
                           256),
            *in.policy, m);
  m["trace_overhead"] = nearest_rank(traced.latency_ms, 50.0) /
                            nearest_rank(plain.latency_ms, 50.0) -
                        1.0;
  emit_layers(out, m);
  if (!o.trace_dir.empty()) {
    spans.write_jsonl(o.trace_dir + "/" + o.workload + "-seed" +
                          std::to_string(o.seed) + ".jsonl",
                      20000);
  }
  return out;
}

// --- online repair -----------------------------------------------------------

struct OnlineInputs {
  std::vector<std::shared_ptr<const Dag>> dags;
  std::vector<Time> arrivals;
  std::vector<double> bounds;
  std::unique_ptr<spear::Scheduler> planner;
  std::shared_ptr<const Policy> policy;  // env/rl probes only
};

OnlineInputs online_setup(const RunOptions& o) {
  OnlineInputs in;
  in.policy = load_bench_policy(o.root);
  spear::TraceOptions trace;
  trace.num_jobs = kOnlineJobs;
  spear::Rng rng(kOnlineTraceSeed);
  for (const spear::MapReduceJob& job : spear::generate_trace(trace, rng)) {
    in.dags.push_back(std::make_shared<const Dag>(spear::mapreduce_to_dag(job)));
    in.bounds.push_back(makespan_lower_bound(*in.dags.back(), capacity()));
  }
  spear::ArrivalOptions arrivals;
  arrivals.mean_interarrival = kOnlineMeanInterarrival;
  arrivals.seed = kOnlineTraceSeed ^ 0x5bf0'3635ULL;
  in.arrivals = spear::generate_poisson_arrivals(in.dags.size(), arrivals);
  in.planner = spear::make_critical_path_scheduler();
  return in;
}

spear::exec::ExecOptions online_exec_options(std::uint64_t seed,
                                             std::size_t job) {
  spear::exec::ExecOptions options;
  options.repair = true;
  options.speculate = true;
  options.perturb.sigma = 0.6;
  options.perturb.straggler_rate = 0.10;
  options.perturb.straggler_factor = 4.0;
  options.perturb.seed = seed ^ ((job + 1) * 0x9e3779b97f4a7c15ULL);
  options.research_initial_budget = 128;
  options.research_min_budget = 32;
  options.research_threads = 1;
  options.seed = options.perturb.seed ^ 0xec5dec5dULL;
  return options;
}

struct JobRun {
  spear::exec::ExecResult result;
  double plan_ms = 0.0;
  double run_ms = 0.0;
  double validate_ms = 0.0;
  std::optional<std::string> error;
};

/// Plans job `j` with CP, replays it through the engine, and checks the
/// event log.  With `spans`, each step is recorded under a "job" span.
JobRun run_job(const OnlineInputs& in, std::size_t j, std::uint64_t seed,
               SpanRecorder* spans) {
  JobRun r;
  const Dag& dag = *in.dags[j];
  const auto request = static_cast<std::int64_t>(j);
  ScopedSpan job(spans, "job", -1, request);
  const auto t0 = Clock::now();
  Schedule plan;
  {
    ScopedSpan s(spans, "plan", job.id(), request);
    plan = in.planner->schedule(dag, capacity());
  }
  const auto t1 = Clock::now();
  {
    ScopedSpan s(spans, "exec.run", job.id(), request);
    spear::exec::ExecutionEngine engine(in.dags[j], capacity(),
                                        online_exec_options(seed, j));
    r.result = engine.run(plan);
  }
  const auto t2 = Clock::now();
  {
    ScopedSpan s(spans, "exec.validate", job.id(), request);
    if (auto why = plan.validate(dag, capacity())) {
      r.error = "plan: " + *why;
    } else if (auto bad = spear::exec::validate_events(dag, capacity(),
                                                        r.result.events)) {
      r.error = "event log: " + *bad;
    } else if (spear::exec::replay_makespan(r.result.events) !=
               r.result.makespan) {
      r.error = "replay makespan differs from the reported makespan";
    }
  }
  const auto t3 = Clock::now();
  r.plan_ms = ms_between(t0, t1);
  r.run_ms = ms_between(t1, t2);
  r.validate_ms = ms_between(t2, t3);
  return r;
}

Outcome run_online(const RunOptions& o) {
  Outcome out;
  EndToEnd e;
  OnlineInputs in =
      repeated_setup([&] { return online_setup(o); }, e);
  const std::size_t n = in.dags.size();

  if (!o.trace) {
    std::vector<Time> first_pass;  // realized makespan per job; -1 = invalid
    double makespan_sum = 0.0, jct_sum = 0.0, bound_sum = 0.0;
    NominalClock clock(1, kProbeEverySeconds);
    Time busy = 0;
    const std::size_t jobs =
        timed_jobs(o.seconds, kOnlineJobsPerSecond, kOnlineQualityJobs);
    for (std::size_t i = 0; i < jobs; ++i) {
      const std::size_t j = i % n;
      const JobRun r = run_job(in, j, o.seed, nullptr);
      const double ms = r.plan_ms + r.run_ms;
      clock.add(ms);
      ++out.attempted;
      Time makespan = -1;
      if (r.error) {
        ++out.failed;
        fail(out, "job " + std::to_string(j) + ": " + *r.error);
      } else {
        makespan = r.result.makespan;
      }
      if (i < n) {
        first_pass.push_back(makespan);
      } else if (makespan != first_pass[j]) {
        ++out.failed;
        fail(out, "job " + std::to_string(j) + ": replay changed between passes");
      }
      if (i < kOnlineQualityJobs) {
        makespan_sum += static_cast<double>(makespan);
        bound_sum += in.bounds[j];
        // FIFO single-server queue: each job runs alone on the cluster.
        busy = std::max(in.arrivals[j], busy) + makespan;
        jct_sum += static_cast<double>(busy - in.arrivals[j]);
      }
    }
    clock.finish();
    take_clock(clock, e);
    e.makespan_ratio = makespan_sum / bound_sum;
    e.jct_slowdown = jct_sum / bound_sum;
    emit_end_to_end(out, e);
    return out;
  }

  SpanRecorder spans;
  const std::size_t jobs = std::min(n, kOnlineTraceJobs);
  double untraced_ms = 0.0, traced_ms = 0.0;
  double plan_ms = 0.0, run_ms = 0.0, validate_ms = 0.0;
  spear::exec::ExecStats sum;
  for (std::size_t j = 0; j < jobs; ++j) {
    const JobRun plain = run_job(in, j, o.seed, nullptr);
    const JobRun timed = run_job(in, j, o.seed, &spans);
    untraced_ms += plain.plan_ms + plain.run_ms;
    traced_ms += timed.plan_ms + timed.run_ms;
    plan_ms += timed.plan_ms;
    run_ms += timed.run_ms;
    validate_ms += timed.validate_ms;
    ++out.attempted;
    if (timed.error) {
      ++out.failed;
      fail(out, "traced job " + std::to_string(j) + ": " + *timed.error);
    } else if (plain.result.makespan != timed.result.makespan ||
               spear::exec::format_events(plain.result.events) !=
                   spear::exec::format_events(timed.result.events)) {
      ++out.failed;
      fail(out, "traced job " + std::to_string(j) +
                    ": traced replay differs from the untraced one");
    }
    const spear::exec::ExecStats& s = timed.result.stats;
    sum.researches += s.researches;
    sum.local_repairs += s.local_repairs;
    sum.speculations += s.speculations;
    sum.speculation_wins += s.speculation_wins;
  }
  const double count = static_cast<double>(jobs);
  Layers m;
  m["exec.run_ms"] = run_ms / count;
  m["exec.validate_ms"] = validate_ms / count;
  m["exec.researches"] = static_cast<double>(sum.researches);
  m["exec.local_repairs"] = static_cast<double>(sum.local_repairs);
  m["exec.speculations"] = static_cast<double>(sum.speculations);
  m["exec.speculation_win_ratio"] =
      ratio(static_cast<double>(sum.speculation_wins),
            static_cast<double>(sum.speculations));
  m["sched.plan_ms"] = plan_ms / count;
  std::vector<const Dag*> dags;
  for (const auto& dag : in.dags) dags.push_back(dag.get());
  probe_env(harvest_states(dags, in.policy->featurizer().options().max_ready,
                           256),
            *in.policy, m);
  m["trace_overhead"] = traced_ms / untraced_ms - 1.0;
  emit_layers(out, m);
  out.notes.push_back("traced jobs " + std::to_string(jobs));
  if (!o.trace_dir.empty()) {
    spans.write_jsonl(o.trace_dir + "/" + o.workload + "-seed" +
                          std::to_string(o.seed) + ".jsonl",
                      20000);
  }
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "offline_serial", "offline_leaf", "serve_poisson",
      "online_repair"};
  return kNames;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},          {"peak_rss_mb", "MB"},
      {"jobs_per_s", "1/s"},     {"job_p50_ms", "ms"},
      {"job_p90_ms", "ms"},      {"makespan_ratio", "ratio"},
      {"jct_slowdown", "ratio"}};
  return kMetrics;
}

const std::vector<MetricSpec>& layer_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"guide.calls", "count"},
      {"guide.rows", "count"},
      {"guide.busy_ms", "ms"},
      {"guide.ns_per_row", "ns"},
      {"nn.forwards", "count"},
      {"nn.rows_per_forward", "rows"},
      {"nn.batch_rows_p50", "rows"},
      {"nn.batch_rows_p99", "rows"},
      {"mcts.self_ms", "ms"},
      {"mcts.iterations", "count"},
      {"mcts.rollouts", "count"},
      {"mcts.env_copies", "count"},
      {"mcts.nodes_expanded", "count"},
      {"mcts.iters_per_s", "1/s"},
      {"mcts.tt_hit_ratio", "ratio"},
      {"mcts.rollout_cache_hit_ratio", "ratio"},
      {"mcts.vloss_collision_ratio", "ratio"},
      {"mcts.leaf_ticks", "count"},
      {"mcts.deadline_cutoffs", "count"},
      {"mcts.degradations", "count"},
      {"env.copy_ns", "ns"},
      {"env.valid_actions_ns", "ns"},
      {"env.step_ns", "ns"},
      {"env.process_ns", "ns"},
      {"env.featurize_ns", "ns"},
      {"rl.forward_ns_per_row.w1", "ns"},
      {"rl.forward_ns_per_row.w32", "ns"},
      {"svc.parse_us", "us"},
      {"svc.submit_us", "us"},
      {"svc.respond_us", "us"},
      {"svc.queue_ms_p50", "ms"},
      {"svc.queue_ms_p99", "ms"},
      {"svc.search_ms_p50", "ms"},
      {"svc.search_ms_p99", "ms"},
      {"svc.degraded_share", "share"},
      {"svc.expired", "count"},
      {"svc.shed", "count"},
      {"gen.late_p99_ms", "ms"},
      {"exec.run_ms", "ms"},
      {"exec.validate_ms", "ms"},
      {"exec.researches", "count"},
      {"exec.local_repairs", "count"},
      {"exec.speculations", "count"},
      {"exec.speculation_win_ratio", "ratio"},
      {"sched.plan_ms", "ms"},
      {"trace_overhead", "share"},
  };
  return kMetrics;
}

Outcome run_workload(const RunOptions& options) {
  if (options.workload == "offline_serial") return run_offline(options, false);
  if (options.workload == "offline_leaf") return run_offline(options, true);
  if (options.workload == "serve_poisson") return run_serve(options);
  if (options.workload == "online_repair") return run_online(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace spearbench
