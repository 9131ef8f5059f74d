// Google-benchmark micro-benchmarks for the hot paths: simulator stepping,
// feature extraction, NN forward/backward, MCTS decisions (serial and
// leaf-parallel), Matrix::matmul, Graphene's virtual packing, and DAG
// generation.  These guard the throughput assumptions behind the
// bench-harness defaults.
//
// Before the google benchmarks run, main() times the guided-policy forward
// paths (bench_micro_policy_forward.json) and runs the DRL-guided sweep of a
// serial baseline against leaf mode at 1/2/4/8 workers, with each cell's
// tick phase times (bench_micro_leaf_parallel.json, committed as
// BENCH_mcts_leaf_parallel.json).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "common/table.h"
#include "dag/generator.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "env/featurizer.h"
#include "mcts/mcts.h"
#include "nn/kernels.h"
#include "nn/matrix.h"
#include "nn/mlp.h"
#include "rl/policy.h"
#include "sched/graphene.h"
#include "sched/tetris.h"

namespace spear {
namespace {

const ResourceVector kCapacity{1.0, 1.0};

Dag benchmark_dag(std::size_t tasks, std::uint64_t seed = 1) {
  DagGeneratorOptions options;
  options.num_tasks = tasks;
  Rng rng(seed);
  return generate_random_dag(options, rng);
}

void BM_GenerateDag(benchmark::State& state) {
  DagGeneratorOptions options;
  options.num_tasks = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_random_dag(options, rng));
  }
}
BENCHMARK(BM_GenerateDag)->Arg(25)->Arg(100);

void BM_DagFeatures(benchmark::State& state) {
  const Dag dag = benchmark_dag(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DagFeatures(dag));
  }
}
BENCHMARK(BM_DagFeatures)->Arg(25)->Arg(100);

void BM_RandomEpisode(benchmark::State& state) {
  const auto dag = std::make_shared<Dag>(
      benchmark_dag(static_cast<std::size_t>(state.range(0))));
  const auto features = std::make_shared<DagFeatures>(*dag);
  EnvOptions options;
  options.max_ready = dag->num_tasks();
  Rng rng(3);
  for (auto _ : state) {
    SchedulingEnv env(dag, kCapacity, options, features);
    while (!env.done()) {
      const auto actions = env.valid_actions();
      const auto pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(actions.size()) - 1));
      if (actions[pick] == SchedulingEnv::kProcessAction) {
        env.process_to_next_finish();
      } else {
        env.step(actions[pick]);
      }
    }
    benchmark::DoNotOptimize(env.makespan());
  }
}
BENCHMARK(BM_RandomEpisode)->Arg(25)->Arg(100);

void BM_Featurize(benchmark::State& state) {
  const auto dag = std::make_shared<Dag>(benchmark_dag(50));
  EnvOptions env_options;
  env_options.max_ready = 15;
  SchedulingEnv env(dag, kCapacity, env_options);
  env.step(0);
  Featurizer featurizer;
  std::vector<double> out;
  for (auto _ : state) {
    featurizer.featurize(env, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Featurize);

void BM_FeaturizeInto(benchmark::State& state) {
  // Same workload as BM_Featurize through the span API: features written
  // straight into a preallocated row, no per-call clear-and-size of a
  // vector (the batched fast path's featurization primitive).
  const auto dag = std::make_shared<Dag>(benchmark_dag(50));
  EnvOptions env_options;
  env_options.max_ready = 15;
  SchedulingEnv env(dag, kCapacity, env_options);
  env.step(0);
  Featurizer featurizer;
  std::vector<double> out(featurizer.input_dim(2), 0.0);
  for (auto _ : state) {
    featurizer.featurize_into(env, out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FeaturizeInto);

void BM_MlpForward(benchmark::State& state) {
  Rng rng(5);
  Mlp net({163, 256, 32, 32, 16}, rng);  // the paper topology
  Matrix input(static_cast<std::size_t>(state.range(0)), 163, 0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward(input));
  }
}
BENCHMARK(BM_MlpForward)->Arg(1)->Arg(32);

void BM_MlpForwardWs(benchmark::State& state) {
  // The workspace forward: same math as BM_MlpForward (bit-identical
  // logits) with zero steady-state allocation.
  Rng rng(5);
  Mlp net({163, 256, 32, 32, 16}, rng);
  const auto rows = static_cast<std::size_t>(state.range(0));
  Mlp::ForwardWorkspace ws;
  net.begin_forward(ws, rows).fill(0.1);
  for (auto _ : state) {
    net.begin_forward(ws, rows).fill(0.1);
    net.forward_ws(ws);
    benchmark::DoNotOptimize(ws.logits().data().data());
  }
}
BENCHMARK(BM_MlpForwardWs)->Arg(1)->Arg(32);

void BM_MlpBackward(benchmark::State& state) {
  Rng rng(5);
  Mlp net({163, 256, 32, 32, 16}, rng);
  Matrix input(static_cast<std::size_t>(state.range(0)), 163, 0.1);
  const auto cache = net.forward(input);
  Matrix d_logits(input.rows(), 16, 0.01);
  auto grads = net.make_gradients();
  for (auto _ : state) {
    grads.zero();
    net.backward(cache, d_logits, grads);
    benchmark::DoNotOptimize(grads.max_abs());
  }
}
BENCHMARK(BM_MlpBackward)->Arg(1)->Arg(32);

void BM_PolicyActionProbs(benchmark::State& state) {
  Rng rng(6);
  Policy policy = Policy::make(FeaturizerOptions{}, 2, rng);
  const auto dag = std::make_shared<Dag>(benchmark_dag(50));
  EnvOptions env_options;
  env_options.max_ready = 15;
  SchedulingEnv env(dag, kCapacity, env_options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.action_probs(env));
  }
}
BENCHMARK(BM_PolicyActionProbs);

/// Snapshots of up to `max_states` decision states along one episode of
/// `dag`, stepping the first valid action each turn — the state mix a
/// guided MCTS expansion evaluates.
std::vector<SchedulingEnv> episode_states(std::size_t max_states) {
  const auto dag = std::make_shared<Dag>(benchmark_dag(50));
  EnvOptions env_options;
  env_options.max_ready = 15;
  SchedulingEnv env(dag, kCapacity, env_options);
  std::vector<SchedulingEnv> states;
  while (!env.done() && states.size() < max_states) {
    states.push_back(env);
    const auto actions = env.valid_actions();
    if (actions.front() == SchedulingEnv::kProcessAction) {
      env.process_to_next_finish();
    } else {
      env.step(actions.front());
    }
  }
  return states;
}

void BM_PolicyActionProbsBatch(benchmark::State& state) {
  // One batched forward over N states vs. N BM_PolicyActionProbs calls:
  // the MCTS expansion fast path.  masks/probs are reused across
  // iterations, so the steady state allocates nothing.
  Rng rng(6);
  Policy policy = Policy::make(FeaturizerOptions{}, 2, rng);
  const auto states = episode_states(static_cast<std::size_t>(state.range(0)));
  std::vector<const SchedulingEnv*> ptrs;
  for (const auto& s : states) ptrs.push_back(&s);
  std::vector<std::vector<bool>> masks;
  std::vector<std::vector<double>> probs;
  for (auto _ : state) {
    policy.action_probs_batch(ptrs.data(), ptrs.size(), masks, probs);
    benchmark::DoNotOptimize(probs.data());
  }
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(ptrs.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_PolicyActionProbsBatch)->Arg(8)->Arg(32);

void BM_TetrisSchedule(benchmark::State& state) {
  const Dag dag = benchmark_dag(static_cast<std::size_t>(state.range(0)));
  auto tetris = make_tetris_scheduler();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tetris->schedule(dag, kCapacity));
  }
}
BENCHMARK(BM_TetrisSchedule)->Arg(25)->Arg(100);

void BM_GrapheneSchedule(benchmark::State& state) {
  const Dag dag = benchmark_dag(static_cast<std::size_t>(state.range(0)));
  auto graphene = make_graphene_scheduler();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graphene->schedule(dag, kCapacity));
  }
}
BENCHMARK(BM_GrapheneSchedule)->Arg(25)->Arg(100);

void BM_MctsSchedule25(benchmark::State& state) {
  const Dag dag = benchmark_dag(25);
  MctsOptions options;
  options.initial_budget = state.range(0);
  options.min_budget = std::max<std::int64_t>(state.range(0) / 4, 1);
  for (auto _ : state) {
    MctsScheduler mcts(options);
    benchmark::DoNotOptimize(mcts.schedule(dag, kCapacity));
  }
}
BENCHMARK(BM_MctsSchedule25)->Arg(10)->Arg(50);

void BM_MctsScheduleThreads(benchmark::State& state) {
  // Table-1 workload shape: 50-task DAG, budget 500.  The scheduler (and
  // its thread pool) is reused across iterations, as in a long-lived
  // service.  decisions/s and iters/s counters report search throughput.
  const Dag dag = benchmark_dag(50, 11);
  MctsOptions options;
  options.initial_budget = 500;
  options.min_budget = 5;
  options.num_threads = static_cast<int>(state.range(0));
  MctsScheduler mcts(options);
  std::int64_t decisions = 0;
  std::int64_t iterations = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mcts.schedule(dag, kCapacity));
    decisions += mcts.last_stats().decisions;
    iterations += mcts.last_stats().iterations;
  }
  state.counters["decisions/s"] = benchmark::Counter(
      static_cast<double>(decisions), benchmark::Counter::kIsRate);
  state.counters["iters/s"] = benchmark::Counter(
      static_cast<double>(iterations), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MctsScheduleThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a(n, n, 0.5);
  const Matrix b(n, n, 0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.matmul(b));
  }
  // 2*n^3 flops per product (n^3 multiplies + n^3 adds).
  state.counters["flops"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * static_cast<double>(n) *
          static_cast<double>(n),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulSeedReference(benchmark::State& state) {
  // The seed i-k-j matmul (with its a == 0.0 skip branch), kept as the
  // before/after baseline for the tiled kernel that BM_Matmul now hits.
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a(n, n, 0.5);
  const Matrix b(n, n, 0.25);
  Matrix out(n, n, 0.0);
  for (auto _ : state) {
    kernels::reference_matmul_into(a.data().data(), n, n, b.data().data(), n,
                                   out.data().data());
    benchmark::DoNotOptimize(out.data().data());
  }
  state.counters["flops"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * static_cast<double>(n) *
          static_cast<double>(n),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_MatmulSeedReference)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

/// The guided-policy forward acceptance sweep (ISSUE: >= 2x single-thread
/// throughput under portable flags).  Replays the seed inference path —
/// per-state fresh featurize vector, single-row Mlp::logits, allocating
/// valid_output_mask + masked_softmax — against the batched zero-allocation
/// fast path (action_probs_batch) over the same decision states, checks the
/// probabilities are bit-identical, times the fast path's per-row cost at
/// batch widths 1, 8 and 32, and writes the timings as JSON together with
/// nproc, the compiler and the build type.
void run_policy_forward_bench(const char* json_path) {
  constexpr std::size_t kStates = 32;
  constexpr int kReps = 2000;
  Rng rng(6);
  Policy policy = Policy::make(FeaturizerOptions{}, 2, rng);
  const auto states = episode_states(kStates);
  std::vector<const SchedulingEnv*> ptrs;
  for (const auto& s : states) ptrs.push_back(&s);

  // Faithful replica of the seed per-state path: fresh featurize vector,
  // Mlp::forward building its Forward cache (input copy + one cached
  // pre-activation copy per layer) on the seed i-k-j matmul with the
  // a == 0.0 skip, allocating mask and probs vectors per state.  Matrix's
  // own matmul now routes through the tiled kernels, so the old path has
  // to be reconstructed here to serve as the before/after baseline.
  const auto seed_logits = [&](const std::vector<double>& features) {
    const auto& layers = policy.net().layers();
    Matrix input = Matrix::from_rows(1, features.size(), features);
    std::vector<Matrix> pre_activations;
    pre_activations.reserve(layers.size());
    Matrix logits;
    Matrix activation = input;
    for (std::size_t l = 0; l < layers.size(); ++l) {
      const Matrix& w = layers[l].weights;
      Matrix z(1, w.cols());
      kernels::reference_matmul_into(activation.data().data(), 1,
                                     activation.cols(), w.data().data(),
                                     w.cols(), z.data().data());
      for (std::size_t j = 0; j < w.cols(); ++j) {
        z.data()[j] += layers[l].bias[j];
      }
      pre_activations.push_back(z);
      if (l + 1 < layers.size()) {
        for (auto& x : z.data()) x = x > 0.0 ? x : 0.0;
        activation = std::move(z);
      } else {
        logits = std::move(z);
      }
    }
    benchmark::DoNotOptimize(pre_activations.data());
    return std::vector<double>(logits.data().begin(), logits.data().end());
  };
  const auto seed_pass = [&](std::vector<std::vector<double>>& out) {
    out.clear();
    for (const auto* env : ptrs) {
      std::vector<double> features;
      policy.featurizer().featurize(*env, features);
      const std::vector<double> logits = seed_logits(features);
      const std::vector<bool> mask = policy.valid_output_mask(*env);
      out.push_back(Policy::masked_softmax(logits, mask));
    }
  };
  std::vector<std::vector<bool>> masks;
  std::vector<std::vector<double>> fast_probs;
  const auto fast_pass = [&] {
    policy.action_probs_batch(ptrs.data(), ptrs.size(), masks, fast_probs);
  };

  // Warm up (and grow the workspace to its high-water mark), then verify
  // both paths produce the same bits before timing them.
  std::vector<std::vector<double>> seed_probs;
  seed_pass(seed_probs);
  fast_pass();
  bool bit_identical = seed_probs.size() == fast_probs.size();
  for (std::size_t i = 0; bit_identical && i < seed_probs.size(); ++i) {
    bit_identical = seed_probs[i].size() == fast_probs[i].size() &&
                    std::memcmp(seed_probs[i].data(), fast_probs[i].data(),
                                seed_probs[i].size() * sizeof(double)) == 0;
  }

  using Clock = std::chrono::steady_clock;
  const auto seed_start = Clock::now();
  for (int r = 0; r < kReps; ++r) seed_pass(seed_probs);
  const double seed_seconds =
      std::chrono::duration<double>(Clock::now() - seed_start).count();
  const auto fast_start = Clock::now();
  for (int r = 0; r < kReps; ++r) fast_pass();
  const double fast_seconds =
      std::chrono::duration<double>(Clock::now() - fast_start).count();

  const double total_states = static_cast<double>(kStates) * kReps;
  const double seed_sps = total_states / seed_seconds;
  const double fast_sps = total_states / fast_seconds;
  const double speedup = seed_seconds / fast_seconds;

  // Per-row cost of the fast path by batch width: the same kStates * kReps
  // rows at every width, split into batches of the first `width` states.
  constexpr std::size_t kWidths[] = {1, 8, 32};
  double ns_per_row[std::size(kWidths)];
  for (std::size_t w = 0; w < std::size(kWidths); ++w) {
    const std::size_t width = kWidths[w];
    const std::size_t calls = kStates * kReps / width;
    policy.action_probs_batch(ptrs.data(), width, masks, fast_probs);
    const auto start = Clock::now();
    for (std::size_t c = 0; c < calls; ++c) {
      policy.action_probs_batch(ptrs.data(), width, masks, fast_probs);
    }
    ns_per_row[w] =
        std::chrono::duration<double, std::nano>(Clock::now() - start)
            .count() /
        static_cast<double>(calls * width);
  }

  std::printf(
      "Guided-policy forward (single thread, %zu states x %d reps):\n"
      "  seed path    %10.0f states/s\n"
      "  batched path %10.0f states/s\n"
      "  speedup      %10.2fx   bit-identical: %s\n"
      "  batched ns/row at width 1 / 8 / 32: %.0f / %.0f / %.0f\n\n",
      kStates, kReps, seed_sps, fast_sps, speedup,
      bit_identical ? "yes" : "NO", ns_per_row[0], ns_per_row[1],
      ns_per_row[2]);

  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"policy_forward_fast_path\",\n"
                 "  \"command\": \"bench_micro --benchmark_filter=NONE\",\n"
                 "  \"nproc\": %u,\n"
                 "  \"compiler\": \"%s\",\n"
                 "  \"build_type\": \"%s\",\n"
                 "  \"workload\": \"50-task DAG, max_ready 15, paper topology"
                 " {163,256,32,32,16}\",\n"
                 "  \"states\": %zu,\n"
                 "  \"reps\": %d,\n"
                 "  \"seed_seconds\": %.6f,\n"
                 "  \"fast_seconds\": %.6f,\n"
                 "  \"seed_states_per_sec\": %.1f,\n"
                 "  \"fast_states_per_sec\": %.1f,\n"
                 "  \"speedup\": %.3f,\n"
                 "  \"bit_identical\": %s,\n"
                 "  \"fast_ns_per_row\": {\"w1\": %.1f, \"w8\": %.1f, "
                 "\"w32\": %.1f},\n"
                 "  \"flags\": \"portable (no -march=native), single thread\"\n"
                 "}\n",
                 std::thread::hardware_concurrency(), SPEAR_COMPILER,
                 SPEAR_BUILD_TYPE, kStates, kReps, seed_seconds, fast_seconds,
                 seed_sps, fast_sps, speedup,
                 bit_identical ? "true" : "false", ns_per_row[0],
                 ns_per_row[1], ns_per_row[2]);
    std::fclose(f);
    std::printf("wrote %s\n\n", json_path);
  }
}

/// Wall time (ms) of each tick phase, summed over one schedule() call.
struct PhaseMs {
  double descend = 0.0;
  double workers = 0.0;
  double evaluator = 0.0;
  double backup = 0.0;
};

/// Runs mcts.schedule(dag) once more with metrics on and sums the tick
/// phase span histograms it adds (into the --metrics-out registry when one
/// is installed, else into a private one).  A separate run: metrics on also
/// time every nn forward, so a cell's states/s come from its obs-off run.
PhaseMs time_phases(MctsScheduler& mcts, const Dag& dag) {
  const bool own = obs::metrics() == nullptr;
  if (own) obs::install_metrics(std::make_shared<obs::MetricsRegistry>());
  const obs::MetricsSnapshot before = obs::metrics()->snapshot();
  mcts.schedule(dag, kCapacity);
  const obs::MetricsSnapshot after = obs::metrics()->snapshot();
  if (own) obs::install_metrics(nullptr);
  const auto added_ms = [&](const char* name) {
    const auto a = after.histograms.find(name);
    if (a == after.histograms.end()) return 0.0;
    const auto b = before.histograms.find(name);
    return a->second.sum -
           (b == before.histograms.end() ? 0.0 : b->second.sum);
  };
  PhaseMs ms;
  ms.descend = added_ms("mcts.leaf.descend.ms");
  ms.workers = added_ms("mcts.leaf.workers.ms");
  ms.evaluator = added_ms("mcts.evaluator.drain.ms");
  ms.backup = added_ms("mcts.leaf.backup.ms");
  return ms;
}

/// The leaf-parallel sweep (DESIGN.md §11): the serial search against leaf
/// mode at 1/2/4/8 workers across small/medium/large DAGs, DRL-guided
/// (untrained weights — identical network cost to trained ones), equal
/// iteration budget everywhere.  states/s counts completed search
/// iterations per wall-clock second inside the search; each cell is timed
/// kRuns times and reports the median with the min and max, because one
/// run of a cell on a shared box can be off by a third.  Makespans are
/// reported so quality regressions show up next to the speedup.  Writes the
/// grid plus a per-size summary of leaf mode (median over its worker counts)
/// against the serial baseline as JSON (committed as
/// BENCH_mcts_leaf_parallel.json).
void run_leaf_parallel_sweep(const char* json_path) {
  // AlphaZero-style budgets: large enough per decision that the evaluator
  // has real batches to drain (a budget that decays to single digits caps
  // every batch at single digits, hiding the batching win leaf mode exists
  // for).
  constexpr std::int64_t kInitialBudget = 256;
  constexpr std::int64_t kMinBudget = 128;
  // 32 in-flight descents per tick = 4 ticks per min-budget decision: deep
  // enough trees for transpositions to recur, big enough evaluator batches
  // for the fused forward to pay.
  constexpr int kLeafBatchSize = 32;
  // Timed runs per cell: same seed, so every run repeats the same search.
  constexpr int kRuns = 5;
  struct Config {
    int threads;
    SearchMode mode;
  };
  const Config configs[] = {{1, SearchMode::kRoot},
                            {1, SearchMode::kLeaf},
                            {2, SearchMode::kLeaf},
                            {4, SearchMode::kLeaf},
                            {8, SearchMode::kLeaf}};
  struct Cell {
    std::size_t tasks = 0;
    int threads = 0;
    const char* mode = "";
    double seconds = 0.0;  ///< median over the runs
    std::int64_t iterations = 0;
    double sps = 0.0;  ///< median over the runs
    double sps_min = 0.0;
    double sps_max = 0.0;
    Time makespan = 0;
    std::int64_t tt_hits = 0;
    std::int64_t tt_misses = 0;
    std::int64_t batched_evals = 0;
    std::int64_t batched_rows = 0;
    std::int64_t vloss_collisions = 0;
    std::int64_t rollout_cache_hits = 0;
    std::int64_t rollout_cache_misses = 0;
    std::int64_t rollout_memo_hits = 0;
    PhaseMs phases;
  };
  std::vector<Cell> cells;

  Rng policy_rng(6);
  const auto policy = std::make_shared<const Policy>(
      Policy::make(FeaturizerOptions{}, 2, policy_rng));

  Table table({"tasks", "threads", "mode", "search (s)", "states/s",
               "min states/s", "max states/s", "makespan", "tt hit%",
               "roll hit%", "rows/eval", "descend ms", "workers ms",
               "eval ms", "backup ms"});
  table.set_precision(3);
  for (const std::size_t tasks : {25u, 50u, 100u}) {
    const Dag dag = benchmark_dag(tasks, 11);
    for (const Config& config : configs) {
      MctsOptions options;
      options.initial_budget = kInitialBudget;
      options.min_budget = kMinBudget;
      options.num_threads = config.threads;
      options.search_mode = config.mode;
      options.leaf_batch_size = kLeafBatchSize;
      options.name = "Spear";
      MctsScheduler mcts(options, std::make_shared<DrlDecisionPolicy>(
                                      policy, /*greedy=*/true));
      const Schedule schedule = mcts.schedule(dag, kCapacity);
      const MctsScheduler::Stats stats = mcts.last_stats();
      std::vector<double> seconds{stats.search_seconds};
      std::vector<double> sps{stats.iterations_per_second()};
      for (int run = 1; run < kRuns; ++run) {
        mcts.schedule(dag, kCapacity);
        seconds.push_back(mcts.last_stats().search_seconds);
        sps.push_back(mcts.last_stats().iterations_per_second());
      }
      Cell cell;
      cell.tasks = tasks;
      cell.threads = config.threads;
      cell.mode = config.mode == SearchMode::kLeaf ? "leaf" : "serial";
      cell.seconds = median(seconds);
      cell.iterations = stats.iterations;
      cell.sps = median(sps);
      cell.sps_min = *std::min_element(sps.begin(), sps.end());
      cell.sps_max = *std::max_element(sps.begin(), sps.end());
      cell.makespan = schedule.makespan(dag);
      cell.tt_hits = stats.tt_hits;
      cell.tt_misses = stats.tt_misses;
      cell.batched_evals = stats.batched_evals;
      cell.batched_rows = stats.batched_rows;
      cell.vloss_collisions = stats.vloss_collisions;
      cell.rollout_cache_hits = stats.rollout_cache_hits;
      cell.rollout_cache_misses = stats.rollout_cache_misses;
      cell.rollout_memo_hits = stats.rollout_memo_hits;
      cell.phases = time_phases(mcts, dag);
      cells.push_back(cell);
      const double probes = static_cast<double>(cell.tt_hits +
                                                cell.tt_misses);
      const double roll_probes = static_cast<double>(
          cell.rollout_cache_hits + cell.rollout_cache_misses);
      table.add(static_cast<long long>(tasks), config.threads, cell.mode,
                cell.seconds, cell.sps, cell.sps_min, cell.sps_max,
                static_cast<long long>(cell.makespan),
                probes > 0.0 ? 100.0 * static_cast<double>(cell.tt_hits) /
                                   probes
                             : 0.0,
                roll_probes > 0.0
                    ? 100.0 * static_cast<double>(cell.rollout_cache_hits) /
                          roll_probes
                    : 0.0,
                cell.batched_evals > 0
                    ? static_cast<double>(cell.batched_rows) /
                          static_cast<double>(cell.batched_evals)
                    : 0.0,
                cell.phases.descend, cell.phases.workers,
                cell.phases.evaluator, cell.phases.backup);
    }
  }
  std::printf("Leaf-parallel sweep (DRL-guided, budget %lld -> %lld, equal "
              "iteration budget everywhere, median of %d runs per cell):\n",
              static_cast<long long>(kInitialBudget),
              static_cast<long long>(kMinBudget), kRuns);
  table.print();

  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"mcts_leaf_parallel\",\n"
                 "  \"command\": \"bench_micro --benchmark_filter=NONE\",\n"
                 "  \"nproc\": %u,\n"
                 "  \"workload\": \"random DAGs (seed 11), DRL-guided MCTS, "
                 "untrained paper-topology policy, greedy rollouts\",\n"
                 "  \"initial_budget\": %lld,\n"
                 "  \"min_budget\": %lld,\n"
                 "  \"leaf_batch_size\": %d,\n"
                 "  \"runs_per_cell\": %d,\n"
                 "  \"states_per_sec\": \"search iterations per second of "
                 "search wall time, median over the cell's runs (min and max "
                 "beside it); equal iteration budget in every cell\",\n"
                 "  \"phase_ms\": \"summed wall time of the tick phases "
                 "(descend, workers, evaluator drain, backup) over a second, "
                 "metrics-on run of the cell\",\n"
                 "  \"grid\": [\n",
                 std::thread::hardware_concurrency(),
                 static_cast<long long>(kInitialBudget),
                 static_cast<long long>(kMinBudget), kLeafBatchSize, kRuns);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      std::fprintf(
          f,
          "    {\"tasks\": %zu, \"threads\": %d, \"mode\": \"%s\", "
          "\"search_seconds\": %.6f, \"iterations\": %lld, "
          "\"states_per_sec\": %.1f, \"states_per_sec_min\": %.1f, "
          "\"states_per_sec_max\": %.1f, \"makespan\": %lld, "
          "\"tt_hits\": %lld, \"tt_misses\": %lld, "
          "\"evaluator_batches\": %lld, "
          "\"evaluator_rows\": %lld, \"vloss_collisions\": %lld, "
          "\"rollout_cache_hits\": %lld, \"rollout_cache_misses\": %lld, "
          "\"rollout_memo_hits\": %lld, "
          "\"phase_ms\": {\"descend\": %.3f, \"workers\": %.3f, "
          "\"evaluator\": %.3f, \"backup\": %.3f}}%s\n",
          c.tasks, c.threads, c.mode, c.seconds,
          static_cast<long long>(c.iterations), c.sps, c.sps_min, c.sps_max,
          static_cast<long long>(c.makespan),
          static_cast<long long>(c.tt_hits),
          static_cast<long long>(c.tt_misses),
          static_cast<long long>(c.batched_evals),
          static_cast<long long>(c.batched_rows),
          static_cast<long long>(c.vloss_collisions),
          static_cast<long long>(c.rollout_cache_hits),
          static_cast<long long>(c.rollout_cache_misses),
          static_cast<long long>(c.rollout_memo_hits), c.phases.descend,
          c.phases.workers, c.phases.evaluator, c.phases.backup,
          i + 1 < cells.size() ? "," : "");
    }
    // Per size: leaf mode against the serial baseline.  Leaf results do not
    // depend on the worker count, so the differences between its cells are
    // run-to-run noise; the summary takes their median, not the fastest.
    std::fprintf(f, "  ],\n  \"leaf_vs_serial\": [\n");
    bool first = true;
    for (const std::size_t tasks : {25u, 50u, 100u}) {
      const Cell* serial = nullptr;
      const Cell* leaf = nullptr;
      std::vector<double> leaf_sps;
      for (const Cell& c : cells) {
        if (c.tasks != tasks) continue;
        if (std::strcmp(c.mode, "serial") == 0) {
          serial = &c;
        } else {
          leaf = &c;
          leaf_sps.push_back(c.sps);
        }
      }
      if (!serial || !leaf) continue;
      const double sps = median(leaf_sps);
      const double speedup = serial->sps > 0.0 ? sps / serial->sps : 0.0;
      std::fprintf(f,
                   "%s    {\"tasks\": %zu, \"serial_states_per_sec\": %.1f, "
                   "\"leaf_median_states_per_sec\": %.1f, "
                   "\"speedup\": %.3f, \"serial_makespan\": %lld, "
                   "\"leaf_makespan\": %lld}",
                   first ? "" : ",\n", tasks, serial->sps, sps, speedup,
                   static_cast<long long>(serial->makespan),
                   static_cast<long long>(leaf->makespan));
      first = false;
      std::printf("tasks %zu: leaf (median over 1/2/4/8 workers) %.0f "
                  "states/s vs serial %.0f states/s (%.2fx), makespan %lld "
                  "vs %lld\n",
                  tasks, sps, serial->sps, speedup,
                  static_cast<long long>(leaf->makespan),
                  static_cast<long long>(serial->makespan));
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n\n", json_path);
  }
}

}  // namespace
}  // namespace spear

int main(int argc, char** argv) {
  // Peel off the observability flags by hand — google-benchmark owns the
  // rest of argv and rejects flags it does not know.
  std::string metrics_out, trace_out;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Accept both --flag=value and --flag value, like the Flags parser.
    const auto take = [&](const char* name, std::string& out) {
      const std::string eq = std::string(name) + "=";
      if (arg.rfind(eq, 0) == 0) {
        out = arg.substr(eq.size());
        return true;
      }
      if (arg == name && i + 1 < argc) {
        out = argv[++i];
        return true;
      }
      return false;
    };
    if (!take("--metrics-out", metrics_out) &&
        !take("--trace-out", trace_out)) {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (!metrics_out.empty()) {
    spear::obs::install_metrics(
        std::make_shared<spear::obs::MetricsRegistry>());
  }
  if (!trace_out.empty()) {
    spear::obs::install_trace(
        std::make_shared<spear::obs::TraceEventWriter>(trace_out));
  }

  spear::run_policy_forward_bench("bench_micro_policy_forward.json");
  spear::run_leaf_parallel_sweep("bench_micro_leaf_parallel.json");
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();

  if (!metrics_out.empty()) {
    spear::obs::RunReport report("bench_micro");
    const auto snapshot = spear::obs::metrics()->snapshot();
    report.write(metrics_out, &snapshot);
    std::printf("wrote %s\n", metrics_out.c_str());
  }
  spear::obs::shutdown();
  if (!trace_out.empty()) std::printf("wrote %s\n", trace_out.c_str());
  return 0;
}
