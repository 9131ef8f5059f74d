#include "obs/obs.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dag/generator.h"
#include "exec/engine.h"
#include "mcts/mcts.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "rl/policy.h"
#include "sched/critical_path.h"
#include "svc/service.h"

namespace spear::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string temp_path(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir ? dir : "/tmp") + "/" + name;
}

TEST(MetricsRegistry, CountersGaugesAndHistograms) {
  MetricsRegistry registry;
  registry.add("a");
  registry.add("a", 4);
  registry.add("b", -2);
  registry.set("g", 1.5);
  registry.set("g", 2.5);  // last write wins
  registry.observe("h", 0.5, {1.0, 2.0});
  registry.observe("h", 1.5);  // bounds fixed on first observation
  registry.observe("h", 99.0);

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("a"), 5);
  EXPECT_EQ(snap.counters.at("b"), -2);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 2.5);

  const HistogramSnapshot& h = snap.histograms.at("h");
  EXPECT_EQ(h.count, 3);
  EXPECT_DOUBLE_EQ(h.sum, 101.0);
  EXPECT_DOUBLE_EQ(h.min, 0.5);
  EXPECT_DOUBLE_EQ(h.max, 99.0);
  ASSERT_EQ(h.bounds, (std::vector<double>{1.0, 2.0}));
  // 0.5 <= 1.0, 1.5 <= 2.0, 99 overflows into the trailing bucket.
  ASSERT_EQ(h.counts, (std::vector<std::int64_t>{1, 1, 1}));
  EXPECT_DOUBLE_EQ(h.mean(), 101.0 / 3.0);
}

TEST(MetricsRegistry, ClearDropsEverything) {
  MetricsRegistry registry;
  registry.add("x");
  registry.set("y", 1.0);
  registry.observe("z", 1.0);
  registry.clear();
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(MetricsRegistry, ConcurrentWritersLoseNothing) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < kIncrements; ++i) {
        registry.add("shared");
        registry.add("per_thread_" + std::to_string(t));
        registry.observe("lat", static_cast<double>(i % 7));
      }
    });
  }
  for (auto& th : threads) th.join();

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("shared"), kThreads * kIncrements);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.counters.at("per_thread_" + std::to_string(t)),
              kIncrements);
  }
  EXPECT_EQ(snap.histograms.at("lat").count, kThreads * kIncrements);
}

TEST(MetricsSnapshot, JsonAndCsvRender) {
  MetricsRegistry registry;
  registry.add("runs", 3);
  registry.set("speed", 1.25);
  registry.observe("dur", 0.5, {1.0});

  const MetricsSnapshot snap = registry.snapshot();
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"runs\":3"), std::string::npos);
  EXPECT_NE(json.find("\"speed\":1.25"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\""), std::string::npos);

  const std::string csv = snap.to_csv();
  EXPECT_NE(csv.find("counter,runs,value,3"), std::string::npos);
  EXPECT_NE(csv.find("gauge,speed,value,1.25"), std::string::npos);
  EXPECT_NE(csv.find("histogram,dur,count,1"), std::string::npos);
}

TEST(TraceEventWriter, WritesValidEventsWithPerThreadTracks) {
  const std::string path = temp_path("spear_test_trace.json");
  std::int64_t main_tid = 0;
  std::int64_t other_tid = 0;
  {
    TraceEventWriter writer(path);
    writer.thread_name("main");
    writer.complete("span", "test", /*ts_us=*/10, /*dur_us=*/5,
                    "\"depth\":3");
    writer.instant("marker", "test");
    writer.counter("queue", 2.0);
    main_tid = TraceEventWriter::current_tid();
    std::thread other([&writer, &other_tid] {
      writer.thread_name("worker");
      writer.complete("span2", "test", 20, 7);
      other_tid = TraceEventWriter::current_tid();
    });
    other.join();
    writer.close();
  }
  EXPECT_NE(main_tid, other_tid);

  const std::string content = read_file(path);
  // Strict JSON array (the closer replaces the dangling comma problem
  // with a final metadata event).
  EXPECT_EQ(content.front(), '[');
  EXPECT_NE(content.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(content.find("\"name\":\"span\""), std::string::npos);
  EXPECT_NE(content.find("\"dur\":5"), std::string::npos);
  EXPECT_NE(content.find("\"args\":{\"depth\":3}"), std::string::npos);
  EXPECT_NE(content.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(content.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(content.find("thread_name"), std::string::npos);
  EXPECT_NE(content.find("\"worker\""), std::string::npos);
  EXPECT_EQ(content.substr(content.size() - 2), "]\n");
  std::remove(path.c_str());
}

TEST(TraceEventWriter, CloseIsIdempotent) {
  const std::string path = temp_path("spear_test_trace_close.json");
  TraceEventWriter writer(path);
  writer.instant("once", "test");
  writer.close();
  writer.close();  // no crash, no double-write
  const std::string content = read_file(path);
  EXPECT_EQ(content.find("]\n"), content.rfind("]\n"));
  std::remove(path.c_str());
}

TEST(TraceEventWriter, ThrowsOnUnwritablePath) {
  EXPECT_THROW(TraceEventWriter("/nonexistent-dir/trace.json"),
               std::runtime_error);
}

TEST(GlobalSink, DisabledByDefaultAndAfterShutdown) {
  shutdown();  // in case a prior test leaked state
  EXPECT_FALSE(enabled());
  EXPECT_EQ(metrics(), nullptr);
  EXPECT_EQ(trace(), nullptr);
  // Shorthands must be safe no-ops without a registry.
  count("nothing");
  gauge("nothing", 1.0);
  observe("nothing", 1.0);
  { ScopedTimer timer("noop", "test"); EXPECT_FALSE(timer.active()); }

  install_metrics(std::make_shared<MetricsRegistry>());
  EXPECT_TRUE(enabled());
  shutdown();
  EXPECT_FALSE(enabled());
  EXPECT_EQ(metrics(), nullptr);
}

TEST(GlobalSink, ScopedTimerRecordsHistogramAndTrace) {
  const std::string path = temp_path("spear_test_scoped_timer.json");
  install_metrics(std::make_shared<MetricsRegistry>());
  install_trace(std::make_shared<TraceEventWriter>(path));
  {
    ScopedTimer timer("unit.work", "test");
    EXPECT_TRUE(timer.active());
    timer.set_args("\"k\":1");
  }
  {
    ScopedTimer metrics_only("unit.quiet", "test", /*with_trace=*/false);
  }
  count("unit.count", 2);

  const MetricsSnapshot snap = metrics()->snapshot();
  EXPECT_EQ(snap.histograms.at("unit.work.ms").count, 1);
  EXPECT_EQ(snap.histograms.at("unit.quiet.ms").count, 1);
  EXPECT_EQ(snap.counters.at("unit.count"), 2);
  shutdown();
  EXPECT_FALSE(enabled());

  const std::string content = read_file(path);
  EXPECT_NE(content.find("\"name\":\"unit.work\""), std::string::npos);
  EXPECT_NE(content.find("\"args\":{\"k\":1}"), std::string::npos);
  // with_trace=false spans must not appear in the trace.
  EXPECT_EQ(content.find("unit.quiet"), std::string::npos);
  std::remove(path.c_str());
}

TEST(GlobalSink, FinishEndsSpanEarlyAndIsIdempotent) {
  install_metrics(std::make_shared<MetricsRegistry>());
  {
    ScopedTimer timer("early", "test", /*with_trace=*/false);
    timer.finish();
    timer.finish();  // destructor must then be a no-op too
  }
  const MetricsSnapshot snap = metrics()->snapshot();
  EXPECT_EQ(snap.histograms.at("early.ms").count, 1);
  shutdown();
}

TEST(GlobalSink, ServiceWorkersNameTheirTraceTracks) {
  // One Chrome-trace track per service worker, labelled by its index.
  const std::string path = temp_path("spear_test_svc_tracks.json");
  install_trace(std::make_shared<TraceEventWriter>(path));
  {
    svc::ServiceOptions options;
    options.workers = 2;
    svc::SchedulerService service(options);
    service.start();
    service.shutdown();  // joins both loops, so both tracks are named
  }
  shutdown();

  const std::string content = read_file(path);
  for (const std::string name : {"svc-worker-0", "svc-worker-1"}) {
    const std::string metadata =
        "\"name\":\"thread_name\",\"args\":{\"name\":\"" + name + "\"}";
    EXPECT_NE(content.find(metadata), std::string::npos) << name;
  }
  std::remove(path.c_str());
}

TEST(RunReport, RendersMetaAndMetrics) {
  RunReport report("bench_x");
  report.set("jobs", static_cast<std::int64_t>(4));
  report.set("rate", 0.25);
  report.set("label", "trial \"A\"");
  report.set("paper", true);
  report.set_json("service", "{\"submitted\":3,\"tenants\":{}}");

  MetricsRegistry registry;
  registry.add("runs", 2);
  const MetricsSnapshot snap = registry.snapshot();

  const std::string json = report.to_json(&snap);
  EXPECT_NE(json.find("\"name\":\"bench_x\""), std::string::npos);
  EXPECT_NE(json.find("\"jobs\":4"), std::string::npos);
  EXPECT_NE(json.find("\"rate\":0.25"), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"trial \\\"A\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"paper\":true"), std::string::npos);
  EXPECT_NE(json.find("\"service\":{\"submitted\":3,\"tenants\":{}}"),
            std::string::npos);
  EXPECT_NE(json.find("\"metrics\":"), std::string::npos);
  EXPECT_NE(json.find("\"runs\":2"), std::string::npos);
  // Without metrics the key is omitted entirely.
  EXPECT_EQ(report.to_json().find("\"metrics\""), std::string::npos);
}

TEST(RunReport, WriteProducesReadableFile) {
  const std::string path = temp_path("spear_test_report.json");
  RunReport report("bench_y");
  report.set("seed", static_cast<std::int64_t>(7));
  report.write(path);
  const std::string content = read_file(path);
  EXPECT_NE(content.find("\"name\":\"bench_y\""), std::string::npos);
  EXPECT_NE(content.find("\"seed\":7"), std::string::npos);
  std::remove(path.c_str());
  EXPECT_THROW(report.write("/nonexistent-dir/report.json"),
               std::runtime_error);
}

// --- Counter flushes derived from their owners ---------------------------

Dag flush_dag(std::uint64_t seed) {
  DagGeneratorOptions gen;
  gen.num_tasks = 14;
  Rng rng(seed);
  return generate_random_dag(gen, rng);
}

/// Every int64_t Stats counter in for_each_count order.
std::vector<std::int64_t> counts_of(const MctsScheduler::Stats& stats) {
  std::vector<std::int64_t> out;
  stats.for_each_count(
      [&out](const char*, std::int64_t value) { out.push_back(value); });
  return out;
}

TEST(ObsFlush, MctsCountersEqualSummedStats) {
  Rng rng(5);
  const auto policy = std::make_shared<const Policy>(
      Policy::make(FeaturizerOptions{}, 2, rng, {16}));
  const ResourceVector capacity{1.0, 1.0};
  MctsOptions serial_options;
  serial_options.initial_budget = 40;
  serial_options.min_budget = 12;
  MctsOptions leaf_options = serial_options;
  leaf_options.search_mode = SearchMode::kLeaf;
  leaf_options.num_threads = 2;
  MctsScheduler serial(serial_options,
                       std::make_shared<DrlDecisionPolicy>(policy, true));
  MctsScheduler leaf(leaf_options,
                     std::make_shared<DrlDecisionPolicy>(policy, true));

  shutdown();
  install_metrics(std::make_shared<MetricsRegistry>());
  serial.schedule(flush_dag(1), capacity);
  const MctsScheduler::Stats a = serial.last_stats();
  leaf.schedule(flush_dag(2), capacity);
  const MctsScheduler::Stats b = leaf.last_stats();
  const MetricsSnapshot snap = metrics()->snapshot();
  shutdown();

  ASSERT_GT(a.guide_forwards, 0);
  ASSERT_GT(b.leaf_ticks, 0);
  EXPECT_EQ(snap.counters.at("mcts.schedules"), 2);
  std::size_t named = 0;
  MctsScheduler::Stats sum = a;
  sum += b;
  const std::vector<std::int64_t> b_counts = counts_of(b);
  const std::vector<std::int64_t> sum_counts = counts_of(sum);
  a.for_each_count([&](const char* name, std::int64_t value) {
    ASSERT_EQ(snap.counters.count(name), 1u) << name;
    EXPECT_EQ(snap.counters.at(name), value + b_counts[named]) << name;
    EXPECT_EQ(sum_counts[named], value + b_counts[named]) << name;
    ++named;
  });
  EXPECT_EQ(named, b_counts.size());
  EXPECT_EQ(sum.search_seconds, a.search_seconds + b.search_seconds);

  // Summing into an empty Stats reproduces every field.
  MctsScheduler::Stats zero;
  zero += b;
  EXPECT_EQ(counts_of(zero), b_counts);
  EXPECT_EQ(zero.search_seconds, b.search_seconds);
  EXPECT_EQ(zero.batch_rows_hist, b.batch_rows_hist);
  ASSERT_FALSE(b.batch_rows_hist.empty());
}

TEST(ObsSpans, LeafTickPhasesRecordOncePerTick) {
  Rng rng(5);
  const auto policy = std::make_shared<const Policy>(
      Policy::make(FeaturizerOptions{}, 2, rng, {16}));
  const ResourceVector capacity{1.0, 1.0};
  MctsOptions options;
  options.initial_budget = 40;
  options.min_budget = 12;
  options.search_mode = SearchMode::kLeaf;
  options.leaf_batch_size = 8;
  MctsScheduler leaf(options,
                     std::make_shared<DrlDecisionPolicy>(policy, true));
  const char* const kPhases[] = {"mcts.leaf.tick.ms", "mcts.leaf.descend.ms",
                                 "mcts.leaf.workers.ms",
                                 "mcts.evaluator.drain.ms",
                                 "mcts.leaf.backup.ms"};

  shutdown();
  const auto registry = std::make_shared<MetricsRegistry>();
  install_metrics(registry);
  leaf.schedule(flush_dag(4), capacity);
  const std::int64_t ticks = leaf.last_stats().leaf_ticks;
  const MetricsSnapshot on = registry->snapshot();
  shutdown();
  ASSERT_GT(ticks, 0);
  for (const char* name : kPhases) {
    ASSERT_EQ(on.histograms.count(name), 1u) << name;
    EXPECT_EQ(on.histograms.at(name).count, ticks) << name;
  }

  // With obs off the spans record nothing, not even into a registry that
  // outlives its installation.
  leaf.schedule(flush_dag(4), capacity);
  ASSERT_EQ(leaf.last_stats().leaf_ticks, ticks);
  const MetricsSnapshot off = registry->snapshot();
  for (const char* name : kPhases) {
    EXPECT_EQ(off.histograms.at(name).count, ticks) << name;
  }
}

TEST(ObsFlush, ExecCountersEqualSummedExecStats) {
  const Dag dag = flush_dag(3);
  const ResourceVector capacity{1.0, 1.0};
  const Schedule plan = make_critical_path_scheduler()->schedule(dag, capacity);

  shutdown();
  install_metrics(std::make_shared<MetricsRegistry>());
  exec::ExecStats sum;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    exec::ExecOptions options;
    options.perturb.sigma = 0.8;
    options.perturb.straggler_rate = 0.25;
    options.perturb.seed = seed;
    options.seed = seed;
    options.research_cooldown = 0;
    options.research_factor = 0.3;
    options.research_min_pending = 2;
    exec::ExecutionEngine engine(std::make_shared<Dag>(dag), capacity,
                                 options);
    const exec::ExecStats s = engine.run(plan).stats;
    sum.local_repairs += s.local_repairs;
    sum.researches += s.researches;
    sum.speculations += s.speculations;
  }
  const MetricsSnapshot snap = metrics()->snapshot();
  shutdown();

  ASSERT_GT(sum.researches, 0);
  ASSERT_GT(sum.local_repairs + sum.speculations, 0);
  EXPECT_EQ(snap.counters.at("exec.runs"), 4);
  EXPECT_EQ(snap.counters.at("exec.researches"), sum.researches);
  EXPECT_EQ(snap.counters.at("exec.local_repairs"), sum.local_repairs);
  EXPECT_EQ(snap.counters.at("exec.speculations"), sum.speculations);
}

}  // namespace
}  // namespace spear::obs
