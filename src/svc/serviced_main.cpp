// spear_serviced — the scheduling-as-a-service daemon (DESIGN.md §12).
//
// Serves the JSON-lines protocol on stdin/stdout and, with --socket PATH,
// on a local AF_UNIX stream socket as well.  SIGTERM/SIGINT (or stdin EOF)
// triggers a supervised drain: admission stops (later submits are rejected
// shutting_down), queued and in-flight requests are answered, the RunReport
// is flushed (--metrics-out), and the process exits 0.
//
//   ./spear_serviced --workers=2 --queue-cap=64 --default-budget-ms=100
//   echo '{"id":"r1","method":"submit","dag":"dims 2\ntask a 5 0.5 0.5\n"}' |
//     ./spear_serviced
//
// Logs go to stderr; stdout carries protocol responses only.

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>

#include "common/flags.h"
#include "common/logging.h"
#include "common/supervisor.h"
#include "core/spear.h"
#include "nn/serialize.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "svc/frontend.h"
#include "svc/service.h"

namespace {

using namespace spear;
using namespace spear::svc;

/// Parses "1.0,1.0"-style --capacity values.
ResourceVector parse_capacity(const std::string& text) {
  std::vector<double> parts;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t comma = text.find(',', begin);
    const std::string token =
        text.substr(begin, comma == std::string::npos ? std::string::npos
                                                      : comma - begin);
    if (!token.empty()) parts.push_back(std::stod(token));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  if (parts.empty()) throw std::runtime_error("empty --capacity");
  ResourceVector capacity(parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) capacity[i] = parts[i];
  return capacity;
}

/// Parses "8" / "alice=8,bob=4" tenant-limit specs: a bare value sets the
/// default for every tenant, `name=value` entries override per tenant.
/// `apply` receives (TenantLimits&, parsed value) and stores the field.
/// Called in two passes (bare defaults first, then named overrides) so an
/// override inherits ALL configured defaults no matter which flag it came
/// from.
void parse_tenant_spec(const std::string& text, const std::string& flag,
                       ServiceOptions& options, bool named_pass,
                       const std::function<void(TenantLimits&, double)>& apply) {
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t comma = text.find(',', begin);
    const std::string token =
        text.substr(begin, comma == std::string::npos ? std::string::npos
                                                      : comma - begin);
    if (!token.empty()) {
      const std::size_t eq = token.find('=');
      const auto parse_value = [&](const std::string& value) {
        std::size_t parsed = 0;
        const double out = std::stod(value, &parsed);
        if (parsed != value.size()) {
          throw std::runtime_error("bad --" + flag + " entry '" + token + "'");
        }
        return out;
      };
      if (eq == std::string::npos) {
        if (!named_pass) apply(options.tenant_defaults, parse_value(token));
      } else if (named_pass) {
        const std::string name = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        if (name.empty() || value.empty()) {
          throw std::runtime_error("bad --" + flag + " entry '" + token + "'");
        }
        auto [it, inserted] = options.tenant_overrides.try_emplace(
            name, options.tenant_defaults);
        apply(it->second, parse_value(value));
      }
    }
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  auto socket_path = flags.define_string(
      "socket", "", "also serve on this AF_UNIX socket path");
  auto workers = flags.define_int("workers", 2, "concurrent service workers");
  auto queue_cap =
      flags.define_int("queue-cap", 64, "admission queue capacity");
  auto max_tasks =
      flags.define_int("max-tasks", 512, "max tasks per submitted DAG");
  auto max_line_bytes = flags.define_int("max-line-bytes", 1 << 20,
                                         "max request line length in bytes");
  auto tenant_quota = flags.define_string(
      "tenant-quota", "",
      "max queued requests per tenant: \"8\" for all, \"alice=8,bob=4\" per "
      "tenant, 0 = global bound only");
  auto tenant_inflight = flags.define_string(
      "tenant-inflight", "",
      "max concurrently served requests per tenant (same syntax as "
      "--tenant-quota), 0 = uncapped");
  auto tenant_weight = flags.define_string(
      "tenant-weight", "",
      "fair-queueing weight per tenant (same syntax as --tenant-quota)");
  auto high_lane_share = flags.define_double(
      "high-lane-share", 0.75,
      "max share of dequeues the high-priority lane may take while normal "
      "work waits");
  auto tenant_cost_mode = flags.define_string(
      "tenant-cost-mode", "unit",
      "DRR fairness accounting: unit = per request, tasks = per task "
      "(job-size-aware)");
  auto default_budget_ms = flags.define_int(
      "default-budget-ms", 100, "deadline for submits without budget_ms");
  auto max_budget_ms = flags.define_int(
      "max-budget-ms", 10000, "cap applied to client-requested budgets");
  auto iterations =
      flags.define_int("iterations", 400, "full search iteration budget");
  auto min_iterations =
      flags.define_int("min-iterations", 100, "minimum iteration budget");
  auto full_floor_ms = flags.define_int(
      "full-floor-ms", 20,
      "remaining deadline below which the search budget is reduced");
  auto heuristic_floor_ms = flags.define_int(
      "heuristic-floor-ms", 4,
      "remaining deadline below which the heuristic answers without search");
  auto capacity_text = flags.define_string(
      "capacity", "1.0,1.0", "cluster capacity, comma-separated per resource");
  auto policy_path = flags.define_string(
      "policy", "",
      "trained policy network (save_mlp format); empty = unguided MCTS");
  auto seed = flags.define_int("seed", 42, "base RNG seed");
  auto metrics_out = flags.define_string(
      "metrics-out", "", "write a run-report JSON here on shutdown");
  auto trace_out = flags.define_string(
      "trace-out", "", "write a Chrome trace-event JSON here");

  try {
    flags.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spear_serviced: %s\n%s", e.what(),
                 flags.usage("spear_serviced").c_str());
    return 2;
  }

  // A client vanishing mid-response must surface as EPIPE on the write, not
  // kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);
  install_signal_handlers();

  if (!metrics_out->empty()) {
    obs::install_metrics(std::make_shared<obs::MetricsRegistry>());
  }
  if (!trace_out->empty()) {
    obs::install_trace(std::make_shared<obs::TraceEventWriter>(*trace_out));
  }

  ServiceOptions options;
  try {
    options.capacity = parse_capacity(*capacity_text);
    options.workers = static_cast<int>(*workers);
    options.limits.queue_capacity = static_cast<std::size_t>(*queue_cap);
    options.limits.max_tasks_per_job = static_cast<std::size_t>(*max_tasks);
    options.limits.max_line_bytes = static_cast<std::size_t>(*max_line_bytes);
    options.high_lane_share = *high_lane_share;
    if (*tenant_cost_mode == "unit") {
      options.tenant_cost_mode = CostMode::kUnit;
    } else if (*tenant_cost_mode == "tasks") {
      options.tenant_cost_mode = CostMode::kTasks;
    } else {
      throw std::runtime_error("--tenant-cost-mode must be unit or tasks");
    }
    const auto set_quota = [](TenantLimits& limits, double value) {
      limits.max_queued = static_cast<std::size_t>(std::max(value, 0.0));
    };
    const auto set_inflight = [](TenantLimits& limits, double value) {
      limits.max_in_flight = static_cast<std::size_t>(std::max(value, 0.0));
    };
    const auto set_weight = [](TenantLimits& limits, double value) {
      limits.weight = value;
    };
    for (const bool named_pass : {false, true}) {
      parse_tenant_spec(*tenant_quota, "tenant-quota", options, named_pass,
                        set_quota);
      parse_tenant_spec(*tenant_inflight, "tenant-inflight", options,
                        named_pass, set_inflight);
      parse_tenant_spec(*tenant_weight, "tenant-weight", options, named_pass,
                        set_weight);
    }
    options.default_budget_ms = *default_budget_ms;
    options.max_budget_ms = *max_budget_ms;
    options.search_iterations = *iterations;
    options.min_iterations = *min_iterations;
    options.full_search_floor_ms = *full_floor_ms;
    options.heuristic_floor_ms = *heuristic_floor_ms;
    options.seed = static_cast<std::uint64_t>(*seed);
    if (!policy_path->empty()) {
      Featurizer featurizer{FeaturizerOptions{}};
      Mlp net = load_mlp(*policy_path);
      if (net.input_dim() != featurizer.input_dim(options.capacity.dims()) ||
          net.output_dim() != featurizer.num_actions()) {
        throw std::runtime_error(
            "--policy network shape does not match the default featurizer "
            "at this --capacity");
      }
      options.policy = std::make_shared<const Policy>(
          featurizer, std::move(net), options.capacity.dims());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spear_serviced: %s\n", e.what());
    return 2;
  }

  SchedulerService service(options);
  service.start();
  SPEAR_LOG(Info) << "spear_serviced: serving on stdio"
                  << (socket_path->empty() ? "" : " + " + *socket_path)
                  << " (workers=" << options.workers
                  << " queue=" << options.limits.queue_capacity
                  << " policy=" << (options.policy ? "drl" : "none") << ")";

  const auto stop = [] { return stop_requested(); };

  // Optional AF_UNIX frontend on its own thread; the stdio frontend runs on
  // the main thread.  Both observe the same supervisor stop flag.
  std::unique_ptr<SocketFrontend> socket_frontend;
  std::thread socket_thread;
  if (!socket_path->empty()) {
    socket_frontend = std::make_unique<SocketFrontend>(*socket_path, service);
    try {
      socket_frontend->start();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "spear_serviced: %s\n", e.what());
      return 2;
    }
    socket_thread =
        std::thread([&socket_frontend, &stop] { socket_frontend->serve(stop); });
  }

  auto stdio_writer = std::make_shared<LineWriter>(/*fd=*/1);
  const std::int64_t handled =
      run_jsonl_connection(/*in_fd=*/0, stdio_writer, service, stop);

  // Stdin EOF with no socket frontend also means "no more work": drain.
  // With a socket frontend the daemon keeps serving until signaled.
  if (socket_frontend && !stop_requested()) {
    while (!stop_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  SPEAR_LOG(Info) << "spear_serviced: draining (" << service.queue_depth()
                  << " queued)";
  service.shutdown();  // stop admitting, answer everything queued, join
  if (socket_thread.joinable()) {
    request_stop();  // covers the stdin-EOF-only path
    socket_thread.join();
  }

  const ServiceCounters counters = service.counters();
  SPEAR_LOG(Info) << "spear_serviced: done (stdio_lines=" << handled
                  << " submitted=" << counters.submitted
                  << " placed=" << counters.placed
                  << " cancelled=" << counters.cancelled
                  << " rejected=" << counters.rejected_total()
                  << " degraded=" << counters.degraded_total() << ")";

  if (!metrics_out->empty()) {
    obs::RunReport report("spear_serviced");
    report.set("workers", static_cast<std::int64_t>(options.workers));
    report.set("queue_capacity",
               static_cast<std::int64_t>(options.limits.queue_capacity));
    report.set_json("service", service.counters_json());
    const obs::MetricsSnapshot snapshot = obs::metrics()->snapshot();
    report.write(*metrics_out, &snapshot);
    std::fprintf(stderr, "spear_serviced: wrote %s\n", metrics_out->c_str());
  }
  obs::shutdown();
  return 0;
}
