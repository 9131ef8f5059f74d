// The scheduling service core: admission control, backpressure, the
// degradation ladder, drain semantics, request isolation, and the
// fd-level line transport (svc/admission.h, svc/service.h, svc/frontend.h).

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "dag/io.h"
#include "support/builders.h"
#include "svc/frontend.h"
#include "svc/json.h"
#include "svc/service.h"

namespace spear::svc {
namespace {

ResourceVector cap() { return ResourceVector{1.0, 1.0}; }

Job make_job(const std::string& id) {
  Job job;
  job.id = id;
  job.arrival = std::chrono::steady_clock::now();
  job.deadline = job.arrival + std::chrono::seconds(10);
  return job;
}

// --- validate_job -------------------------------------------------------

TEST(SvcAdmission, ValidatesStructureAndSchedulability) {
  AdmissionLimits limits;
  limits.max_tasks_per_job = 4;

  DagBuilder empty(2);
  auto verdict = validate_job(std::move(empty).build(), cap(), limits);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->code, ErrorCode::kInvalidDag);

  // Task-count cap.
  verdict = validate_job(testing::make_independent(5, 1), cap(), limits);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->code, ErrorCode::kTooLarge);

  // Dimension mismatch against the cluster.
  verdict = validate_job(testing::make_independent(2, 1),
                         ResourceVector{1.0, 1.0, 1.0}, limits);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->code, ErrorCode::kInvalidDag);

  // A demand no capacity can ever hold: unschedulable, rejected up front.
  DagBuilder big(2);
  big.add_task(5, ResourceVector{2.0, 0.5}, "whale");
  verdict = validate_job(std::move(big).build(), cap(), limits);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->code, ErrorCode::kUnschedulable);

  EXPECT_EQ(validate_job(testing::make_independent(3, 1), cap(), limits),
            std::nullopt);
}

// --- AdmissionQueue -----------------------------------------------------

TEST(SvcAdmission, ShedsWhenFullWithRetryAfterHint) {
  FairQueueOptions fair;
  fair.capacity = 2;
  fair.service_ms_seed = 25.0;
  AdmissionQueue queue(fair);
  EXPECT_EQ(queue.try_push(make_job("a")), std::nullopt);
  EXPECT_EQ(queue.try_push(make_job("b")), std::nullopt);

  const auto verdict = queue.try_push(make_job("c"));
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->code, ErrorCode::kQueueFull);
  EXPECT_EQ(verdict->retry_after_ms, 25);
  EXPECT_EQ(queue.size(), 2u);  // bounded: the shed job was never stored
}

// Regression (cold-start backoff): the VERY FIRST shed response — before any
// job has completed and fed the service-time EWMA — must still carry a
// nonzero retry_after_ms.  A zero hint is an invitation to an immediate
// retry stampede from every shed client at once.
TEST(SvcAdmission, FirstShedCarriesNonzeroRetryHint) {
  FairQueueOptions fair;
  fair.capacity = 1;
  fair.service_ms_seed = 0.0;  // even a degenerate seed is clamped up
  AdmissionQueue queue(fair);
  ASSERT_EQ(queue.try_push(make_job("a")), std::nullopt);

  const auto verdict = queue.try_push(make_job("b"));
  ASSERT_TRUE(verdict.has_value());
  EXPECT_GE(verdict->retry_after_ms, 1);
  EXPECT_GE(queue.service_ms_estimate(), 1.0);
}

TEST(SvcAdmission, CloseDrainsThenStops) {
  AdmissionQueue queue(4);
  ASSERT_EQ(queue.try_push(make_job("a")), std::nullopt);
  ASSERT_EQ(queue.try_push(make_job("b")), std::nullopt);
  queue.close();

  // Closed to producers...
  const auto verdict = queue.try_push(make_job("c"));
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->code, ErrorCode::kShuttingDown);

  // ...but consumers still drain what was admitted, in order.
  Job out;
  ASSERT_TRUE(queue.pop(out));
  EXPECT_EQ(out.id, "a");
  queue.on_done(out);
  ASSERT_TRUE(queue.pop(out));
  EXPECT_EQ(out.id, "b");
  queue.on_done(out);
  EXPECT_FALSE(queue.pop(out));  // drained and closed -> workers exit
}

TEST(SvcAdmission, PopBlocksUntilWorkArrives) {
  AdmissionQueue queue(4);
  std::promise<std::string> got;
  std::thread consumer([&] {
    Job out;
    ASSERT_TRUE(queue.pop(out));
    got.set_value(out.id);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(queue.try_push(make_job("late")), std::nullopt);
  EXPECT_EQ(got.get_future().get(), "late");
  consumer.join();
}

// --- SchedulerService ---------------------------------------------------

struct Outcome {
  bool ok = false;
  SubmitResult result;
  Rejection rejection;
};

/// Submits and waits for the (possibly asynchronous) outcome.
Outcome roundtrip(SchedulerService& service, const SubmitRequest& request) {
  auto promise = std::make_shared<std::promise<Outcome>>();
  service.submit(request, [promise](bool ok, const SubmitResult& result,
                                    const Rejection& rejection) {
    promise->set_value(Outcome{ok, result, rejection});
  });
  return promise->get_future().get();
}

SubmitRequest chain_request(const std::string& id) {
  SubmitRequest request;
  request.id = id;
  request.dag_text = dag_to_text(testing::make_chain({3, 3, 3, 3}));
  return request;
}

TEST(SvcService, PlacesAValidDagWithinItsBudget) {
  ServiceOptions options;
  options.workers = 1;
  options.search_iterations = 60;
  options.min_iterations = 30;
  SchedulerService service(options);
  service.start();

  const Outcome outcome = roundtrip(service, chain_request("r1"));
  ASSERT_TRUE(outcome.ok) << outcome.rejection.message;
  EXPECT_EQ(outcome.result.mode, ServeMode::kSearch);
  EXPECT_FALSE(outcome.result.degraded);
  EXPECT_EQ(outcome.result.makespan, 12);  // 4-task chain of runtime 3
  EXPECT_EQ(outcome.result.placements.size(), 4u);

  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.submitted, 1);
  EXPECT_EQ(counters.admitted, 1);
  EXPECT_EQ(counters.placed, 1);
}

TEST(SvcService, ShutdownIsIdempotent) {
  // Destroyed without start(): there is no worker loop to join.
  { SchedulerService never_started(ServiceOptions{}); }

  ServiceOptions options;
  options.workers = 2;
  options.search_iterations = 40;
  options.min_iterations = 20;
  SchedulerService service(options);
  service.start();
  service.shutdown();
  service.shutdown();  // a second call is a no-op
  EXPECT_TRUE(service.draining());
}

TEST(SvcService, SingleWorkerStillWorks) {
  ServiceOptions options;
  options.workers = 0;  // normalized to one worker
  options.search_iterations = 40;
  options.min_iterations = 20;
  SchedulerService service(options);
  EXPECT_EQ(service.options().workers, 1);
  service.start();
  const Outcome outcome = roundtrip(service, chain_request("r1"));
  ASSERT_TRUE(outcome.ok) << outcome.rejection.message;

  service.shutdown();
  EXPECT_EQ(service.counters().placed, 1);
}

TEST(SvcService, IsolatesStructurallyBadRequests) {
  ServiceOptions options;
  options.workers = 1;
  options.limits.max_tasks_per_job = 4;
  options.limits.max_line_bytes = 4096;
  SchedulerService service(options);
  service.start();

  SubmitRequest bad;
  bad.id = "bad";
  bad.dag_text = "this is not a dag";
  Outcome outcome = roundtrip(service, bad);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.rejection.code, ErrorCode::kInvalidDag);

  SubmitRequest nan_demand;
  nan_demand.id = "nan";
  nan_demand.dag_text = "dims 2\ntask a 5 nan 0.5\n";
  outcome = roundtrip(service, nan_demand);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.rejection.code, ErrorCode::kInvalidDag);

  SubmitRequest oversized;
  oversized.id = "big";
  oversized.dag_text = dag_to_text(testing::make_independent(5, 1));
  outcome = roundtrip(service, oversized);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.rejection.code, ErrorCode::kTooLarge);

  SubmitRequest whale;
  whale.id = "whale";
  whale.dag_text = "dims 2\ntask w 5 2.0 0.5\n";
  outcome = roundtrip(service, whale);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.rejection.code, ErrorCode::kUnschedulable);

  SubmitRequest huge_payload;
  huge_payload.id = "payload";
  huge_payload.dag_text = std::string(8192, 'x');
  outcome = roundtrip(service, huge_payload);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.rejection.code, ErrorCode::kTooLarge);

  // The daemon survived all of it and still serves good requests.
  const Outcome good = roundtrip(service, chain_request("after"));
  EXPECT_TRUE(good.ok);
}

TEST(SvcService, ShedsWhenTheQueueIsFull) {
  ServiceOptions options;
  options.limits.queue_capacity = 1;
  SchedulerService service(options);
  // Never started: nothing drains the queue, so the second submit sheds.
  const auto first = std::make_shared<std::atomic<bool>>(false);
  service.submit(chain_request("q1"),
                 [first](bool, const SubmitResult&, const Rejection&) {
                   first->store(true);
                 });
  EXPECT_FALSE(first->load());  // admitted, parked in the queue

  const Outcome shed = roundtrip(service, chain_request("q2"));
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.rejection.code, ErrorCode::kQueueFull);
  EXPECT_GE(shed.rejection.retry_after_ms, 1);
  EXPECT_EQ(service.counters().rejected_queue_full, 1);
  EXPECT_EQ(service.queue_depth(), 1u);  // bounded
}

TEST(SvcService, ExpiredBudgetsAreRejectedNotServed) {
  ServiceOptions options;
  options.workers = 1;
  SchedulerService service(options);

  // Admit with a 1 ms budget while no worker is running, let it expire,
  // then start the workers: the job must get deadline_expired, not a stale
  // placement.
  SubmitRequest request = chain_request("late");
  request.budget_ms = 1;
  auto promise = std::make_shared<std::promise<Outcome>>();
  service.submit(request, [promise](bool ok, const SubmitResult& result,
                                    const Rejection& rejection) {
    promise->set_value(Outcome{ok, result, rejection});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service.start();

  const Outcome outcome = promise->get_future().get();
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.rejection.code, ErrorCode::kDeadlineExpired);
  EXPECT_EQ(service.counters().rejected_deadline_expired, 1);
}

TEST(SvcService, DegradationLadderReportsItsRung) {
  // Force rung 2: any remaining budget is below the heuristic floor.
  ServiceOptions heuristic_options;
  heuristic_options.workers = 1;
  heuristic_options.default_budget_ms = 1000;
  heuristic_options.heuristic_floor_ms = 1 << 20;
  {
    SchedulerService service(heuristic_options);
    service.start();
    const Outcome outcome = roundtrip(service, chain_request("h"));
    ASSERT_TRUE(outcome.ok);
    EXPECT_EQ(outcome.result.mode, ServeMode::kHeuristic);
    EXPECT_TRUE(outcome.result.degraded);
    EXPECT_EQ(outcome.result.makespan, 12);  // heuristic still optimal here
    EXPECT_EQ(service.counters().degraded_heuristic, 1);
  }

  // Force rung 1: below the full-search floor but above the heuristic one.
  ServiceOptions reduced_options;
  reduced_options.workers = 1;
  reduced_options.default_budget_ms = 1000;
  reduced_options.full_search_floor_ms = 1 << 20;
  reduced_options.heuristic_floor_ms = 0;
  {
    SchedulerService service(reduced_options);
    service.start();
    const Outcome outcome = roundtrip(service, chain_request("r"));
    ASSERT_TRUE(outcome.ok);
    EXPECT_EQ(outcome.result.mode, ServeMode::kReduced);
    EXPECT_TRUE(outcome.result.degraded);
    EXPECT_EQ(service.counters().degraded_reduced, 1);
  }
}

TEST(SvcService, DrainAnswersEverythingThenRejectsNewWork) {
  ServiceOptions options;
  options.workers = 2;
  options.search_iterations = 40;
  options.min_iterations = 20;
  SchedulerService service(options);
  service.start();

  const int jobs = 6;
  auto answered = std::make_shared<std::atomic<int>>(0);
  for (int i = 0; i < jobs; ++i) {
    service.submit(chain_request("d" + std::to_string(i)),
                   [answered](bool ok, const SubmitResult&,
                              const Rejection&) {
                     EXPECT_TRUE(ok);
                     ++*answered;
                   });
  }
  service.shutdown();  // must block until every admitted job is answered
  EXPECT_EQ(answered->load(), jobs);
  EXPECT_EQ(service.counters().placed, jobs);

  // After the drain the service refuses new work with shutting_down.
  const Outcome outcome = roundtrip(service, chain_request("postmortem"));
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.rejection.code, ErrorCode::kShuttingDown);
}

TEST(SvcService, CountersReconcileAcrossWorkerCounts) {
  // The same request mix must produce identical outcome counters at 1, 2,
  // and 4 workers — concurrency changes who serves, never what is counted.
  ServiceCounters baseline;
  for (const int workers : {1, 2, 4}) {
    ServiceOptions options;
    options.workers = workers;
    options.search_iterations = 40;
    options.min_iterations = 20;
    SchedulerService service(options);
    service.start();

    auto done = std::make_shared<std::atomic<int>>(0);
    const auto count_only = [done](bool, const SubmitResult&,
                                   const Rejection&) { ++*done; };
    for (int i = 0; i < 4; ++i) {
      service.submit(chain_request("ok" + std::to_string(i)), count_only);
    }
    SubmitRequest bad;
    bad.id = "bad";
    bad.dag_text = "garbage";
    service.submit(bad, count_only);
    SubmitRequest whale;
    whale.id = "whale";
    whale.dag_text = "dims 2\ntask w 5 2.0 0.5\n";
    service.submit(whale, count_only);
    service.shutdown();

    const ServiceCounters counters = service.counters();
    EXPECT_EQ(done->load(), 6);
    EXPECT_EQ(counters.submitted, 6);
    EXPECT_EQ(counters.placed, 4);
    EXPECT_EQ(counters.rejected_invalid_dag, 1);
    EXPECT_EQ(counters.rejected_unschedulable, 1);
    if (workers == 1) {
      baseline = counters;
    } else {
      EXPECT_EQ(counters.placed, baseline.placed);
      EXPECT_EQ(counters.rejected_total(), baseline.rejected_total());
      EXPECT_EQ(counters.degraded_total(), baseline.degraded_total());
    }
  }
}

TEST(SvcService, ThrowingResponderIsAnsweredOnce) {
  // A responder that throws on its placement (a dead client) has been
  // answered: the submit counts as placed, and nothing answers it again.
  ServiceOptions options;
  options.workers = 1;
  options.search_iterations = 40;
  options.min_iterations = 20;
  SchedulerService service(options);
  service.start();
  auto calls = std::make_shared<std::atomic<int>>(0);
  service.submit(chain_request("t1"),
                 [calls](bool, const SubmitResult&, const Rejection&) {
                   ++*calls;
                   throw std::runtime_error("client gone");
                 });
  service.shutdown();

  EXPECT_EQ(calls->load(), 1);
  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.placed, 1);
  EXPECT_EQ(counters.rejected_internal, 0);
  EXPECT_EQ(counters.in_flight, 0);
  EXPECT_EQ(counters.submitted, counters.placed + counters.rejected_total() +
                                    counters.cancelled + counters.in_flight);
}

TEST(SvcService, StatsJsonIsWellFormedAndReconciles) {
  ServiceOptions options;
  options.workers = 1;
  SchedulerService service(options);
  service.start();
  roundtrip(service, chain_request("s1"));
  SubmitRequest bad;
  bad.id = "bad";
  bad.dag_text = "nope";
  roundtrip(service, bad);

  const JsonValue stats = json_parse(service.counters_json());
  EXPECT_DOUBLE_EQ(stats.at("submitted").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(stats.at("placed").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(stats.at("rejected").at("invalid_dag").as_number(), 1.0);
  // Conservation: everything submitted is placed, rejected, cancelled, or
  // still in flight (queued or being served).
  EXPECT_DOUBLE_EQ(stats.at("submitted").as_number(),
                   stats.at("placed").as_number() +
                       stats.at("rejected").at("total").as_number() +
                       stats.at("cancelled").as_number() +
                       stats.at("in_flight").as_number());
  // The per-tenant breakdown mirrors the submit (default tenant only here).
  EXPECT_DOUBLE_EQ(
      stats.at("tenants").at("default").at("placed").as_number(), 1.0);
}

// --- fd-level line transport -------------------------------------------

TEST(SvcFrontend, LineReaderSplitsRecoversAndBounds) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  LineReader reader(fds[0], /*max_line_bytes=*/16);

  const std::string input =
      "first\nsecond\n" + std::string(64, 'x') + "\nthird\n";
  ASSERT_EQ(write(fds[1], input.data(), input.size()),
            static_cast<ssize_t>(input.size()));
  close(fds[1]);

  std::string line;
  ASSERT_EQ(reader.next(line, nullptr), LineReader::Status::kLine);
  EXPECT_EQ(line, "first");
  ASSERT_EQ(reader.next(line, nullptr), LineReader::Status::kLine);
  EXPECT_EQ(line, "second");
  // The 64-byte line exceeds the 16-byte cap: reported, then resynced.
  ASSERT_EQ(reader.next(line, nullptr), LineReader::Status::kOverlong);
  ASSERT_EQ(reader.next(line, nullptr), LineReader::Status::kLine);
  EXPECT_EQ(line, "third");
  EXPECT_EQ(reader.next(line, nullptr), LineReader::Status::kEof);
  close(fds[0]);
}

// Boundary pins for the reader's cap/EOF edges: a line of EXACTLY
// max_line_bytes is legal whether it ends in '\n' or in EOF, one byte more
// is overlong in either case, and the discard state of an unterminated
// overlong line must not leak a ghost line (or a stale kOverlong) at EOF.
TEST(SvcFrontend, LineReaderExactCapBoundaries) {
  const std::size_t cap_bytes = 8;

  {  // exactly at cap, terminated -> accepted
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    LineReader reader(fds[0], cap_bytes);
    const std::string input = std::string(cap_bytes, 'a') + "\n";
    ASSERT_EQ(write(fds[1], input.data(), input.size()),
              static_cast<ssize_t>(input.size()));
    close(fds[1]);
    std::string line;
    ASSERT_EQ(reader.next(line, nullptr), LineReader::Status::kLine);
    EXPECT_EQ(line, std::string(cap_bytes, 'a'));
    EXPECT_EQ(reader.next(line, nullptr), LineReader::Status::kEof);
    close(fds[0]);
  }

  {  // exactly at cap, unterminated at EOF -> still a line
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    LineReader reader(fds[0], cap_bytes);
    const std::string input(cap_bytes, 'b');
    ASSERT_EQ(write(fds[1], input.data(), input.size()),
              static_cast<ssize_t>(input.size()));
    close(fds[1]);
    std::string line;
    ASSERT_EQ(reader.next(line, nullptr), LineReader::Status::kLine);
    EXPECT_EQ(line, input);
    EXPECT_EQ(reader.next(line, nullptr), LineReader::Status::kEof);
    close(fds[0]);
  }

  {  // one byte over, terminated -> overlong, then clean EOF
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    LineReader reader(fds[0], cap_bytes);
    const std::string input = std::string(cap_bytes + 1, 'c') + "\n";
    ASSERT_EQ(write(fds[1], input.data(), input.size()),
              static_cast<ssize_t>(input.size()));
    close(fds[1]);
    std::string line;
    ASSERT_EQ(reader.next(line, nullptr), LineReader::Status::kOverlong);
    EXPECT_EQ(reader.next(line, nullptr), LineReader::Status::kEof);
    close(fds[0]);
  }

  {  // one byte over, unterminated at EOF -> overlong once, no ghost line
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    LineReader reader(fds[0], cap_bytes);
    const std::string input(cap_bytes + 1, 'd');
    ASSERT_EQ(write(fds[1], input.data(), input.size()),
              static_cast<ssize_t>(input.size()));
    close(fds[1]);
    std::string line;
    ASSERT_EQ(reader.next(line, nullptr), LineReader::Status::kOverlong);
    EXPECT_EQ(reader.next(line, nullptr), LineReader::Status::kEof);
    close(fds[0]);
  }
}

// The discard state set by an overlong unterminated line must swallow the
// REST of that line (even across many reads) and resync at its newline —
// and EOF mid-discard must not resurrect the swallowed tail as a line.
TEST(SvcFrontend, LineReaderDiscardStateDoesNotLeakAcrossEof) {
  {  // resync: overlong tail keeps streaming, then a newline, then a line
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    LineReader reader(fds[0], /*max_line_bytes=*/4);
    std::string line;
    ASSERT_EQ(write(fds[1], "xxxxxxxx", 8), 8);  // over cap, no newline yet
    ASSERT_EQ(reader.next(line, nullptr), LineReader::Status::kOverlong);
    ASSERT_EQ(write(fds[1], "yyyy", 4), 4);  // still the same overlong line
    ASSERT_EQ(reader.next(line, [] { return true; }),
              LineReader::Status::kStopped);  // swallowed, nothing to return
    ASSERT_EQ(write(fds[1], "y\nok\n", 5), 5);  // terminator + a real line
    ASSERT_EQ(reader.next(line, nullptr), LineReader::Status::kLine);
    EXPECT_EQ(line, "ok");
    close(fds[1]);
    EXPECT_EQ(reader.next(line, nullptr), LineReader::Status::kEof);
    close(fds[0]);
  }

  {  // EOF while discarding: the tail vanishes, EOF is clean
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    LineReader reader(fds[0], /*max_line_bytes=*/4);
    std::string line;
    ASSERT_EQ(write(fds[1], "zzzzzzzz", 8), 8);
    ASSERT_EQ(reader.next(line, nullptr), LineReader::Status::kOverlong);
    ASSERT_EQ(write(fds[1], "tail", 4), 4);  // unterminated tail, then EOF
    close(fds[1]);
    EXPECT_EQ(reader.next(line, nullptr), LineReader::Status::kEof);
    close(fds[0]);
  }
}

TEST(SvcFrontend, LineReaderHonorsTheStopFlag) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  LineReader reader(fds[0], 1024);
  std::string line;
  // No data ever arrives; the stop predicate must break the wait.
  EXPECT_EQ(reader.next(line, [] { return true; }),
            LineReader::Status::kStopped);
  close(fds[0]);
  close(fds[1]);
}

TEST(SvcFrontend, ConnectionServesProtocolOverAPipe) {
  int in_fds[2], out_fds[2];
  ASSERT_EQ(pipe(in_fds), 0);
  ASSERT_EQ(pipe(out_fds), 0);

  ServiceOptions options;
  options.workers = 1;
  SchedulerService service(options);
  service.start();

  const std::string requests =
      "{\"id\":\"p1\",\"method\":\"ping\"}\n"
      "{\"id\":\"r1\",\"method\":\"submit\",\"dag\":\"dims 2\\ntask a 5 0.5 "
      "0.5\\n\"}\n"
      "not json\n"
      "{\"id\":\"s1\",\"method\":\"stats\"}\n";
  ASSERT_EQ(write(in_fds[1], requests.data(), requests.size()),
            static_cast<ssize_t>(requests.size()));
  close(in_fds[1]);  // EOF ends the connection loop

  auto writer = std::make_shared<LineWriter>(out_fds[1], /*own_fd=*/true);
  const std::int64_t handled =
      run_jsonl_connection(in_fds[0], writer, service, nullptr);
  EXPECT_EQ(handled, 4);
  service.shutdown();
  writer.reset();  // close the write end so the reader below sees EOF
  close(in_fds[0]);

  LineReader responses(out_fds[0], 1 << 16);
  std::string line;
  int lines = 0;
  bool saw_pong = false, saw_placed = false, saw_bad = false, saw_stats = false;
  while (responses.next(line, nullptr) == LineReader::Status::kLine) {
    ++lines;
    const JsonValue v = json_parse(line);
    const std::string id = v.at("id").as_string();
    if (id == "p1") saw_pong = v.at("result").as_string() == "pong";
    if (id == "r1") saw_placed = v.at("ok").as_bool();
    if (id.empty()) {
      saw_bad = v.at("error").at("code").as_string() == "bad_request";
    }
    if (id == "s1") saw_stats = v.at("stats").is_object();
  }
  EXPECT_EQ(lines, 4);
  EXPECT_TRUE(saw_pong);
  EXPECT_TRUE(saw_placed);
  EXPECT_TRUE(saw_bad);
  EXPECT_TRUE(saw_stats);
  close(out_fds[0]);
}

}  // namespace
}  // namespace spear::svc
