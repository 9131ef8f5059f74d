// A timing DecisionPolicy decorator: wraps the search guide, forwards every
// call unchanged, and records each call as a span plus a tally of calls,
// rows and busy time.  It is handed to the public
// MctsScheduler(MctsOptions, guide) constructor, so the rl/nn layer is timed
// from outside the search.  Transparency (identical schedules and search
// counts with and without it) is checked by the benchmark's own tests and
// again on every traced run.

#pragma once

#include <atomic>
#include <memory>
#include <utility>

#include "harness.h"
#include "mcts/policies.h"

namespace spearbench {

/// Totals shared by a guide and all of its per-worker clones.
struct GuideTally {
  std::atomic<std::int64_t> calls{0};
  std::atomic<std::int64_t> rows{0};
  std::atomic<std::int64_t> busy_ns{0};
};

class TimedGuide final : public spear::DecisionPolicy {
 public:
  TimedGuide(std::shared_ptr<spear::DecisionPolicy> inner,
             std::shared_ptr<GuideTally> tally, SpanRecorder* spans)
      : inner_(std::move(inner)), tally_(std::move(tally)), spans_(spans) {}

  std::vector<std::pair<int, double>> action_weights(
      const spear::SchedulingEnv& env) override {
    Call call(*this, 1);
    return inner_->action_weights(env);
  }
  int pick(const spear::SchedulingEnv& env, spear::Rng& rng) override {
    Call call(*this, 1);
    return inner_->pick(env, rng);
  }
  void pick_batch(const spear::SchedulingEnv* const* envs, std::size_t n,
                  spear::Rng* const* rngs, int* out) override {
    Call call(*this, n);
    inner_->pick_batch(envs, n, rngs, out);
  }
  bool supports_batch_eval() const override {
    return inner_->supports_batch_eval();
  }
  std::vector<std::vector<std::pair<int, double>>> action_weights_batch(
      const spear::SchedulingEnv* const* envs, std::size_t n) override {
    Call call(*this, n);
    return inner_->action_weights_batch(envs, n);
  }
  std::shared_ptr<spear::DecisionPolicy> clone() const override {
    auto inner = inner_->clone();
    if (!inner) return nullptr;
    return std::make_shared<TimedGuide>(std::move(inner), tally_, spans_);
  }
  void enable_rollout_cache(std::size_t capacity) override {
    inner_->enable_rollout_cache(capacity);
  }
  std::int64_t rollout_cache_hits() const override {
    return inner_->rollout_cache_hits();
  }
  std::int64_t rollout_cache_misses() const override {
    return inner_->rollout_cache_misses();
  }
  void share_rollout_cache(
      std::shared_ptr<spear::SharedActionCache> cache) override {
    inner_->share_rollout_cache(std::move(cache));
  }
  std::int64_t forward_calls() const override {
    return inner_->forward_calls();
  }
  std::int64_t forward_rows() const override { return inner_->forward_rows(); }
  const std::vector<std::int64_t>* forward_hist() const override {
    return inner_->forward_hist();
  }
  void reset_forward_stats() override { inner_->reset_forward_stats(); }

 private:
  /// Times one forwarded call; the span's parent is the recorder's root
  /// (the enclosing schedule span), because search worker threads have no
  /// open span of their own.
  class Call {
   public:
    Call(TimedGuide& guide, std::size_t rows)
        : guide_(guide), rows_(rows), start_(Clock::now()) {}
    ~Call() {
      const Clock::time_point end = Clock::now();
      GuideTally& t = *guide_.tally_;
      t.calls.fetch_add(1, std::memory_order_relaxed);
      t.rows.fetch_add(static_cast<std::int64_t>(rows_),
                       std::memory_order_relaxed);
      t.busy_ns.fetch_add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
              .count(),
          std::memory_order_relaxed);
      if (guide_.spans_) {
        guide_.spans_->add("guide", start_, end, guide_.spans_->root());
      }
    }

   private:
    TimedGuide& guide_;
    std::size_t rows_;
    Clock::time_point start_;
  };

  std::shared_ptr<spear::DecisionPolicy> inner_;
  std::shared_ptr<GuideTally> tally_;
  SpanRecorder* spans_;
};

}  // namespace spearbench
