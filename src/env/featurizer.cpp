#include "env/featurizer.h"

#include <algorithm>
#include <stdexcept>

namespace spear {

namespace {

// Feature emitters: featurize_emit produces every feature value in layout
// order through one of these, so the dense row and the compressed
// (index, value) form are built by the same arithmetic — bitwise-equal by
// construction.  skip() advances past a run of zeros already present in
// the zero-filled row (empty ready slots).

struct DenseEmit {
  double* out;
  std::size_t k = 0;
  void value(double v) { out[k++] = v; }
  void skip(std::size_t n) { k += n; }
};

struct CompressEmit {
  double* out;
  std::int32_t* kidx;
  double* kval;
  std::size_t k = 0;
  std::size_t nnz = 0;
  void value(double v) {
    out[k] = v;
    // Branchless, like kernels::compress_rows_into: store unconditionally,
    // advance the cursor only past nonzeros.
    kidx[nnz] = static_cast<std::int32_t>(k);
    kval[nnz] = v;
    nnz += static_cast<std::size_t>(v != 0.0);
    ++k;
  }
  void skip(std::size_t n) { k += n; }
};

}  // namespace

Featurizer::Featurizer(FeaturizerOptions options) : options_(options) {
  if (options_.horizon <= 0) {
    throw std::invalid_argument("Featurizer: horizon must be positive");
  }
  if (options_.max_ready == 0) {
    throw std::invalid_argument("Featurizer: max_ready must be > 0");
  }
}

std::size_t Featurizer::input_dim(std::size_t resource_dims) const {
  const auto H = static_cast<std::size_t>(options_.horizon);
  const std::size_t per_task = options_.graph_features
                                   ? 4 + 2 * resource_dims
                                   : 2 + resource_dims;
  return H * resource_dims + options_.max_ready * per_task + 3;
}

void Featurizer::featurize(const SchedulingEnv& env,
                           std::vector<double>& out) const {
  // assign() reuses the vector's allocation across calls, so a reused
  // buffer makes this as allocation-free as featurize_into.
  out.assign(input_dim(env.dag().resource_dims()), 0.0);
  DenseEmit emit{out.data()};
  featurize_emit(env, out.data(), emit);
}

void Featurizer::featurize_into(const SchedulingEnv& env, double* out) const {
  std::fill(out, out + input_dim(env.dag().resource_dims()), 0.0);
  DenseEmit emit{out};
  featurize_emit(env, out, emit);
}

void Featurizer::featurize_compress_into(const SchedulingEnv& env,
                                         double* out, std::int32_t* kidx,
                                         double* kval,
                                         std::int32_t* row_nnz) const {
  std::fill(out, out + input_dim(env.dag().resource_dims()), 0.0);
  CompressEmit emit{out, kidx, kval};
  featurize_emit(env, out, emit);
  *row_nnz = static_cast<std::int32_t>(emit.nnz);
}

template <class Emit>
void Featurizer::featurize_emit(const SchedulingEnv& env, double* out,
                                Emit& emit) const {
  const Dag& dag = env.dag();
  const DagFeatures& feats = env.features();
  const std::size_t R = dag.resource_dims();

  // Normalization constants.  critical_path() >= 1 because runtimes are
  // positive; total loads (cached per DAG in DagFeatures — Dag::total_load
  // loops over every task) are guarded against degenerate zero demand.
  const auto cp = static_cast<double>(std::max<Time>(feats.critical_path(), 1));
  const auto load_norm = [&feats](std::size_t r) {
    return std::max(feats.total_load(r), 1e-9);
  };
  const auto n_tasks = static_cast<double>(dag.num_tasks());

  // 1. Cluster image over the horizon, as utilization fractions.  The raw
  // demands are accumulated into the zero-filled slots by one scan of the
  // running set (bit-identical to per-slot projected_usage sums), then
  // normalized in layout order through the emitter.
  const ClusterSim& cluster = env.cluster();
  cluster.accumulate_projected_usage(cluster.now(), options_.horizon, out);
  {
    std::size_t idx = 0;
    for (Time dt = 0; dt < options_.horizon; ++dt) {
      for (std::size_t r = 0; r < R; ++r, ++idx) {
        const double cap = std::max(cluster.capacity()[r], 1e-9);
        emit.value(out[idx] / cap);
      }
    }
  }

  // 2. Ready-task slots.
  const std::size_t per_task =
      options_.graph_features ? 4 + 2 * R : 2 + R;
  const auto& ready = env.ready();
  for (std::size_t i = 0; i < options_.max_ready; ++i) {
    if (i < ready.size()) {
      const Task& t = dag.task(ready[i]);
      emit.value(1.0);  // present
      emit.value(static_cast<double>(t.runtime) / cp);
      for (std::size_t r = 0; r < R; ++r) {
        const double cap = std::max(cluster.capacity()[r], 1e-9);
        emit.value(t.demand[r] / cap);
      }
      if (options_.graph_features) {
        emit.value(static_cast<double>(feats.b_level(t.id)) / cp);
        emit.value(static_cast<double>(feats.num_children(t.id)) /
                   std::max(n_tasks, 1.0));
        for (std::size_t r = 0; r < R; ++r) {
          emit.value(feats.b_load(t.id, r) / load_norm(r));
        }
      }
    } else {
      emit.skip(per_task);  // zero padding for the empty slot
    }
  }

  // 3. Global scalars.
  emit.value(static_cast<double>(env.backlog_size()) /
             std::max(n_tasks, 1.0));
  const auto placed = static_cast<double>(cluster.schedule().size());
  const auto running = static_cast<double>(cluster.num_running());
  emit.value((placed - running) / std::max(n_tasks, 1.0));  // completed frac
  emit.value(running / std::max(n_tasks, 1.0));

  if (emit.k != input_dim(R)) {
    throw std::logic_error("Featurizer: feature layout mismatch");
  }
}

}  // namespace spear
