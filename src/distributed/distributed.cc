#include "distributed/distributed.h"

#include <cmath>

#include "util/logging.h"
#include "util/metrics.h"

namespace swsketch {
namespace {

// Static-scope "distributed." metrics: the coordinator is thin, so handles
// are cached once per process instead of per instance.
Counter* SwrUpdatesCounter() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("distributed.swr_updates");
  return c;
}
Counter* SwrQueriesCounter() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("distributed.swr_queries");
  return c;
}

}  // namespace

DistributedSwr::DistributedSwr(std::vector<SwrSketch*> workers)
    : workers_(std::move(workers)) {
  SWSKETCH_CHECK_GT(workers_.size(), 0u);
  for (const SwrSketch* w : workers_) {
    SWSKETCH_CHECK_EQ(w->ell(), workers_[0]->ell());
    SWSKETCH_CHECK_EQ(w->dim(), workers_[0]->dim());
  }
}

Status DistributedSwr::Update(size_t worker_index,
                              std::span<const double> row, double ts) {
  // The index is caller-controlled routing, not a trusted invariant, and
  // folding ts into now_ is what lets Query() serve the current window
  // without an explicit AdvanceTo heartbeat (it advances every worker to
  // the max timestamp seen, expiring rows the union window has dropped).
  if (worker_index >= workers_.size()) {
    return Status::InvalidArgument("worker index out of range");
  }
  Status st = workers_[worker_index]->Update(row, ts);
  if (!st.ok()) return st;
  now_ = std::max(now_, ts);
  SwrUpdatesCounter()->Add();
  return st;
}

void DistributedSwr::AdvanceTo(double now) {
  now_ = std::max(now_, now);
  for (SwrSketch* w : workers_) w->AdvanceTo(now_);
}

Matrix DistributedSwr::Query() {
  SwrQueriesCounter()->Add();
  AdvanceTo(now_);
  const size_t ell = workers_[0]->ell();
  const size_t dim = workers_[0]->dim();

  // Union-window Frobenius mass = sum of the workers' window masses
  // (sub-streams are disjoint).
  double frob_sq = 0.0;
  std::vector<std::vector<std::optional<SwrSketch::ChainSample>>> samples;
  samples.reserve(workers_.size());
  for (SwrSketch* w : workers_) {
    frob_sq += w->FrobeniusSqEstimate();
    samples.push_back(w->ChainSamples());
  }

  Matrix b(0, dim);
  if (frob_sq <= 0.0) return b;
  const double frob = std::sqrt(frob_sq);
  for (size_t s = 0; s < ell; ++s) {
    // Max-stability: the union sample for slot s is the highest-priority
    // candidate across workers.
    const SwrSketch::ChainSample* best = nullptr;
    for (const auto& worker_samples : samples) {
      const auto& cand = worker_samples[s];
      if (cand.has_value() &&
          (best == nullptr || cand->log_priority > best->log_priority)) {
        best = &*cand;
      }
    }
    if (best == nullptr) continue;
    const double w = best->row->NormSq();
    b.AppendRowScaled(best->row->view(),
                      frob / std::sqrt(static_cast<double>(ell) * w));
  }
  return b;
}

size_t DistributedSwr::RowsStored() const {
  size_t n = 0;
  for (const SwrSketch* w : workers_) n += w->RowsStored();
  return n;
}

}  // namespace swsketch
