// End-to-end benchmark program for swsketch: runs one named workload in a
// closed loop with one caller, through the library's public entry points.
//
//   swbench --workload=<seq-fd|time-query|tenant-keyed|sharded-fd>
//           --seed=<n> --seconds=<s> --trace=<0|1> [--scale=tiny]
//           [--trace_out=<file>]
//
// Inputs are generated from --seed before any clock starts; the library
// only ever sees pre-generated rows. Each ingest call blocks until its rows
// are applied (in sharded-fd the coordinator also blocks on queue
// back-pressure, and the per-window Flush() counts as an ingest call), so
// the result is work per second at a stated input size plus per-request
// latency. Correctness is checked off the clock against exact windows.
//
// --trace=0 measures the end-to-end metrics. --trace=1 alternates untraced
// chunks with traced ones, which put a span around every call into a
// layer; at each span boundary it reads deltas of MetricsRegistry counters
// and histograms, which yields per-layer work and self time, and checks
// that the spans account for the run's wall time (the layer ledger).
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics (end-to-end metrics untraced, per-layer metrics traced). The
// lines before it restate every metric with its unit, the tail percentile
// and sample counts, the seed, nproc, thread count and build type.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/factory.h"
#include "core/sliding_window_sketch.h"
#include "data/synthetic.h"
#include "data/wiki.h"
#include "distributed/sharded_sketch.h"
#include "eval/cov_err.h"
#include "linalg/matrix.h"
#include "service/tenant_manager.h"
#include "util/flags.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/random.h"

#ifndef SWBENCH_BUILD_TYPE
#define SWBENCH_BUILD_TYPE "unknown"
#endif

namespace swsketch {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Registry probe: the counters, histogram sums and gauges read at every span
// boundary of the traced run. Handles are looked up once; reading one is a
// handful of relaxed loads.

enum Probe : size_t {
  kFdShrinkNs,
  kFdShrinks,
  kEigenTridiag,
  kEigenJacobi,
  kLmBlocksClosed,
  kLmLevelMerges,
  kLmQueryHits,
  kLmQueryMisses,
  kLmMergeHits,
  kLmMergeMisses,
  kLmColdMerges,
  kDiL1Closes,
  kDiCoverHits,
  kDiCoverMisses,
  kDsSnapshotsTaken,
  kSworFrontExpiries,
  kSvcRows,
  kSvcGroups,
  kSvcQueries,
  kSvcSpills,
  kSvcReloads,
  kShBlockApplyNs,
  kShQueryReduceNs,
  kNumProbes
};

struct ProbeSet {
  std::array<const Counter*, kNumProbes> counters{};
  std::array<const Histogram*, kNumProbes> histograms{};
  std::vector<const Gauge*> queue_depths;

  explicit ProbeSet(size_t shards) {
    MetricsRegistry& r = MetricsRegistry::Global();
    const auto c = [&](Probe p, const char* name) {
      counters[p] = r.GetCounter(name);
    };
    const auto h = [&](Probe p, const char* name) {
      histograms[p] = r.GetHistogram(name);
    };
    h(kFdShrinkNs, "fd.shrink_ns");
    c(kFdShrinks, "fd.shrinks");
    c(kEigenTridiag, "fd.eigen_route_tridiag");
    c(kEigenJacobi, "fd.eigen_route_jacobi");
    c(kLmBlocksClosed, "lm_fd.blocks_closed");
    c(kLmLevelMerges, "lm_fd.level_merges");
    c(kLmQueryHits, "lm_fd.query_cache_hits");
    c(kLmQueryMisses, "lm_fd.query_cache_misses");
    c(kLmMergeHits, "lm_fd.merge_cache_hits");
    c(kLmMergeMisses, "lm_fd.merge_cache_misses");
    c(kLmColdMerges, "lm_fd.cold_merges");
    c(kDiL1Closes, "di_fd.l1_closes");
    c(kDiCoverHits, "di_fd.cover_cache_hits");
    c(kDiCoverMisses, "di_fd.cover_cache_misses");
    c(kDsSnapshotsTaken, "ds_fd.snapshots_taken");
    c(kSworFrontExpiries, "swor.front_expiries");
    c(kSvcRows, "tenant_manager.rows_ingested");
    c(kSvcGroups, "tenant_manager.keyed_groups");
    c(kSvcQueries, "tenant_manager.queries");
    c(kSvcSpills, "tenant_manager.spills");
    c(kSvcReloads, "tenant_manager.reloads");
    h(kShBlockApplyNs, "sharded_lm_fd.block_apply_ns");
    h(kShQueryReduceNs, "sharded_lm_fd.query_reduce_ns");
    for (size_t i = 0; i < shards; ++i) {
      queue_depths.push_back(
          r.GetGauge("sharded_lm_fd.queue_depth." + std::to_string(i)));
    }
  }

  using Values = std::array<uint64_t, kNumProbes>;

  Values Read() const {
    Values v{};
    for (size_t i = 0; i < kNumProbes; ++i) {
      v[i] = counters[i] ? counters[i]->Value() : histograms[i]->Sum();
    }
    return v;
  }

  int64_t MaxQueueDepth() const {
    int64_t m = 0;
    for (const Gauge* g : queue_depths) m = std::max(m, g->Value());
    return m;
  }
};

// ---------------------------------------------------------------------------
// Spans. Every span has one parent (the root has none); a span's self time
// is its duration minus its child spans minus registry-timed children (the
// fd.shrink_ns delta of a same-thread update call).

enum SpanName : uint16_t {
  kRun,
  kGenerate,
  kSetup,
  kUntracedPhase,
  kTracedPhase,
  kCheckpoint,
  kReference,
  kSpeedupProbe,
  kLmUpdate,
  kDiUpdate,
  kDsUpdate,
  kSwrUpdate,
  kSworUpdate,
  kLmQuery,
  kDiQuery,
  kDsQuery,
  kSwrQuery,
  kSworQuery,
  kAdvance,
  kSvcUpdateKeyed,
  kSvcQuery,
  kDistUpdate,
  kDistFlush,
  kDistQuery,
  kNumSpanNames
};

constexpr std::array<const char*, kNumSpanNames> kSpanNames = {
    "bench.run",          "data.generate",        "setup.warmup",
    "untraced.phase",     "bench.traced",         "eval.checkpoint",
    "eval.reference",     "distributed.speedup_probe",
    "core.lm_fd.update",  "core.di_fd.update",    "core.ds_fd.update",
    "core.swr.update",    "core.swor.update",     "core.lm_fd.query",
    "core.di_fd.query",   "core.ds_fd.query",     "core.swr.query",
    "core.swor.query",    "core.advance",         "service.update_keyed",
    "service.query",      "distributed.update",   "distributed.flush",
    "distributed.query"};

// Layer calls: the spans whose registry deltas make up the per-layer
// counts (eval and set-up spans touch sketches too, but off the clock).
bool IsLayerCall(uint16_t name) { return name >= kLmUpdate; }

// Update calls that run FD shrinks on the calling thread, so the
// fd.shrink_ns delta is a registry-timed child of the span.
bool AttributesShrink(uint16_t name) {
  return (name >= kLmUpdate && name <= kSworUpdate) ||
         name == kSvcUpdateKeyed;
}

struct SpanRecord {
  uint16_t name = 0;
  int32_t parent = -1;
  uint64_t start = 0;
  uint64_t end = 0;
  uint64_t child_ns = 0;       // Child spans.
  uint64_t registry_ns = 0;    // Registry-timed children.
};

struct NameTotals {
  uint64_t calls = 0;
  uint64_t span_ns = 0;
  uint64_t registry_ns = 0;
  ProbeSet::Values delta{};
};

class Tracer {
 public:
  Tracer(const ProbeSet* probes, bool enabled)
      : probes_(probes), enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  int32_t Begin(uint16_t name) {
    if (!enabled_) return -1;
    SpanRecord rec;
    rec.name = name;
    rec.parent = stack_.empty() ? -1 : stack_.back();
    const int32_t id = static_cast<int32_t>(spans_.size());
    spans_.push_back(rec);
    stack_.push_back(id);
    start_values_.push_back(probes_->Read());
    spans_[id].start = NowNs();
    return id;
  }

  void End(int32_t id) {
    if (id < 0) return;
    const uint64_t end = NowNs();
    const ProbeSet::Values v = probes_->Read();
    queue_depth_max_ = std::max(queue_depth_max_, probes_->MaxQueueDepth());
    SpanRecord& rec = spans_[id];
    rec.end = end;
    const ProbeSet::Values& v0 = start_values_.back();
    NameTotals& t = totals_[rec.name];
    ++t.calls;
    t.span_ns += rec.end - rec.start;
    for (size_t i = 0; i < kNumProbes; ++i) t.delta[i] += v[i] - v0[i];
    if (AttributesShrink(rec.name)) {
      rec.registry_ns = v[kFdShrinkNs] - v0[kFdShrinkNs];
      t.registry_ns += rec.registry_ns;
    }
    start_values_.pop_back();
    stack_.pop_back();
    if (rec.parent >= 0) spans_[rec.parent].child_ns += rec.end - rec.start;
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const NameTotals& totals(uint16_t name) const { return totals_[name]; }
  int64_t queue_depth_max() const { return queue_depth_max_; }

  // Probe deltas summed over every layer call.
  ProbeSet::Values LayerDelta() const {
    ProbeSet::Values sum{};
    for (uint16_t n = 0; n < kNumSpanNames; ++n) {
      if (!IsLayerCall(n)) continue;
      for (size_t i = 0; i < kNumProbes; ++i) sum[i] += totals_[n].delta[i];
    }
    return sum;
  }

 private:
  const ProbeSet* probes_;
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> stack_;
  std::vector<ProbeSet::Values> start_values_;
  std::array<NameTotals, kNumSpanNames> totals_{};
  int64_t queue_depth_max_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, uint16_t name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

// ---------------------------------------------------------------------------
// Measurement state shared by every workload.
//
// A latency sample is one request of the closed loop: a block through every
// backend of the workload (seq-fd, time-query: UpdateBatch plus AdvanceTo on
// each), one UpdateKeyed, one coordinator UpdateBatch or Flush; and on the
// read side one query round (Query on every backend). Per-backend costs are
// the per-layer core.* metrics. ingest_rows_per_s is the median over query
// intervals of rows applied / time inside ingest calls, so a burst of host
// contention moves it less than the run total would.

struct Phase {
  Tracer* tracer = nullptr;
  std::vector<double> update_us;
  std::vector<double> query_us;
  std::vector<double> interval_rates;
  uint64_t rows = 0;
  uint64_t checkpoints = 0;
  std::vector<double> cova_errs;
  size_t sketch_rows_max = 0;
  double peak_rss_mb = 0.0;  // At the last required checkpoint.
  uint64_t attempted = 0;
  uint64_t failed = 0;

  // Times one call into the library: a span when tracing, and its
  // wall time always.
  template <class F>
  uint64_t Call(uint16_t span, F&& f) {
    const int32_t id = tracer->Begin(span);
    const uint64_t t0 = NowNs();
    f();
    const uint64_t ns = NowNs() - t0;
    tracer->End(id);
    ++attempted;
    return ns;
  }
  template <class F>
  void Ingest(uint16_t span, F&& f) {
    const uint64_t ns = Call(span, std::forward<F>(f));
    update_round_ns_ += ns;
    interval_ns_ += ns;
  }
  template <class F>
  void Query(uint16_t span, F&& f) {
    query_round_ns_ += Call(span, std::forward<F>(f));
  }
  void EndUpdateRound(uint64_t applied_rows) {
    update_us.push_back(static_cast<double>(update_round_ns_) * 1e-3);
    update_round_ns_ = 0;
    rows += applied_rows;
    interval_rows_ += applied_rows;
  }
  void EndQueryRound() {
    query_us.push_back(static_cast<double>(query_round_ns_) * 1e-3);
    query_round_ns_ = 0;
  }
  void EndInterval() {
    if (interval_ns_ > 0) {
      interval_rates.push_back(static_cast<double>(interval_rows_) * 1e9 /
                               static_cast<double>(interval_ns_));
    }
    interval_ns_ = 0;
    interval_rows_ = 0;
  }

  void Check(bool ok, const char* what) {
    ++attempted;
    if (ok) return;
    if (failed < 5) std::fprintf(stderr, "swbench: failed check: %s\n", what);
    ++failed;
  }

 private:
  uint64_t update_round_ns_ = 0;
  uint64_t query_round_ns_ = 0;
  uint64_t interval_ns_ = 0;
  uint64_t interval_rows_ = 0;
};

bool AllFinite(const Matrix& m) {
  for (double v : m.Data()) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

// One exact-window checkpoint: records cova-err and counts a failure when
// the error is non-finite or above the B = 0 floor.
void CheckError(Phase* ph, const Matrix& gram, double frob_sq,
                const Matrix& b) {
  if (frob_sq <= 0.0) return;  // Empty window: nothing to approximate.
  const double err = CovarianceError(gram, frob_sq, b);
  const double floor = CovarianceError(gram, frob_sq, Matrix(0, gram.cols()));
  ph->cova_errs.push_back(err);
  if (!(std::isfinite(err) && err <= floor)) {
    std::fprintf(stderr, "swbench: cova-err %g above the B = 0 floor %g\n",
                 err, floor);
  }
  ph->Check(std::isfinite(err) && err <= floor, "checkpoint error");
}

// Gram and squared Frobenius norm of the window rows.
void WindowGram(const std::vector<std::span<const double>>& rows, size_t d,
                Matrix* gram, double* frob_sq) {
  Matrix a(rows.size(), d);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::copy(rows[i].begin(), rows[i].end(), a.RowPtr(i));
  }
  a.GramInto(gram);
  *frob_sq = a.FrobeniusNormSq();
}

// DI level count as the figure harness picks it: L ~ log2(R * ell / 2).
size_t DiLevels(double norm_ratio, size_t ell) {
  const double l = std::log2(
      std::max(2.0, norm_ratio * static_cast<double>(ell) / 2.0));
  return std::clamp<size_t>(static_cast<size_t>(std::lround(l)), 2, 12);
}

double MeanNormSq(const std::vector<Matrix>& blocks, size_t limit) {
  double sum = 0.0;
  size_t n = 0;
  for (const Matrix& b : blocks) {
    for (size_t i = 0; i < b.rows() && n < limit; ++i, ++n) {
      for (double v : b.Row(i)) sum += v * v;
    }
  }
  return n ? sum / static_cast<double>(n) : 1.0;
}

// ---------------------------------------------------------------------------
// Workloads. Pre-generated input is a cyclic segment of row blocks; the
// stream position keeps growing and wraps around the segment, with
// timestamps that keep increasing.

class Workload {
 public:
  virtual ~Workload() = default;
  /// Pre-generates the input (off the clock).
  virtual void Generate(uint64_t seed) = 0;
  /// Builds the sketches / manager / shards and ingests the warm-up
  /// prefix. Called several times; each call starts from scratch.
  virtual void Setup() = 0;
  /// One closed-loop step: a block through every backend, plus queries
  /// and checkpoints when due.
  virtual void Step(Phase* ph) = 0;
  /// Writer threads besides the caller (sharded-fd).
  virtual size_t writer_threads() const { return 0; }
  /// Trace-only extras (distributed.speedup_vs_s1).
  virtual void Extras(Tracer*, std::map<std::string, double>*) {}
  /// Checkpoints the measured run must reach before it may stop.
  virtual size_t min_checkpoints() const = 0;
  /// Human-readable shape summary.
  virtual std::string Describe() const = 0;
};

// A cyclic segment of pre-generated SYNTHETIC row blocks replayed as one
// sequence stream: stream row p is segment row p mod (segment rows) and has
// timestamp p.
class SequenceBlocks {
 public:
  void Generate(SyntheticStream::Options opt, size_t block_rows,
                size_t nblocks) {
    opt.rows = block_rows * nblocks;
    SyntheticStream stream(opt);
    info_ = stream.info();
    block_rows_ = block_rows;
    blocks_.clear();
    for (size_t b = 0; b < nblocks; ++b) {
      Matrix m(block_rows, opt.dim);
      std::vector<double> ts;
      stream.NextBatch(block_rows, &m, &ts);
      blocks_.push_back(std::move(m));
    }
    avg_norm_sq_ = MeanNormSq(blocks_, 2000);
  }

  void Rewind() { pos_ = 0; }

  /// The next block; ts() holds its timestamps until the next call.
  const Matrix& Next() {
    const Matrix& block = blocks_[(pos_ / block_rows_) % blocks_.size()];
    ts_.resize(block_rows_);
    for (size_t i = 0; i < block_rows_; ++i) {
      ts_[i] = static_cast<double>(pos_ + i);
    }
    pos_ += block_rows_;
    return block;
  }
  std::span<const double> ts() const { return ts_; }

  /// Rows handed out so far.
  uint64_t pos() const { return pos_; }

  /// The last `n` rows handed out: the exact sequence window.
  std::vector<std::span<const double>> Last(uint64_t n) const {
    std::vector<std::span<const double>> rows;
    for (uint64_t p = pos_ > n ? pos_ - n : 0; p < pos_; ++p) {
      rows.push_back(
          blocks_[(p / block_rows_) % blocks_.size()].Row(p % block_rows_));
    }
    return rows;
  }

  const DatasetInfo& info() const { return info_; }
  double avg_norm_sq() const { return avg_norm_sq_; }

 private:
  DatasetInfo info_;
  double avg_norm_sq_ = 1.0;
  size_t block_rows_ = 1;
  std::vector<Matrix> blocks_;
  std::vector<double> ts_;
  uint64_t pos_ = 0;
};

// seq-fd: SYNTHETIC (dense, d = 300, signal 50, N = 10,000) in 256-row
// UpdateBatch blocks through LM-FD, DI-FD and DS-FD at ell = 32, one Query
// per backend every quarter window (one per window leaves 15 query samples
// in a run, too few for a steady median).
class SeqFd : public Workload {
 public:
  explicit SeqFd(bool tiny)
      : d_(tiny ? 60 : 300),
        signal_(tiny ? 10 : 50),
        n_(tiny ? 1000 : 10000),
        block_(tiny ? 64 : 256),
        ell_(tiny ? 8 : 32),
        blocks_per_window_((n_ + block_ - 1) / block_) {}

  void Generate(uint64_t seed) override {
    SyntheticStream::Options opt;
    opt.dim = d_;
    opt.signal_dim = signal_;
    opt.window = n_;
    opt.seed = seed;
    stream_.Generate(opt, block_, 3 * blocks_per_window_);
    sketch_seed_ = seed;
  }

  void Setup() override {
    sketches_.clear();
    for (const char* algo : {"lm-fd", "di-fd", "ds-fd"}) {
      SketchConfig c;
      c.algorithm = algo;
      c.ell = ell_;
      c.max_norm_sq = stream_.info().max_norm_sq;
      c.levels = DiLevels(stream_.info().norm_ratio_hint, ell_);
      c.lm_block_capacity = static_cast<double>(ell_) * stream_.avg_norm_sq();
      c.seed = sketch_seed_;
      auto made = MakeSlidingWindowSketch(d_, WindowSpec::Sequence(n_), c);
      SWSKETCH_CHECK(made.ok());
      sketches_.push_back(made.take());
    }
    stream_.Rewind();
    // Warm-up: one full window.
    while (stream_.pos() < n_) {
      const Matrix& block = stream_.Next();
      for (auto& s : sketches_) s->UpdateBatch(block, stream_.ts());
    }
    steps_ = 0;
  }

  void Step(Phase* ph) override {
    static constexpr std::array<uint16_t, 3> kUpdate = {kLmUpdate, kDiUpdate,
                                                        kDsUpdate};
    static constexpr std::array<uint16_t, 3> kQuery = {kLmQuery, kDiQuery,
                                                       kDsQuery};
    const Matrix& block = stream_.Next();
    for (size_t s = 0; s < sketches_.size(); ++s) {
      ph->Ingest(kUpdate[s],
                 [&] { sketches_[s]->UpdateBatch(block, stream_.ts()); });
    }
    ph->EndUpdateRound(block_);
    ++steps_;
    if (steps_ % (blocks_per_window_ / kQueriesPerWindow) != 0) return;
    // A query per backend every quarter window; the first few whole
    // windows are also exact checkpoints, evaluated on the timed query's
    // result.
    std::vector<Matrix> results(sketches_.size());
    for (size_t s = 0; s < sketches_.size(); ++s) {
      ph->Query(kQuery[s], [&] { results[s] = sketches_[s]->Query(); });
    }
    ph->EndQueryRound();
    ph->EndInterval();
    for (const Matrix& r : results) {
      ph->Check(AllFinite(r), "finite query result");
    }
    if (steps_ % blocks_per_window_ != 0 || ph->checkpoints >= kCheckpoints) {
      return;
    }
    ScopedSpan span(ph->tracer, kCheckpoint);
    Matrix gram;
    double frob_sq = 0.0;
    WindowGram(stream_.Last(n_), d_, &gram, &frob_sq);
    size_t stored = 0;
    for (size_t s = 0; s < sketches_.size(); ++s) {
      CheckError(ph, gram, frob_sq, results[s]);
      stored += sketches_[s]->RowsStored();
    }
    ph->sketch_rows_max = std::max(ph->sketch_rows_max, stored);
    ++ph->checkpoints;
  }

  size_t min_checkpoints() const override { return kCheckpoints; }
  std::string Describe() const override {
    return "SYNTHETIC d=" + std::to_string(d_) + " N=" + std::to_string(n_) +
           " block=" + std::to_string(block_) + " ell=" +
           std::to_string(ell_) + " backends=lm-fd,di-fd,ds-fd";
  }

 private:
  static constexpr uint64_t kCheckpoints = 3;
  static constexpr uint64_t kQueriesPerWindow = 4;

  size_t d_, signal_, n_, block_, ell_, blocks_per_window_;
  uint64_t sketch_seed_ = 1;
  SequenceBlocks stream_;
  std::vector<std::unique_ptr<SlidingWindowSketch>> sketches_;
  uint64_t steps_ = 0;
};

// time-query: WIKI (sparse, d = 300, 20-80 nonzeros, time window 100) fed
// to SWR, SWOR and LM-FD at ell = 32 in 64-row blocks; every block is
// followed by AdvanceTo and Query on every backend. The segment is the late
// part of the WIKI stream (arrival rate within 2x of constant), replayed
// with shifted timestamps.
class TimeQuery : public Workload {
 public:
  explicit TimeQuery(bool tiny)
      : d_(tiny ? 60 : 300),
        total_rows_(tiny ? 8000 : 40000),
        block_(64),
        ell_(32),
        delta_(tiny ? 20.0 : 100.0) {}

  void Generate(uint64_t seed) override {
    WikiStream::Options opt;
    opt.rows = total_rows_;
    opt.dim = d_;
    opt.nnz_min = d_ >= 80 ? 20 : 4;
    opt.nnz_max = d_ >= 80 ? 80 : 16;
    opt.span = 2000.0;
    opt.window = delta_;
    opt.seed = seed;
    WikiStream stream(opt);
    const double segment_start = 0.75 * opt.span;
    std::vector<std::pair<std::vector<double>, double>> rows;
    while (auto row = stream.Next()) {
      if (row->ts < segment_start) continue;
      rows.emplace_back(std::move(row->values), row->ts);
    }
    const size_t nblocks = rows.size() / block_;
    blocks_.clear();
    block_ts_.clear();
    for (size_t b = 0; b < nblocks; ++b) {
      Matrix m(block_, d_);
      std::vector<double> ts(block_);
      for (size_t i = 0; i < block_; ++i) {
        const auto& [values, t] = rows[b * block_ + i];
        std::copy(values.begin(), values.end(), m.RowPtr(i));
        ts[i] = t - segment_start;
      }
      blocks_.push_back(std::move(m));
      block_ts_.push_back(std::move(ts));
    }
    // Replays continue one mean inter-arrival gap after the segment ends.
    const double last = block_ts_.back().back();
    cycle_span_ = last + last / static_cast<double>(nblocks * block_);
    avg_norm_sq_ = MeanNormSq(blocks_, 2000);
    sketch_seed_ = seed;
  }

  void Setup() override {
    sketches_.clear();
    for (const char* algo : {"swr", "swor", "lm-fd"}) {
      SketchConfig c;
      c.algorithm = algo;
      c.ell = ell_;
      c.lm_block_capacity = static_cast<double>(ell_) * avg_norm_sq_;
      c.seed = sketch_seed_;
      auto made = MakeSlidingWindowSketch(d_, WindowSpec::Time(delta_), c);
      SWSKETCH_CHECK(made.ok());
      sketches_.push_back(made.take());
    }
    block_index_ = 0;
    // Warm-up: one full window of time.
    do {
      FillTs();
      for (auto& s : sketches_) s->UpdateBatch(CurrentBlock(), ts_);
      ++block_index_;
    } while (ts_.back() < delta_);
    steps_ = 0;
  }

  void Step(Phase* ph) override {
    FillTs();
    static constexpr std::array<uint16_t, 3> kUpdate = {kSwrUpdate,
                                                        kSworUpdate, kLmUpdate};
    static constexpr std::array<uint16_t, 3> kQuery = {kSwrQuery, kSworQuery,
                                                       kLmQuery};
    const Matrix& block = CurrentBlock();
    const double now = ts_.back();
    std::vector<Matrix> results(sketches_.size());
    for (size_t s = 0; s < sketches_.size(); ++s) {
      ph->Ingest(kUpdate[s], [&] { sketches_[s]->UpdateBatch(block, ts_); });
      ph->Ingest(kAdvance, [&] { sketches_[s]->AdvanceTo(now); });
      ph->Query(kQuery[s], [&] { results[s] = sketches_[s]->Query(); });
      ph->Check(AllFinite(results[s]), "finite query result");
    }
    ph->EndUpdateRound(block_);
    ph->EndQueryRound();
    ph->EndInterval();
    ++block_index_;
    ++steps_;
    if (steps_ % kCheckpointEvery != 0 || ph->checkpoints >= kCheckpoints) {
      return;
    }
    ScopedSpan span(ph->tracer, kCheckpoint);
    const WindowSpec window = WindowSpec::Time(delta_);
    std::vector<std::span<const double>> rows;
    for (uint64_t b = block_index_; b-- > 0;) {
      const double offset = Offset(b);
      const std::vector<double>& ts = block_ts_[b % blocks_.size()];
      const Matrix& m = blocks_[b % blocks_.size()];
      bool older = false;
      for (size_t i = block_; i-- > 0;) {
        if (!window.Contains(ts[i] + offset, now)) {
          older = true;
          break;
        }
        rows.push_back(m.Row(i));
      }
      if (older) break;
    }
    Matrix gram;
    double frob_sq = 0.0;
    WindowGram(rows, d_, &gram, &frob_sq);
    size_t stored = 0;
    for (size_t s = 0; s < sketches_.size(); ++s) {
      CheckError(ph, gram, frob_sq, results[s]);
      stored += sketches_[s]->RowsStored();
    }
    ph->sketch_rows_max = std::max(ph->sketch_rows_max, stored);
    ++ph->checkpoints;
  }

  size_t min_checkpoints() const override { return kCheckpoints; }
  std::string Describe() const override {
    return "WIKI d=" + std::to_string(d_) + " delta=" +
           std::to_string(delta_) + " block=" + std::to_string(block_) +
           " ell=" + std::to_string(ell_) + " backends=swr,swor,lm-fd";
  }

 private:
  static constexpr uint64_t kCheckpoints = 8;
  static constexpr uint64_t kCheckpointEvery = 30;

  double Offset(uint64_t block_index) const {
    return cycle_span_ * static_cast<double>(block_index / blocks_.size());
  }
  const Matrix& CurrentBlock() const {
    return blocks_[block_index_ % blocks_.size()];
  }
  void FillTs() {
    const std::vector<double>& base = block_ts_[block_index_ % blocks_.size()];
    const double offset = Offset(block_index_);
    ts_.resize(block_);
    for (size_t i = 0; i < block_; ++i) ts_[i] = base[i] + offset;
  }

  size_t d_, total_rows_, block_, ell_;
  double delta_;
  double cycle_span_ = 0.0;
  double avg_norm_sq_ = 1.0;
  uint64_t sketch_seed_ = 1;
  std::vector<Matrix> blocks_;
  std::vector<std::vector<double>> block_ts_;
  std::vector<std::unique_ptr<SlidingWindowSketch>> sketches_;
  std::vector<double> ts_;
  uint64_t block_index_ = 0;
  uint64_t steps_ = 0;
};

// tenant-keyed: 10,000 tenants with zipf-skewed keys, d = 8, ell = 8,
// LM-FD, per-tenant sequence window 1,024, UpdateKeyed batches of 1,024
// rows and one Query to a uniformly drawn tenant after each batch. The
// memory budget holds about half the tenants' resident bytes, so cold
// tenants spill and reload. A fixed sample of tenants has standalone twins
// and exact windows fed off the clock.
class TenantKeyed : public Workload {
 public:
  explicit TenantKeyed(bool tiny)
      : tenants_(tiny ? 500 : 10000),
        d_(8),
        ell_(8),
        window_(tiny ? 128 : 1024),
        batch_(tiny ? 256 : 1024),
        segment_batches_(tiny ? 64 : 512),
        warmup_batches_(tiny ? 16 : 256) {}

  void Generate(uint64_t seed) override {
    Rng rng(seed);
    const size_t n = segment_batches_ * batch_;
    values_ = Matrix(n, d_);
    const double scale = 1.0 / std::sqrt(static_cast<double>(d_));
    for (double& v : values_.Data()) v = scale * rng.Gaussian();
    keys_.resize(n);
    for (uint64_t& k : keys_) {
      const double u = rng.Uniform01();
      k = std::min<uint64_t>(
          static_cast<uint64_t>(u * u * static_cast<double>(tenants_)),
          tenants_ - 1);
    }
    query_keys_.resize(segment_batches_);
    for (uint64_t& k : query_keys_) k = rng.UniformInt(tenants_);
    // Checked tenants: hot, middle and cold ranks of the key skew.
    checked_ = {0, 1, 7, tenants_ / 100, tenants_ / 10, tenants_ / 3,
                tenants_ / 2, tenants_ - 1};
    config_.algorithm = "lm-fd";
    config_.ell = ell_;
    config_.seed = seed;
    // Budget: half the resident bytes of every tenant after warm-up.
    budget_ = 0;
    Setup();
    budget_ = manager_->resident_bytes() / 2;
  }

  void Setup() override {
    manager_.reset();
    TenantManager::Options opt;
    opt.memory_budget_bytes = budget_;
    auto made = TenantManager::Make(d_, WindowSpec::Sequence(window_),
                                    config_, opt);
    SWSKETCH_CHECK(made.ok());
    manager_ = made.take();
    for (uint64_t k = 0; k < tenants_; ++k) {
      SWSKETCH_CHECK(manager_->CreateTenant(k).ok());
    }
    twins_.clear();
    exact_.clear();
    for (size_t i = 0; i < checked_.size(); ++i) {
      auto twin = MakeSlidingWindowSketch(d_, WindowSpec::Sequence(window_),
                                          config_);
      SWSKETCH_CHECK(twin.ok());
      twins_.push_back(twin.take());
      exact_.push_back(std::make_unique<ExactWindowRows>(window_));
    }
    next_ts_.assign(tenants_, 0.0);
    batch_index_ = 0;
    for (size_t b = 0; b < warmup_batches_; ++b) {
      FillBatch();
      SWSKETCH_CHECK(manager_->UpdateKeyed(rows_).ok());
      FeedReference();
      ++batch_index_;
    }
    steps_ = 0;
  }

  void Step(Phase* ph) override {
    FillBatch();
    Status st;
    ph->Ingest(kSvcUpdateKeyed, [&] { st = manager_->UpdateKeyed(rows_); });
    ph->EndUpdateRound(batch_);
    ph->Check(st.ok(), "UpdateKeyed status");
    {
      ScopedSpan span(ph->tracer, kReference);
      FeedReference();
    }
    const uint64_t key = query_keys_[batch_index_ % segment_batches_];
    Result<Matrix> got = Matrix();
    ph->Query(kSvcQuery, [&] { got = manager_->Query(key); });
    ph->EndQueryRound();
    ph->EndInterval();
    ph->Check(got.ok() && AllFinite(got.value()), "tenant Query");
    ++batch_index_;
    ++steps_;
    if (steps_ % kCheckpointEvery != 0 || ph->checkpoints >= kCheckpoints) {
      return;
    }
    // keyed == standalone and evict -> reload == never-evicted: every
    // checked tenant's Query bytes must equal its twin's.
    ScopedSpan span(ph->tracer, kCheckpoint);
    size_t stored = 0;
    for (size_t i = 0; i < checked_.size(); ++i) {
      Result<Matrix> q = manager_->Query(checked_[i]);
      const Matrix want = twins_[i]->Query();
      const bool same = q.ok() && q.value().rows() == want.rows() &&
                        q.value().cols() == want.cols() &&
                        std::memcmp(q.value().Data().data(), want.Data().data(),
                                    want.Data().size() * sizeof(double)) == 0;
      ph->Check(same, "keyed Query bytes == standalone twin");
      Matrix gram;
      double frob_sq = 0.0;
      WindowGram(exact_[i]->Rows(), d_, &gram, &frob_sq);
      CheckError(ph, gram, frob_sq, want);
      stored += twins_[i]->RowsStored();
    }
    ph->sketch_rows_max = std::max(ph->sketch_rows_max, stored);
    ++ph->checkpoints;
  }

  size_t min_checkpoints() const override { return kCheckpoints; }
  std::string Describe() const override {
    return "zipf keys tenants=" + std::to_string(tenants_) + " d=" +
           std::to_string(d_) + " ell=" + std::to_string(ell_) +
           " window=" + std::to_string(window_) + " batch=" +
           std::to_string(batch_) + " budget_bytes=" +
           std::to_string(budget_) + " backend=lm-fd";
  }

  const TenantManager& manager() const { return *manager_; }

 private:
  // The last checkpoint (where peak RSS is read) sits between two
  // doublings of the spill buffer, which grows as cold tenants fill their
  // windows.
  static constexpr uint64_t kCheckpoints = 4;
  static constexpr uint64_t kCheckpointEvery = 80;

  // The last `window` rows of one tenant (its exact sequence window).
  class ExactWindowRows {
   public:
    explicit ExactWindowRows(size_t window) : window_(window) {}
    void Add(std::span<const double> row) {
      rows_.emplace_back(row.begin(), row.end());
      if (rows_.size() > 2 * window_) {
        rows_.erase(rows_.begin(), rows_.end() - window_);
      }
    }
    std::vector<std::span<const double>> Rows() const {
      std::vector<std::span<const double>> out;
      const size_t n = std::min(rows_.size(), window_);
      for (size_t i = rows_.size() - n; i < rows_.size(); ++i) {
        out.emplace_back(rows_[i]);
      }
      return out;
    }

   private:
    size_t window_;
    std::vector<std::vector<double>> rows_;
  };

  void FillBatch() {
    const size_t base = (batch_index_ % segment_batches_) * batch_;
    rows_.resize(batch_);
    for (size_t i = 0; i < batch_; ++i) {
      const uint64_t key = keys_[base + i];
      rows_[i] = KeyedRow{key, next_ts_[key], values_.Row(base + i)};
      next_ts_[key] += 1.0;
    }
  }

  // Feeds the checked tenants' rows of the current batch to their twins
  // and exact windows.
  void FeedReference() {
    for (const KeyedRow& r : rows_) {
      for (size_t i = 0; i < checked_.size(); ++i) {
        if (r.key != checked_[i]) continue;
        twins_[i]->Update(r.values, r.ts);
        exact_[i]->Add(r.values);
      }
    }
  }

  size_t tenants_, d_, ell_, window_, batch_, segment_batches_,
      warmup_batches_;
  SketchConfig config_;
  size_t budget_ = 0;
  Matrix values_;
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> query_keys_;
  std::vector<uint64_t> checked_;
  std::unique_ptr<TenantManager> manager_;
  std::vector<std::unique_ptr<SlidingWindowSketch>> twins_;
  std::vector<std::unique_ptr<ExactWindowRows>> exact_;
  std::vector<double> next_ts_;
  std::vector<KeyedRow> rows_;
  uint64_t batch_index_ = 0;
  uint64_t steps_ = 0;
};

// sharded-fd: ShardedSketch with S = 2 writer shards over LM-FD (d = 64,
// ell = 32, window 8,000, block_rows 256), coordinator blocks of 1,024
// rows, one Flush + Query (flush, align, tree-reduce) per window.
class ShardedFd : public Workload {
 public:
  static constexpr size_t kShards = 2;

  explicit ShardedFd(bool tiny)
      : d_(tiny ? 16 : 64),
        ell_(tiny ? 8 : 32),
        n_(tiny ? 1000 : 8000),
        shard_block_(tiny ? 64 : 256),
        block_(tiny ? 256 : 1024),
        blocks_per_query_((n_ + block_ - 1) / block_) {}

  void Generate(uint64_t seed) override {
    SyntheticStream::Options opt;
    opt.dim = d_;
    // More signal directions than ell, as in seq-fd: the sketch must
    // approximate, and its error follows the spectrum rather than the
    // noise of a few windows.
    opt.signal_dim = 3 * d_ / 4;
    opt.window = n_;
    opt.seed = seed;
    stream_.Generate(opt, block_, 16 * blocks_per_query_);
    config_.algorithm = "lm-fd";
    config_.ell = ell_;
    config_.lm_block_capacity =
        static_cast<double>(ell_) * stream_.avg_norm_sq();
    config_.seed = seed;
  }

  void Setup() override {
    sketch_.reset();  // Joins the previous writers.
    sketch_ = Make(kShards);
    stream_.Rewind();
    Feed(sketch_.get(), blocks_per_query_);
    sketch_->Flush();
    steps_ = 0;
  }

  void Step(Phase* ph) override {
    const Matrix& block = stream_.Next();
    ph->Ingest(kDistUpdate,
               [&] { sketch_->UpdateBatch(block, stream_.ts()); });
    ph->EndUpdateRound(block_);
    ++steps_;
    if (steps_ % blocks_per_query_ != 0) return;
    Matrix result;
    ph->Ingest(kDistFlush, [&] { sketch_->Flush(); });
    ph->EndUpdateRound(0);
    ph->Query(kDistQuery, [&] { result = sketch_->Query(); });
    ph->EndQueryRound();
    ph->EndInterval();
    ph->Check(AllFinite(result), "finite query result");
    if (ph->checkpoints >= kCheckpoints) return;
    ScopedSpan span(ph->tracer, kCheckpoint);
    Matrix gram;
    double frob_sq = 0.0;
    WindowGram(stream_.Last(n_), d_, &gram, &frob_sq);
    CheckError(ph, gram, frob_sq, result);
    ph->sketch_rows_max = std::max(ph->sketch_rows_max, sketch_->RowsStored());
    ++ph->checkpoints;
  }

  // distributed.speedup_vs_s1: coordinator ingest + drain time of the same
  // rows through S = 1 and S = 2 pipelines, each after a one-window
  // warm-up. Runs last; it rewinds the stream.
  void Extras(Tracer* tracer, std::map<std::string, double>* out) override {
    ScopedSpan span(tracer, kSpeedupProbe);
    sketch_.reset();  // Its writers would push the thread count past nproc.
    std::array<double, 2> secs{};
    for (size_t s : {size_t{1}, kShards}) {
      auto sketch = Make(s);
      stream_.Rewind();
      Feed(sketch.get(), blocks_per_query_);
      sketch->Flush();
      const uint64_t t0 = NowNs();
      Feed(sketch.get(), 4 * blocks_per_query_);
      sketch->Flush();
      secs[s == 1 ? 0 : 1] = static_cast<double>(NowNs() - t0) * 1e-9;
    }
    (*out)["distributed.speedup_vs_s1"] = secs[0] / secs[1];
  }

  size_t writer_threads() const override { return kShards; }
  size_t min_checkpoints() const override { return kCheckpoints; }
  std::string Describe() const override {
    return "SYNTHETIC d=" + std::to_string(d_) + " N=" + std::to_string(n_) +
           " shards=" + std::to_string(kShards) + " block_rows=" +
           std::to_string(shard_block_) + " queue_blocks=" +
           std::to_string(kQueueBlocks) + " coordinator_block=" +
           std::to_string(block_) + " ell=" + std::to_string(ell_) +
           " backend=lm-fd";
  }

 private:
  static constexpr uint64_t kCheckpoints = 32;
  // A shallow queue, so every coordinator call after the first one past a
  // flush waits on back-pressure (with the default 8, half the calls never
  // wait and the update median sits on the boundary between the two).
  static constexpr size_t kQueueBlocks = 2;

  std::unique_ptr<ShardedSketch> Make(size_t shards) const {
    ShardedSketch::Options opt;
    opt.shards = shards;
    opt.block_rows = shard_block_;
    opt.queue_blocks = kQueueBlocks;
    auto made = ShardedSketch::Make(d_, WindowSpec::Sequence(n_), config_, opt);
    SWSKETCH_CHECK(made.ok());
    return made.take();
  }
  void Feed(ShardedSketch* sketch, size_t blocks) {
    for (size_t b = 0; b < blocks; ++b) {
      const Matrix& block = stream_.Next();
      sketch->UpdateBatch(block, stream_.ts());
    }
  }

  size_t d_, ell_, n_, shard_block_, block_, blocks_per_query_;
  SketchConfig config_;
  SequenceBlocks stream_;
  std::unique_ptr<ShardedSketch> sketch_;
  uint64_t steps_ = 0;
};

// ---------------------------------------------------------------------------
// Reporting.

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The highest percentile with at least ten samples beyond it (the 11th
// largest sample), but never below the median: with fewer than 21 samples
// the tail is the median.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  size_t n = 0;
};
Tail TailOf(std::vector<double> v) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t beyond = std::min<size_t>(10, v.size() / 2);
  t.value = v[v.size() - 1 - beyond];
  t.percentile = 100.0 * static_cast<double>(v.size() - beyond) /
                 static_cast<double>(v.size());
  return t;
}

double PeakRssMb() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(const std::vector<Metric>& metrics, bool correct,
                 uint64_t attempted, uint64_t failed) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return s + "}}";
}

// Measures for `seconds` and until `checkpoints` checkpoints are done.
// Peak RSS is read at the last of them: a fixed stream position, so it
// does not depend on how far a run gets.
void RunPhase(Workload* w, Phase* ph, double seconds, size_t checkpoints) {
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  do {
    w->Step(ph);
    if (ph->peak_rss_mb == 0.0 && ph->checkpoints >= checkpoints) {
      ph->peak_rss_mb = PeakRssMb();
    }
  } while (NowNs() < deadline || ph->checkpoints < checkpoints);
}

// The traced run alternates untraced and traced chunks of about half a
// second, each ending at a query-interval boundary, so that both kinds see
// the same stretch of the stream (tenant-keyed, for one, slows as its spill
// region grows). Returns the wall time of the traced chunks.
uint64_t RunAlternating(Workload* w, Tracer* tracer, Phase* plain,
                        Phase* traced, double seconds) {
  constexpr uint64_t kChunkNs = 500'000'000;
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  uint64_t traced_ns = 0;
  bool tracing = false;
  // Past the deadline only traced chunks run, until one holds a
  // checkpoint (for eval.checkpoint_ns).
  while (NowNs() < deadline || traced->checkpoints == 0) {
    tracing = !tracing || NowNs() >= deadline;
    Phase* ph = tracing ? traced : plain;
    ScopedSpan span(tracer, tracing ? kTracedPhase : kUntracedPhase);
    const uint64_t t0 = NowNs();
    for (;;) {
      const size_t intervals = ph->interval_rates.size();
      w->Step(ph);
      if (ph->interval_rates.size() != intervals && NowNs() - t0 >= kChunkNs) {
        break;
      }
    }
    if (tracing) traced_ns += NowNs() - t0;
  }
  return traced_ns;
}

// Cost of one span Begin/End pair with its registry reads, for the ledger
// tolerance.
double SpanPairNs(const ProbeSet& probes) {
  Tracer t(&probes, true);
  const int n = 2000;
  const uint64_t t0 = NowNs();
  for (int i = 0; i < n; ++i) t.End(t.Begin(kRun));
  return static_cast<double>(NowNs() - t0) / n;
}

struct Ledger {
  bool ok = true;
  double wall_ns = 0.0;
  double unattributed_ns = 0.0;
  std::map<std::string, double> self_by_layer;
  std::string problem;
};

// The layer ledger: spans nest (each inside its one parent), every self
// time is non-negative within timer resolution, and the benchmark's own
// untimed remainder (self time of the bench.* container spans) stays
// within the measured cost of the span boundaries plus 1% of wall time.
// Self times then add up to the wall time by construction.
Ledger CheckLedger(const Tracer& tracer, double pair_ns) {
  Ledger l;
  const auto& spans = tracer.spans();
  if (spans.empty() || spans[0].parent != -1) {
    l.ok = false;
    l.problem = "no root span";
    return l;
  }
  std::vector<size_t> children(spans.size(), 0);
  double self_sum = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (i > 0) {
      if (s.parent < 0 || static_cast<size_t>(s.parent) >= i) {
        l.ok = false;
        l.problem = "span without a single earlier parent";
      } else {
        const SpanRecord& p = spans[s.parent];
        if (s.start < p.start || s.end > p.end) {
          l.ok = false;
          l.problem = "span outside its parent";
        }
        ++children[s.parent];
      }
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const double self = static_cast<double>(s.end - s.start) -
                        static_cast<double>(s.child_ns) -
                        static_cast<double>(s.registry_ns);
    const std::string name = kSpanNames[s.name];
    const std::string layer =
        name.rfind("bench.", 0) == 0 ? "bench (unattributed)"
                                     : name.substr(0, name.find('.'));
    if (self < -2.0 * pair_ns) {
      l.ok = false;
      l.problem = "negative self time in " + name;
    }
    l.self_by_layer[layer] += self;
    if (s.registry_ns) {
      l.self_by_layer["sketch (fd shrink, registry)"] +=
          static_cast<double>(s.registry_ns);
    }
    self_sum += self + static_cast<double>(s.registry_ns);
    if (name.rfind("bench.", 0) == 0) {
      const double allowed =
          2.0 * pair_ns * static_cast<double>(children[i] + 1) +
          0.01 * static_cast<double>(s.end - s.start);
      l.unattributed_ns += std::max(0.0, self);
      if (self > allowed) {
        l.ok = false;
        l.problem = "unattributed time in " + name + " exceeds tolerance";
      }
    }
  }
  l.wall_ns = static_cast<double>(spans[0].end - spans[0].start);
  if (std::fabs(self_sum - l.wall_ns) > 1e-6 * l.wall_ns + 1.0) {
    l.ok = false;
    l.problem = "self times do not sum to wall time";
  }
  return l;
}

void WriteSpans(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  const auto& spans = tracer.spans();
  const uint64_t base = spans.empty() ? 0 : spans[0].start;
  out << "[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << "{\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"name\": \"" << kSpanNames[s.name]
        << "\", \"start_ns\": " << s.start - base
        << ", \"end_ns\": " << s.end - base
        << ", \"registry_ns\": " << s.registry_ns << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, bool tiny) {
  if (name == "seq-fd") return std::make_unique<SeqFd>(tiny);
  if (name == "time-query") return std::make_unique<TimeQuery>(tiny);
  if (name == "tenant-keyed") return std::make_unique<TenantKeyed>(tiny);
  if (name == "sharded-fd") return std::make_unique<ShardedFd>(tiny);
  return nullptr;
}

// setup_s is the median over fresh set-ups: at least kMinSetups of them
// and at least kMinSetupSeconds in all (cheap set-ups repeat more), at
// most kMaxSetups.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 15;
constexpr double kMinSetupSeconds = 1.5;

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string name = flags.GetString("workload", "");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool trace = flags.GetInt("trace", 0) != 0;
  const bool tiny = flags.GetString("scale", "full") == "tiny";
  const std::string trace_out = flags.GetString("trace_out", "");

  std::unique_ptr<Workload> w = MakeWorkload(name, tiny);
  if (!w || seconds <= 0.0) {
    std::fprintf(stderr, "swbench: bad --workload or --seconds\n");
    return 2;
  }
  // Thread hygiene: caller + writers + shared pool must fit in nproc.
  const size_t nproc = Nproc();
  const size_t pool = ThreadPool::DefaultThreadCount();
  const size_t threads = 1 + w->writer_threads() + pool;
  if (threads > nproc) {
    std::fprintf(stderr,
                 "swbench: %s needs %zu threads (1 caller + %zu writers + "
                 "%zu pool) but nproc is %zu\n",
                 name.c_str(), threads, w->writer_threads(), pool, nproc);
    return 3;
  }

  const ProbeSet probes(ShardedFd::kShards);
  const double pair_ns = trace ? SpanPairNs(probes) : 0.0;
  Tracer tracer(&probes, trace);
  Tracer untraced(&probes, false);
  const int32_t root = tracer.Begin(kRun);

  uint64_t t0 = NowNs();
  {
    ScopedSpan span(&tracer, kGenerate);
    w->Generate(seed);
  }
  const double generate_ns = static_cast<double>(NowNs() - t0);

  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  while (setup_s.size() < kMinSetups ||
         (setup_total_s < kMinSetupSeconds && setup_s.size() < kMaxSetups)) {
    ScopedSpan span(&tracer, kSetup);
    t0 = NowNs();
    w->Setup();
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    setup_total_s += setup_s.back();
  }

  Phase main_phase;
  Phase plain;  // Untraced chunks of a traced run.
  main_phase.tracer = trace ? &tracer : &untraced;
  plain.tracer = &untraced;
  std::map<std::string, double> extras;
  uint64_t traced_wall_ns = 0;
  if (!trace) {
    RunPhase(w.get(), &main_phase, seconds, w->min_checkpoints());
  } else {
    traced_wall_ns = RunAlternating(w.get(), &tracer, &plain, &main_phase,
                                    seconds);
    w->Extras(&tracer, &extras);
  }
  tracer.End(root);

  const uint64_t attempted = main_phase.attempted + plain.attempted;
  const uint64_t failed = main_phase.failed + plain.failed;
  const double rows = static_cast<double>(main_phase.rows);
  const double ingest_rows_per_s = Median(main_phase.interval_rates);
  bool correct = failed == 0;

  std::printf("workload: %s (%s)\n", name.c_str(), w->Describe().c_str());
  std::printf(
      "run: seed=%llu nproc=%zu threads=%zu (caller 1, writers %zu, pool "
      "%zu) build=%s trace=%d seconds=%g setups=%zu\n",
      static_cast<unsigned long long>(seed), nproc, threads,
      w->writer_threads(), pool, SWBENCH_BUILD_TYPE, trace ? 1 : 0, seconds,
      setup_s.size());

  std::vector<Metric> out;
  if (!trace) {
    const Tail ut = TailOf(main_phase.update_us);
    const Tail qt = TailOf(main_phase.query_us);
    double err_sum = 0.0, err_max = 0.0;
    for (double e : main_phase.cova_errs) {
      err_sum += e;
      err_max = std::max(err_max, e);
    }
    const double err_avg =
        main_phase.cova_errs.empty()
            ? 0.0
            : err_sum / static_cast<double>(main_phase.cova_errs.size());
    out = {
        {"setup_s", Median(setup_s), "s"},
        {"ingest_rows_per_s", ingest_rows_per_s, "rows/s"},
        {"update_p50_us", Median(main_phase.update_us), "us"},
        {"update_tail_us", ut.value, "us"},
        {"query_p50_us", Median(main_phase.query_us), "us"},
        {"query_tail_us", qt.value, "us"},
        {"cova_err_avg", err_avg, "ratio"},
        {"cova_err_max", err_max, "ratio"},
        {"sketch_rows_max", static_cast<double>(main_phase.sketch_rows_max),
         "rows"},
        {"peak_rss_mb", main_phase.peak_rss_mb, "MiB"},
    };
    std::printf("samples: ingest n=%zu, tail=p%.2f; query rounds n=%zu, "
                "tail=p%.2f; intervals=%zu; rows=%.0f; checkpoints=%llu "
                "(%zu errors)\n",
                ut.n, ut.percentile, qt.n, qt.percentile,
                main_phase.interval_rates.size(), rows,
                static_cast<unsigned long long>(main_phase.checkpoints),
                main_phase.cova_errs.size());
    for (const Metric& m : out) {
      std::printf("metric %-20s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("metric %-20s %.6g ratio (%llu failed / %llu attempted)\n",
                "failed_op_ratio",
                attempted ? static_cast<double>(failed) / attempted : 0.0,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
  } else {
    const Ledger ledger = CheckLedger(tracer, pair_ns);
    correct = correct && ledger.ok;
    const ProbeSet::Values dv = tracer.LayerDelta();
    const double krows = rows / 1000.0;
    const auto per_row = [&](uint16_t n) {
      return rows > 0 ? static_cast<double>(tracer.totals(n).span_ns) / rows
                      : 0.0;
    };
    const auto self_per_row = [&](uint16_t n) {
      const NameTotals& t = tracer.totals(n);
      return rows > 0 ? static_cast<double>(t.span_ns - t.registry_ns) / rows
                      : 0.0;
    };
    const auto per_call = [&](uint16_t n) {
      const NameTotals& t = tracer.totals(n);
      return t.calls ? static_cast<double>(t.span_ns) /
                           static_cast<double>(t.calls)
                     : 0.0;
    };
    const auto per_krow = [&](Probe p) {
      return krows > 0 ? static_cast<double>(dv[p]) / krows : 0.0;
    };
    const auto ratio = [](uint64_t num, uint64_t den) {
      return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
    };
    const auto gauge = [](const char* n) {
      return static_cast<double>(MetricsRegistry::Global().GetGauge(n)->Value());
    };
    const double shrinks = static_cast<double>(dv[kFdShrinks]);
    const double untraced_rate = Median(plain.interval_rates);
    const NameTotals& ck = tracer.totals(kCheckpoint);
    out = {
        {"sketch.fd.shrink_ns",
         rows > 0 ? static_cast<double>(dv[kFdShrinkNs]) / rows : 0.0,
         "ns/row"},
        {"sketch.fd.shrinks", per_krow(kFdShrinks), "1/krow"},
        {"sketch.fd.shrink_ns_per_shrink",
         shrinks > 0 ? static_cast<double>(dv[kFdShrinkNs]) / shrinks : 0.0,
         "ns"},
        {"linalg.eigen_route_tridiag", per_krow(kEigenTridiag), "1/krow"},
        {"linalg.eigen_route_jacobi", per_krow(kEigenJacobi), "1/krow"},
    };
    const std::array<std::pair<const char*, std::array<uint16_t, 2>>, 5>
        core = {{{"lm_fd", {kLmUpdate, kLmQuery}},
                 {"di_fd", {kDiUpdate, kDiQuery}},
                 {"ds_fd", {kDsUpdate, kDsQuery}},
                 {"swr", {kSwrUpdate, kSwrQuery}},
                 {"swor", {kSworUpdate, kSworQuery}}}};
    for (const auto& [slug, spans] : core) {
      const std::string p = std::string("core.") + slug;
      out.push_back({p + ".update_ns", per_row(spans[0]), "ns/row"});
      out.push_back({p + ".update_self_ns", self_per_row(spans[0]), "ns/row"});
      out.push_back({p + ".query_ns", per_call(spans[1]), "ns/call"});
    }
    const uint64_t lm_queries = tracer.totals(kLmQuery).calls;
    const std::vector<Metric> rest = {
        {"core.advance_ns", per_call(kAdvance), "ns/call"},
        {"core.lm_fd.blocks_closed", per_krow(kLmBlocksClosed), "1/krow"},
        {"core.lm_fd.level_merges", per_krow(kLmLevelMerges), "1/krow"},
        {"core.di_fd.l1_closes", per_krow(kDiL1Closes), "1/krow"},
        {"core.ds_fd.snapshots_taken", per_krow(kDsSnapshotsTaken), "1/krow"},
        {"core.ds_fd.live_snapshots", gauge("ds_fd.live_snapshots"), "count"},
        {"core.swor.front_expiries", per_krow(kSworFrontExpiries), "1/krow"},
        {"core.lm_fd.query_cache_hit_ratio",
         ratio(dv[kLmQueryHits], dv[kLmQueryHits] + dv[kLmQueryMisses]),
         "ratio"},
        {"core.lm_fd.merge_cache_hit_ratio",
         ratio(dv[kLmMergeHits], dv[kLmMergeHits] + dv[kLmMergeMisses]),
         "ratio"},
        {"core.lm_fd.cold_merges", ratio(dv[kLmColdMerges], lm_queries),
         "1/query"},
        {"core.di_fd.cover_cache_hit_ratio",
         ratio(dv[kDiCoverHits], dv[kDiCoverHits] + dv[kDiCoverMisses]),
         "ratio"},
        {"service.update_keyed_ns", per_row(kSvcUpdateKeyed), "ns/row"},
        {"service.query_ns", per_call(kSvcQuery), "ns/call"},
        {"service.rows_per_group", ratio(dv[kSvcRows], dv[kSvcGroups]),
         "rows"},
        {"service.spills", per_krow(kSvcSpills), "1/krow"},
        {"service.reloads", per_krow(kSvcReloads), "1/krow"},
        {"service.reload_ratio",
         ratio(dv[kSvcReloads], dv[kSvcGroups] + dv[kSvcQueries]), "ratio"},
        {"service.resident_bytes", gauge("tenant_manager.resident_bytes"),
         "bytes"},
        {"service.spill_bytes", gauge("tenant_manager.spill_bytes"), "bytes"},
        {"distributed.update_ns", per_row(kDistUpdate), "ns/row"},
        {"distributed.flush_ns", per_call(kDistFlush), "ns/call"},
        {"distributed.query_ns", per_call(kDistQuery), "ns/call"},
        {"distributed.block_apply_ns",
         rows > 0 ? static_cast<double>(dv[kShBlockApplyNs]) / rows : 0.0,
         "ns/row"},
        {"distributed.writer_busy_ratio",
         traced_wall_ns && w->writer_threads()
             ? static_cast<double>(dv[kShBlockApplyNs]) /
                   (static_cast<double>(traced_wall_ns) *
                    static_cast<double>(w->writer_threads()))
             : 0.0,
         "ratio"},
        {"distributed.query_reduce_ns",
         ratio(dv[kShQueryReduceNs], tracer.totals(kDistQuery).calls),
         "ns/call"},
        {"distributed.queue_depth_max",
         static_cast<double>(tracer.queue_depth_max()), "blocks"},
        {"distributed.speedup_vs_s1",
         extras.count("distributed.speedup_vs_s1")
             ? extras["distributed.speedup_vs_s1"]
             : 0.0,
         "ratio"},
        {"eval.checkpoint_ns",
         ck.calls ? static_cast<double>(ck.span_ns) / ck.calls : 0.0,
         "ns/checkpoint"},
        {"data.generate_ns", generate_ns, "ns"},
        {"trace.overhead_ratio",
         ingest_rows_per_s > 0 ? untraced_rate / ingest_rows_per_s : 0.0,
         "ratio"},
        {"trace.unattributed_ratio",
         ledger.wall_ns > 0 ? ledger.unattributed_ns / ledger.wall_ns : 0.0,
         "ratio"},
    };
    out.insert(out.end(), rest.begin(), rest.end());
    std::printf("ledger: %s wall=%.3f s (span pair %.0f ns)%s%s\n",
                ledger.ok ? "ok" : "FAILED", ledger.wall_ns * 1e-9, pair_ns,
                ledger.ok ? "" : ": ", ledger.problem.c_str());
    for (const auto& [layer, ns] : ledger.self_by_layer) {
      std::printf("ledger   %-30s self %10.4f s  %6.2f%%\n", layer.c_str(),
                  ns * 1e-9, 100.0 * ns / ledger.wall_ns);
    }
    for (const Metric& m : out) {
      std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    if (!trace_out.empty()) WriteSpans(tracer, trace_out);
  }
  std::printf("%s\n", Json(out, correct, attempted, failed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace swsketch

int main(int argc, char** argv) { return swsketch::Main(argc, argv); }
