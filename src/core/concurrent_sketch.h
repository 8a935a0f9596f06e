// Thread-safe decorator for sliding-window sketches: one writer thread
// ingesting the stream, any number of reader threads querying.
//
// Two modes:
//  - kSnapshot (default): the writer holds a mutex across mutations and,
//    after each one, publishes an immutable QuerySnapshot (approximation +
//    metadata) by swapping a shared_ptr slot. Readers never take the
//    ingest mutex — Query()/RowsStored()/Snapshot() copy the slot under a
//    dedicated pointer mutex held for a refcount bump only, so readers
//    block neither the writer's ingest nor each other's recompute. (A
//    std::atomic<shared_ptr> slot would make the copy lock-free, but
//    libstdc++'s _Sp_atomic trips ThreadSanitizer on this toolchain; the
//    pointer mutex is held for ~ns and costs nothing at bench scale.)
//    A snapshot
//    reflects the state as of the writer's last mutation; between
//    mutations a time window's wall-clock slide is visible only after the
//    next Update/AdvanceTo, which is exactly the staleness a cached query
//    result already has.
//  - kMutex: every method serializes behind one mutex and queries recompute
//    on the inner sketch — the pre-snapshot behaviour, kept as the
//    comparison baseline (bench/micro_query) and for workloads where
//    per-update publication costs more than reader blocking.
//
// Admission and the clock step run under the writer mutex (the base
// class's GuardWith hook), so several writer threads may call Update; the
// inner sketch admits the input again at its own entry points. dim/window
// live in the base and the name is captured at construction, so readers
// never touch inner_ unguarded.
//
// Use one sketch per stream partition (see distributed/) when the ingest
// rate itself needs sharding.
#ifndef SWSKETCH_CORE_CONCURRENT_SKETCH_H_
#define SWSKETCH_CORE_CONCURRENT_SKETCH_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "core/sliding_window_sketch.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace swsketch {

/// Thread-safe SlidingWindowSketch wrapper (snapshot or mutex mode).
class ConcurrentSketch : public SlidingWindowSketch {
 public:
  enum class Mode : uint8_t {
    kSnapshot = 0,  // Lock-free readers via published snapshots (default).
    kMutex = 1,     // Single-mutex serialization (comparison baseline).
  };

  /// Immutable view of the sketch published by the writer. update_count
  /// says how many Update/UpdateSparse/UpdateBatch *rows* produced it, so
  /// a validation thread can replay the stream to the same point.
  struct QuerySnapshot {
    Matrix approximation;    // inner->Query() at publication time.
    size_t rows_stored = 0;  // inner->RowsStored() at publication time.
    uint64_t update_count = 0;
    double last_ts = 0.0;  // Timestamp of the latest ingested row/advance.
  };

  explicit ConcurrentSketch(std::unique_ptr<SlidingWindowSketch> inner,
                            Mode mode = Mode::kSnapshot)
      : SlidingWindowSketch(NonNull(inner).dim(), NonNull(inner).window()),
        inner_(std::move(inner)),
        mode_(mode) {
    set_now(inner_->now());
    GuardWith(&mu_);
    name_ = inner_->name() + (mode_ == Mode::kSnapshot ? "+snap" : "+lock");
    if (mode_ == Mode::kSnapshot) {
      Metrics().snapshot_ctors->Add();
      Publish();
    }
  }

  Matrix Query() override {
    if (mode_ == Mode::kSnapshot) return Snapshot()->approximation;
    std::lock_guard<std::mutex> lock(mu_);
    return inner_->Query();
  }

  /// Drains the inner sketch (e.g. a ShardedSketch's writer queues) under
  /// the writer mutex, so a following mutex-mode RowsStored()/Query()
  /// observes every row already ingested.
  void Flush() override {
    std::lock_guard<std::mutex> lock(mu_);
    inner_->Flush();
  }

  size_t RowsStored() const override {
    if (mode_ == Mode::kSnapshot) return Snapshot()->rows_stored;
    std::lock_guard<std::mutex> lock(mu_);
    return inner_->RowsStored();
  }

  /// Loads the current snapshot: a shared_ptr copy under the pointer
  /// mutex, never blocked by ingest (snapshot mode only; dies in mutex
  /// mode, which has no published state).
  std::shared_ptr<const QuerySnapshot> Snapshot() const {
    SWSKETCH_CHECK(mode_ == Mode::kSnapshot);
    Metrics().reader_copies->Add();
    std::lock_guard<std::mutex> lock(snap_mu_);
    return snapshot_;
  }

  Status SerializeTo(ByteWriter* writer) const override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_->SerializeTo(writer);
  }

  std::string name() const override { return name_; }
  Mode mode() const { return mode_; }

 private:
  // The steps run with mu_ held by the base (GuardWith). One snapshot per
  // call, so a batch publishes once.
  void Ingest(std::span<const double> row, double ts, double) override {
    Mutated(inner_->Update(row, ts), 1, ts);
  }
  void IngestSparse(const SparseVector& row, double ts, double) override {
    Mutated(inner_->UpdateSparse(row, ts), 1, ts);
  }
  void IngestBatch(const Matrix& rows, std::span<const double> ts,
                   std::span<const double>) override {
    Mutated(inner_->UpdateBatch(rows, ts), rows.rows(), ts.back());
  }
  void Expire(double now) override {
    Mutated(inner_->AdvanceTo(now), 0, now);
  }

  void Mutated(const Status& inner, size_t rows, double ts) {
    PassedOn(inner);
    Metrics().mutations->Add();
    update_count_ += rows;
    last_ts_ = ts;
    if (mode_ == Mode::kSnapshot) Publish();
  }

  // Builds and publishes a fresh snapshot. Caller holds mu_ (or is the
  // constructor). The snapshot is fully built before snap_mu_ is taken,
  // so readers only ever wait out a pointer assignment.
  // Handles into the global registry under the fixed "concurrent." prefix
  // (shared by all instances; modes are distinguished by the invariant
  // snapshots_published == mutations + snapshot_ctors, which holds while
  // only snapshot-mode instances mutate).
  struct MetricSet {
    Counter* snapshot_ctors;
    Counter* mutations;
    Counter* snapshots_published;
    Counter* reader_copies;
  };
  static const MetricSet& Metrics() {
    static const MetricSet m = [] {
      MetricScope scope("concurrent");
      return MetricSet{scope.counter("snapshot_ctors"),
                       scope.counter("mutations"),
                       scope.counter("snapshots_published"),
                       scope.counter("reader_copies")};
    }();
    return m;
  }

  void Publish() {
    Metrics().snapshots_published->Add();
    auto snap = std::make_shared<QuerySnapshot>();
    snap->approximation = inner_->Query();
    snap->rows_stored = inner_->RowsStored();
    snap->update_count = update_count_;
    snap->last_ts = last_ts_;
    std::lock_guard<std::mutex> lock(snap_mu_);
    snapshot_ = std::move(snap);
  }

  mutable std::mutex mu_;  // Writer-side mutex (all methods in kMutex mode).
  std::unique_ptr<SlidingWindowSketch> inner_;
  Mode mode_;
  mutable std::mutex snap_mu_;  // Guards only the snapshot_ slot swap/copy.
  std::shared_ptr<const QuerySnapshot> snapshot_;
  uint64_t update_count_ = 0;  // Rows ingested; guarded by mu_.
  double last_ts_ = 0.0;       // Guarded by mu_.

  // Immutable, captured at construction so readers never touch inner_
  // unguarded.
  std::string name_;
};

}  // namespace swsketch

#endif  // SWSKETCH_CORE_CONCURRENT_SKETCH_H_
