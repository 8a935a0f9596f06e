// Name-based construction of sliding-window sketches, used by benches,
// examples and integration tests to sweep algorithms uniformly. One table
// row per backend drives construction, arena stamping, reload and the
// sharded query reduce.
#ifndef SWSKETCH_CORE_FACTORY_H_
#define SWSKETCH_CORE_FACTORY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/merge_reduce.h"
#include "core/sliding_window_sketch.h"
#include "util/serialize.h"
#include "util/status.h"

namespace swsketch {

/// Union of the knobs of every algorithm; each algorithm reads the subset
/// it understands.
struct SketchConfig {
  /// One of KnownAlgorithms(). The amm-* names are two-operand AMM
  /// backends (src/amm/) that run at the stacked dimension d = d_a + d_b;
  /// see amm_dim_a.
  std::string algorithm = "lm-fd";

  /// Sample count (samplers), FD rows per block (LM-FD), top-level size
  /// (DI-*), hash buckets (LM-HASH), or k (best).
  size_t ell = 32;

  /// LM: blocks per level (b ~ 1/epsilon).
  size_t blocks_per_level = 8;

  /// LM: block capacity in squared-norm mass. 0 means ell — the paper's
  /// convention, which assumes row norms of order 1. When typical norms
  /// are far from 1, set this to ell * (typical squared norm) so level-1
  /// blocks hold about ell rows and the FD amortization works as analyzed.
  double lm_block_capacity = 0.0;

  /// DI: number of dyadic levels (L ~ log2(R / epsilon)).
  size_t levels = 6;

  /// DI: a-priori bound R on squared row norms.
  double max_norm_sq = 1.0;

  /// FD-based algorithms (lm-fd, di-fd): amortized-shrink buffer factor.
  /// Each FD instance may hold up to fd_buffer_factor * (its ell) rows
  /// before shrinking (Desai et al.), halving SVD frequency at 2.0. Must
  /// be >= 1; 1 disables buffering.
  double fd_buffer_factor = 1.0;

  /// DS-FD: snapshot ladder density k — a snapshot is dumped every
  /// F_hat / k of window mass, so the boundary leak is about 1/k of the
  /// window's squared Frobenius norm; 0 auto-scales with ell
  /// (see DsFd::Options::snapshots_per_window).
  size_t ds_snapshots_per_window = 0;

  /// DS-FD: spectral truncation of dumped snapshots relative to the
  /// ladder quantum F_hat / k; 0 disables truncation.
  double ds_snapshot_trunc = 0.25;

  /// DS-FD: internal frame-FD oversize; the per-frame FD runs at
  /// round(factor * ell) directions, dim-capped, while Query output stays
  /// <= ell (see DsFd::Options::frame_ell_factor).
  double ds_frame_ell_factor = 1.5;

  /// DS-FD: buffer_factor of the internal frame FDs, separate from the
  /// global fd_buffer_factor because frame FDs are long-lived
  /// single-writer instances that benefit from amortized shrinks by
  /// default (see DsFd::Options::fd_buffer_factor; dim-capped capacity).
  double ds_fd_buffer_factor = 3.0;

  /// Samplers and DS-FD: exponential-histogram error for the ||A||_F^2
  /// tracker, or exact tracking when exact_frobenius is set.
  double frobenius_eps = 0.05;
  bool exact_frobenius = false;

  /// AMM backends only: columns of the first operand A inside the stacked
  /// dimension passed to the factory (operand B gets dim - amm_dim_a).
  /// 0 (the default) splits the stacked dimension evenly, dim / 2.
  /// Must satisfy 0 < amm_dim_a < dim; AMM requires dim >= 2.
  size_t amm_dim_a = 0;

  uint64_t seed = 1;
};

/// A backend resolved against one (dim, window, config): its constructor
/// with options, metric handles and (FD-backed backends) one shrink
/// workspace bound in. `construct(nullptr)` heap-allocates an instance
/// (release it with `delete`); `construct(mem)` placement-constructs into
/// `size` bytes at `align` alignment. `load`, when set, reloads a payload
/// the same way onto the same handles; when empty, reloads go through the
/// table row's `load`, which resolves its own.
struct BoundBackend {
  std::function<SlidingWindowSketch*(void* mem)> construct;
  std::function<Result<SlidingWindowSketch*>(void* mem, ByteReader*)> load =
      nullptr;
  size_t size = 0;
  size_t align = 0;
};

/// One row of the backend table: everything the factory, the reload path
/// and the sharded query reduce know about one algorithm name.
struct BackendRow {
  /// The SketchConfig::algorithm name.
  std::string_view name;
  /// DI-based backends support sequence-based windows only (Section 7).
  bool sequence_only = false;
  /// Resolves the config into options, metric handles and shrink scratch.
  Result<BoundBackend> (*resolve)(size_t dim, const WindowSpec& window,
                                  const SketchConfig& config) = nullptr;
  /// Serialized tag DeserializeSlidingWindowSketch dispatches to this row;
  /// 0 when the payload carries a sibling row's tag (swor-all writes
  /// swor's, and the stacked AMM wrappers share amm-co-fd's).
  uint32_t wire_tag = 0;
  /// Reloads a payload into `mem` (nullptr: onto the heap); nullptr when
  /// the backend does not serialize. On error nothing is constructed.
  Result<SlidingWindowSketch*> (*load)(void* mem, ByteReader*) = nullptr;
  /// Shard-query reduction; kFdMerge keeps reduce_ell_factor * ell rows.
  QueryReduceKind reduce = QueryReduceKind::kStack;
  size_t reduce_ell_factor = 0;
};

/// The backend table, one row per sketch type.
std::span<const BackendRow> Backends();

/// Builds the sketch named by `config.algorithm`, or InvalidArgument for
/// unknown names / incompatible window types (DI requires sequence
/// windows). Every instance gets its own shrink workspace.
Result<std::unique_ptr<SlidingWindowSketch>> MakeSlidingWindowSketch(
    size_t dim, WindowSpec window, const SketchConfig& config);

/// All algorithm names the factory accepts, in table order.
std::vector<std::string> KnownAlgorithms();

/// Reloads a sketch serialized with SlidingWindowSketch::SerializeTo,
/// dispatching on the serialized tag through the backend table.
Result<std::unique_ptr<SlidingWindowSketch>> DeserializeSlidingWindowSketch(
    ByteReader* reader);

/// The shard-query reduction of a factory algorithm name (`ell` =
/// SketchConfig::ell), read off its table row. Names outside the table get
/// kStack, which decomposability makes correct for any sketch.
QueryReduceSpec ReduceSpecFor(const std::string& algorithm, size_t ell);

/// Arena-aware construction hook: resolves one SketchConfig's backend row,
/// window validation and metric-registry handles ONCE, then stamps
/// instances into caller-provided storage with placement new. A
/// multi-tenant manager constructing 100k identical sketches pays the
/// registry mutex and name lookup once here instead of once per tenant,
/// and every FD-backed instance shares one shrink workspace (safe while
/// instances are driven one at a time, which the owning manager
/// guarantees; the workspace never influences results). Reloads through
/// DeserializeAt share the same handles and workspace.
///
/// The caller owns the storage: instance_size() bytes at instance_align()
/// alignment per instance, destruction via the virtual destructor
/// (sketch->~SlidingWindowSketch()).
class SketchPrototype {
 public:
  /// Validates dim/window/config exactly like MakeSlidingWindowSketch.
  static Result<SketchPrototype> Make(size_t dim, WindowSpec window,
                                      const SketchConfig& config);

  /// Slab footprint of one instance (fixed per prototype).
  size_t instance_size() const { return bound_.size; }
  size_t instance_align() const { return bound_.align; }

  /// True when instances support SerializeTo / DeserializeAt (the
  /// algorithms DeserializeSlidingWindowSketch can reload).
  bool serializable() const { return static_cast<bool>(bound_.load); }

  size_t dim() const { return dim_; }
  const WindowSpec& window() const { return window_; }

  /// Placement-constructs a fresh empty sketch into `mem`.
  SlidingWindowSketch* ConstructAt(void* mem) const {
    return bound_.construct(mem);
  }

  /// Placement-deserializes a sketch previously written with SerializeTo
  /// into `mem`. On error nothing is constructed and `mem` stays free.
  /// Requires serializable().
  Result<SlidingWindowSketch*> DeserializeAt(void* mem,
                                             ByteReader* reader) const {
    return bound_.load(mem, reader);
  }

 private:
  SketchPrototype() = default;

  BoundBackend bound_;  // `load` falls back to the table row's.
  size_t dim_ = 0;
  WindowSpec window_ = WindowSpec::Sequence(1);
};

}  // namespace swsketch

#endif  // SWSKETCH_CORE_FACTORY_H_
