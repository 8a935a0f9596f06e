#include "core/factory.h"

#include <new>
#include <tuple>
#include <utility>

#include "amm/amm_exact.h"
#include "amm/amm_stacked.h"
#include "core/best_rank_k.h"
#include "core/dump_snapshot.h"
#include "core/dyadic_interval.h"
#include "core/exact_window.h"
#include "core/logarithmic_method.h"
#include "core/swor.h"
#include "core/swr.h"
#include "util/metrics.h"

namespace swsketch {

namespace {

// Constructs T on the heap (mem == nullptr) or into caller storage. The
// heap branch is a plain new-expression, so `delete` through the virtual
// destructor matches it, over-aligned types included.
template <typename T, typename... Args>
SlidingWindowSketch* Place(void* mem, Args&&... args) {
  if (mem == nullptr) return new T(std::forward<Args>(args)...);
  return new (mem) T(std::forward<Args>(args)...);
}

// Binds T's constructor arguments, resolved once, into a BoundBackend.
template <typename T, typename... Args>
BoundBackend Bind(Args... args) {
  return {.construct = [args...](void* mem) { return Place<T>(mem, args...); },
          .size = sizeof(T),
          .align = alignof(T)};
}

// Reloads T via T::Deserialize(reader, handles...) into `mem` (nullptr:
// onto the heap). Without handles T resolves its own.
template <typename T, typename... Handles>
Result<SlidingWindowSketch*> Load(void* mem, ByteReader* reader,
                                  const Handles&... handles) {
  auto loaded = T::Deserialize(reader, handles...);
  if (!loaded.ok()) return loaded.status();
  return Place<T>(mem, loaded.take());
}

// Binds T's constructor arguments and the resolved handles (metric set,
// shrink workspace) that end both T's constructor and T::Deserialize's
// argument lists, so reloaded instances share what fresh ones get.
template <typename T, typename... Handles, typename... Args>
BoundBackend BindShared(std::tuple<Handles...> handles, Args... args) {
  BoundBackend bound = std::apply(
      [&](const Handles&... h) { return Bind<T>(args..., h...); }, handles);
  bound.load = [handles](void* mem, ByteReader* reader) {
    return std::apply(
        [&](const Handles&... h) { return Load<T>(mem, reader, h...); },
        handles);
  };
  return bound;
}

Result<BoundBackend> ResolveSwr(size_t dim, const WindowSpec& window,
                                const SketchConfig& c) {
  return Bind<SwrSketch>(
      dim, window,
      SwrSketch::Options{.ell = c.ell,
                         .frobenius_eps = c.frobenius_eps,
                         .exact_frobenius = c.exact_frobenius,
                         .seed = c.seed});
}

template <SworSketch::QueryMode kMode>
Result<BoundBackend> ResolveSwor(size_t dim, const WindowSpec& window,
                                 const SketchConfig& c) {
  return Bind<SworSketch>(
      dim, window,
      SworSketch::Options{.ell = c.ell,
                          .query_mode = kMode,
                          .frobenius_eps = c.frobenius_eps,
                          .exact_frobenius = c.exact_frobenius,
                          .seed = c.seed});
}

Result<BoundBackend> ResolveLmFd(size_t dim, const WindowSpec& window,
                                 const SketchConfig& c) {
  return BindShared<LmFd>(
      std::tuple(LmFd::MetricSet(MetricScope(MetricScope::Slug("LM-FD"))),
                 FrequentDirections::MakeShrinkScratch()),
      dim, window,
      LmFd::Options{.ell = c.ell,
                    .blocks_per_level = c.blocks_per_level,
                    .block_capacity = c.lm_block_capacity,
                    .fd_buffer_factor = c.fd_buffer_factor});
}

Result<BoundBackend> ResolveDsFd(size_t dim, const WindowSpec& window,
                                 const SketchConfig& c) {
  return BindShared<DsFd>(
      std::tuple(DsFd::MetricSet(MetricScope(MetricScope::Slug("DS-FD"))),
                 FrequentDirections::MakeShrinkScratch()),
      dim, window,
      DsFd::Options{.ell = c.ell,
                    .snapshots_per_window = c.ds_snapshots_per_window,
                    .snapshot_trunc = c.ds_snapshot_trunc,
                    .frame_ell_factor = c.ds_frame_ell_factor,
                    .fd_buffer_factor = c.ds_fd_buffer_factor,
                    .frobenius_eps = c.frobenius_eps,
                    .exact_frobenius = c.exact_frobenius});
}

Result<BoundBackend> ResolveLmHash(size_t dim, const WindowSpec& window,
                                   const SketchConfig& c) {
  return BindShared<LmHash>(
      std::tuple(LmHash::MetricSet(MetricScope(MetricScope::Slug("LM-HASH")))),
      dim, window,
      LmHash::Options{.ell = c.ell,
                      .blocks_per_level = c.blocks_per_level,
                      .block_capacity = c.lm_block_capacity,
                      .seed = c.seed});
}

Result<BoundBackend> ResolveLmRp(size_t dim, const WindowSpec& window,
                                 const SketchConfig& c) {
  return Bind<LmRp>(dim, window,
                    LmRp::Options{.ell = c.ell,
                                  .blocks_per_level = c.blocks_per_level,
                                  .block_capacity = c.lm_block_capacity,
                                  .seed = c.seed});
}

Result<BoundBackend> ResolveDiFd(size_t dim, const WindowSpec& window,
                                 const SketchConfig& c) {
  return BindShared<DiFd>(
      std::tuple(DiFd::MetricSet(MetricScope(MetricScope::Slug("DI-FD"))),
                 FrequentDirections::MakeShrinkScratch()),
      dim,
      DiFd::Options{.levels = c.levels,
                    .window_size = static_cast<uint64_t>(window.extent()),
                    .max_norm_sq = c.max_norm_sq,
                    .ell_top = c.ell,
                    .fd_buffer_factor = c.fd_buffer_factor});
}

Result<BoundBackend> ResolveDiRp(size_t dim, const WindowSpec& window,
                                 const SketchConfig& c) {
  return Bind<DiRp>(
      dim, DiRp::Options{.levels = c.levels,
                         .window_size = static_cast<uint64_t>(window.extent()),
                         .max_norm_sq = c.max_norm_sq,
                         .ell_top = c.ell,
                         .seed = c.seed});
}

Result<BoundBackend> ResolveDiHash(size_t dim, const WindowSpec& window,
                                   const SketchConfig& c) {
  return Bind<DiHash>(
      dim,
      DiHash::Options{.levels = c.levels,
                      .window_size = static_cast<uint64_t>(window.extent()),
                      .max_norm_sq = c.max_norm_sq,
                      .ell_top = c.ell,
                      .seed = c.seed});
}

Result<BoundBackend> ResolveExact(size_t dim, const WindowSpec& window,
                                  const SketchConfig&) {
  return Bind<ExactWindow>(dim, window);
}

Result<BoundBackend> ResolveBest(size_t dim, const WindowSpec& window,
                                 const SketchConfig& c) {
  return Bind<BestRankK>(dim, window, c.ell);
}

// Resolves SketchConfig::amm_dim_a against the stacked dimension.
Result<size_t> ResolveAmmDimA(size_t dim, const SketchConfig& config) {
  if (dim < 2) {
    return Status::InvalidArgument(
        "AMM needs a stacked dimension of at least 2 (one column per "
        "operand)");
  }
  const size_t dim_a = config.amm_dim_a == 0 ? dim / 2 : config.amm_dim_a;
  if (dim_a == 0 || dim_a >= dim) {
    return Status::InvalidArgument(
        "amm_dim_a must satisfy 0 < amm_dim_a < dim");
  }
  return dim_a;
}

Result<BoundBackend> ResolveAmmExact(size_t dim, const WindowSpec& window,
                                     const SketchConfig& c) {
  auto dim_a = ResolveAmmDimA(dim, c);
  if (!dim_a.ok()) return dim_a.status();
  return Bind<AmmExact>(*dim_a, dim - *dim_a, window,
                        AmmSketch::MetricSet(MetricScope("amm")));
}

// An AMM wrapper over the backend `Inner` resolves, run at the stacked
// dimension. The inner row resolves once, here; every instance then gets a
// fresh inner sketch on the heap behind the fixed-size wrapper (its size
// varies by backend, so only the wrapper takes part in the slab contract).
template <Result<BoundBackend> (*Inner)(size_t, const WindowSpec&,
                                        const SketchConfig&)>
Result<BoundBackend> ResolveAmmStacked(size_t dim, const WindowSpec& window,
                                       const SketchConfig& c) {
  auto dim_a = ResolveAmmDimA(dim, c);
  if (!dim_a.ok()) return dim_a.status();
  auto inner = Inner(dim, window, c);
  if (!inner.ok()) return inner.status();
  return BoundBackend{
      .construct =
          [dim_a = *dim_a, dim_b = dim - *dim_a, inner = inner.take(),
           metrics = AmmSketch::MetricSet(MetricScope("amm"))](void* mem) {
            return Place<AmmStacked>(
                mem, dim_a, dim_b,
                std::unique_ptr<SlidingWindowSketch>(
                    inner.construct(nullptr)),
                metrics);
          },
      .size = sizeof(AmmStacked),
      .align = alignof(AmmStacked)};
}

constexpr BackendRow kBackends[] = {
    {.name = "swr",
     .resolve = ResolveSwr,
     .wire_tag = SwrSketch::kSerialTag,
     .load = Load<SwrSketch>},
    {.name = "swor",
     .resolve = ResolveSwor<SworSketch::QueryMode::kTopEll>,
     .wire_tag = SworSketch::kSerialTag,
     .load = Load<SworSketch>},
    {.name = "swor-all",
     .resolve = ResolveSwor<SworSketch::QueryMode::kAll>,
     .load = Load<SworSketch>},
    {.name = "lm-fd",
     .resolve = ResolveLmFd,
     .wire_tag = LmFd::kSerialTag,
     .load = Load<LmFd>,
     .reduce = QueryReduceKind::kFdMerge,
     .reduce_ell_factor = 1},
    {.name = "ds-fd",
     .resolve = ResolveDsFd,
     .wire_tag = DsFd::kSerialTag,
     .load = Load<DsFd>,
     .reduce = QueryReduceKind::kFdMerge,
     .reduce_ell_factor = 1},
    {.name = "lm-hash",
     .resolve = ResolveLmHash,
     .wire_tag = LmHash::kSerialTag,
     .load = Load<LmHash>,
     .reduce = QueryReduceKind::kSum},
    {.name = "lm-rp", .resolve = ResolveLmRp, .reduce = QueryReduceKind::kSum},
    // A DI cover carries up to ~2 * ell rows, so the reduce keeps 2 * ell
    // rather than discard accuracy the shards paid for.
    {.name = "di-fd",
     .sequence_only = true,
     .resolve = ResolveDiFd,
     .wire_tag = DiFd::kSerialTag,
     .load = Load<DiFd>,
     .reduce = QueryReduceKind::kFdMerge,
     .reduce_ell_factor = 2},
    {.name = "di-rp", .sequence_only = true, .resolve = ResolveDiRp},
    {.name = "di-hash", .sequence_only = true, .resolve = ResolveDiHash},
    {.name = "exact", .resolve = ResolveExact},
    {.name = "best", .resolve = ResolveBest},
    {.name = "amm-exact",
     .resolve = ResolveAmmExact,
     .wire_tag = AmmExact::kSerialTag,
     .load = Load<AmmExact>},
    // The stacked wrappers' Query() is the [A | B] approximation, so
    // FD-merging shard outputs at the stacked dimension preserves the
    // co-sketch product bound exactly like the covariance bound; each
    // follows its inner backend's route.
    {.name = "amm-co-fd",
     .resolve = ResolveAmmStacked<ResolveDsFd>,
     .wire_tag = AmmStacked::kSerialTag,
     .load = Load<AmmStacked>,
     .reduce = QueryReduceKind::kFdMerge,
     .reduce_ell_factor = 1},
    {.name = "amm-lm-fd",
     .resolve = ResolveAmmStacked<ResolveLmFd>,
     .load = Load<AmmStacked>,
     .reduce = QueryReduceKind::kFdMerge,
     .reduce_ell_factor = 1},
    {.name = "amm-di-fd",
     .sequence_only = true,
     .resolve = ResolveAmmStacked<ResolveDiFd>,
     .load = Load<AmmStacked>,
     .reduce = QueryReduceKind::kFdMerge,
     .reduce_ell_factor = 2},
};

const BackendRow* FindRow(std::string_view name) {
  for (const BackendRow& row : kBackends) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

struct Resolution {
  const BackendRow* row;
  BoundBackend bound;
};

Result<Resolution> Resolve(size_t dim, const WindowSpec& window,
                           const SketchConfig& config) {
  if (dim == 0) return Status::InvalidArgument("dim must be positive");
  if (config.ell == 0) return Status::InvalidArgument("ell must be positive");
  const BackendRow* row = FindRow(config.algorithm);
  if (row == nullptr) {
    return Status::InvalidArgument("unknown algorithm: " + config.algorithm);
  }
  if (row->sequence_only && window.type() != WindowType::kSequence) {
    return Status::InvalidArgument(
        config.algorithm +
        " supports sequence-based windows only (Section 7)");
  }
  auto bound = row->resolve(dim, window, config);
  if (!bound.ok()) return bound.status();
  return Resolution{row, bound.take()};
}

}  // namespace

std::span<const BackendRow> Backends() { return kBackends; }

Result<std::unique_ptr<SlidingWindowSketch>> MakeSlidingWindowSketch(
    size_t dim, WindowSpec window, const SketchConfig& config) {
  auto resolved = Resolve(dim, window, config);
  if (!resolved.ok()) return resolved.status();
  return std::unique_ptr<SlidingWindowSketch>(
      resolved->bound.construct(nullptr));
}

std::vector<std::string> KnownAlgorithms() {
  std::vector<std::string> names;
  for (const BackendRow& row : kBackends) names.emplace_back(row.name);
  return names;
}

Result<std::unique_ptr<SlidingWindowSketch>> DeserializeSlidingWindowSketch(
    ByteReader* reader) {
  uint32_t tag = 0;
  if (!reader->Peek(&tag)) {
    return Status::InvalidArgument("empty sketch payload");
  }
  for (const BackendRow& row : kBackends) {
    if (row.wire_tag == 0 || row.wire_tag != tag) continue;
    auto loaded = row.load(nullptr, reader);
    if (!loaded.ok()) return loaded.status();
    return std::unique_ptr<SlidingWindowSketch>(*loaded);
  }
  return Status::InvalidArgument("unknown sketch serialization tag");
}

QueryReduceSpec ReduceSpecFor(const std::string& algorithm, size_t ell) {
  const BackendRow* row = FindRow(algorithm);
  if (row == nullptr) return {};
  return {row->reduce, row->reduce_ell_factor * ell};
}

Result<SketchPrototype> SketchPrototype::Make(size_t dim, WindowSpec window,
                                              const SketchConfig& config) {
  auto resolved = Resolve(dim, window, config);
  if (!resolved.ok()) return resolved.status();
  SketchPrototype proto;
  proto.bound_ = std::move(resolved->bound);
  if (!proto.bound_.load) proto.bound_.load = resolved->row->load;
  proto.dim_ = dim;
  proto.window_ = window;
  return proto;
}

}  // namespace swsketch
