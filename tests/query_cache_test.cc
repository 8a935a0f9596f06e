// Query-cache correctness (DESIGN.md §8 "Query path"): after every
// structural event in a randomized LM/DI run — block close, level merge,
// expiry, deserialize — a cached Query() must be byte-identical to a
// freshly-constructed sketch replaying the same rows, and a repeated
// (warm) Query() must be byte-identical to the first. The structure
// version counter is the cache key; these tests also pin that it only
// moves at structural events. The same replay check covers the other
// Memo sites (DS-FD, ShardedSketch, AmmSketch::QueryProduct), and scripted
// runs pin every site's key with exact hit/miss deltas.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "amm/amm_sketch.h"
#include "amm/amm_stacked.h"
#include "core/dump_snapshot.h"
#include "core/dyadic_interval.h"
#include "core/factory.h"
#include "core/logarithmic_method.h"
#include "distributed/sharded_sketch.h"
#include "linalg/matrix.h"
#include "util/memo.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/serialize.h"

namespace swsketch {
namespace {

// Gaussian rows with ts = i + 1; every 17th row zero to exercise the
// zero-row skip paths (same shape as batch_update_test's stream).
struct TestStream {
  Matrix rows;
  std::vector<double> ts;
};

TestStream MakeStream(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  TestStream s;
  s.rows = Matrix(n, d);
  for (size_t i = 0; i < n; ++i) {
    if (i % 17 != 13) {
      for (size_t j = 0; j < d; ++j) s.rows(i, j) = rng.Gaussian();
    }
    s.ts.push_back(static_cast<double>(i + 1));
  }
  return s;
}

// Feeds the stream row by row into a live sketch; whenever the structure
// version moves (a block closed, merged up, or expired) — and at a coarse
// row interval as a control — asserts that (a) the possibly-cached Query()
// matches a fresh sketch replaying the same prefix bitwise, and (b) an
// immediately repeated Query() (guaranteed warm) returns the same bytes.
template <typename SketchT>
void CheckCacheAgainstReplay(const TestStream& s,
                             const std::function<SketchT()>& make) {
  SketchT live = make();
  uint64_t last_version = live.structure_version();
  size_t checks = 0;
  for (size_t i = 0; i < s.rows.rows(); ++i) {
    live.Update(s.rows.Row(i), s.ts[i]);
    const bool structural = live.structure_version() != last_version;
    const bool periodic = (i + 1) % 97 == 0;
    if (!structural && !periodic) continue;
    last_version = live.structure_version();
    ++checks;

    const Matrix q1 = live.Query();
    const Matrix q2 = live.Query();  // Warm: same version, same live set.
    ASSERT_EQ(q1.rows(), q2.rows()) << "row " << i;
    EXPECT_EQ(q1.MaxAbsDiff(q2), 0.0) << "row " << i;

    SketchT fresh = make();
    for (size_t j = 0; j <= i; ++j) fresh.Update(s.rows.Row(j), s.ts[j]);
    const Matrix qf = fresh.Query();
    ASSERT_EQ(q1.rows(), qf.rows()) << "row " << i;
    EXPECT_EQ(q1.MaxAbsDiff(qf), 0.0) << "row " << i;
  }
  EXPECT_GT(checks, 10u) << "stream produced too few structural events";
}

TEST(QueryCacheTest, LmFdMatchesFreshReplayAtEveryEvent) {
  const size_t d = 16;
  const TestStream s = MakeStream(400, d, 3);
  CheckCacheAgainstReplay<LmFd>(s, [d] {
    LmFd::Options opt;
    opt.ell = 8;
    opt.blocks_per_level = 3;  // Small levels force frequent merges.
    opt.block_capacity = 8.0 * static_cast<double>(d);
    return LmFd(d, WindowSpec::Sequence(150), opt);
  });
}

TEST(QueryCacheTest, LmHashMatchesFreshReplayAtEveryEvent) {
  const size_t d = 16;
  const TestStream s = MakeStream(400, d, 4);
  CheckCacheAgainstReplay<LmHash>(s, [d] {
    LmHash::Options opt;
    opt.ell = 8;
    opt.blocks_per_level = 3;
    opt.block_capacity = 8.0 * static_cast<double>(d);
    opt.seed = 11;
    return LmHash(d, WindowSpec::Sequence(150), opt);
  });
}

TEST(QueryCacheTest, LmFdTimeWindowExpiryInvalidates) {
  // Time window sliding between arrivals: blocks and raw rows expire
  // without any block closing, exercising the live-set shrink keying.
  const size_t d = 12;
  TestStream s = MakeStream(300, d, 5);
  Rng rng(6);
  double t = 0.0;
  for (auto& ts : s.ts) {
    t += rng.Uniform(0.1, 2.0);
    ts = t;
  }
  CheckCacheAgainstReplay<LmFd>(s, [d] {
    LmFd::Options opt;
    opt.ell = 8;
    opt.blocks_per_level = 3;
    opt.block_capacity = 8.0 * static_cast<double>(d);
    return LmFd(d, WindowSpec::Time(40.0), opt);
  });
}

TEST(QueryCacheTest, DiFdMatchesFreshReplayAtEveryEvent) {
  const size_t d = 16;
  const TestStream s = MakeStream(400, d, 7);
  double max_norm_sq = 1.0;
  for (size_t i = 0; i < s.rows.rows(); ++i) {
    double nn = 0.0;
    for (size_t j = 0; j < d; ++j) nn += s.rows(i, j) * s.rows(i, j);
    max_norm_sq = std::max(max_norm_sq, nn);
  }
  CheckCacheAgainstReplay<DiFd>(s, [d, max_norm_sq] {
    DiFd::Options opt;
    opt.levels = 4;
    opt.window_size = 150;
    opt.max_norm_sq = max_norm_sq;
    opt.ell_top = 16;
    return DiFd(d, opt);
  });
}

TEST(QueryCacheTest, DiHashMatchesFreshReplayAtEveryEvent) {
  const size_t d = 16;
  const TestStream s = MakeStream(400, d, 8);
  CheckCacheAgainstReplay<DiHash>(s, [d] {
    DiHash::Options opt;
    opt.levels = 4;
    opt.window_size = 150;
    opt.max_norm_sq = 64.0;
    opt.ell_top = 16;
    opt.seed = 13;
    return DiHash(d, opt);
  });
}

TEST(QueryCacheTest, InvalidateForcesByteIdenticalColdPath) {
  const size_t d = 16;
  const TestStream s = MakeStream(500, d, 9);
  LmFd::Options lopt;
  lopt.ell = 8;
  lopt.block_capacity = 8.0 * static_cast<double>(d);
  LmFd lm(d, WindowSpec::Sequence(200), lopt);
  DiFd::Options dopt;
  dopt.levels = 4;
  dopt.window_size = 200;
  dopt.max_norm_sq = 50.0;
  dopt.ell_top = 16;
  DiFd di(d, dopt);
  for (size_t i = 0; i < s.rows.rows(); ++i) {
    lm.Update(s.rows.Row(i), s.ts[i]);
    di.Update(s.rows.Row(i), s.ts[i]);
  }
  const Matrix lm_warm = lm.Query();
  lm.InvalidateQueryCache();
  EXPECT_EQ(lm_warm.MaxAbsDiff(lm.Query()), 0.0);
  const Matrix di_warm = di.Query();
  di.InvalidateQueryCache();
  EXPECT_EQ(di_warm.MaxAbsDiff(di.Query()), 0.0);
}

TEST(QueryCacheTest, VersionMovesOnlyOnStructuralEvents) {
  const size_t d = 8;
  LmFd::Options opt;
  opt.ell = 4;
  opt.block_capacity = 4.0 * static_cast<double>(d);
  LmFd lm(d, WindowSpec::Sequence(100), opt);
  Rng rng(10);
  uint64_t version = lm.structure_version();
  size_t bumps = 0;
  for (size_t i = 0; i < 200; ++i) {
    std::vector<double> row(d);
    for (auto& v : row) v = rng.Gaussian();
    const size_t blocks_before = lm.NumBlocks();
    lm.Update(row, static_cast<double>(i + 1));
    if (lm.structure_version() != version) {
      ++bumps;
      version = lm.structure_version();
    } else {
      // No version change => the closed-block structure is unchanged.
      EXPECT_EQ(lm.NumBlocks(), blocks_before);
    }
    // Queries never move the version.
    (void)lm.Query();
    EXPECT_EQ(lm.structure_version(), version);
  }
  EXPECT_GT(bumps, 5u);
}

TEST(QueryCacheTest, DeserializeResetsCacheAndStaysIdentical) {
  const size_t d = 12;
  const TestStream s = MakeStream(350, d, 11);
  LmFd::Options lopt;
  lopt.ell = 8;
  lopt.block_capacity = 8.0 * static_cast<double>(d);
  LmFd lm(d, WindowSpec::Sequence(120), lopt);
  DiFd::Options dopt;
  dopt.levels = 4;
  dopt.window_size = 120;
  dopt.max_norm_sq = 40.0;
  dopt.ell_top = 8;
  DiFd di(d, dopt);
  const size_t half = s.rows.rows() / 2;
  for (size_t i = 0; i < half; ++i) {
    lm.Update(s.rows.Row(i), s.ts[i]);
    di.Update(s.rows.Row(i), s.ts[i]);
  }
  // Warm the caches, then round-trip.
  const Matrix lm_q = lm.Query();
  const Matrix di_q = di.Query();

  ByteWriter lw, dw;
  lm.Serialize(&lw);
  di.Serialize(&dw);
  ByteReader lr(lw.bytes()), dr(dw.bytes());
  auto lm2 = LmFd::Deserialize(&lr);
  auto di2 = DiFd::Deserialize(&dr);
  ASSERT_TRUE(lm2.ok());
  ASSERT_TRUE(di2.ok());

  // The reloaded sketch starts cold (version reset on load) but must
  // produce the same bytes immediately and after further ingest.
  EXPECT_EQ(lm_q.MaxAbsDiff(lm2->Query()), 0.0);
  EXPECT_EQ(di_q.MaxAbsDiff(di2->Query()), 0.0);
  for (size_t i = half; i < s.rows.rows(); ++i) {
    lm.Update(s.rows.Row(i), s.ts[i]);
    lm2->Update(s.rows.Row(i), s.ts[i]);
    di.Update(s.rows.Row(i), s.ts[i]);
    di2->Update(s.rows.Row(i), s.ts[i]);
  }
  EXPECT_EQ(lm.Query().MaxAbsDiff(lm2->Query()), 0.0);
  EXPECT_EQ(di.Query().MaxAbsDiff(di2->Query()), 0.0);
}

// ---------------------------------------------------------------------
// Replay checks for the remaining Memo sites.

// Shape plus every double's bytes.
void ExpectSameBytes(const Matrix& a, const Matrix& b, size_t op) {
  ASSERT_EQ(a.rows(), b.rows()) << "op " << op;
  ASSERT_EQ(a.cols(), b.cols()) << "op " << op;
  if (a.Data().empty()) return;
  EXPECT_EQ(std::memcmp(a.Data().data(), b.Data().data(),
                        a.Data().size() * sizeof(double)),
            0)
      << "op " << op;
}

// One scripted step: ingest rows.Row(row) at ts, or, when row is
// kAdvance, slide the window to ts without an arrival.
constexpr size_t kAdvance = static_cast<size_t>(-1);
struct Op {
  size_t row;
  double ts;
};

void Apply(SlidingWindowSketch& sketch, const Matrix& rows, const Op& op) {
  if (op.row == kAdvance) {
    sketch.AdvanceTo(op.ts);
  } else {
    sketch.Update(rows.Row(op.row), op.ts);
  }
}

std::vector<Op> RowOps(const TestStream& s) {
  std::vector<Op> ops;
  for (size_t i = 0; i < s.rows.rows(); ++i) ops.push_back({i, s.ts[i]});
  return ops;
}

// Runs `ops` on a live sketch; after every `every`-th op, Flush()es and
// asserts that query(live), its warm repeat and query(fresh) — a fresh
// sketch replaying the same op prefix — are byte-equal. Returns how many
// checks right after an AdvanceTo saw a different answer than the
// previous check (the window slid under a cached result).
template <typename T>
size_t CheckOpsAgainstReplay(const Matrix& rows, const std::vector<Op>& ops,
                             size_t every,
                             const std::function<std::unique_ptr<T>()>& make,
                             const std::function<Matrix(T&)>& query) {
  std::unique_ptr<T> live = make();
  size_t checks = 0, moved_on_advance = 0;
  Matrix previous(0, 0);
  for (size_t i = 0; i < ops.size(); ++i) {
    Apply(*live, rows, ops[i]);
    if ((i + 1) % every != 0) continue;
    ++checks;
    live->Flush();
    const Matrix q1 = query(*live);
    const Matrix q2 = query(*live);  // Warm: no mutation in between.
    ExpectSameBytes(q1, q2, i);

    std::unique_ptr<T> fresh = make();
    for (size_t j = 0; j <= i; ++j) Apply(*fresh, rows, ops[j]);
    fresh->Flush();
    ExpectSameBytes(q1, query(*fresh), i);

    const bool moved = q1.rows() != previous.rows() ||
                       q1.cols() != previous.cols() ||
                       q1.MaxAbsDiff(previous) != 0.0;
    if (ops[i].row == kAdvance && moved) ++moved_on_advance;
    previous = q1;
  }
  EXPECT_GT(checks, 5u);
  return moved_on_advance;
}

TEST(QueryCacheTest, DsFdSequenceWindowMatchesFreshReplay) {
  const size_t d = 16;
  const TestStream s = MakeStream(300, d, 21);
  CheckOpsAgainstReplay<DsFd>(
      s.rows, RowOps(s), 7,
      [d] {
        return std::make_unique<DsFd>(d, WindowSpec::Sequence(100),
                                      DsFd::Options{.ell = 8});
      },
      [](DsFd& ds) { return ds.Query(); });
}

TEST(QueryCacheTest, DsFdTimeWindowAdvanceOnlyStepsMatchFreshReplay) {
  // Bursts of rows separated by runs of AdvanceTo-only steps: the window
  // start slides between arrivals, so the straddling frame's subtracted
  // snapshot changes while no row arrives.
  const size_t d = 12;
  const TestStream s = MakeStream(200, d, 22);
  Rng rng(23);
  std::vector<Op> ops;
  double t = 0.0;
  for (size_t i = 0; i < s.rows.rows(); ++i) {
    t += rng.Uniform(0.1, 1.0);
    ops.push_back({i, t});
    if (i % 10 == 9) {
      for (int k = 0; k < 4; ++k) {
        t += rng.Uniform(0.5, 3.0);
        ops.push_back({kAdvance, t});
      }
    }
  }
  const size_t moved = CheckOpsAgainstReplay<DsFd>(
      s.rows, ops, 1,
      [d] {
        return std::make_unique<DsFd>(d, WindowSpec::Time(30.0),
                                      DsFd::Options{.ell = 8});
      },
      [](DsFd& ds) { return ds.Query(); });
  EXPECT_GT(moved, 10u) << "advance-only steps never changed the answer";
}

std::unique_ptr<ShardedSketch> MakeShardedLmFd(size_t d, size_t shards) {
  SketchConfig config;
  config.algorithm = "lm-fd";
  config.ell = 8;
  config.seed = 5;
  ShardedSketch::Options options;
  options.shards = shards;
  options.parallel = true;
  options.block_rows = 16;
  auto made =
      ShardedSketch::Make(d, WindowSpec::Sequence(200), config, options);
  SWSKETCH_CHECK(made.ok());
  return made.take();
}

TEST(QueryCacheTest, ShardedParallelMatchesFreshReplayAfterFlush) {
  const size_t d = 8;
  const TestStream s = MakeStream(600, d, 24);
  CheckOpsAgainstReplay<ShardedSketch>(
      s.rows, RowOps(s), 37, [d] { return MakeShardedLmFd(d, 2); },
      [](ShardedSketch& sharded) { return sharded.Query(); });
}

std::unique_ptr<AmmSketch> MakeAmm(const std::string& algorithm, size_t da,
                                   size_t d) {
  SketchConfig config;
  config.algorithm = algorithm;
  config.ell = 8;
  config.amm_dim_a = da;
  config.max_norm_sq = 16.0 * static_cast<double>(d);
  auto made = MakeSlidingWindowSketch(d, WindowSpec::Sequence(40), config);
  SWSKETCH_CHECK(made.ok());
  auto* amm = dynamic_cast<AmmSketch*>(made->get());
  SWSKETCH_CHECK(amm != nullptr);
  made->release();
  return std::unique_ptr<AmmSketch>(amm);
}

TEST(QueryCacheTest, AmmQueryProductMatchesFreshReplay) {
  const size_t da = 3, d = 7;
  const TestStream s = MakeStream(150, d, 25);
  for (const std::string algo :
       {"amm-exact", "amm-co-fd", "amm-lm-fd", "amm-di-fd"}) {
    SCOPED_TRACE(algo);
    CheckOpsAgainstReplay<AmmSketch>(
        s.rows, RowOps(s), 11, [&] { return MakeAmm(algo, da, d); },
        [](AmmSketch& amm) { return amm.QueryProduct(); });
  }
}

// ---------------------------------------------------------------------
// Key pinning: exact hit/miss deltas on scripted op sequences.

using HitsMisses = std::pair<uint64_t, uint64_t>;

// One cache's <prefix>_hits / <prefix>_misses counters, read as deltas.
class CacheLedger {
 public:
  explicit CacheLedger(const std::string& prefix)
      : hits_(MetricsRegistry::Global().GetCounter(prefix + "_hits")),
        misses_(MetricsRegistry::Global().GetCounter(prefix + "_misses")) {
    Take();
  }

  /// (hits, misses) since the previous Take().
  HitsMisses Take() {
    const HitsMisses now{hits_->Value(), misses_->Value()};
    const HitsMisses delta{now.first - last_.first,
                           now.second - last_.second};
    last_ = now;
    return delta;
  }

  Counter* hits() const { return hits_; }
  Counter* misses() const { return misses_; }

 private:
  Counter* hits_;
  Counter* misses_;
  HitsMisses last_{0, 0};
};

TEST(MemoTest, OneHitOrMissPerGetAndResetGoesCold) {
  struct NoDefault {
    explicit NoDefault(int x) : v(x) {}
    int v;
  };
  CacheLedger ledger("memo_test.lookup");
  Memo<std::tuple<int, int>, NoDefault> memo;
  int computes = 0;
  const auto get = [&](int a, int b) {
    return memo
        .Get({a, b}, ledger.hits(), ledger.misses(),
             [&] {
               ++computes;
               return NoDefault(10 * a + b);
             })
        .v;
  };
  EXPECT_EQ(get(1, 2), 12);
  EXPECT_EQ(ledger.Take(), HitsMisses(0, 1));
  EXPECT_EQ(get(1, 2), 12);
  EXPECT_EQ(ledger.Take(), HitsMisses(1, 0));
  EXPECT_EQ(get(1, 3), 13);  // Any key component moving is a miss.
  EXPECT_EQ(get(1, 2), 12);  // One slot: the older key is gone.
  EXPECT_EQ(ledger.Take(), HitsMisses(0, 2));
  memo.Reset();
  EXPECT_EQ(get(1, 2), 12);
  EXPECT_EQ(ledger.Take(), HitsMisses(0, 1));
  EXPECT_EQ(computes, 4);
}

TEST(QueryCacheKeyTest, LmHitsAfterZeroRowAndNoOpAdvance) {
  const size_t d = 8;
  const TestStream s = MakeStream(40, d, 26);
  LmFd::Options opt;
  opt.ell = 4;
  opt.block_capacity = 4.0 * static_cast<double>(d);
  LmFd lm(d, WindowSpec::Time(1000.0), opt);  // Nothing expires below.
  for (size_t i = 0; i < s.rows.rows(); ++i) {
    lm.Update(s.rows.Row(i), s.ts[i]);
  }
  ASSERT_GT(lm.NumBlocks(), 0u);
  CacheLedger result("lm_fd.query_cache"), merge("lm_fd.merge_cache");

  (void)lm.Query();
  EXPECT_EQ(result.Take(), HitsMisses(0, 1));
  EXPECT_EQ(merge.Take(), HitsMisses(0, 1));
  (void)lm.Query();
  EXPECT_EQ(result.Take(), HitsMisses(1, 0));

  // A zero-norm row and an AdvanceTo that expires nothing move
  // StateVersion() but not the result key: still hits.
  const uint64_t structure = lm.structure_version();
  uint64_t state = lm.StateVersion();
  lm.Update(std::vector<double>(d, 0.0), 41.0);
  EXPECT_NE(lm.StateVersion(), state);
  (void)lm.Query();
  EXPECT_EQ(result.Take(), HitsMisses(1, 0));
  state = lm.StateVersion();
  lm.AdvanceTo(42.0);
  EXPECT_NE(lm.StateVersion(), state);
  (void)lm.Query();
  EXPECT_EQ(result.Take(), HitsMisses(1, 0));
  EXPECT_EQ(merge.Take(), HitsMisses(0, 0));

  // A tiny row that closes no block: result miss, merged blocks hit.
  std::vector<double> tiny(d, 0.0);
  tiny[0] = 1e-3;
  lm.Update(tiny, 43.0);
  ASSERT_EQ(lm.structure_version(), structure);
  (void)lm.Query();
  EXPECT_EQ(result.Take(), HitsMisses(0, 1));
  EXPECT_EQ(merge.Take(), HitsMisses(1, 0));

  // Empty window: one miss per query, outside the memo.
  lm.AdvanceTo(5000.0);
  (void)lm.Query();
  (void)lm.Query();
  EXPECT_EQ(result.Take(), HitsMisses(0, 2));
  EXPECT_EQ(merge.Take(), HitsMisses(0, 0));
}

TEST(QueryCacheKeyTest, DiHitsAfterZeroRowAndNoOpAdvance) {
  const size_t d = 8;
  const TestStream s = MakeStream(60, d, 27);
  DiFd::Options opt;
  opt.levels = 4;
  opt.window_size = 1000;  // Nothing expires below; j0 stays put.
  opt.max_norm_sq = 1.0;    // Level-1 blocks of ~8 rows.
  opt.ell_top = 8;
  DiFd di(d, opt);
  for (size_t i = 0; i < s.rows.rows(); ++i) {
    di.Update(s.rows.Row(i), s.ts[i]);
  }
  ASSERT_GT(di.NumBlocks(), 0u);
  CacheLedger result("di_fd.query_cache"), cover("di_fd.cover_cache");

  (void)di.Query();
  EXPECT_EQ(result.Take(), HitsMisses(0, 1));
  EXPECT_EQ(cover.Take(), HitsMisses(0, 1));
  (void)di.Query();
  EXPECT_EQ(result.Take(), HitsMisses(1, 0));

  const uint64_t structure = di.structure_version();
  uint64_t state = di.StateVersion();
  di.Update(std::vector<double>(d, 0.0), 61.0);
  EXPECT_NE(di.StateVersion(), state);
  (void)di.Query();
  EXPECT_EQ(result.Take(), HitsMisses(1, 0));
  state = di.StateVersion();
  di.AdvanceTo(62.0);
  EXPECT_NE(di.StateVersion(), state);
  (void)di.Query();
  EXPECT_EQ(result.Take(), HitsMisses(1, 0));
  EXPECT_EQ(cover.Take(), HitsMisses(0, 0));

  std::vector<double> tiny(d, 0.0);
  tiny[0] = 1e-3;
  di.Update(tiny, 63.0);
  ASSERT_EQ(di.structure_version(), structure);
  (void)di.Query();
  EXPECT_EQ(result.Take(), HitsMisses(0, 1));
  EXPECT_EQ(cover.Take(), HitsMisses(1, 0));
}

TEST(QueryCacheKeyTest, DsFdMissesAfterAnyMutation) {
  const size_t d = 8;
  const TestStream s = MakeStream(30, d, 28);
  CacheLedger result("ds_fd.query_cache");
  DsFd empty(d, WindowSpec::Sequence(50), DsFd::Options{.ell = 4});
  (void)empty.Query();
  (void)empty.Query();
  EXPECT_EQ(result.Take(), HitsMisses(0, 2));  // Empty window, no memo.

  DsFd ds(d, WindowSpec::Sequence(50), DsFd::Options{.ell = 4});
  for (size_t i = 0; i < s.rows.rows(); ++i) {
    ds.Update(s.rows.Row(i), s.ts[i]);
  }
  (void)ds.Query();
  (void)ds.Query();
  EXPECT_EQ(result.Take(), HitsMisses(1, 1));
  ds.Flush();  // Not a mutation.
  (void)ds.Query();
  EXPECT_EQ(result.Take(), HitsMisses(1, 0));
  ds.Update(std::vector<double>(d, 0.0), 31.0);
  (void)ds.Query();
  EXPECT_EQ(result.Take(), HitsMisses(0, 1));
  ds.AdvanceTo(31.0);
  (void)ds.Query();
  EXPECT_EQ(result.Take(), HitsMisses(0, 1));
  ds.Update(s.rows.Row(0), 32.0);
  (void)ds.Query();
  (void)ds.Query();
  EXPECT_EQ(result.Take(), HitsMisses(1, 1));
}

TEST(QueryCacheKeyTest, ShardedMissesAfterAnyMutation) {
  const size_t d = 8;
  const TestStream s = MakeStream(50, d, 29);
  auto sharded = MakeShardedLmFd(d, 2);
  CacheLedger result("sharded_lm_fd.query_cache");
  for (size_t i = 0; i < s.rows.rows(); ++i) {
    sharded->Update(s.rows.Row(i), s.ts[i]);
  }
  (void)sharded->Query();
  (void)sharded->Query();
  EXPECT_EQ(result.Take(), HitsMisses(1, 1));
  sharded->Flush();  // Not a mutation.
  (void)sharded->Query();
  EXPECT_EQ(result.Take(), HitsMisses(1, 0));
  sharded->Update(std::vector<double>(d, 0.0), 51.0);
  (void)sharded->Query();
  EXPECT_EQ(result.Take(), HitsMisses(0, 1));
  sharded->AdvanceTo(51.0);
  (void)sharded->Query();
  EXPECT_EQ(result.Take(), HitsMisses(0, 1));
  const std::vector<double> ts = {52.0, 53.0};
  Matrix batch(2, d);
  batch(0, 0) = batch(1, 1) = 1.0;
  sharded->UpdateBatch(batch, ts);
  (void)sharded->Query();
  (void)sharded->Query();
  EXPECT_EQ(result.Take(), HitsMisses(1, 1));
}

TEST(QueryCacheKeyTest, AmmOverUntrackedSamplerNeverHits) {
  const size_t da = 3, db = 4, d = da + db;
  const TestStream s = MakeStream(20, d, 30);
  SketchConfig config;
  config.algorithm = "swr";
  config.ell = 8;
  auto inner = MakeSlidingWindowSketch(d, WindowSpec::Sequence(40), config);
  ASSERT_TRUE(inner.ok());
  AmmStacked swr(da, db, inner.take());
  ASSERT_EQ(swr.StateVersion(), 0u);
  auto lm = MakeAmm("amm-lm-fd", da, d);
  for (size_t i = 0; i < s.rows.rows(); ++i) {
    swr.Update(s.rows.Row(i), s.ts[i]);
    lm->Update(s.rows.Row(i), s.ts[i]);
  }
  CacheLedger product("amm.product_cache");
  for (int k = 0; k < 3; ++k) (void)swr.QueryProduct();
  EXPECT_EQ(product.Take(), HitsMisses(0, 3));
  for (int k = 0; k < 3; ++k) (void)lm->QueryProduct();
  EXPECT_EQ(product.Take(), HitsMisses(2, 1));
}


// ---------------------------------------------------------------------
// The kept LM merge tree: a merged-blocks miss rebuilds only the nodes
// over blocks that changed since the last miss. After every op the live
// sketch's Query() — a warm hit, a partial rebuild or a full one — must
// equal, byte for byte, a twin's Query() taken right after
// InvalidateQueryCache() (a cold merge of every live block).

// Pins the shared pool of this binary at four workers, so the pooled runs
// below split tree levels across threads on any host.
[[maybe_unused]] const bool kFourPoolWorkers =
    (ThreadPool::SetDefaultThreadCount(4), true);

uint64_t Count(const std::string& name) {
  return MetricsRegistry::Global().GetCounter(name)->Value();
}

// One randomized op stream on `live` and `twin`: Gaussian rows, every
// 11th scaled past the block capacity (its block is promoted, not
// merged), every 7th op an AdvanceTo instead of a row, and `live`
// serialized and reloaded halfway. Appends live's answers to `answers`.
template <typename LmT>
void RunWarmAgainstCold(const std::function<std::unique_ptr<LmT>()>& make,
                        size_t d, bool time_window,
                        std::vector<Matrix>* answers) {
  Rng rng(time_window ? 41 : 42);
  std::unique_ptr<LmT> live = make(), twin = make();
  std::vector<double> row(d);
  double ts = 0.0;
  const size_t kOps = 400;
  for (size_t op = 0; op < kOps; ++op) {
    ts += time_window ? rng.Uniform(0.2, 1.8) : 1.0;
    if (op % 7 == 6) {
      live->AdvanceTo(ts);
      twin->AdvanceTo(ts);
    } else {
      const double scale = op % 11 == 5 ? 4.0 : 1.0;
      for (double& v : row) v = scale * rng.Gaussian();
      live->Update(row, ts);
      twin->Update(row, ts);
    }
    if (op == kOps / 2) {
      ByteWriter writer;
      live->Serialize(&writer);
      ByteReader reader(writer.bytes());
      auto reloaded = LmT::Deserialize(&reader);
      ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
      live = std::make_unique<LmT>(reloaded.take());
    }
    const Matrix warm = live->Query();
    ExpectSameBytes(warm, live->Query(), op);
    twin->InvalidateQueryCache();
    ExpectSameBytes(warm, twin->Query(), op);
    answers->push_back(warm);
  }
}

// Runs the stream with tree levels on the 4-worker pool and again inline
// (from inside a pool task, nested ParallelFor calls run on the calling
// thread, exactly as with a 1-worker pool); both must agree byte for
// byte, and the live sketch must really have reused tree nodes and hit
// the promotion path.
template <typename LmT>
void CheckWarmAgainstCold(
    const std::string& slug,
    const std::function<std::unique_ptr<LmT>(const WindowSpec&)>& make,
    size_t d) {
  ASSERT_EQ(ThreadPool::Shared().num_threads(), 4u);
  for (const bool time_window : {false, true}) {
    const WindowSpec window =
        time_window ? WindowSpec::Time(150.0) : WindowSpec::Sequence(150);
    const std::function<std::unique_ptr<LmT>()> make_one = [&] {
      return make(window);
    };
    const uint64_t reused0 = Count(slug + ".merge_nodes_reused");
    const uint64_t promotions0 = Count(slug + ".block_promotions");
    std::vector<Matrix> pooled, inline_run;
    RunWarmAgainstCold<LmT>(make_one, d, time_window, &pooled);
    ThreadPool one(1);
    one.Submit([&] {
      RunWarmAgainstCold<LmT>(make_one, d, time_window, &inline_run);
    });
    one.Wait();
    ASSERT_EQ(pooled.size(), inline_run.size());
    for (size_t i = 0; i < pooled.size(); ++i) {
      ExpectSameBytes(pooled[i], inline_run[i], i);
    }
    EXPECT_GT(Count(slug + ".merge_nodes_reused"), reused0);
    EXPECT_GT(Count(slug + ".block_promotions"), promotions0);
  }
}

TEST(MergeTreeTest, LmFdWarmMatchesColdAfterEveryOp) {
  const size_t d = 10;
  CheckWarmAgainstCold<LmFd>(
      "lm_fd",
      [d](const WindowSpec& window) {
        LmFd::Options opt;
        opt.ell = 6;
        opt.blocks_per_level = 3;
        opt.block_capacity = 8.0 * static_cast<double>(d);
        return std::make_unique<LmFd>(d, window, opt);
      },
      d);
}

TEST(MergeTreeTest, LmHashWarmMatchesColdAfterEveryOp) {
  const size_t d = 10;
  CheckWarmAgainstCold<LmHash>(
      "lm_hash",
      [d](const WindowSpec& window) {
        LmHash::Options opt;
        opt.ell = 6;
        opt.blocks_per_level = 3;
        opt.block_capacity = 8.0 * static_cast<double>(d);
        opt.seed = 5;
        return std::make_unique<LmHash>(d, window, opt);
      },
      d);
}
}  // namespace
}  // namespace swsketch
