// The admission contract (core/sliding_window_sketch.h), checked the same
// way on every backend: each hostile input gets one StatusCode on every
// KnownAlgorithms() backend and on the wrappers (sharded S=2, concurrent,
// a stacked AMM over a sampler); a rejected call leaves the state exactly
// as it was (serialized bytes where the backend serializes, else Query()
// and RowsStored()); and the good rows that follow give the same answer as
// a twin that never saw the bad call.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "amm/amm_exact.h"
#include "amm/amm_stacked.h"
#include "core/concurrent_sketch.h"
#include "core/factory.h"
#include "distributed/sharded_sketch.h"
#include "linalg/matrix.h"
#include "linalg/sparse_vector.h"
#include "service/tenant_manager.h"
#include "util/random.h"
#include "util/serialize.h"

namespace swsketch {
namespace {

constexpr size_t kDim = 16;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// "wrapper:backend" builds a wrapper around a factory backend.
std::unique_ptr<SlidingWindowSketch> Make(const std::string& subject) {
  const WindowSpec window = WindowSpec::Sequence(200);
  const size_t colon = subject.find(':');
  SketchConfig config;
  config.ell = 8;
  config.algorithm = subject.substr(colon == std::string::npos ? 0 : colon + 1);
  const std::string wrapper =
      colon == std::string::npos ? "" : subject.substr(0, colon);
  if (wrapper == "sharded") {
    auto made = ShardedSketch::Make(kDim, window, config, {.shards = 2});
    EXPECT_TRUE(made.ok()) << made.status().ToString();
    return made.take();
  }
  auto made = MakeSlidingWindowSketch(kDim, window, config);
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  if (wrapper == "concurrent") {
    return std::make_unique<ConcurrentSketch>(made.take());
  }
  if (wrapper == "amm-stacked") {
    return std::make_unique<AmmStacked>(kDim / 2, kDim / 2, made.take());
  }
  return made.take();
}

std::vector<std::string> Subjects() {
  std::vector<std::string> subjects = KnownAlgorithms();
  subjects.push_back("sharded:lm-fd");
  subjects.push_back("concurrent:ds-fd");
  subjects.push_back("amm-stacked:swr");
  return subjects;
}

Matrix Rows(size_t n, uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, kDim);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < kDim; ++j) m(i, j) = rng.Gaussian();
  }
  return m;
}

struct State {
  std::vector<uint8_t> bytes;  // Empty when the backend does not serialize.
  Matrix query;
  size_t rows_stored = 0;
  uint64_t version = 0;
  double now = 0.0;
};

State Observe(SlidingWindowSketch& sketch) {
  State s;
  ByteWriter w;
  if (sketch.SerializeTo(&w).ok()) s.bytes = w.bytes();
  sketch.Flush();
  s.query = sketch.Query();
  s.rows_stored = sketch.RowsStored();
  s.version = sketch.StateVersion();
  s.now = sketch.now();
  return s;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.rows(); ++i) {
    if (std::memcmp(a.Row(i).data(), b.Row(i).data(),
                    a.cols() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

void ExpectSame(const State& a, const State& b) {
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_TRUE(SameBits(a.query, b.query));
  EXPECT_EQ(a.rows_stored, b.rows_stored);
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.now, b.now);
}

struct HostileInput {
  std::string name;
  StatusCode code;
  std::function<Status(SlidingWindowSketch&)> call;
};

// Every input arrives after rows 0..149 (now = 149).
std::vector<HostileInput> HostileInputs() {
  const auto row_with = [](double v) {
    std::vector<double> row(kDim, 1.0);
    row[3] = v;
    return row;
  };
  const auto batch_with = [](size_t bad, double value, double bad_ts) {
    Matrix rows = Rows(300, 11);
    std::vector<double> ts(300);
    for (size_t i = 0; i < ts.size(); ++i) ts[i] = 150.0 + i;
    rows(bad, 3) = value;
    ts[bad] = bad_ts;
    return std::make_pair(rows, ts);
  };
  return {
      {"nan", StatusCode::kInvalidArgument,
       [=](auto& s) { return s.Update(row_with(kNaN), 150.0); }},
      {"inf", StatusCode::kInvalidArgument,
       [=](auto& s) { return s.Update(row_with(kInf), 150.0); }},
      {"huge", StatusCode::kInvalidArgument,
       [=](auto& s) { return s.Update(row_with(1e200), 150.0); }},
      {"wrong_dim", StatusCode::kInvalidArgument,
       [](auto& s) {
         return s.Update(std::vector<double>(kDim + 1, 1.0), 150.0);
       }},
      {"ts_before_now", StatusCode::kOutOfRange,
       [=](auto& s) { return s.Update(row_with(1.0), 100.0); }},
      {"nan_ts", StatusCode::kOutOfRange,
       [=](auto& s) { return s.Update(row_with(1.0), kNaN); }},
      {"advance_back", StatusCode::kOutOfRange,
       [](auto& s) { return s.AdvanceTo(s.now() - 1.0); }},
      {"advance_nan", StatusCode::kOutOfRange,
       [](auto& s) { return s.AdvanceTo(kNaN); }},
      {"batch_nan_row", StatusCode::kInvalidArgument,
       [=](auto& s) {
         const auto [rows, ts] = batch_with(150, kNaN, 300.0);
         return s.UpdateBatch(rows, ts);
       }},
      {"batch_ts_back", StatusCode::kOutOfRange,
       [=](auto& s) {
         const auto [rows, ts] = batch_with(150, 1.0, 10.0);
         return s.UpdateBatch(rows, ts);
       }},
      {"batch_ts_count", StatusCode::kInvalidArgument,
       [](auto& s) {
         const std::vector<double> ts(3, 150.0);
         return s.UpdateBatch(Rows(4, 12), ts);
       }},
      {"sparse_nan", StatusCode::kInvalidArgument,
       [](auto& s) {
         return s.UpdateSparse(SparseVector(kDim, {1, 5}, {kNaN, 1.0}),
                               150.0);
       }},
  };
}

class AdmissionTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AdmissionTest, EveryHostileInputHasOneOutcomeAndChangesNothing) {
  const Matrix good = Rows(300, 7);
  for (const HostileInput& input : HostileInputs()) {
    SCOPED_TRACE(input.name);
    auto sketch = Make(GetParam());
    auto twin = Make(GetParam());
    for (size_t i = 0; i < 150; ++i) {
      ASSERT_TRUE(sketch->Update(good.Row(i), i).ok());
      ASSERT_TRUE(twin->Update(good.Row(i), i).ok());
    }
    const State before = Observe(*sketch);
    Observe(*twin);  // Same call sequence on both, the bad call aside.
    EXPECT_EQ(input.call(*sketch).code(), input.code);
    ExpectSame(before, Observe(*sketch));
    Observe(*twin);
    for (size_t i = 150; i < good.rows(); ++i) {
      ASSERT_TRUE(sketch->Update(good.Row(i), i).ok());
      ASSERT_TRUE(twin->Update(good.Row(i), i).ok());
    }
    const State after = Observe(*sketch);
    ExpectSame(after, Observe(*twin));
    for (size_t i = 0; i < after.query.rows(); ++i) {
      for (double v : after.query.Row(i)) ASSERT_TRUE(std::isfinite(v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, AdmissionTest, ::testing::ValuesIn(Subjects()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(AdmissionTest, AmmOperandsOfTheWrongWidthAreRefused) {
  AmmExact amm(3, 2, WindowSpec::Sequence(10));
  const std::vector<double> a(3, 1.0), b(2, 1.0), wide(3, 1.0);
  EXPECT_EQ(amm.UpdatePair(a, wide, 0.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(amm.UpdatePairBatch(Matrix(2, 3), Matrix(1, 2), {{0.0, 1.0}})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(amm.RowsStored(), 0u);
  EXPECT_TRUE(amm.UpdatePair(a, b, 0.0).ok());
  EXPECT_EQ(amm.RowsStored(), 2u);
}

// The service applies the same rule before it touches a tenant: a
// malformed row rejects a whole keyed batch and creates no tenant; a
// timestamp only the tenant can judge rejects that tenant's group, after
// the groups before it.
TEST(AdmissionTest, TenantManagerRejectsBeforeTouchingTenants) {
  SketchConfig config;
  config.algorithm = "lm-fd";
  config.ell = 4;
  auto made = TenantManager::Make(4, WindowSpec::Sequence(50), config);
  ASSERT_TRUE(made.ok());
  TenantManager& manager = **made;
  const std::vector<double> ok(4, 1.0), bad{1.0, kNaN, 1.0, 1.0};
  const std::vector<double> narrow(3, 1.0);

  EXPECT_EQ(manager.Update(7, bad, 0.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.Update(7, narrow, 0.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.AdvanceTo(7, kNaN).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(manager.num_tenants(), 0u);

  std::vector<KeyedRow> batch{{1, 0.0, ok}, {2, 0.0, ok}, {3, 0.0, bad}};
  EXPECT_EQ(manager.UpdateKeyed(batch).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.num_tenants(), 0u);

  ASSERT_TRUE(manager.Update(2, ok, 5.0).ok());
  // Tenant 1's group goes in; tenant 2's row is before its clock, so its
  // group is refused whole and tenant 4's later group is not applied.
  batch = {{1, 0.0, ok}, {2, 6.0, ok}, {2, 4.0, ok}, {4, 0.0, ok}};
  const Status st = manager.UpdateKeyed(batch);
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
  EXPECT_NE(st.message().find("tenant 2"), std::string::npos);
  EXPECT_EQ(manager.Query(1)->rows(), 1u);
  EXPECT_EQ(manager.Query(2)->rows(), 1u);
  EXPECT_EQ(manager.Query(4)->rows(), 0u);
  EXPECT_EQ(manager.AdvanceTo(2, 4.0).code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace swsketch
