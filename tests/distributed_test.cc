// Tests for the distributed sketching extension (Section 9 future work):
// max-stable distributed SWR. FD merge and stacked window queries are
// covered through core/merge_reduce in sharded_sketch_test.
#include "distributed/distributed.h"

#include <memory>

#include <gtest/gtest.h>

#include "stream/window_buffer.h"
#include "util/random.h"

namespace swsketch {
namespace {

std::vector<double> RandomRow(Rng* rng, size_t d) {
  std::vector<double> r(d);
  for (auto& v : r) v = rng->Gaussian();
  return r;
}

TEST(DistributedSwrTest, QueryMatchesStructure) {
  const size_t d = 6, ell = 8, workers = 3;
  std::vector<std::unique_ptr<SwrSketch>> owned;
  std::vector<SwrSketch*> ptrs;
  for (size_t w = 0; w < workers; ++w) {
    owned.push_back(std::make_unique<SwrSketch>(
        d, WindowSpec::Sequence(200),
        SwrSketch::Options{.ell = ell, .exact_frobenius = true,
                           .seed = 100 + w}));
    ptrs.push_back(owned.back().get());
  }
  DistributedSwr coordinator(ptrs);
  Rng rng(4);
  for (int i = 0; i < 900; ++i) {
    coordinator.Update(i % workers, RandomRow(&rng, d), i / workers);
  }
  Matrix b = coordinator.Query();
  EXPECT_EQ(b.rows(), ell);  // One union sample per slot.
  EXPECT_GT(coordinator.RowsStored(), ell);
  EXPECT_EQ(coordinator.num_workers(), workers);
}

TEST(DistributedSwrTest, FrobeniusOfUnionPreserved) {
  // With exact trackers, sum over sampled ||b_i||^2 = union ||A||_F^2.
  const size_t d = 5, ell = 10;
  std::vector<std::unique_ptr<SwrSketch>> owned;
  std::vector<SwrSketch*> ptrs;
  for (size_t w = 0; w < 2; ++w) {
    owned.push_back(std::make_unique<SwrSketch>(
        d, WindowSpec::Sequence(100),
        SwrSketch::Options{.ell = ell, .exact_frobenius = true,
                           .seed = 7 + w}));
    ptrs.push_back(owned.back().get());
  }
  DistributedSwr coordinator(ptrs);
  WindowBuffer b1(WindowSpec::Sequence(100)), b2(WindowSpec::Sequence(100));
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    auto row = RandomRow(&rng, d);
    coordinator.Update(i % 2, row, i / 2);
    ((i % 2) ? b2 : b1).Add(Row(row, i / 2));
  }
  const double union_frob = b1.FrobeniusNormSq() + b2.FrobeniusNormSq();
  EXPECT_NEAR(coordinator.Query().FrobeniusNormSq(), union_frob,
              1e-9 * union_frob);
}

TEST(DistributedSwrTest, HeavyWorkerDominatesSampling) {
  // One worker's sub-stream carries almost all mass: union samples should
  // almost always come from it (coordinate signature check).
  const size_t d = 4, ell = 16;
  std::vector<std::unique_ptr<SwrSketch>> owned;
  std::vector<SwrSketch*> ptrs;
  for (size_t w = 0; w < 2; ++w) {
    owned.push_back(std::make_unique<SwrSketch>(
        d, WindowSpec::Sequence(100),
        SwrSketch::Options{.ell = ell, .exact_frobenius = true,
                           .seed = 20 + w}));
    ptrs.push_back(owned.back().get());
  }
  DistributedSwr coordinator(ptrs);
  Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> light{0.01 * rng.Gaussian(), 0, 0, 0};
    std::vector<double> heavy{0, 0, 0, 10.0 + rng.Gaussian()};
    if (NormSq(light) == 0.0) light[0] = 0.01;
    coordinator.Update(0, light, i);
    coordinator.Update(1, heavy, i);
  }
  Matrix b = coordinator.Query();
  size_t from_heavy = 0;
  for (size_t i = 0; i < b.rows(); ++i) {
    if (b(i, 3) != 0.0) ++from_heavy;
  }
  EXPECT_GE(from_heavy, b.rows() - 1);
}

TEST(DistributedSwrTest, UpdateRejectsOutOfRangeWorkerIndex) {
  // Routing indices are caller data, not a trusted invariant; an
  // out-of-range worker must be refused, not scribble memory.
  SwrSketch a(4, WindowSpec::Sequence(10), SwrSketch::Options{.ell = 4});
  std::vector<SwrSketch*> ptrs{&a};
  DistributedSwr coordinator(ptrs);
  std::vector<double> row{1.0, 0.0, 0.0, 0.0};
  EXPECT_EQ(coordinator.Update(1, row, 0.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(coordinator.RowsStored(), 0u);
}

TEST(DistributedSwrTest, TimestampFoldingServesCurrentWindow) {
  // Update folds every ts into now_, so Query() serves the *current*
  // union window without an explicit AdvanceTo heartbeat: rows a stale
  // worker contributed before the window slid past them must be expired
  // at query time even though that worker saw no further updates.
  const size_t d = 4, ell = 8;
  std::vector<std::unique_ptr<SwrSketch>> owned;
  std::vector<SwrSketch*> ptrs;
  for (size_t w = 0; w < 2; ++w) {
    owned.push_back(std::make_unique<SwrSketch>(
        d, WindowSpec::Time(10.0),
        SwrSketch::Options{.ell = ell, .exact_frobenius = true,
                           .seed = 40 + w}));
    ptrs.push_back(owned.back().get());
  }
  DistributedSwr coordinator(ptrs);
  // Worker 0: coordinate-0 rows at early timestamps only.
  for (int i = 0; i < 20; ++i) {
    coordinator.Update(0, std::vector<double>{1.0, 0, 0, 0}, 0.1 * i);
  }
  // Worker 1: coordinate-3 rows far past worker 0's window.
  for (int i = 0; i < 20; ++i) {
    coordinator.Update(1, std::vector<double>{0, 0, 0, 1.0}, 100.0 + 0.1 * i);
  }
  const Matrix b = coordinator.Query();
  ASSERT_GT(b.rows(), 0u);
  for (size_t i = 0; i < b.rows(); ++i) {
    EXPECT_EQ(b(i, 0), 0.0);  // No expired worker-0 row survives.
    EXPECT_NE(b(i, 3), 0.0);
  }
}

TEST(DistributedSwrTest, MismatchedWorkersRejected) {
  SwrSketch a(4, WindowSpec::Sequence(10), SwrSketch::Options{.ell = 4});
  SwrSketch b(4, WindowSpec::Sequence(10), SwrSketch::Options{.ell = 8});
  std::vector<SwrSketch*> ptrs{&a, &b};
  EXPECT_DEATH(DistributedSwr coordinator(ptrs), "");
}

}  // namespace
}  // namespace swsketch
