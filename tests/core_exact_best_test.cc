// Tests for the exact window tracker and the BEST(offline) reference.
#include <cmath>

#include <gtest/gtest.h>

#include "core/best_rank_k.h"
#include "core/exact_window.h"
#include "eval/cov_err.h"
#include "linalg/tridiag_eigen.h"
#include "util/random.h"

namespace swsketch {
namespace {

std::vector<double> RandomRow(Rng* rng, size_t d) {
  std::vector<double> r(d);
  for (auto& v : r) v = rng->Gaussian();
  return r;
}

TEST(ExactWindowTest, ZeroErrorAlways) {
  const size_t d = 5, w = 50;
  ExactWindow sketch(d, WindowSpec::Sequence(w));
  WindowBuffer buffer(WindowSpec::Sequence(w));
  Rng rng(1);
  for (int i = 0; i < 300; ++i) {
    auto row = RandomRow(&rng, d);
    sketch.Update(row, i);
    buffer.Add(Row(row, i));
  }
  const double err = CovarianceError(buffer.GramMatrix(d),
                                     buffer.FrobeniusNormSq(), sketch.Query());
  EXPECT_NEAR(err, 0.0, 1e-10);
}

TEST(ExactWindowTest, StorageIsLinearInWindow) {
  // The operational content of Theorem 4.1: exactness costs Theta(N) rows.
  ExactWindow sketch(3, WindowSpec::Sequence(200));
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) sketch.Update(RandomRow(&rng, 3), i);
  EXPECT_EQ(sketch.RowsStored(), 200u);
}

TEST(ExactWindowTest, CovarianceMatchesBuffer) {
  ExactWindow sketch(4, WindowSpec::Sequence(30));
  Rng rng(3);
  Matrix manual(0, 4);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 100; ++i) {
    auto row = RandomRow(&rng, 4);
    rows.push_back(row);
    sketch.Update(row, i);
  }
  for (int i = 70; i < 100; ++i) manual.AppendRow(rows[i]);
  EXPECT_TRUE(sketch.Covariance().ApproxEquals(manual.Gram(), 1e-10));
}

TEST(BestRankKTest, ErrorIsLambdaKPlusOne) {
  const size_t d = 8, w = 60;
  BestRankK best(d, WindowSpec::Sequence(w), 3);
  WindowBuffer buffer(WindowSpec::Sequence(w));
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    auto row = RandomRow(&rng, d);
    best.Update(row, i);
    buffer.Add(Row(row, i));
  }
  const Matrix gram = buffer.GramMatrix(d);
  const double frob_sq = buffer.FrobeniusNormSq();
  const double err = CovarianceError(gram, frob_sq, best.Query());
  // Optimal error = lambda_4 / frob^2 (full eigensolve reference).
  const SymmetricEigen eig = SymmetricEigenSolve(gram);
  EXPECT_NEAR(err, eig.eigenvalues[3] / frob_sq, 1e-6);
}

TEST(BestRankKTest, BestErrorHelperMatchesFullEigensolve) {
  Rng rng(5);
  Matrix a(50, 6);
  for (size_t i = 0; i < 50; ++i) {
    for (size_t j = 0; j < 6; ++j) a(i, j) = rng.Gaussian();
  }
  const Matrix gram = a.Gram();
  const double frob_sq = a.FrobeniusNormSq();
  const SymmetricEigen eig = SymmetricEigenSolve(gram);
  for (size_t k : {1u, 2u, 4u}) {
    EXPECT_NEAR(BestRankKError(gram, k, frob_sq),
                eig.eigenvalues[k] / frob_sq, 1e-7)
        << "k=" << k;
  }
}

TEST(BestRankKTest, KAboveRankGivesZeroError) {
  Matrix gram(4, 4);
  gram(0, 0) = 5.0;  // Rank 1.
  EXPECT_NEAR(BestRankKError(gram, 3, 5.0), 0.0, 1e-9);
  EXPECT_EQ(BestRankKError(gram, 4, 5.0), 0.0);
}

TEST(BestRankKTest, BeatsAnyKRowSketchOnSpikedData) {
  // Optimality: on data with a clear top-k subspace, BEST's error at k is
  // no larger than a same-size FD approximation's.
  const size_t d = 10, w = 100, k = 4;
  BestRankK best(d, WindowSpec::Sequence(w), k);
  WindowBuffer buffer(WindowSpec::Sequence(w));
  Rng rng(6);
  for (int i = 0; i < 300; ++i) {
    auto row = RandomRow(&rng, d);
    for (size_t j = 0; j < k; ++j) row[j] *= 6.0;  // Spiked directions.
    best.Update(row, i);
    buffer.Add(Row(row, i));
  }
  const Matrix gram = buffer.GramMatrix(d);
  const double frob_sq = buffer.FrobeniusNormSq();
  const double best_err = CovarianceError(gram, frob_sq, best.Query());
  EXPECT_LT(best_err, 0.1);
}

}  // namespace
}  // namespace swsketch
