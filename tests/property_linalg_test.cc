// Parameterized linear-algebra properties over a grid of shapes and
// seeds: decomposition identities that must hold for every input, and
// cross-solver consistency (the full tridiagonal-QL eigensolve, Lanczos
// and subspace iteration all agree on the same spectra).
#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/power_iteration.h"
#include "linalg/vector_ops.h"
#include "linalg/subspace_iteration.h"
#include "linalg/svd.h"
#include "linalg/tridiag_eigen.h"
#include "util/random.h"

namespace swsketch {
namespace {

Matrix RandomMatrix(size_t n, size_t d, uint64_t seed, double decay) {
  Rng rng(seed);
  Matrix m(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      m(i, j) = rng.Gaussian() / (1.0 + decay * static_cast<double>(j));
    }
  }
  return m;
}

class SvdShapeProperty
    : public ::testing::TestWithParam<
          std::tuple<size_t, size_t, uint64_t, double>> {};

TEST_P(SvdShapeProperty, DecompositionIdentities) {
  const auto [n, d, seed, decay] = GetParam();
  Matrix a = RandomMatrix(n, d, seed, decay);
  SvdResult svd = ThinSvd(a);

  // (1) Reconstruction: U diag(s) Vt == A.
  Matrix us = svd.u;
  for (size_t i = 0; i < us.rows(); ++i) {
    for (size_t c = 0; c < us.cols(); ++c) {
      us(i, c) *= svd.singular_values[c];
    }
  }
  const double scale = std::sqrt(a.FrobeniusNormSq()) + 1e-12;
  EXPECT_TRUE(us.Multiply(svd.vt).ApproxEquals(a, 1e-7 * scale))
      << "n=" << n << " d=" << d;

  // (2) Ordering and positivity.
  EXPECT_TRUE(std::is_sorted(svd.singular_values.rbegin(),
                             svd.singular_values.rend()));
  for (double s : svd.singular_values) EXPECT_GT(s, 0.0);

  // (3) Frobenius identity.
  double sum_sq = 0.0;
  for (double s : svd.singular_values) sum_sq += s * s;
  EXPECT_NEAR(sum_sq, a.FrobeniusNormSq(), 1e-7 * a.FrobeniusNormSq());

  // (4) Spectral norm consistency: sigma_1 == power-iteration estimate.
  if (!svd.singular_values.empty()) {
    EXPECT_NEAR(SpectralNorm(a), svd.singular_values[0],
                1e-4 * svd.singular_values[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdShapeProperty,
    ::testing::Combine(::testing::Values(3, 10, 40),     // n
                       ::testing::Values(4, 15, 60),     // d
                       ::testing::Values(1u, 2u),        // seed
                       ::testing::Values(0.0, 0.4)));    // spectrum decay

class EigenSolverConsistency
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(EigenSolverConsistency, AllSolversAgree) {
  const auto [n, seed] = GetParam();
  Matrix gram = RandomMatrix(n + 7, n, seed, 0.2).Gram();

  // Ground truth: the full eigensolve, itself held to its residual
  // ||G v_i - lambda_i v_i|| and to the trace.
  const SymmetricEigen full = SymmetricEigenSolve(gram);
  const double scale = std::max(full.eigenvalues[0], 1e-12);
  double trace = 0.0, sum = 0.0;
  std::vector<double> v(n), gv(n);
  for (size_t i = 0; i < n; ++i) {
    trace += gram(i, i);
    sum += full.eigenvalues[i];
    for (size_t r = 0; r < n; ++r) v[r] = full.eigenvectors(r, i);
    gram.Apply(v, gv);
    Axpy(-full.eigenvalues[i], v, gv);
    EXPECT_LE(Norm(gv), 1e-10 * scale) << "i=" << i;
  }
  EXPECT_NEAR(sum, trace, 1e-10 * scale * static_cast<double>(n));
  // Lanczos spectral norm == lambda_1.
  EXPECT_NEAR(SpectralNormSymmetric(gram), full.eigenvalues[0],
              1e-6 * scale);
  // Subspace iteration top-3 match.
  const TopEigen top = TopEigenpairsPsd(gram, std::min<size_t>(3, n));
  for (size_t i = 0; i < top.values.size(); ++i) {
    EXPECT_NEAR(top.values[i], full.eigenvalues[i], 1e-5 * scale);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSolverConsistency,
                         ::testing::Combine(::testing::Values(2, 6, 20, 48,
                                                              90),
                                            ::testing::Values(3u, 4u)));

class MatrixAlgebraProperty
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, uint64_t>> {
};

TEST_P(MatrixAlgebraProperty, GramAndTransposeIdentities) {
  const auto [n, d, seed] = GetParam();
  Matrix a = RandomMatrix(n, d, seed, 0.0);

  // Gram == A^T A == (A^T)(A) via Multiply.
  EXPECT_TRUE(a.Gram().ApproxEquals(a.Transpose().Multiply(a), 1e-9));
  // GramOuter == A A^T.
  EXPECT_TRUE(
      a.GramOuter().ApproxEquals(a.Multiply(a.Transpose()), 1e-9));
  // Double transpose.
  EXPECT_TRUE(a.Transpose().Transpose().ApproxEquals(a, 0.0));
  // trace(A^T A) == ||A||_F^2.
  Matrix g = a.Gram();
  double trace = 0.0;
  for (size_t j = 0; j < d; ++j) trace += g(j, j);
  EXPECT_NEAR(trace, a.FrobeniusNormSq(), 1e-9 * (1.0 + a.FrobeniusNormSq()));
  // Apply == row-by-row dot products.
  Rng rng(seed + 99);
  std::vector<double> x(d), y(n);
  for (auto& v : x) v = rng.Gaussian();
  a.Apply(x, y);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i], Dot(a.Row(i), x), 1e-10 * (1.0 + std::fabs(y[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatrixAlgebraProperty,
    ::testing::Combine(::testing::Values(1, 7, 23), ::testing::Values(1, 9, 31),
                       ::testing::Values(5u, 6u)));

}  // namespace
}  // namespace swsketch
