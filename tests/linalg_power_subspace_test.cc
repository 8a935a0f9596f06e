// Tests for power iteration (spectral norms) and subspace iteration
// (top-k eigenpairs).
#include <cmath>

#include <gtest/gtest.h>

#include "linalg/power_iteration.h"
#include "linalg/subspace_iteration.h"
#include "linalg/tridiag_eigen.h"
#include "util/random.h"

namespace swsketch {
namespace {

Matrix RandomSymmetric(size_t n, uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      const double v = rng.Gaussian();
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

Matrix RandomPsd(size_t n, size_t inner, uint64_t seed) {
  Rng rng(seed);
  Matrix a(inner, n);
  for (size_t i = 0; i < inner; ++i) {
    for (size_t j = 0; j < n; ++j) a(i, j) = rng.Gaussian();
  }
  return a.Gram();
}

TEST(PowerIterationTest, DiagonalSpectralNorm) {
  Matrix m{{5, 0}, {0, -9}};  // Indefinite: largest |lambda| = 9.
  EXPECT_NEAR(SpectralNormSymmetric(m), 9.0, 1e-6);
}

TEST(PowerIterationTest, MatchesFullEigensolveOnRandomSymmetric) {
  Matrix m = RandomSymmetric(30, 1);
  SymmetricEigen eig = SymmetricEigenSolve(m);
  double expected = 0.0;
  for (double l : eig.eigenvalues) expected = std::max(expected, std::fabs(l));
  EXPECT_NEAR(SpectralNormSymmetric(m), expected, 1e-5 * expected);
}

TEST(PowerIterationTest, ZeroMatrix) {
  EXPECT_EQ(SpectralNormSymmetric(Matrix(5, 5)), 0.0);
  EXPECT_EQ(SpectralNormSymmetric(Matrix()), 0.0);
}

TEST(PowerIterationTest, GeneralMatrixLargestSingularValue) {
  Rng rng(2);
  Matrix a(12, 20);
  for (size_t i = 0; i < 12; ++i) {
    for (size_t j = 0; j < 20; ++j) a(i, j) = rng.Gaussian();
  }
  // Reference: sqrt of largest eigenvalue of A A^T (full eigensolve).
  SymmetricEigen eig = SymmetricEigenSolve(a.GramOuter());
  const double expected = std::sqrt(eig.eigenvalues[0]);
  EXPECT_NEAR(SpectralNorm(a), expected, 1e-5 * expected);
}

TEST(PowerIterationTest, NearTieStillConverges) {
  // Eigenvalues +1 and -1 + small gap: the ||Mx|| estimate (power
  // iteration on M^2) converges despite the sign tie.
  Matrix m{{1.0, 0.0}, {0.0, -0.999}};
  EXPECT_NEAR(SpectralNormSymmetric(m), 1.0, 1e-3);
}

TEST(SubspaceIterationTest, TopEigenvaluesMatchFullEigensolve) {
  Matrix m = RandomPsd(40, 50, 3);
  SymmetricEigen full = SymmetricEigenSolve(m);
  TopEigen top = TopEigenpairsPsd(m, 5);
  ASSERT_EQ(top.values.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(top.values[i], full.eigenvalues[i],
                1e-6 * std::max(1.0, full.eigenvalues[i]))
        << "eigenvalue " << i;
  }
}

TEST(SubspaceIterationTest, VectorsAreEigenvectors) {
  Matrix m = RandomPsd(25, 30, 4);
  TopEigen top = TopEigenpairsPsd(m, 3);
  std::vector<double> v(25), mv(25);
  for (size_t c = 0; c < 3; ++c) {
    for (size_t i = 0; i < 25; ++i) v[i] = top.vectors(i, c);
    m.Apply(v, mv);
    // M v ~ lambda v.
    for (size_t i = 0; i < 25; ++i) {
      EXPECT_NEAR(mv[i], top.values[c] * v[i], 1e-5 * std::fabs(top.values[c]) + 1e-7);
    }
  }
}

TEST(SubspaceIterationTest, OrthonormalVectors) {
  Matrix m = RandomPsd(20, 22, 5);
  TopEigen top = TopEigenpairsPsd(m, 4);
  for (size_t a = 0; a < 4; ++a) {
    for (size_t b = 0; b < 4; ++b) {
      double dot = 0.0;
      for (size_t i = 0; i < 20; ++i) {
        dot += top.vectors(i, a) * top.vectors(i, b);
      }
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-7);
    }
  }
}

TEST(SubspaceIterationTest, KClampedToDimension) {
  Matrix m = RandomPsd(6, 10, 6);
  TopEigen top = TopEigenpairsPsd(m, 50);
  EXPECT_EQ(top.values.size(), 6u);
}

TEST(SubspaceIterationTest, LowRankMatrixTrailingZeros) {
  Matrix m = RandomPsd(15, 3, 7);  // Rank 3 PSD.
  TopEigen top = TopEigenpairsPsd(m, 6);
  for (size_t i = 3; i < 6; ++i) {
    EXPECT_NEAR(top.values[i], 0.0, 1e-6 * top.values[0]);
  }
}

TEST(OrthonormalizeColumnsTest, ProducesOrthonormalBasis) {
  Rng rng(8);
  Matrix q(10, 4);
  for (size_t i = 0; i < 10; ++i) {
    for (size_t j = 0; j < 4; ++j) q(i, j) = rng.Gaussian();
  }
  OrthonormalizeColumns(&q, 1);
  for (size_t a = 0; a < 4; ++a) {
    for (size_t b = 0; b < 4; ++b) {
      double dot = 0.0;
      for (size_t i = 0; i < 10; ++i) dot += q(i, a) * q(i, b);
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST(OrthonormalizeColumnsTest, RepairsDependentColumns) {
  Matrix q(8, 3);
  for (size_t i = 0; i < 8; ++i) {
    q(i, 0) = 1.0;
    q(i, 1) = 2.0;  // Parallel to column 0.
    q(i, 2) = static_cast<double>(i);
  }
  OrthonormalizeColumns(&q, 2);
  for (size_t a = 0; a < 3; ++a) {
    for (size_t b = 0; b < 3; ++b) {
      double dot = 0.0;
      for (size_t i = 0; i < 8; ++i) dot += q(i, a) * q(i, b);
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-9);
    }
  }
}

}  // namespace
}  // namespace swsketch
