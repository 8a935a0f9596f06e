// Tests for SymmetricEigenSolve, the Householder tridiagonalization + QL
// symmetric eigensolver: closed-form cases, residual checks
// (||S V - V Lambda||, ||V^T V - I||, descending order) across sizes, an
// extreme-input sweep and the non-finite-input contract.
#include "linalg/tridiag_eigen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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

Matrix Reconstruct(const SymmetricEigen& eig) {
  const size_t n = eig.eigenvalues.size();
  Matrix m(n, n);
  for (size_t c = 0; c < n; ++c) {
    std::vector<double> v(n);
    for (size_t r = 0; r < n; ++r) v[r] = eig.eigenvectors(r, c);
    m.AddOuterProduct(v, eig.eigenvalues[c]);
  }
  return m;
}

double MaxAbs(const Matrix& m) {
  double out = 0.0;
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      out = std::max(out, std::fabs(m(i, j)));
    }
  }
  return out;
}

// Largest entries of S V - V Lambda (relative to max |S_ij|) and of
// V^T V - I. Max-abs norms, so entries near 1e+-150 neither overflow nor
// underflow.
struct Residuals {
  double eigen = 0.0;
  double orthonormal = 0.0;
};

Residuals ComputeResiduals(const Matrix& s, const SymmetricEigen& eig) {
  const size_t n = s.rows();
  const Matrix& v = eig.eigenvectors;
  const double scale = MaxAbs(s);
  Residuals out;
  for (size_t c = 0; c < n; ++c) {
    for (size_t r = 0; r < n; ++r) {
      double sv = 0.0;
      for (size_t k = 0; k < n; ++k) sv += s(r, k) * v(k, c);
      const double diff = std::fabs(sv - eig.eigenvalues[c] * v(r, c));
      out.eigen = std::max(out.eigen, scale > 0.0 ? diff / scale : diff);
    }
    for (size_t b = 0; b < n; ++b) {
      double dot = 0.0;
      for (size_t r = 0; r < n; ++r) dot += v(r, c) * v(r, b);
      out.orthonormal =
          std::max(out.orthonormal, std::fabs(dot - (c == b ? 1.0 : 0.0)));
    }
  }
  return out;
}

void ExpectValidEigen(const Matrix& s, const SymmetricEigen& eig,
                      double tol, const std::string& label) {
  const size_t n = s.rows();
  ASSERT_EQ(eig.eigenvalues.size(), n) << label;
  ASSERT_EQ(eig.eigenvectors.rows(), n) << label;
  ASSERT_EQ(eig.eigenvectors.cols(), n) << label;
  for (double l : eig.eigenvalues) ASSERT_TRUE(std::isfinite(l)) << label;
  for (double x : eig.eigenvectors.Data()) {
    ASSERT_TRUE(std::isfinite(x)) << label;
  }
  EXPECT_TRUE(std::is_sorted(eig.eigenvalues.rbegin(), eig.eigenvalues.rend()))
      << label;
  const Residuals res = ComputeResiduals(s, eig);
  EXPECT_LE(res.eigen, tol * static_cast<double>(n)) << label;
  EXPECT_LE(res.orthonormal, tol * static_cast<double>(n)) << label;
}

TEST(SymmetricEigenSolveTest, DiagonalMatrix) {
  Matrix m{{3, 0, 0}, {0, 1, 0}, {0, 0, 2}};
  SymmetricEigen eig = SymmetricEigenSolve(m);
  EXPECT_NEAR(eig.eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[1], 2.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[2], 1.0, 1e-12);
}

TEST(SymmetricEigenSolveTest, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  Matrix m{{2, 1}, {1, 2}};
  SymmetricEigen eig = SymmetricEigenSolve(m);
  EXPECT_NEAR(eig.eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[1], 1.0, 1e-12);
  // Eigenvector of 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::fabs(eig.eigenvectors(0, 0)), std::sqrt(0.5), 1e-10);
  EXPECT_NEAR(std::fabs(eig.eigenvectors(1, 0)), std::sqrt(0.5), 1e-10);
}

TEST(SymmetricEigenSolveTest, TraceIsPreserved) {
  Matrix m = RandomSymmetric(25, 4);
  double trace = 0.0;
  for (size_t i = 0; i < 25; ++i) trace += m(i, i);
  SymmetricEigen eig = SymmetricEigenSolve(m);
  double sum = 0.0;
  for (double l : eig.eigenvalues) sum += l;
  EXPECT_NEAR(sum, trace, 1e-9);
}

TEST(SymmetricEigenSolveTest, ToleratesSlightAsymmetry) {
  Matrix m = RandomSymmetric(6, 6);
  m(0, 1) += 1e-13;  // Tiny asymmetry, as from accumulated fp error.
  SymmetricEigen eig = SymmetricEigenSolve(m);
  EXPECT_EQ(eig.eigenvalues.size(), 6u);
  EXPECT_TRUE(Reconstruct(eig).ApproxEquals(m, 1e-9));
}

TEST(SymmetricEigenSolveTest, OneByOne) {
  Matrix m{{7}};
  SymmetricEigen eig = SymmetricEigenSolve(m);
  EXPECT_DOUBLE_EQ(eig.eigenvalues[0], 7.0);
  EXPECT_DOUBLE_EQ(eig.eigenvectors(0, 0), 1.0);
}

TEST(SymmetricEigenSolveTest, ReconstructsMatrix) {
  Matrix m = RandomSymmetric(33, 7);
  EXPECT_TRUE(Reconstruct(SymmetricEigenSolve(m)).ApproxEquals(m, 1e-9));
}

TEST(SymmetricEigenSolveTest, PsdStaysNonNegative) {
  SymmetricEigen eig = SymmetricEigenSolve(RandomPsd(40, 60, 10));
  for (double l : eig.eigenvalues) EXPECT_GE(l, -1e-8);
}

TEST(SymmetricEigenSolveTest, SmallSizesAndEdgeCases) {
  Matrix diag{{2, 0, 0}, {0, 3, 0}, {0, 0, 1}};
  SymmetricEigen ed = SymmetricEigenSolve(diag);
  EXPECT_NEAR(ed.eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(ed.eigenvalues[2], 1.0, 1e-12);

  SymmetricEigen ez = SymmetricEigenSolve(Matrix(4, 4));
  for (double l : ez.eigenvalues) EXPECT_EQ(l, 0.0);

  SymmetricEigen empty = SymmetricEigenSolve(Matrix());
  EXPECT_TRUE(empty.eigenvalues.empty());
  EXPECT_EQ(empty.eigenvectors.rows(), 0u);
}

TEST(SymmetricEigenSolveTest, RepeatedEigenvalues) {
  Matrix m = Matrix::Identity(6);
  m.Scale(3.0);
  SymmetricEigen eig = SymmetricEigenSolve(m);
  for (double l : eig.eigenvalues) EXPECT_NEAR(l, 3.0, 1e-12);
  EXPECT_TRUE(Reconstruct(eig).ApproxEquals(m, 1e-10));
}

TEST(SymmetricEigenSolveTest, LowRankMatrix) {
  Matrix m = RandomPsd(30, 4, 11);  // Rank 4.
  SymmetricEigen eig = SymmetricEigenSolve(m);
  for (size_t i = 4; i < 30; ++i) {
    EXPECT_NEAR(eig.eigenvalues[i], 0.0, 1e-8 * eig.eigenvalues[0]);
  }
  EXPECT_TRUE(Reconstruct(eig).ApproxEquals(m, 1e-8));
}

TEST(SymmetricEigenSolveTest, ResidualsAcrossSizes) {
  // Indefinite and PSD inputs on both sides of every size the FD shrink,
  // DS-FD and the Lanczos tridiagonal hand the solver.
  for (size_t n : {1u, 2u, 8u, 32u, 33u, 100u}) {
    const Matrix sym = RandomSymmetric(n, 100 + n);
    ExpectValidEigen(sym, SymmetricEigenSolve(sym), 1e-13,
                     "symmetric n=" + std::to_string(n));
    const Matrix psd = RandomPsd(n, n + 10, 200 + n);
    ExpectValidEigen(psd, SymmetricEigenSolve(psd), 1e-13,
                     "psd n=" + std::to_string(n));
  }
}

TEST(SymmetricEigenSolveTest, ScratchOverloadMatchesValueOverload) {
  // One scratch cycled through growing and shrinking sizes gives the same
  // bytes as a fresh solve every time.
  SymmetricEigenScratch scratch;
  for (size_t n : {33u, 8u, 100u, 2u, 32u, 1u}) {
    const Matrix m = RandomPsd(n, n + 3, 300 + n);
    const SymmetricEigen fresh = SymmetricEigenSolve(m);
    const SymmetricEigen& reused = SymmetricEigenSolve(m, &scratch);
    ASSERT_EQ(reused.eigenvalues, fresh.eigenvalues) << "n=" << n;
    ASSERT_EQ(reused.eigenvectors.MaxAbsDiff(fresh.eigenvectors), 0.0)
        << "n=" << n;
  }
}

// Matrix families that stress the QL convergence test: random symmetric,
// PSD of low and full rank, graded diagonals spanning 12 decades, clusters
// of near-equal eigenvalues, a block 1e-305 below the rest and exact
// zeros, each at overall scales from 1e-300 to 1e300 (past the solver's
// safe range at both ends, and into the subnormals for the split block).
Matrix ExtremeInput(size_t n, int family, double scale, Rng* rng) {
  Matrix m(n, n);
  switch (family) {
    case 0:  // Random symmetric.
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = i; j < n; ++j) m(i, j) = m(j, i) = rng->Gaussian();
      }
      break;
    case 1: {  // Low-rank PSD.
      const size_t rank = 1 + n / 4;
      Matrix a(rank, n);
      for (size_t i = 0; i < rank; ++i) {
        for (size_t j = 0; j < n; ++j) a(i, j) = rng->Gaussian();
      }
      m = a.Gram();
      break;
    }
    case 2:  // Graded: entries scaled by 10^(-12 i / n) 10^(-12 j / n).
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = i; j < n; ++j) {
          const double gi = std::pow(10.0, -12.0 * static_cast<double>(i) /
                                               static_cast<double>(n));
          const double gj = std::pow(10.0, -12.0 * static_cast<double>(j) /
                                               static_cast<double>(n));
          m(i, j) = m(j, i) = rng->Gaussian() * gi * gj;
        }
      }
      break;
    case 3:  // Near-degenerate: identity plus a 1e-10 symmetric nudge.
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = i; j < n; ++j) {
          m(i, j) = m(j, i) = (i == j ? 1.0 : 0.0) + 1e-10 * rng->Gaussian();
        }
      }
      break;
    case 4:  // Split: a trailing diagonal block 1e-305 below the rest.
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = i; j < n; ++j) {
          const bool tiny_i = 2 * i >= n, tiny_j = 2 * j >= n;
          const double g = rng->Gaussian();
          m(i, j) = m(j, i) = tiny_i != tiny_j ? 0.0 : tiny_j ? 1e-305 * g : g;
        }
      }
      break;
    default:  // Zero matrix.
      break;
  }
  m.Scale(scale);
  return m;
}

TEST(SymmetricEigenSolveTest, ExtremeInputSweepConverges) {
  // 3 696 deterministic matrices cycling through sizes, families and
  // scales: QL converges on every one with finite, descending eigenvalues
  // and orthonormal eigenvectors.
  const size_t sizes[] = {1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 32, 33, 48, 64};
  const double scales[] = {1e-300, 1e-160, 1e-150, 1e-75, 1e-8, 1.0,
                           1e8,    1e75,   1e150,  1e160, 1e300};
  Rng rng(2024);
  SymmetricEigenScratch scratch;
  for (size_t t = 0; t < 3696; ++t) {
    const size_t n = sizes[t % 14];
    const int family = static_cast<int>((t / 14) % 6);
    const double scale = scales[(t / 84) % 11];
    const Matrix m = ExtremeInput(n, family, scale, &rng);
    char label[96];
    std::snprintf(label, sizeof(label), "t=%zu n=%zu family=%d scale=%g", t,
                  n, family, scale);
    ExpectValidEigen(m, SymmetricEigenSolve(m, &scratch), 1e-12, label);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SymmetricEigenSolveTest, NanInputGivesNonFiniteEigenvaluesWithoutAbort) {
  SymmetricEigenScratch scratch;
  for (size_t n : {1u, 2u, 8u, 33u}) {
    Matrix m = RandomSymmetric(n, 400 + n);
    m(n - 1, 0) = m(0, n - 1) = std::numeric_limits<double>::quiet_NaN();
    const SymmetricEigen& eig = SymmetricEigenSolve(m, &scratch);
    ASSERT_EQ(eig.eigenvalues.size(), n);
    for (double l : eig.eigenvalues) {
      EXPECT_FALSE(std::isfinite(l)) << "n=" << n;
    }
    // The scratch is not poisoned: the next finite solve is exact again.
    const Matrix clean = RandomSymmetric(n, 500 + n);
    ExpectValidEigen(clean, SymmetricEigenSolve(clean, &scratch), 1e-13,
                     "after NaN n=" + std::to_string(n));
  }
}

}  // namespace
}  // namespace swsketch
