#include "linalg/subspace_iteration.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/tridiag_eigen.h"
#include "linalg/vector_ops.h"
#include "util/logging.h"
#include "util/random.h"

namespace swsketch {

void OrthonormalizeColumns(Matrix* q, uint64_t seed) {
  const size_t n = q->rows();
  const size_t k = q->cols();
  Rng rng(seed);
  std::vector<double> col(n);
  for (size_t c = 0; c < k; ++c) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      for (size_t i = 0; i < n; ++i) col[i] = (*q)(i, c);
      // Two rounds of MGS projection for numerical robustness.
      for (int round = 0; round < 2; ++round) {
        for (size_t p = 0; p < c; ++p) {
          double dot = 0.0;
          for (size_t i = 0; i < n; ++i) dot += col[i] * (*q)(i, p);
          for (size_t i = 0; i < n; ++i) col[i] -= dot * (*q)(i, p);
        }
      }
      const double norm = Norm(col);
      if (norm > 1e-12) {
        for (size_t i = 0; i < n; ++i) (*q)(i, c) = col[i] / norm;
        break;
      }
      // Degenerate column: replace with a random direction and retry.
      for (size_t i = 0; i < n; ++i) col[i] = rng.Gaussian();
      for (size_t i = 0; i < n; ++i) (*q)(i, c) = col[i];
    }
  }
}

TopEigen TopEigenpairsPsd(const Matrix& m, size_t k,
                          const SubspaceOptions& options) {
  SWSKETCH_CHECK_EQ(m.rows(), m.cols());
  const size_t n = m.rows();
  SWSKETCH_CHECK_GT(k, 0u);
  k = std::min(k, n);
  const size_t b = std::min(n, k + options.oversample);

  Rng rng(options.seed);
  Matrix q(n, b);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < b; ++c) q(i, c) = rng.Gaussian();
  }
  OrthonormalizeColumns(&q, options.seed ^ 0x5555);

  std::vector<double> prev(k, 0.0);
  std::vector<double> x(n), y(n);
  Matrix z(n, b);
  TopEigen out;
  for (int it = 0; it < options.max_iters; ++it) {
    // Z = M Q, column by column.
    for (size_t c = 0; c < b; ++c) {
      for (size_t i = 0; i < n; ++i) x[i] = q(i, c);
      m.Apply(x, y);
      for (size_t i = 0; i < n; ++i) z(i, c) = y[i];
    }
    q = z;
    OrthonormalizeColumns(&q, options.seed + static_cast<uint64_t>(it));

    // Rayleigh-Ritz: T = Q^T M Q (b x b), eigendecompose, rotate Q.
    Matrix mq(n, b);
    for (size_t c = 0; c < b; ++c) {
      for (size_t i = 0; i < n; ++i) x[i] = q(i, c);
      m.Apply(x, y);
      for (size_t i = 0; i < n; ++i) mq(i, c) = y[i];
    }
    Matrix t(b, b);
    for (size_t a = 0; a < b; ++a) {
      for (size_t c = a; c < b; ++c) {
        double s = 0.0;
        for (size_t i = 0; i < n; ++i) s += q(i, a) * mq(i, c);
        t(a, c) = s;
        t(c, a) = s;
      }
    }
    const SymmetricEigen ritz = SymmetricEigenSolve(t);

    bool converged = true;
    for (size_t c = 0; c < k; ++c) {
      const double lam = ritz.eigenvalues[c];
      if (std::fabs(lam - prev[c]) >
          options.rel_tol * std::max(std::fabs(lam), 1e-300)) {
        converged = false;
      }
      prev[c] = lam;
    }

    if (converged || it + 1 == options.max_iters) {
      out.values.assign(prev.begin(), prev.begin() + k);
      // Rotate: vectors = Q * Ritz_vectors[:, :k].
      out.vectors = Matrix(n, k);
      for (size_t i = 0; i < n; ++i) {
        for (size_t c = 0; c < k; ++c) {
          double s = 0.0;
          for (size_t a = 0; a < b; ++a) {
            s += q(i, a) * ritz.eigenvectors(a, c);
          }
          out.vectors(i, c) = s;
        }
      }
      break;
    }
  }
  return out;
}

}  // namespace swsketch
