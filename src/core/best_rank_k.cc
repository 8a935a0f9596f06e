#include "core/best_rank_k.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/subspace_iteration.h"
#include "util/logging.h"

namespace swsketch {

Matrix BestRankK::Query() {
  const size_t d = dim();
  Matrix b(0, d);
  if (buffer().empty()) return b;
  const Matrix gram = Covariance();
  const TopEigen top = TopEigenpairsPsd(gram, std::min(k_, d));
  for (size_t i = 0; i < top.values.size(); ++i) {
    const double lam = std::max(top.values[i], 0.0);
    if (lam <= 0.0) break;
    const double s = std::sqrt(lam);
    std::vector<double> row(d);
    for (size_t j = 0; j < d; ++j) row[j] = s * top.vectors(j, i);
    b.AppendRow(row);
  }
  return b;
}

double BestRankKError(const Matrix& gram, size_t k, double frob_sq) {
  return BestAndZeroError(gram, k, frob_sq).best_err;
}

ReferenceErrors BestAndZeroError(const Matrix& gram, size_t k,
                                 double frob_sq) {
  SWSKETCH_CHECK_GT(frob_sq, 0.0);
  ReferenceErrors out;
  const size_t want = std::min(k + 1, gram.rows());
  const TopEigen top = TopEigenpairsPsd(gram, want);
  out.zero_err = std::max(top.values.front(), 0.0) / frob_sq;
  // lambda_{k+1} is zero when k >= rank of the Gram matrix.
  out.best_err =
      k >= gram.rows() ? 0.0 : std::max(top.values.back(), 0.0) / frob_sq;
  return out;
}

}  // namespace swsketch
