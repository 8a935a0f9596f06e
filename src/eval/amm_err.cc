#include "eval/amm_err.h"

#include <cmath>

#include "linalg/power_iteration.h"
#include "util/logging.h"

namespace swsketch {

double AmmError(const Matrix& exact_product, double frob_a_sq,
                double frob_b_sq, const Matrix& estimate) {
  SWSKETCH_CHECK_GT(frob_a_sq, 0.0);
  SWSKETCH_CHECK_GT(frob_b_sq, 0.0);
  Matrix diff = exact_product;
  if (!estimate.empty()) {
    SWSKETCH_CHECK_EQ(estimate.rows(), exact_product.rows());
    SWSKETCH_CHECK_EQ(estimate.cols(), exact_product.cols());
    auto data = diff.Data();
    const auto est = estimate.Data();
    for (size_t i = 0; i < data.size(); ++i) data[i] -= est[i];
  }
  return SpectralNorm(diff) / std::sqrt(frob_a_sq * frob_b_sq);
}

double AmmErrorBound(size_t ell, double frob_a_sq, double frob_b_sq,
                     double slack) {
  SWSKETCH_CHECK_GT(ell, 0u);
  SWSKETCH_CHECK_GT(frob_a_sq, 0.0);
  SWSKETCH_CHECK_GT(frob_b_sq, 0.0);
  return slack * (frob_a_sq + frob_b_sq) /
         (static_cast<double>(ell) * std::sqrt(frob_a_sq * frob_b_sq));
}

}  // namespace swsketch
