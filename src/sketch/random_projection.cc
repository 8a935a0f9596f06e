#include "sketch/random_projection.h"

#include <cmath>

#include "util/logging.h"

namespace swsketch {

RandomProjection::RandomProjection(size_t dim, size_t ell, uint64_t seed)
    : dim_(dim), b_(ell, dim), rng_(seed), scale_(1.0 / std::sqrt(
                                               static_cast<double>(ell))) {
  SWSKETCH_CHECK_GT(ell, 0u);
}

void RandomProjection::Append(std::span<const double> row, uint64_t) {
  SWSKETCH_CHECK_EQ(row.size(), dim_);
  const size_t ell = b_.rows();
  // Draw the sign column in 64-bit batches.
  uint64_t bits = 0;
  int available = 0;
  for (size_t i = 0; i < ell; ++i) {
    if (available == 0) {
      bits = rng_.Next();
      available = 64;
    }
    const double r = (bits & 1) ? scale_ : -scale_;
    bits >>= 1;
    --available;
    double* dst = b_.RowPtr(i);
    for (size_t j = 0; j < dim_; ++j) dst[j] += r * row[j];
  }
}

void RandomProjection::AppendBatch(const Matrix& m, size_t begin, size_t end,
                                   uint64_t /*first_id*/) {
  SWSKETCH_CHECK_LE(begin, end);
  SWSKETCH_CHECK_LE(end, m.rows());
  const size_t count = end - begin;
  if (count == 0) return;
  if (count == 1) {
    Append(m.Row(begin));
    return;
  }
  SWSKETCH_CHECK_EQ(m.cols(), dim_);
  const size_t ell = b_.rows();
  // One sign column per input row, drawn exactly as Append draws it (a
  // fresh 64-bit word batch per row, bits consumed LSB-first), laid out as
  // the columns of an ell x count block so the tiled kernel can apply all
  // rank-1 updates at once.
  Matrix s(ell, count);
  for (size_t c = 0; c < count; ++c) {
    uint64_t bits = 0;
    int available = 0;
    for (size_t i = 0; i < ell; ++i) {
      if (available == 0) {
        bits = rng_.Next();
        available = 64;
      }
      s(i, c) = (bits & 1) ? scale_ : -scale_;
      bits >>= 1;
      --available;
    }
  }
  b_.AddScaled(s.MultiplyRows(m, begin), 1.0);
}

void RandomProjection::AppendSparse(const SparseVector& row, uint64_t) {
  SWSKETCH_CHECK_EQ(row.dim(), dim_);
  const size_t ell = b_.rows();
  uint64_t bits = 0;
  int available = 0;
  for (size_t i = 0; i < ell; ++i) {
    if (available == 0) {
      bits = rng_.Next();
      available = 64;
    }
    const double r = (bits & 1) ? scale_ : -scale_;
    bits >>= 1;
    --available;
    row.AxpyInto({b_.RowPtr(i), dim_}, r);
  }
}

void RandomProjection::MergeWith(const RandomProjection& other) {
  SWSKETCH_CHECK(MergeableWith(other));
  b_.AddScaled(other.b_, 1.0);
}

namespace {
constexpr uint32_t kRpTag = 0x52500001;
}  // namespace

void RandomProjection::Serialize(ByteWriter* writer) const {
  WriteHeader(writer, kRpTag, 1);
  writer->Put<uint64_t>(dim_);
  rng_.Serialize(writer);
  b_.Serialize(writer);
}

Result<RandomProjection> RandomProjection::Deserialize(ByteReader* reader) {
  if (!CheckHeader(reader, kRpTag, 1)) {
    return Status::InvalidArgument("bad RandomProjection header");
  }
  uint64_t dim = 0;
  if (!reader->Get(&dim)) {
    return Status::InvalidArgument("corrupt RandomProjection payload");
  }
  Rng rng(0);
  if (!rng.Deserialize(reader)) {
    return Status::InvalidArgument("corrupt RandomProjection payload");
  }
  auto b = Matrix::Deserialize(reader);
  if (!b.ok()) return b.status();
  if (b->cols() != dim || b->rows() == 0 ||
      !std::isfinite(b->FrobeniusNormSq())) {
    return Status::InvalidArgument("corrupt RandomProjection payload");
  }
  RandomProjection rp(dim, b->rows(), 0);
  rp.rng_ = rng;
  rp.b_ = b.take();
  return rp;
}

}  // namespace swsketch
