#include "sketch/hash_sketch.h"

#include <cmath>

#include "util/logging.h"
#include "util/random.h"

namespace swsketch {

HashFamily::HashFamily(uint64_t seed) {
  Rng rng(seed);
  a1_ = rng.Next() | 1;  // Odd multipliers.
  a2_ = rng.Next() | 1;
  b_ = rng.Next();
  sign_a1_ = rng.Next() | 1;
  sign_a2_ = rng.Next() | 1;
  sign_b_ = rng.Next();
}

uint64_t HashFamily::Mix(uint64_t key) const {
  // Strongly-universal-ish mixing: two rounds of multiply-xorshift.
  uint64_t h = key * a1_ + b_;
  h ^= h >> 32;
  h *= a2_;
  h ^= h >> 29;
  return h;
}

size_t HashFamily::Bucket(uint64_t key, size_t buckets) const {
  // Fast range reduction via 128-bit multiply (unbiased enough for
  // sketching; the hash itself dominates the randomness).
  return static_cast<size_t>(
      (static_cast<unsigned __int128>(Mix(key)) * buckets) >> 64);
}

double HashFamily::Sign(uint64_t key) const {
  uint64_t h = key * sign_a1_ + sign_b_;
  h ^= h >> 31;
  h *= sign_a2_;
  h ^= h >> 33;
  return (h & 1) ? 1.0 : -1.0;
}

HashSketch::HashSketch(size_t dim, size_t ell, uint64_t seed)
    : dim_(dim), seed_(seed), hash_(seed), b_(ell, dim) {
  SWSKETCH_CHECK_GT(ell, 0u);
}

void HashSketch::Append(std::span<const double> row, uint64_t id) {
  SWSKETCH_CHECK_EQ(row.size(), dim_);
  const size_t bucket = hash_.Bucket(id, b_.rows());
  const double sign = hash_.Sign(id);
  double* dst = b_.RowPtr(bucket);
  for (size_t j = 0; j < dim_; ++j) dst[j] += sign * row[j];
}

void HashSketch::AppendBatch(const Matrix& m, size_t begin, size_t end,
                             uint64_t first_id) {
  SWSKETCH_CHECK_LE(begin, end);
  SWSKETCH_CHECK_LE(end, m.rows());
  if (begin < end) SWSKETCH_CHECK_EQ(m.cols(), dim_);
  const size_t ell = b_.rows();
  for (size_t i = begin; i < end; ++i) {
    const uint64_t id = first_id + (i - begin);
    const double sign = hash_.Sign(id);
    const double* src = m.RowPtr(i);
    double* dst = b_.RowPtr(hash_.Bucket(id, ell));
    for (size_t j = 0; j < dim_; ++j) dst[j] += sign * src[j];
  }
}

void HashSketch::AppendSparse(const SparseVector& row, uint64_t id) {
  SWSKETCH_CHECK_EQ(row.dim(), dim_);
  const size_t bucket = hash_.Bucket(id, b_.rows());
  row.AxpyInto({b_.RowPtr(bucket), dim_}, hash_.Sign(id));
}

void HashSketch::MergeWith(const HashSketch& other) {
  SWSKETCH_CHECK(MergeableWith(other));
  b_.AddScaled(other.b_, 1.0);
}

namespace {
constexpr uint32_t kHashTag = 0x48530001;
}  // namespace

void HashSketch::Serialize(ByteWriter* writer) const {
  WriteHeader(writer, kHashTag, 1);
  writer->Put<uint64_t>(dim_);
  writer->Put<uint64_t>(seed_);
  b_.Serialize(writer);
}

Result<HashSketch> HashSketch::Deserialize(ByteReader* reader) {
  if (!CheckHeader(reader, kHashTag, 1)) {
    return Status::InvalidArgument("bad HashSketch header");
  }
  uint64_t dim = 0, seed = 0;
  if (!reader->Get(&dim) || !reader->Get(&seed)) {
    return Status::InvalidArgument("corrupt HashSketch payload");
  }
  auto b = Matrix::Deserialize(reader);
  if (!b.ok()) return b.status();
  if (b->cols() != dim || b->rows() == 0 ||
      !std::isfinite(b->FrobeniusNormSq())) {
    return Status::InvalidArgument("corrupt HashSketch payload");
  }
  HashSketch hs(dim, b->rows(), seed);
  hs.b_ = b.take();
  return hs;
}

}  // namespace swsketch
