#include "amm/amm_stacked.h"

#include "core/factory.h"
#include "util/logging.h"

namespace swsketch {

AmmStacked::AmmStacked(size_t dim_a, size_t dim_b,
                       std::unique_ptr<SlidingWindowSketch> inner,
                       const MetricSet& metrics)
    : AmmSketch(dim_a, dim_b, NonNull(inner).window(), metrics),
      inner_(std::move(inner)) {
  SWSKETCH_CHECK_EQ(inner_->dim(), dim_a + dim_b);
  set_now(inner_->now());
}

void AmmStacked::Ingest(std::span<const double> row, double ts, double) {
  metrics().pairs_ingested->Add();
  PassedOn(inner_->Update(row, ts));
}

void AmmStacked::IngestBatch(const Matrix& rows, std::span<const double> ts,
                             std::span<const double>) {
  metrics().pairs_ingested->Add(rows.rows());
  PassedOn(inner_->UpdateBatch(rows, ts));
}

void AmmStacked::IngestSparse(const SparseVector& row, double ts, double) {
  metrics().pairs_ingested->Add();
  PassedOn(inner_->UpdateSparse(row, ts));
}

void AmmStacked::Serialize(ByteWriter* writer) const {
  const Status st = SerializeTo(writer);
  SWSKETCH_CHECK(st.ok());
}

Status AmmStacked::SerializeTo(ByteWriter* writer) const {
  WriteHeader(writer, kSerialTag, 1);
  writer->Put<uint64_t>(dim_a());
  writer->Put<uint64_t>(dim_b());
  return inner_->SerializeTo(writer);
}

Result<AmmStacked> AmmStacked::Deserialize(ByteReader* reader) {
  if (!CheckHeader(reader, kSerialTag, 1)) {
    return Status::InvalidArgument("bad AMM-stacked header");
  }
  uint64_t dim_a = 0, dim_b = 0;
  if (!reader->Get(&dim_a) || !reader->Get(&dim_b) || dim_a == 0 ||
      dim_b == 0 || !LoadableSize(dim_a, dim_b)) {
    return Status::InvalidArgument("bad AMM-stacked dims");
  }
  auto inner = DeserializeSlidingWindowSketch(reader);
  if (!inner.ok()) return inner.status();
  if ((*inner)->dim() != dim_a + dim_b) {
    return Status::InvalidArgument("AMM-stacked dims disagree with payload");
  }
  AmmStacked sketch(dim_a, dim_b, inner.take());
  sketch.metrics().reloads->Add();
  return sketch;
}

}  // namespace swsketch
