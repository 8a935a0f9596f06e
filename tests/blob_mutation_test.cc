// Blob admission: every committed *.sketch.bin golden, mutated by seeded
// single-bit flips and by truncation, must either be refused with a Status
// or reload into a sketch that re-serializes byte-stably and survives the
// next query, row and advance — never an abort or a sanitizer finding.
// Deterministic: the flips come from a fixed-seed Rng, so a failure names a
// reproducible (golden, byte, bit).
#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "linalg/matrix.h"
#include "util/random.h"
#include "util/serialize.h"

#ifndef SWSKETCH_FIXTURES_DIR
#error "SWSKETCH_FIXTURES_DIR must be defined by the build"
#endif

namespace swsketch {
namespace {

constexpr int kFlipsPerGolden = 400;
constexpr size_t kTruncationStride = 7;

std::vector<uint8_t> ReadGolden(const std::string& name) {
  std::ifstream in(std::string(SWSKETCH_FIXTURES_DIR) + "/golden_" + name +
                       ".sketch.bin",
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden " << name;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

std::vector<uint8_t> Serialize(const SlidingWindowSketch& sketch) {
  ByteWriter w;
  EXPECT_TRUE(sketch.SerializeTo(&w).ok());
  return w.bytes();
}

bool AllFinite(const Matrix& m) {
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      if (!std::isfinite(m(i, j))) return false;
    }
  }
  return true;
}

// Loads `blob`; a refusal is a pass. A loaded sketch must re-serialize to
// bytes that reload to the same bytes, then take a query, a finite row and
// an advance without aborting.
void CheckMutation(const std::vector<uint8_t>& blob, const std::string& what) {
  SCOPED_TRACE(what);
  ByteReader reader(blob);
  auto loaded = DeserializeSlidingWindowSketch(&reader);
  if (!loaded.ok()) return;
  SlidingWindowSketch& sketch = **loaded;
  const std::vector<uint8_t> once = Serialize(sketch);
  ByteReader again(once);
  auto reloaded = DeserializeSlidingWindowSketch(&again);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(Serialize(**reloaded), once);

  (void)sketch.Query();
  const std::vector<double> row(sketch.dim(), 0.5);
  const double ts = sketch.now() + 1.0;
  if (sketch.Update(row, ts).ok()) {
    (void)sketch.AdvanceTo(ts + 1.0);
    (void)sketch.Query();
    (void)sketch.RowsStored();
  }
}

class BlobMutationTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BlobMutationTest, BitFlipsGiveStatusOrStableReload) {
  const std::vector<uint8_t> golden = ReadGolden(GetParam());
  ASSERT_FALSE(golden.empty());
  Rng rng(0xB10B + golden.size());
  for (int i = 0; i < kFlipsPerGolden; ++i) {
    std::vector<uint8_t> blob = golden;
    const size_t byte = rng.UniformInt(blob.size());
    const int bit = static_cast<int>(rng.UniformInt(8));
    blob[byte] ^= static_cast<uint8_t>(1u << bit);
    CheckMutation(blob, "flip byte " + std::to_string(byte) + " bit " +
                            std::to_string(bit));
  }
}

TEST_P(BlobMutationTest, TruncationsGiveStatus) {
  const std::vector<uint8_t> golden = ReadGolden(GetParam());
  ASSERT_FALSE(golden.empty());
  for (size_t len = 0; len < golden.size(); len += kTruncationStride) {
    const std::vector<uint8_t> blob(golden.begin(), golden.begin() + len);
    ByteReader reader(blob);
    EXPECT_FALSE(DeserializeSlidingWindowSketch(&reader).ok())
        << "truncated to " << len << " bytes";
  }
}

TEST_P(BlobMutationTest, GoldenReloadsFinite) {
  const std::vector<uint8_t> golden = ReadGolden(GetParam());
  ByteReader reader(golden);
  auto loaded = DeserializeSlidingWindowSketch(&reader);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(AllFinite((*loaded)->Query()));
}

// The serializable backends without a golden (swr, lm-hash, amm-di-fd,
// ...) get the same flips on a blob written here from a seeded stream.
TEST(BackendBlobMutationTest, EveryBackendBlobSurvivesFlips) {
  for (const BackendRow& row : Backends()) {
    if (row.load == nullptr) continue;
    SCOPED_TRACE(std::string(row.name));
    SketchConfig config;
    config.algorithm = std::string(row.name);
    config.ell = 4;
    auto made = MakeSlidingWindowSketch(6, WindowSpec::Sequence(40), config);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    Rng rng(3);
    std::vector<double> r(6);
    for (int i = 0; i < 100; ++i) {
      for (double& v : r) v = rng.Gaussian();
      ASSERT_TRUE((*made)->Update(r, i).ok());
    }
    const std::vector<uint8_t> blob = Serialize(**made);
    for (int i = 0; i < kFlipsPerGolden / 2; ++i) {
      std::vector<uint8_t> mutated = blob;
      const size_t byte = rng.UniformInt(mutated.size());
      mutated[byte] ^= static_cast<uint8_t>(1u << rng.UniformInt(8));
      CheckMutation(mutated, "flip byte " + std::to_string(byte));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Goldens, BlobMutationTest,
                         ::testing::Values("amm_co_fd", "amm_exact",
                                           "amm_lm_fd", "di_fd", "ds_fd",
                                           "lm_fd", "swor"));

}  // namespace
}  // namespace swsketch
