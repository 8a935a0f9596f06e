// Round-trip tests for checkpoint/resume serialization across the stack:
// after save + load, sketches must produce identical approximations and
// continue identically on further updates.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dump_snapshot.h"
#include "core/dyadic_interval.h"
#include "core/factory.h"
#include "core/logarithmic_method.h"
#include "core/swor.h"
#include "core/swr.h"
#include "linalg/matrix.h"
#include "sketch/frequent_directions.h"
#include "sketch/hash_sketch.h"
#include "sketch/random_projection.h"
#include "util/exponential_histogram.h"
#include "util/random.h"
#include "util/serialize.h"

#ifndef SWSKETCH_FIXTURES_DIR
#error "SWSKETCH_FIXTURES_DIR must be defined by the build"
#endif

namespace swsketch {
namespace {

std::vector<double> RandomRow(Rng* rng, size_t d) {
  std::vector<double> r(d);
  for (auto& v : r) v = rng->Gaussian();
  return r;
}

TEST(SerializeTest, ByteRoundTripPrimitives) {
  ByteWriter w;
  w.Put<uint32_t>(42);
  w.Put(3.5);
  w.PutString("hello");
  w.PutVector(std::vector<double>{1.0, 2.0});
  ByteReader r(w.bytes());
  uint32_t i = 0;
  double d = 0.0;
  std::string s;
  std::vector<double> v;
  EXPECT_TRUE(r.Get(&i));
  EXPECT_TRUE(r.Get(&d));
  EXPECT_TRUE(r.GetString(&s));
  EXPECT_TRUE(r.GetVector(&v));
  EXPECT_EQ(i, 42u);
  EXPECT_EQ(d, 3.5);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(v, (std::vector<double>{1.0, 2.0}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, TruncatedPayloadFailsCleanly) {
  ByteWriter w;
  w.Put<uint64_t>(1000);  // Claims a long vector that is not there.
  ByteReader r(w.bytes());
  std::vector<double> v;
  // Interpret the 8 bytes as a vector length: read must fail, not crash.
  ByteReader r2(w.bytes());
  EXPECT_FALSE(r2.GetVector(&v));
  EXPECT_FALSE(r2.ok());
  (void)r;
}

// Length prefixes whose byte count wraps size_t (n * 8 for 2^61 + 1, or
// pos + n for 2^64 - 1) must fail the bounds check, not reach resize().
TEST(SerializeTest, HugeLengthPrefixFailsCleanly) {
  for (const uint64_t n : {(uint64_t{1} << 61) + 1, ~uint64_t{0}}) {
    SCOPED_TRACE(n);
    ByteWriter w;
    w.Put<uint64_t>(n);
    w.Put<uint64_t>(0);  // Payload, so a wrapped sum would fit.
    {
      ByteReader r(w.bytes());
      std::vector<double> v;
      EXPECT_FALSE(r.GetVector(&v));
      EXPECT_FALSE(r.ok());
    }
    {
      ByteReader r(w.bytes());
      std::string str;
      EXPECT_FALSE(r.GetString(&str));
      EXPECT_FALSE(r.ok());
    }
  }
}

TEST(SerializeTest, SplicedLengthInSketchBlobRejected) {
  const std::vector<double> row{0.5, -0.25, 0.125, 0.375};
  SketchConfig config;
  config.algorithm = "lm-fd";
  config.ell = 4;
  auto made = MakeSlidingWindowSketch(row.size(), WindowSpec::Sequence(50),
                                      config);
  ASSERT_TRUE(made.ok());
  (*made)->Update(row, 1.0);
  ByteWriter w;
  ASSERT_TRUE((*made)->SerializeTo(&w).ok());
  const std::vector<uint8_t>& bytes = w.bytes();

  // The still-active row is stored as a length-prefixed value vector.
  ByteWriter needle;
  needle.PutVector(row);
  const auto at = std::search(bytes.begin(), bytes.end(),
                              needle.bytes().begin(), needle.bytes().end());
  ASSERT_NE(at, bytes.end());
  for (const uint64_t n : {(uint64_t{1} << 61) + 1, ~uint64_t{0}}) {
    SCOPED_TRACE(n);
    std::vector<uint8_t> spliced = bytes;
    std::memcpy(spliced.data() + (at - bytes.begin()), &n, sizeof(n));
    ByteReader r(spliced);
    EXPECT_FALSE(DeserializeSlidingWindowSketch(&r).ok());
  }
}

TEST(SerializeTest, MatrixRoundTrip) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  ByteWriter w;
  m.Serialize(&w);
  ByteReader r(w.bytes());
  auto loaded = Matrix::Deserialize(&r);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->ApproxEquals(m, 0.0));
}

TEST(SerializeTest, RngRoundTripContinuesIdentically) {
  Rng a(7);
  for (int i = 0; i < 13; ++i) a.Next();
  a.Gaussian();  // Leaves a cached value.
  ByteWriter w;
  a.Serialize(&w);
  ByteReader r(w.bytes());
  Rng b(99);
  ASSERT_TRUE(b.Deserialize(&r));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  EXPECT_EQ(a.Gaussian(), b.Gaussian());
}

TEST(SerializeTest, ExponentialHistogramRoundTrip) {
  ExponentialHistogram eh(0.1);
  Rng rng(1);
  for (int i = 0; i < 500; ++i) eh.Add(1.0 + rng.Uniform01(), i);
  ByteWriter w;
  eh.Serialize(&w);
  ByteReader r(w.bytes());
  ExponentialHistogram loaded(0.5);
  ASSERT_TRUE(loaded.Deserialize(&r));
  for (double start : {0.0, 100.0, 499.0}) {
    EXPECT_EQ(loaded.Estimate(start), eh.Estimate(start));
  }
  EXPECT_EQ(loaded.NumBuckets(), eh.NumBuckets());
}

TEST(SerializeTest, FrequentDirectionsRoundTrip) {
  Rng rng(2);
  FrequentDirections fd(12, 8);
  for (int i = 0; i < 100; ++i) fd.Append(RandomRow(&rng, 12), i);
  ByteWriter w;
  fd.Serialize(&w);
  ByteReader r(w.bytes());
  auto loaded = FrequentDirections::Deserialize(&r);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->Approximation().ApproxEquals(fd.Approximation(), 0.0));
  EXPECT_EQ(loaded->shed_mass(), fd.shed_mass());
  // Continue identically.
  for (int i = 0; i < 50; ++i) {
    auto row = RandomRow(&rng, 12);
    fd.Append(row, i);
    loaded->Append(row, i);
  }
  EXPECT_TRUE(loaded->Approximation().ApproxEquals(fd.Approximation(), 0.0));
}

TEST(SerializeTest, HashSketchRoundTrip) {
  Rng rng(3);
  HashSketch hs(10, 16, 5);
  for (int i = 0; i < 60; ++i) hs.Append(RandomRow(&rng, 10), i);
  ByteWriter w;
  hs.Serialize(&w);
  ByteReader r(w.bytes());
  auto loaded = HashSketch::Deserialize(&r);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->Approximation().ApproxEquals(hs.Approximation(), 0.0));
  // Same hash functions afterwards.
  auto row = RandomRow(&rng, 10);
  hs.Append(row, 1000);
  loaded->Append(row, 1000);
  EXPECT_TRUE(loaded->Approximation().ApproxEquals(hs.Approximation(), 0.0));
}

TEST(SerializeTest, RandomProjectionRoundTripContinuesIdentically) {
  Rng rng(4);
  RandomProjection rp(9, 24, 6);
  for (int i = 0; i < 40; ++i) rp.Append(RandomRow(&rng, 9), i);
  ByteWriter w;
  rp.Serialize(&w);
  ByteReader r(w.bytes());
  auto loaded = RandomProjection::Deserialize(&r);
  ASSERT_TRUE(loaded.ok());
  // The sign generator state is restored: future appends match exactly.
  for (int i = 0; i < 20; ++i) {
    auto row = RandomRow(&rng, 9);
    rp.Append(row, i);
    loaded->Append(row, i);
  }
  EXPECT_TRUE(loaded->Approximation().ApproxEquals(rp.Approximation(), 0.0));
}

TEST(SerializeTest, SwrSketchRoundTrip) {
  Rng rng(5);
  SwrSketch sketch(6, WindowSpec::Sequence(100),
                   SwrSketch::Options{.ell = 8, .seed = 11});
  for (int i = 0; i < 300; ++i) sketch.Update(RandomRow(&rng, 6), i);
  ByteWriter w;
  sketch.Serialize(&w);
  ByteReader r(w.bytes());
  auto loaded = SwrSketch::Deserialize(&r);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->RowsStored(), sketch.RowsStored());
  EXPECT_TRUE(loaded->Query().ApproxEquals(sketch.Query(), 1e-12));
  // Continue identically (same RNG state).
  for (int i = 300; i < 400; ++i) {
    auto row = RandomRow(&rng, 6);
    sketch.Update(row, i);
    loaded->Update(row, i);
  }
  EXPECT_TRUE(loaded->Query().ApproxEquals(sketch.Query(), 1e-12));
}

TEST(SerializeTest, SworSketchRoundTrip) {
  Rng rng(6);
  SworSketch sketch(5, WindowSpec::Time(50.0),
                    SworSketch::Options{.ell = 6, .seed = 13});
  double t = 0.0;
  for (int i = 0; i < 200; ++i) {
    t += rng.Exponential(1.0);
    sketch.Update(RandomRow(&rng, 5), t);
  }
  ByteWriter w;
  sketch.Serialize(&w);
  ByteReader r(w.bytes());
  auto loaded = SworSketch::Deserialize(&r);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->name(), "SWOR");
  EXPECT_TRUE(loaded->Query().ApproxEquals(sketch.Query(), 1e-12));
  for (int i = 0; i < 100; ++i) {
    t += rng.Exponential(1.0);
    auto row = RandomRow(&rng, 5);
    sketch.Update(row, t);
    loaded->Update(row, t);
  }
  EXPECT_TRUE(loaded->Query().ApproxEquals(sketch.Query(), 1e-12));
}

TEST(SerializeTest, LmFdRoundTrip) {
  Rng rng(7);
  LmFd sketch(8, WindowSpec::Sequence(200),
              LmFd::Options{.ell = 12, .blocks_per_level = 4});
  for (int i = 0; i < 900; ++i) sketch.Update(RandomRow(&rng, 8), i);
  ByteWriter w;
  sketch.Serialize(&w);
  ByteReader r(w.bytes());
  auto loaded = LmFd::Deserialize(&r);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->RowsStored(), sketch.RowsStored());
  EXPECT_EQ(loaded->NumLevels(), sketch.NumLevels());
  EXPECT_TRUE(loaded->Query().ApproxEquals(sketch.Query(), 1e-12));
  for (int i = 900; i < 1200; ++i) {
    auto row = RandomRow(&rng, 8);
    sketch.Update(row, i);
    loaded->Update(row, i);
  }
  EXPECT_TRUE(loaded->Query().ApproxEquals(sketch.Query(), 1e-12));
  loaded->CheckInvariants();
}

TEST(SerializeTest, LmHashRoundTrip) {
  Rng rng(8);
  LmHash sketch(6, WindowSpec::Sequence(150),
                LmHash::Options{.ell = 32, .blocks_per_level = 4, .seed = 3});
  for (int i = 0; i < 700; ++i) sketch.Update(RandomRow(&rng, 6), i);
  ByteWriter w;
  sketch.Serialize(&w);
  ByteReader r(w.bytes());
  auto loaded = LmHash::Deserialize(&r);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->Query().ApproxEquals(sketch.Query(), 1e-12));
}

TEST(SerializeTest, DiFdRoundTrip) {
  Rng rng(9);
  DiFd sketch(7, DiFd::Options{.levels = 4, .window_size = 128,
                               .max_norm_sq = 20.0, .ell_top = 12});
  for (int i = 0; i < 600; ++i) sketch.Update(RandomRow(&rng, 7), i);
  ByteWriter w;
  sketch.Serialize(&w);
  ByteReader r(w.bytes());
  auto loaded = DiFd::Deserialize(&r);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->RowsStored(), sketch.RowsStored());
  EXPECT_TRUE(loaded->Query().ApproxEquals(sketch.Query(), 1e-12));
  for (int i = 600; i < 900; ++i) {
    auto row = RandomRow(&rng, 7);
    sketch.Update(row, i);
    loaded->Update(row, i);
  }
  EXPECT_TRUE(loaded->Query().ApproxEquals(sketch.Query(), 1e-12));
  loaded->CheckInvariants();
}

TEST(SerializeTest, CorruptHeadersRejected) {
  ByteWriter w;
  WriteHeader(&w, 0xDEADBEEF, 1);
  {
    ByteReader r(w.bytes());
    EXPECT_FALSE(FrequentDirections::Deserialize(&r).ok());
  }
  {
    ByteReader r(w.bytes());
    EXPECT_FALSE(LmFd::Deserialize(&r).ok());
  }
  {
    ByteReader r(w.bytes());
    EXPECT_FALSE(SwrSketch::Deserialize(&r).ok());
  }
  {
    ByteReader r(w.bytes());
    EXPECT_FALSE(DiFd::Deserialize(&r).ok());
  }
}

TEST(SerializeTest, TruncatedSketchPayloadRejected) {
  Rng rng(10);
  FrequentDirections fd(5, 4);
  for (int i = 0; i < 20; ++i) fd.Append(RandomRow(&rng, 5), i);
  ByteWriter w;
  fd.Serialize(&w);
  auto bytes = w.TakeBytes();
  bytes.resize(bytes.size() / 2);
  ByteReader r(bytes);
  EXPECT_FALSE(FrequentDirections::Deserialize(&r).ok());
}


// Offsets of every occurrence of `value`'s bytes in `bytes`.
std::vector<size_t> OffsetsOf(const std::vector<uint8_t>& bytes,
                              double value) {
  std::vector<size_t> offsets;
  for (size_t i = 0; i + sizeof(double) <= bytes.size(); ++i) {
    if (std::memcmp(&bytes[i], &value, sizeof(double)) == 0) {
      offsets.push_back(i);
    }
  }
  return offsets;
}

// Reload validation rejects NaN: each decoded configuration double (set
// to a distinctive value, so its bytes can be found in the blob) is
// replaced by NaN in turn — in the sketch header and in every nested FD
// header that carries it — and the reload must return a Status instead of
// aborting on a later update. A reload that wrongly succeeds must still
// survive 100 further updates.
TEST(SerializeTest, NanConfigDoublesRejectedOnReload) {
  const size_t d = 6;
  struct Case {
    SketchConfig config;
    WindowSpec window;
    std::vector<double> values;
  };
  std::vector<Case> cases;
  {
    SketchConfig c;
    c.algorithm = "lm-fd";
    c.ell = 4;
    c.fd_buffer_factor = 1.375;
    c.lm_block_capacity = 13.0625;
    cases.push_back({c, WindowSpec::Time(500.0), {1.375, 13.0625}});
    c.algorithm = "lm-hash";
    cases.push_back({c, WindowSpec::Time(500.0), {13.0625}});
  }
  {
    SketchConfig c;
    c.algorithm = "di-fd";
    c.ell = 8;
    c.levels = 3;
    c.max_norm_sq = 37.5;
    c.fd_buffer_factor = 1.375;
    cases.push_back({c, WindowSpec::Sequence(500), {37.5, 1.375}});
  }
  {
    SketchConfig c;
    c.algorithm = "ds-fd";
    c.ell = 4;
    c.ds_snapshot_trunc = 0.3125;
    c.ds_frame_ell_factor = 1.625;
    c.ds_fd_buffer_factor = 2.875;
    c.frobenius_eps = 0.0546875;
    cases.push_back({c, WindowSpec::Time(500.0),
                     {0.3125, 1.625, 2.875, 0.0546875}});
  }
  for (Case& c : cases) {
    auto made = MakeSlidingWindowSketch(d, c.window, c.config);
    ASSERT_TRUE(made.ok()) << c.config.algorithm;
    SlidingWindowSketch& sketch = **made;
    if (const auto* ds = dynamic_cast<const DsFd*>(&sketch)) {
      // Frame FDs carry their own derived buffer factor.
      c.values.push_back((static_cast<double>(ds->frame_capacity()) + 0.5) /
                         static_cast<double>(ds->frame_ell()));
    }
    Rng rng(31);
    double ts = 1.0;
    for (int i = 0; i < 60; ++i, ts += 1.0) {
      sketch.Update(RandomRow(&rng, d), ts);
    }
    ByteWriter w;
    ASSERT_TRUE(sketch.SerializeTo(&w).ok());
    {
      ByteReader r(w.bytes());
      ASSERT_TRUE(DeserializeSlidingWindowSketch(&r).ok());
    }
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double value : c.values) {
      const std::vector<size_t> offsets = OffsetsOf(w.bytes(), value);
      EXPECT_FALSE(offsets.empty()) << c.config.algorithm << " " << value;
      for (const size_t offset : offsets) {
        std::vector<uint8_t> bytes = w.bytes();
        std::memcpy(&bytes[offset], &nan, sizeof(double));
        ByteReader r(bytes);
        auto reloaded = DeserializeSlidingWindowSketch(&r);
        EXPECT_FALSE(reloaded.ok())
            << c.config.algorithm << " " << value << " at " << offset;
        if (!reloaded.ok()) continue;
        double t = ts;
        for (int i = 0; i < 100; ++i, t += 1.0) {
          (*reloaded)->Update(RandomRow(&rng, d), t);
        }
        (void)(*reloaded)->Query();
      }
    }
  }
}

// Two crafted shapes the reload path must reject rather than accept into
// an invalid object: a matrix whose rows * cols wraps to the (empty)
// payload length, and an FD header whose shrink-rank option exceeds ell
// (the constructor would abort on it).
TEST(SerializeTest, CraftedShapesRejectedOnReload) {
  {
    ByteWriter w;
    w.Put<uint64_t>(uint64_t{1} << 33);
    w.Put<uint64_t>(uint64_t{1} << 31);
    w.PutVector(std::vector<double>{});
    ByteReader r(w.bytes());
    EXPECT_FALSE(Matrix::Deserialize(&r).ok());
  }
  {
    FrequentDirections fd(5, 4);
    ByteWriter w;
    fd.Serialize(&w);
    std::vector<uint8_t> bytes = w.bytes();
    // Header: tag and version (u32 each), then dim, ell, shrink option.
    const uint64_t shrink_option = 5;
    std::memcpy(&bytes[24], &shrink_option, sizeof(shrink_option));
    ByteReader r(bytes);
    EXPECT_FALSE(FrequentDirections::Deserialize(&r).ok());
  }
}

std::vector<uint8_t> ReadFixture(const std::string& file) {
  const std::string path = std::string(SWSKETCH_FIXTURES_DIR) + "/" + file;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

// Checkpoints written before the symmetric eigensolve moved to one solver
// (fixtures/compat/: the FD-family golden blobs and the query each one
// produced then). They must still load, re-serialize to the same bytes —
// the wire format did not move — and answer with the same covariance
// B^T B up to rounding. The Gram comparison is sign- and rotation-
// invariant, so it holds although the new solver's eigenvectors may
// differ from the old ones by a sign.
TEST(SerializeTest, PreviousEigensolverCheckpointsStillLoad) {
  for (const char* stem : {"golden_lm_fd", "golden_di_fd", "golden_ds_fd",
                           "golden_amm_co_fd", "golden_amm_lm_fd"}) {
    SCOPED_TRACE(stem);
    const std::string compat = std::string("compat/") + stem;
    const std::vector<uint8_t> blob = ReadFixture(compat + ".sketch.bin");
    ASSERT_FALSE(blob.empty());
    ByteReader r(blob);
    auto loaded = DeserializeSlidingWindowSketch(&r);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    ByteWriter w;
    ASSERT_TRUE((*loaded)->SerializeTo(&w).ok());
    EXPECT_EQ(w.bytes(), blob) << "re-serialized bytes differ";

    // The old query, in the golden encoding: rows, cols, then row-major
    // doubles.
    const std::vector<uint8_t> query = ReadFixture(compat + ".query.bin");
    ByteReader qr(query);
    uint64_t rows = 0, cols = 0;
    ASSERT_TRUE(qr.Get(&rows) && qr.Get(&cols));
    Matrix want(rows, cols);
    for (size_t i = 0; i < rows; ++i) {
      for (size_t j = 0; j < cols; ++j) ASSERT_TRUE(qr.Get(&want(i, j)));
    }
    const Matrix got = (*loaded)->Query();
    ASSERT_EQ(got.cols(), want.cols());
    const Matrix want_gram = want.Gram();
    const double tol = 1e-9 * std::sqrt(want_gram.FrobeniusNormSq());
    EXPECT_GT(tol, 0.0);
    const Matrix diff = got.Gram().Subtract(want_gram);
    EXPECT_LE(std::sqrt(diff.FrobeniusNormSq()), tol);
  }
}

}  // namespace
}  // namespace swsketch
