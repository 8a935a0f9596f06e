// Batch-vs-serial equivalence for the batched ingest pipeline: UpdateBatch
// must be indistinguishable from feeding rows one at a time — bit-identical
// where the backend is deterministic (exact, LM-FD, DI-FD, hashing, the
// samplers, FD in its schedule-preserving regime), within covariance-error
// tolerance where only the floating-point accumulation order may differ
// (RP block multiply, FD deferred shrink) — plus CSR-vs-dense window Gram
// equality and harness batch-path checkpoint identity.
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "eval/cov_err.h"
#include "eval/harness.h"
#include "data/synthetic.h"
#include "linalg/matrix.h"
#include "sketch/frequent_directions.h"
#include "sketch/hash_sketch.h"
#include "sketch/random_projection.h"
#include "stream/window_buffer.h"
#include "util/random.h"
#include "util/serialize.h"

namespace swsketch {
namespace {

// Gaussian rows with ts = i + 1; every 17th row zero to exercise the
// zero-row (skip / run-split) paths.
struct TestStream {
  Matrix rows;
  std::vector<double> ts;
};

TestStream MakeStream(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  TestStream s;
  s.rows = Matrix(n, d);
  for (size_t i = 0; i < n; ++i) {
    if (i % 17 != 13) {
      for (size_t j = 0; j < d; ++j) s.rows(i, j) = rng.Gaussian();
    }
    s.ts.push_back(static_cast<double>(i + 1));
  }
  return s;
}

// Time stamps with uniform(0.1, 2) steps plus a jump past the whole
// `window` every 150 rows, so every sketch (DS-FD's active frame included)
// expires completely inside some block.
void UseTimeStampsWithGaps(TestStream* s, double window, uint64_t seed) {
  Rng rng(seed);
  double t = 0.0;
  for (size_t i = 0; i < s->ts.size(); ++i) {
    t += rng.Uniform(0.1, 2.0);
    if (i % 150 == 149) t += window + 10.0;
    s->ts[i] = t;
  }
}

std::unique_ptr<SlidingWindowSketch> MakeSketch(const std::string& algorithm,
                                                size_t dim, WindowSpec window,
                                                size_t ell = 16) {
  SketchConfig config;
  config.algorithm = algorithm;
  config.ell = ell;
  config.levels = 4;
  config.seed = 7;
  auto r = MakeSlidingWindowSketch(dim, window, config);
  EXPECT_TRUE(r.ok()) << algorithm;
  return r.take();
}

// Feeds the same stream serially and in ragged blocks (sizes 1, 2, 3, 5,
// 8, 13, ... cycling) and returns both Query outputs and, after the
// queries, both serialized states (empty for non-serializable backends).
struct BatchSerialPair {
  Matrix serial;
  Matrix batched;
  size_t serial_rows_stored;
  size_t batched_rows_stored;
  std::vector<uint8_t> serial_bytes;
  std::vector<uint8_t> batched_bytes;
};

std::vector<uint8_t> SerializedBytes(const SlidingWindowSketch& sketch) {
  ByteWriter writer;
  if (!sketch.SerializeTo(&writer).ok()) return {};
  return writer.TakeBytes();
}

BatchSerialPair RunBoth(const std::string& algorithm, const TestStream& s,
                        WindowSpec window, size_t ell = 16) {
  const size_t d = s.rows.cols();
  auto serial = MakeSketch(algorithm, d, window, ell);
  auto batched = MakeSketch(algorithm, d, window, ell);

  for (size_t i = 0; i < s.rows.rows(); ++i) {
    serial->Update(s.rows.Row(i), s.ts[i]);
  }

  const size_t sizes[] = {1, 2, 3, 5, 8, 13, 21, 64};
  size_t b = 0, k = 0;
  while (b < s.rows.rows()) {
    const size_t e = std::min(s.rows.rows(), b + sizes[k % 8]);
    Matrix block(0, d);
    std::vector<double> ts;
    for (size_t i = b; i < e; ++i) {
      block.AppendRow(s.rows.Row(i));
      ts.push_back(s.ts[i]);
    }
    batched->UpdateBatch(block, ts);
    b = e;
    ++k;
  }

  BatchSerialPair out;
  out.serial_rows_stored = serial->RowsStored();
  out.batched_rows_stored = batched->RowsStored();
  out.serial = serial->Query();
  out.batched = batched->Query();
  out.serial_bytes = SerializedBytes(*serial);
  out.batched_bytes = SerializedBytes(*batched);
  return out;
}

void ExpectBitIdentical(const BatchSerialPair& p, const std::string& label) {
  EXPECT_EQ(p.serial_rows_stored, p.batched_rows_stored) << label;
  ASSERT_EQ(p.serial.rows(), p.batched.rows()) << label;
  EXPECT_EQ(p.serial.MaxAbsDiff(p.batched), 0.0) << label;
  EXPECT_TRUE(p.serial_bytes == p.batched_bytes) << label;
}

// Backends whose batch path must replay the serial bytes (DS-FD at
// d = 3 ell).
struct BitIdenticalCase {
  const char* algorithm;
  size_t ell;
};
constexpr BitIdenticalCase kSequenceCases[] = {
    {"exact", 16}, {"lm-fd", 16},   {"di-fd", 16}, {"lm-hash", 16},
    {"di-hash", 16}, {"swr", 16},   {"swor", 16},  {"swor-all", 16},
    {"ds-fd", 8}};

TEST(BatchUpdateTest, DeterministicBackendsBitIdentical) {
  // The second stream adds zero rows at its head, in runs longer than any
  // block and at every 5th position: the batch path must skip each one
  // exactly as the per-row path does.
  TestStream zero_heavy = MakeStream(700, 24, 15);
  for (size_t i = 0; i < zero_heavy.rows.rows(); ++i) {
    if (i < 3 || i % 5 == 0 || (i / 70) % 4 == 1) {
      for (size_t j = 0; j < zero_heavy.rows.cols(); ++j) {
        zero_heavy.rows(i, j) = 0.0;
      }
    }
  }
  const WindowSpec window = WindowSpec::Sequence(200);
  for (const TestStream& s : {MakeStream(700, 24, 3), zero_heavy}) {
    for (const BitIdenticalCase& c : kSequenceCases) {
      ExpectBitIdentical(RunBoth(c.algorithm, s, window, c.ell), c.algorithm);
    }
  }
}

TEST(BatchUpdateTest, RandomizedBackendsWithinTolerance) {
  // RP applies the same projection as a linear map but accumulates the +=
  // in tiled order, so outputs agree to rounding, not bitwise.
  const TestStream s = MakeStream(700, 24, 4);
  const WindowSpec window = WindowSpec::Sequence(200);
  for (const char* algorithm : {"lm-rp", "di-rp"}) {
    const BatchSerialPair p = RunBoth(algorithm, s, window);
    EXPECT_EQ(p.serial_rows_stored, p.batched_rows_stored) << algorithm;
    ASSERT_EQ(p.serial.rows(), p.batched.rows()) << algorithm;
    EXPECT_LE(p.serial.MaxAbsDiff(p.batched), 1e-8) << algorithm;
  }
}

TEST(BatchUpdateTest, TimeWindowSamplersBitIdentical) {
  // Time windows slide between arrivals, so one block holds multi-row
  // evictions.
  TestStream s = MakeStream(500, 12, 5);
  Rng rng(6);
  double t = 0.0;
  for (auto& ts : s.ts) {
    t += rng.Uniform(0.1, 2.0);
    ts = t;
  }
  const WindowSpec window = WindowSpec::Time(50.0);
  for (const char* algorithm : {"swr", "swor", "lm-fd"}) {
    ExpectBitIdentical(RunBoth(algorithm, s, window), algorithm);
  }
}

TEST(BatchUpdateTest, TimeWindowGapsBitIdentical) {
  // Gaps wider than the window empty every sketch inside a block, and the
  // stream's zero rows fall between them. The window holds ~100 rows, so
  // a divergence before the last gap's refill is still live at the end.
  TestStream s = MakeStream(700, 24, 16);
  UseTimeStampsWithGaps(&s, 200.0, 17);
  const WindowSpec window = WindowSpec::Time(200.0);
  for (const BitIdenticalCase& c :
       {BitIdenticalCase{"exact", 16}, BitIdenticalCase{"lm-fd", 16},
        BitIdenticalCase{"lm-hash", 16}, BitIdenticalCase{"swr", 16},
        BitIdenticalCase{"swor", 16}, BitIdenticalCase{"swor-all", 16},
        BitIdenticalCase{"ds-fd", 8}}) {
    ExpectBitIdentical(RunBoth(c.algorithm, s, window, c.ell), c.algorithm);
  }
}

TEST(BatchUpdateTest, DefaultRowLoopMatchesSerial) {
  // A sketch without an override takes the base-class row loop; sanity
  // check it through a type that has one but calling the default directly.
  const TestStream s = MakeStream(100, 8, 8);
  auto a = MakeSketch("exact", 8, WindowSpec::Sequence(40));
  auto b = MakeSketch("exact", 8, WindowSpec::Sequence(40));
  for (size_t i = 0; i < s.rows.rows(); ++i) a->Update(s.rows.Row(i), s.ts[i]);
  b->SlidingWindowSketch::UpdateBatch(s.rows, s.ts);
  EXPECT_EQ(a->Query().MaxAbsDiff(b->Query()), 0.0);
}

TEST(BatchUpdateTest, FdNarrowRegimeBitIdentical) {
  // capacity < dim: AppendBatch must replay the serial shrink schedule.
  const size_t d = 48, ell = 16;
  const Matrix rows = MakeStream(300, d, 9).rows;
  FrequentDirections serial(d, ell);
  FrequentDirections batched(d, ell);
  for (size_t i = 0; i < rows.rows(); ++i) serial.Append(rows.Row(i));
  for (size_t b = 0; b < rows.rows(); b += 37) {
    batched.AppendBatch(rows, b, std::min(rows.rows(), b + 37));
  }
  EXPECT_EQ(serial.shrink_count(), batched.shrink_count());
  EXPECT_EQ(serial.Approximation().MaxAbsDiff(batched.Approximation()), 0.0);
  EXPECT_EQ(serial.shed_mass(), batched.shed_mass());
}

TEST(BatchUpdateTest, FdTallRegimeKeepsGuarantee) {
  // capacity >= dim: one deferred shrink per block. The schedule differs
  // from serial by design; the FD invariants and error guarantee must not.
  const size_t d = 16, ell = 24;
  const Matrix rows = MakeStream(400, d, 10).rows;
  FrequentDirections fd(d, ell);
  for (size_t b = 0; b < rows.rows(); b += 100) {
    fd.AppendBatch(rows, b, std::min(rows.rows(), b + 100));
  }
  EXPECT_LE(fd.RowsStored(), fd.buffer_capacity() + 0u);
  EXPECT_GT(fd.shrink_count(), 0u);
  // shed_mass <= ||A||_F^2 / shrink_rank (the FD trace argument).
  EXPECT_LE(fd.shed_mass(),
            fd.input_mass() / static_cast<double>(fd.shrink_rank()) + 1e-9);
  // ||A^T A - B^T B||_2 <= shed_mass.
  const double frob_sq = fd.input_mass();
  const double err = CovarianceError(rows.Gram(), frob_sq, fd.Approximation());
  EXPECT_LE(err * frob_sq, fd.shed_mass() * (1.0 + 1e-9));
}

TEST(BatchUpdateTest, RpBatchDrawsSameSigns) {
  const size_t d = 32, ell = 16;
  const Matrix rows = MakeStream(200, d, 11).rows;
  RandomProjection serial(d, ell, 42);
  RandomProjection batched(d, ell, 42);
  for (size_t i = 0; i < rows.rows(); ++i) serial.Append(rows.Row(i));
  for (size_t b = 0; b < rows.rows(); b += 33) {
    batched.AppendBatch(rows, b, std::min(rows.rows(), b + 33));
  }
  // Same signs, different accumulation order: equal to rounding.
  EXPECT_TRUE(serial.Approximation().ApproxEquals(batched.Approximation(),
                                                  1e-8));
}

TEST(BatchUpdateTest, HashBatchBitIdentical) {
  const size_t d = 32, ell = 16;
  const Matrix rows = MakeStream(200, d, 12).rows;
  HashSketch serial(d, ell, 42);
  HashSketch batched(d, ell, 42);
  for (size_t i = 0; i < rows.rows(); ++i) serial.Append(rows.Row(i), i);
  for (size_t b = 0; b < rows.rows(); b += 41) {
    batched.AppendBatch(rows, b, std::min(rows.rows(), b + 41), b);
  }
  EXPECT_EQ(serial.Approximation().MaxAbsDiff(batched.Approximation()), 0.0);
}

// ---- CSR-aware window Gram.

// Powers of two make every product and partial sum exactly representable,
// so the sparse-scatter and dense-blocked paths must agree bitwise.
WindowBuffer MakeSparseWindow(size_t n, size_t d, size_t nnz, uint64_t seed) {
  WindowBuffer buffer(WindowSpec::Sequence(n));
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> v(d, 0.0);
    for (size_t k = 0; k < nnz; ++k) {
      const double mag = std::ldexp(1.0, static_cast<int>(rng.Next() % 5) - 2);
      v[rng.Next() % d] = (rng.Next() & 1) ? mag : -mag;
    }
    buffer.Add(Row(std::move(v), static_cast<double>(i + 1)));
  }
  return buffer;
}

TEST(SparseGramTest, MatchesDenseOnSparseWindow) {
  const size_t d = 60;
  const WindowBuffer buffer = MakeSparseWindow(150, d, 3, 13);
  const double density = static_cast<double>(buffer.NonzeroCount()) /
                         (static_cast<double>(buffer.size()) * d);
  ASSERT_LE(density, WindowBuffer::kSparseGramDensityThreshold);
  const Matrix dense = buffer.ToMatrix().Gram();
  EXPECT_EQ(buffer.SparseGramMatrix(d).MaxAbsDiff(dense), 0.0);
  // GramMatrix() dispatches to the sparse path below the threshold.
  EXPECT_EQ(buffer.GramMatrix(d).MaxAbsDiff(dense), 0.0);
}

TEST(SparseGramTest, DenseWindowTakesDensePath) {
  const size_t d = 12;
  WindowBuffer buffer(WindowSpec::Sequence(50));
  Rng rng(14);
  for (size_t i = 0; i < 40; ++i) {
    std::vector<double> v(d);
    for (auto& x : v) x = std::ldexp(1.0, static_cast<int>(rng.Next() % 4));
    buffer.Add(Row(std::move(v), static_cast<double>(i + 1)));
  }
  const Matrix dense = buffer.ToMatrix().Gram();
  EXPECT_EQ(buffer.GramMatrix(d).MaxAbsDiff(dense), 0.0);
  // The sparse path agrees even when not chosen (powers of two again).
  EXPECT_EQ(buffer.SparseGramMatrix(d).MaxAbsDiff(dense), 0.0);
}

TEST(SparseGramTest, EmptyWindow) {
  WindowBuffer buffer(WindowSpec::Sequence(10));
  const Matrix g = buffer.GramMatrix(5);
  EXPECT_EQ(g.rows(), 5u);
  EXPECT_EQ(g.cols(), 5u);
  EXPECT_EQ(g.FrobeniusNormSq(), 0.0);
}

// ---- Harness batch path.

TEST(HarnessBatchTest, BatchedCheckpointsMatchSerial) {
  const auto run = [](size_t batch_rows) {
    SyntheticStream stream(SyntheticStream::Options{
        .rows = 1200, .dim = 10, .signal_dim = 4, .window = 250});
    SketchConfig c1, c2;
    c1.algorithm = "lm-fd";
    c1.ell = 16;
    c2.algorithm = "exact";
    auto s1 = MakeSlidingWindowSketch(10, WindowSpec::Sequence(250), c1);
    auto s2 = MakeSlidingWindowSketch(10, WindowSpec::Sequence(250), c2);
    EXPECT_TRUE(s1.ok() && s2.ok());
    std::vector<SlidingWindowSketch*> sketches{s1->get(), s2->get()};
    HarnessOptions options;
    options.num_checkpoints = 5;
    options.total_rows = 1200;
    options.measure_update_time = false;
    options.batch_rows = batch_rows;
    return RunMany(&stream, sketches, options);
  };
  const auto serial = run(1);
  const auto batched = run(64);
  ASSERT_EQ(serial.size(), batched.size());
  for (size_t s = 0; s < serial.size(); ++s) {
    ASSERT_EQ(serial[s].checkpoints.size(), batched[s].checkpoints.size());
    EXPECT_EQ(serial[s].rows_processed, batched[s].rows_processed);
    for (size_t c = 0; c < serial[s].checkpoints.size(); ++c) {
      const Checkpoint& a = serial[s].checkpoints[c];
      const Checkpoint& b = batched[s].checkpoints[c];
      EXPECT_EQ(a.row_index, b.row_index);
      EXPECT_EQ(a.window_rows, b.window_rows);
      EXPECT_EQ(a.rows_stored, b.rows_stored);
      EXPECT_EQ(a.cova_err, b.cova_err);
    }
  }
}

TEST(HarnessBatchTest, ParallelIngestMatchesSerialIngest) {
  const auto run = [](bool parallel) {
    SyntheticStream stream(SyntheticStream::Options{
        .rows = 800, .dim = 8, .signal_dim = 3, .window = 150});
    SketchConfig c1, c2;
    c1.algorithm = "lm-fd";
    c1.ell = 8;
    c2.algorithm = "swr";
    c2.ell = 16;
    auto s1 = MakeSlidingWindowSketch(8, WindowSpec::Sequence(150), c1);
    auto s2 = MakeSlidingWindowSketch(8, WindowSpec::Sequence(150), c2);
    EXPECT_TRUE(s1.ok() && s2.ok());
    std::vector<SlidingWindowSketch*> sketches{s1->get(), s2->get()};
    HarnessOptions options;
    options.num_checkpoints = 4;
    options.total_rows = 800;
    options.measure_update_time = false;
    options.batch_rows = 32;
    options.parallel_ingest = parallel;
    return RunMany(&stream, sketches, options);
  };
  const auto serial = run(false);
  const auto parallel = run(true);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t s = 0; s < serial.size(); ++s) {
    ASSERT_EQ(serial[s].checkpoints.size(), parallel[s].checkpoints.size());
    for (size_t c = 0; c < serial[s].checkpoints.size(); ++c) {
      EXPECT_EQ(serial[s].checkpoints[c].cova_err,
                parallel[s].checkpoints[c].cova_err);
    }
  }
}

}  // namespace
}  // namespace swsketch
