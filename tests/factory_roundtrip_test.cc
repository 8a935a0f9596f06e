// Factory-level serialization contract, driven off the backend table so a
// newly registered backend is covered the day it lands: every algorithm
// whose SketchPrototype says `serializable()` must (a) SerializeTo
// successfully, (b) reload through the tag-dispatched
// DeserializeSlidingWindowSketch, (c) re-serialize to the EXACT same
// bytes, (d) answer the same Query() bit-for-bit, and (e) stay in byte
// lockstep under continued ingest. Algorithms the prototype marks
// non-serializable must say so through SerializeTo's status — the two
// signals may never disagree, because TenantManager spills through one
// and trusts the other. The heap path (MakeSlidingWindowSketch,
// DeserializeSlidingWindowSketch) and the arena path (SketchPrototype's
// ConstructAt, DeserializeAt) go through the same row hooks and must agree
// byte for byte.
#include <cstring>
#include <new>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "linalg/matrix.h"
#include "util/random.h"
#include "util/serialize.h"

namespace swsketch {
namespace {

void IngestRows(SlidingWindowSketch* sketch, size_t n, size_t d,
                uint64_t seed, double* t) {
  Rng rng(seed);
  std::vector<double> row(d);
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : row) v = rng.Gaussian();
    *t += 1.0;
    sketch->Update(row, *t);
  }
}

// Aligned storage for one prototype instance; destroys the instance it
// holds and frees the storage on scope exit.
class Slot {
 public:
  explicit Slot(const SketchPrototype& proto)
      : align_(static_cast<std::align_val_t>(proto.instance_align())),
        mem_(::operator new(proto.instance_size(), align_)) {}
  ~Slot() {
    if (sketch_ != nullptr) sketch_->~SlidingWindowSketch();
    ::operator delete(mem_, align_);
  }
  Slot(const Slot&) = delete;
  Slot& operator=(const Slot&) = delete;

  void* mem() const { return mem_; }
  void Hold(SlidingWindowSketch* sketch) { sketch_ = sketch; }
  SlidingWindowSketch* get() const { return sketch_; }

 private:
  std::align_val_t align_;
  void* mem_;
  SlidingWindowSketch* sketch_ = nullptr;
};

TEST(FactoryRoundTripTest, RowNamesAndWireTagsAreUnique) {
  std::set<std::string_view> names;
  std::set<uint32_t> tags;
  for (const BackendRow& row : Backends()) {
    EXPECT_TRUE(names.insert(row.name).second) << row.name << " repeats";
    if (row.wire_tag == 0) continue;
    EXPECT_NE(row.load, nullptr) << row.name << " has a tag but no loader";
    EXPECT_TRUE(tags.insert(row.wire_tag).second)
        << row.name << " reuses a wire tag";
  }
}

TEST(FactoryRoundTripTest, EveryKnownAlgorithmRoundTripsOrDeclines) {
  const size_t d = 7;
  const WindowSpec window = WindowSpec::Sequence(64);
  size_t serializable_count = 0;
  for (const BackendRow& row : Backends()) {
    const std::string algo(row.name);
    SCOPED_TRACE(algo);
    SketchConfig config;
    config.algorithm = algo;
    config.ell = 8;
    config.max_norm_sq = 16.0 * static_cast<double>(d);
    config.seed = 7;
    auto proto = SketchPrototype::Make(d, window, config);
    ASSERT_TRUE(proto.ok()) << proto.status().ToString();
    auto made = MakeSlidingWindowSketch(d, window, config);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    auto& sketch = *made;
    Slot stamped(*proto);
    stamped.Hold(proto->ConstructAt(stamped.mem()));

    double t = 0.0, t_stamped = 0.0;
    IngestRows(sketch.get(), 300, d, 13, &t);
    IngestRows(stamped.get(), 300, d, 13, &t_stamped);

    ByteWriter w1;
    const Status st = sketch->SerializeTo(&w1);
    ASSERT_EQ(st.ok(), proto->serializable())
        << "SketchPrototype::serializable() and SerializeTo() disagree";
    if (!st.ok()) {
      // Heap and arena instances come from one row hook: same answers.
      const Matrix qa = sketch->Query();
      const Matrix qb = stamped.get()->Query();
      ASSERT_EQ(qa.rows(), qb.rows());
      EXPECT_EQ(qa.MaxAbsDiff(qb), 0.0);
      continue;
    }
    ++serializable_count;

    // Heap and arena instances come from one row hook: same bytes.
    ByteWriter w_stamped;
    ASSERT_TRUE(stamped.get()->SerializeTo(&w_stamped).ok());
    EXPECT_EQ(w_stamped.bytes(), w1.bytes());

    // Exactly one row claims the payload's tag, and it reloads with this
    // row's loader (swor-all and the stacked AMM rows carry a sibling's).
    uint32_t tag = 0;
    ByteReader peek(w1.bytes());
    ASSERT_TRUE(peek.Peek(&tag));
    size_t claims = 0;
    for (const BackendRow& other : Backends()) {
      if (other.wire_tag != tag) continue;
      ++claims;
      EXPECT_EQ(other.load, row.load) << "claimed by " << other.name;
    }
    EXPECT_EQ(claims, 1u);

    ByteReader r(w1.bytes());
    auto loaded = DeserializeSlidingWindowSketch(&r);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_TRUE(r.AtEnd()) << "trailing bytes after deserialize";

    // Re-serialize: the reloaded state must emit the original bytes.
    ByteWriter w2;
    ASSERT_TRUE((*loaded)->SerializeTo(&w2).ok());
    ASSERT_EQ(w1.bytes().size(), w2.bytes().size());
    EXPECT_EQ(std::memcmp(w1.bytes().data(), w2.bytes().data(),
                          w1.bytes().size()),
              0)
        << "serialize -> deserialize -> serialize changed bytes";

    // DeserializeAt into aligned storage reloads the same state.
    ByteReader placed_reader(w1.bytes());
    Slot placed(*proto);
    auto at = proto->DeserializeAt(placed.mem(), &placed_reader);
    ASSERT_TRUE(at.ok()) << at.status().ToString();
    placed.Hold(*at);
    EXPECT_TRUE(placed_reader.AtEnd());
    ByteWriter w3;
    ASSERT_TRUE(placed.get()->SerializeTo(&w3).ok());
    EXPECT_EQ(w3.bytes(), w1.bytes());

    // Identical answers, bit-for-bit.
    const Matrix qa = sketch->Query();
    const Matrix qb = (*loaded)->Query();
    ASSERT_EQ(qa.rows(), qb.rows());
    EXPECT_EQ(qa.MaxAbsDiff(qb), 0.0);

    // Continued ingest stays in lockstep (same rows, same timestamps).
    double t2 = t;
    IngestRows(sketch.get(), 80, d, 29, &t);
    IngestRows(loaded->get(), 80, d, 29, &t2);
    const Matrix ca = sketch->Query();
    const Matrix cb = (*loaded)->Query();
    ASSERT_EQ(ca.rows(), cb.rows());
    EXPECT_EQ(ca.MaxAbsDiff(cb), 0.0) << "post-reload ingest diverged";
  }
  // The serializable set (swr, swor, swor-all, lm-fd, lm-hash, di-fd,
  // ds-fd, amm-exact, amm-co-fd, amm-lm-fd, amm-di-fd today) may only
  // grow.
  EXPECT_GE(serializable_count, 11u);
}

}  // namespace
}  // namespace swsketch
