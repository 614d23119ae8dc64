// Unit tests for the utility substrate: RNG determinism and
// distributions, streaming statistics, matrices/GEMM, Cholesky/ridge,
// fixed-point helpers, table rendering, and the byte codec.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <set>
#include <streambuf>
#include <string>
#include <vector>

#include "engine/model_registry.hpp"
#include "maddness/framing.hpp"
#include "util/check.hpp"
#include "util/fixed_point.hpp"
#include "util/linalg.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/wire.hpp"

namespace ssma {
namespace {

TEST(Check, ThrowsWithMessage) {
  EXPECT_THROW(SSMA_CHECK(false), CheckError);
  try {
    SSMA_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRangeAndCoversValues) {
  Rng r(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.next_below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng r(9);
  bool lo = false, hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = r.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    lo |= (v == -3);
    hi |= (v == 3);
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng r(13);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(r.next_gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, PermutationIsPermutation) {
  Rng r(17);
  auto p = r.permutation(50);
  std::set<std::size_t> s(p.begin(), p.end());
  EXPECT_EQ(s.size(), 50u);
  EXPECT_EQ(*s.begin(), 0u);
  EXPECT_EQ(*s.rbegin(), 49u);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(21);
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng r(31);
  RunningStats whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = r.next_double(-5, 5);
    whole.add(v);
    (i % 2 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
}

TEST(SampleSet, PercentilesExact) {
  SampleSet s;
  for (int i = 100; i >= 1; --i) s.add(i);  // 1..100
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
}

TEST(Matrix, GemmMatchesNaive) {
  Rng r(41);
  Matrix a(17, 23), b(23, 9);
  for (std::size_t i = 0; i < a.size(); ++i)
    a.data()[i] = static_cast<float>(r.next_double(-1, 1));
  for (std::size_t i = 0; i < b.size(); ++i)
    b.data()[i] = static_cast<float>(r.next_double(-1, 1));
  Matrix c1, c2;
  gemm(a, b, c1);
  gemm_naive(a, b, c2);
  EXPECT_LT(frobenius_diff(c1, c2), 1e-4);
}

TEST(Matrix, GemmBtAndAtMatchNaive) {
  Rng r(43);
  Matrix a(8, 12), b(12, 5);
  for (std::size_t i = 0; i < a.size(); ++i)
    a.data()[i] = static_cast<float>(r.next_double(-1, 1));
  for (std::size_t i = 0; i < b.size(); ++i)
    b.data()[i] = static_cast<float>(r.next_double(-1, 1));
  Matrix ref;
  gemm_naive(a, b, ref);

  Matrix c1;
  gemm_bt(a, b.transposed(), c1);
  EXPECT_LT(frobenius_diff(c1, ref), 1e-4);

  Matrix c2;
  gemm_at(a.transposed(), b, c2);
  EXPECT_LT(frobenius_diff(c2, ref), 1e-4);
}

TEST(Matrix, AtBoundsChecked) {
  Matrix m(2, 3);
  EXPECT_THROW(m.at(2, 0), CheckError);
  EXPECT_THROW(m.at(0, 3), CheckError);
}

TEST(Linalg, CholeskySolvesSpdSystem) {
  // A = L L^T with a known L.
  Matrix a(3, 3);
  const float vals[9] = {4, 2, 2, 2, 5, 3, 2, 3, 6};
  for (int i = 0; i < 9; ++i) a.data()[i] = vals[i];
  Matrix b(3, 1);
  b(0, 0) = 8;
  b(1, 0) = 10;
  b(2, 0) = 11;
  Matrix x = spd_solve(a, b);
  // Verify A x == b.
  for (int i = 0; i < 3; ++i) {
    double acc = 0;
    for (int j = 0; j < 3; ++j) acc += a(i, j) * x(j, 0);
    EXPECT_NEAR(acc, b(i, 0), 1e-3);
  }
}

TEST(Linalg, CholeskyRejectsIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 1;  // eigenvalues 3, -1
  Matrix c = a;
  EXPECT_FALSE(cholesky_lower(c));
}

TEST(Linalg, RidgeRecoversCoefficients) {
  // y = 2*x0 - 3*x1, no noise, tiny lambda -> near-exact recovery.
  Rng r(47);
  Matrix g(100, 2), y(100, 1);
  for (int i = 0; i < 100; ++i) {
    g(i, 0) = static_cast<float>(r.next_double(-1, 1));
    g(i, 1) = static_cast<float>(r.next_double(-1, 1));
    y(i, 0) = 2.0f * g(i, 0) - 3.0f * g(i, 1);
  }
  Matrix p = ridge_regression(g, y, 1e-6);
  EXPECT_NEAR(p(0, 0), 2.0, 1e-2);
  EXPECT_NEAR(p(1, 0), -3.0, 1e-2);
}

TEST(FixedPoint, SaturateInt8) {
  EXPECT_EQ(saturate_int8(300), 127);
  EXPECT_EQ(saturate_int8(-300), -127);
  EXPECT_EQ(saturate_int8(-300, /*symmetric=*/false), -128);
  EXPECT_EQ(saturate_int8(5), 5);
}

TEST(FixedPoint, RoundHalfAway) {
  EXPECT_EQ(round_half_away(2.5), 3);
  EXPECT_EQ(round_half_away(-2.5), -3);
  EXPECT_EQ(round_half_away(2.4), 2);
  EXPECT_EQ(round_half_away(-2.4), -2);
}

TEST(FixedPoint, AddWrap16) {
  EXPECT_EQ(add_wrap16(32767, 1), -32768);
  EXPECT_EQ(add_wrap16(-32768, -1), 32767);
  EXPECT_EQ(add_wrap16(100, -50), 50);
}

TEST(FixedPoint, Popcount16) {
  EXPECT_EQ(popcount16(0x0000), 0);
  EXPECT_EQ(popcount16(0xFFFF), 16);
  EXPECT_EQ(popcount16(0xA5A5), 8);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", TextTable::num(1.2345, 2)});
  t.add_row({"b", TextTable::pct(0.5)});
  const std::string out = t.render();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.23"), std::string::npos);
  EXPECT_NE(out.find("50.0%"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one-cell"}), CheckError);
}

// Sink that accepts `budget` bytes, then reports failure — the
// full-disk / closed-socket shape a wire writer must not paper over.
class FailingStreambuf : public std::streambuf {
 public:
  explicit FailingStreambuf(std::size_t budget) : budget_(budget) {}
  std::size_t written() const { return written_; }

 protected:
  int_type overflow(int_type ch) override {
    if (written_ >= budget_) return traits_type::eof();
    ++written_;
    return ch;
  }

 private:
  std::size_t budget_;
  std::size_t written_ = 0;
};

// Regression: stream writes used to swallow failures — a full disk or
// closed socket only surfaced as a CRC mismatch when the blob was read
// back, far from the fault. The writes that still go to a stream must
// throw at the write site.
TEST(Wire, StreamWritesFailLoudlyWhenSinkRejectsBytes) {
  FailingStreambuf header(/*budget=*/5);  // dies inside the frame header
  std::ostream os(&header);
  EXPECT_THROW(maddness::write_framed_blob(os, "payload"), CheckError);
  EXPECT_EQ(header.written(), 5u);  // failed at the sixth byte, loudly

  FailingStreambuf payload(/*budget=*/14);  // dies inside the payload
  std::ostream osp(&payload);
  EXPECT_THROW(maddness::write_framed_blob(osp, "payload"), CheckError);

  FailingStreambuf dead(/*budget=*/2);  // dies inside the model count
  std::ostream osd(&dead);
  EXPECT_THROW(engine::ModelRegistry().save(osd), CheckError);
}

TEST(Wire, WriterReaderRoundTripIsLittleEndian) {
  wire::Writer w;
  w.u8(0xAB);
  w.u32(0x01020304u);
  w.u64(0x0102030405060708ull);
  w.f32(1.5f);
  w.f64(-2.25);
  w.str("hi");
  const std::int16_t i16[] = {-2, 258};
  w.i16s(i16, 2);
  const float f32[] = {-0.5f};
  w.f32s(f32, 1);
  const std::string bytes = w.take();
  const std::string want(
      "\xAB"
      "\x04\x03\x02\x01"
      "\x08\x07\x06\x05\x04\x03\x02\x01"
      "\x00\x00\xC0\x3F"                  // 1.5f
      "\x00\x00\x00\x00\x00\x00\x02\xC0"  // -2.25
      "\x02\x00\x00\x00hi"
      "\xFE\xFF\x02\x01"
      "\x00\x00\x00\xBF",  // -0.5f
      39);
  EXPECT_EQ(bytes, want);

  wire::Reader r(bytes);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0x01020304u);
  EXPECT_EQ(r.u64(), 0x0102030405060708ull);
  EXPECT_EQ(r.f32(), 1.5f);
  EXPECT_EQ(r.f64(), -2.25);
  EXPECT_EQ(r.str(), "hi");
  std::vector<std::int16_t> i16_back;
  r.i16s(&i16_back, 2);
  EXPECT_EQ(i16_back, (std::vector<std::int16_t>{-2, 258}));
  std::vector<float> f32_back;
  r.f32s(&f32_back, 1);
  EXPECT_EQ(f32_back, (std::vector<float>{-0.5f}));
  EXPECT_TRUE(r.done());
}

TEST(Wire, ShortReadFailsAndStaysFailed) {
  const std::string bytes("\x01\x02\x03", 3);
  wire::Reader r(bytes);
  EXPECT_EQ(r.u32(), 0u);  // one byte short
  EXPECT_FALSE(r.ok());
  // The source still holds three bytes, but a failed reader reads
  // nothing more.
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_TRUE(r.bytes(0).empty());
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.done());

  // A read that ends exactly at the last byte is not a failure.
  wire::Reader exact(bytes);
  EXPECT_EQ(exact.bytes(3), bytes);
  EXPECT_TRUE(exact.done());
}

TEST(Wire, HostileCountsFailWithoutAllocating) {
  const std::string bytes(16, '\x7F');
  // 2^63 + 1 int16s and 2^62 + 1 floats wrap to 2 and 4 bytes if the
  // count is multiplied by the element size.
  for (const std::uint64_t n :
       {std::uint64_t{1} << 40, (std::uint64_t{1} << 62) + 1,
        (std::uint64_t{1} << 63) + 1}) {
    SCOPED_TRACE(n);
    wire::Reader a(bytes);
    std::vector<std::int16_t> i16;
    a.i16s(&i16, n);
    EXPECT_FALSE(a.ok());
    EXPECT_EQ(i16.capacity(), 0u);

    wire::Reader b(bytes);
    std::vector<float> f32;
    b.f32s(&f32, n);
    EXPECT_FALSE(b.ok());
    EXPECT_EQ(f32.capacity(), 0u);

    wire::Reader c(bytes);
    std::vector<std::uint8_t> u8;
    c.u8s(&u8, n);
    EXPECT_FALSE(c.ok());
    EXPECT_EQ(u8.capacity(), 0u);

    wire::Reader d(bytes);
    EXPECT_TRUE(d.bytes(n).empty());
    EXPECT_FALSE(d.ok());
  }
  // The largest count that fits still reads.
  wire::Reader r(bytes);
  std::vector<std::int16_t> i16;
  r.i16s(&i16, 8);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(i16.size(), 8u);
}

}  // namespace
}  // namespace ssma
