// Unit tests for the support substrate: checked arithmetic, rationals,
// the thread pool and the deterministic RNG.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "support/checked.h"
#include "support/error.h"
#include "support/rational.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace vdep {
namespace {

using checked::i64;

constexpr i64 kMax = std::numeric_limits<i64>::max();
constexpr i64 kMin = std::numeric_limits<i64>::min();

TEST(Checked, AddBasics) {
  EXPECT_EQ(checked::add(2, 3), 5);
  EXPECT_EQ(checked::add(-2, 3), 1);
  EXPECT_EQ(checked::add(kMax, 0), kMax);
}

TEST(Checked, AddOverflowThrows) {
  EXPECT_THROW(checked::add(kMax, 1), OverflowError);
  EXPECT_THROW(checked::add(kMin, -1), OverflowError);
}

TEST(Checked, SubOverflowThrows) {
  EXPECT_THROW(checked::sub(kMin, 1), OverflowError);
  EXPECT_THROW(checked::sub(0, kMin), OverflowError);
}

TEST(Checked, MulBasics) {
  EXPECT_EQ(checked::mul(7, -6), -42);
  EXPECT_EQ(checked::mul(0, kMax), 0);
}

TEST(Checked, MulOverflowThrows) {
  EXPECT_THROW(checked::mul(kMax, 2), OverflowError);
  EXPECT_THROW(checked::mul(kMin, -1), OverflowError);
}

TEST(Checked, NegAndAbs) {
  EXPECT_EQ(checked::neg(5), -5);
  EXPECT_EQ(checked::abs(-5), 5);
  EXPECT_THROW(checked::neg(kMin), OverflowError);
  EXPECT_THROW(checked::abs(kMin), OverflowError);
}

TEST(Checked, FloorDivMatchesMath) {
  EXPECT_EQ(checked::floor_div(7, 2), 3);
  EXPECT_EQ(checked::floor_div(-7, 2), -4);
  EXPECT_EQ(checked::floor_div(7, -2), -4);
  EXPECT_EQ(checked::floor_div(-7, -2), 3);
  EXPECT_EQ(checked::floor_div(6, 3), 2);
  EXPECT_EQ(checked::floor_div(-6, 3), -2);
}

TEST(Checked, CeilDivMatchesMath) {
  EXPECT_EQ(checked::ceil_div(7, 2), 4);
  EXPECT_EQ(checked::ceil_div(-7, 2), -3);
  EXPECT_EQ(checked::ceil_div(7, -2), -3);
  EXPECT_EQ(checked::ceil_div(-7, -2), 4);
  EXPECT_EQ(checked::ceil_div(6, 3), 2);
}

TEST(Checked, FloorDivIntMinByMinusOneThrows) {
  EXPECT_THROW(checked::floor_div(kMin, -1), OverflowError);
  EXPECT_THROW(checked::ceil_div(kMin, -1), OverflowError);
}

TEST(Checked, DivByZeroThrows) {
  EXPECT_THROW(checked::floor_div(1, 0), PreconditionError);
  EXPECT_THROW(checked::ceil_div(1, 0), PreconditionError);
  EXPECT_THROW(checked::mod(1, 0), PreconditionError);
}

TEST(Checked, ModAlwaysNonNegative) {
  EXPECT_EQ(checked::mod(7, 3), 1);
  EXPECT_EQ(checked::mod(-7, 3), 2);
  EXPECT_EQ(checked::mod(7, -3), 1);
  EXPECT_EQ(checked::mod(-7, -3), 2);
  EXPECT_EQ(checked::mod(0, 5), 0);
}

TEST(Checked, FloorDivModIdentity) {
  // a == b * floor_div(a, b) + sign-adjusted mod for positive b.
  for (i64 a = -20; a <= 20; ++a)
    for (i64 b : {1, 2, 3, 5, 7}) {
      EXPECT_EQ(checked::add(checked::mul(checked::floor_div(a, b), b),
                             checked::mod(a, b)),
                a)
          << "a=" << a << " b=" << b;
    }
}

TEST(Checked, GcdBasics) {
  EXPECT_EQ(checked::gcd(12, 18), 6);
  EXPECT_EQ(checked::gcd(-12, 18), 6);
  EXPECT_EQ(checked::gcd(0, 0), 0);
  EXPECT_EQ(checked::gcd(0, 7), 7);
  EXPECT_EQ(checked::gcd(1, kMax), 1);
}

TEST(Checked, LcmBasics) {
  EXPECT_EQ(checked::lcm(4, 6), 12);
  EXPECT_EQ(checked::lcm(0, 5), 0);
  EXPECT_EQ(checked::lcm(-4, 6), 12);
}

TEST(Checked, ExtGcdBezoutSweep) {
  for (i64 a = -12; a <= 12; ++a)
    for (i64 b = -12; b <= 12; ++b) {
      auto e = checked::ext_gcd(a, b);
      EXPECT_EQ(e.g, checked::gcd(a, b));
      EXPECT_EQ(e.x * a + e.y * b, e.g) << "a=" << a << " b=" << b;
      EXPECT_GE(e.g, 0);
    }
}

TEST(Rational, NormalizesOnConstruction) {
  Rational r(6, -4);
  EXPECT_EQ(r.num(), -3);
  EXPECT_EQ(r.den(), 2);
  EXPECT_THROW(Rational(1, 0), PreconditionError);
}

TEST(Rational, ZeroHasDenominatorOne) {
  Rational r(0, 17);
  EXPECT_EQ(r.num(), 0);
  EXPECT_EQ(r.den(), 1);
  EXPECT_TRUE(r.is_zero());
}

TEST(Rational, Arithmetic) {
  Rational a(1, 2), b(1, 3);
  EXPECT_EQ(a + b, Rational(5, 6));
  EXPECT_EQ(a - b, Rational(1, 6));
  EXPECT_EQ(a * b, Rational(1, 6));
  EXPECT_EQ(a / b, Rational(3, 2));
  EXPECT_EQ(-a, Rational(-1, 2));
}

TEST(Rational, DivisionByZeroThrows) {
  EXPECT_THROW(Rational(1, 2) / Rational(0), PreconditionError);
}

TEST(Rational, Ordering) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(-1, 3));
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
  EXPECT_GT(Rational(7, 2), Rational(3));
}

TEST(Rational, FloorCeil) {
  EXPECT_EQ(Rational(7, 2).floor(), 3);
  EXPECT_EQ(Rational(7, 2).ceil(), 4);
  EXPECT_EQ(Rational(-7, 2).floor(), -4);
  EXPECT_EQ(Rational(-7, 2).ceil(), -3);
  EXPECT_EQ(Rational(6, 2).floor(), 3);
  EXPECT_EQ(Rational(6, 2).ceil(), 3);
}

TEST(Rational, AsInteger) {
  EXPECT_EQ(Rational(6, 2).as_integer(), 3);
  EXPECT_THROW(Rational(1, 2).as_integer(), PreconditionError);
}

TEST(Rational, ToString) {
  EXPECT_EQ(Rational(1, 2).to_string(), "1/2");
  EXPECT_EQ(Rational(4, 2).to_string(), "2");
}

// Chunk counts below, at and above the pool size (2, size(), size() + 3)
// must run every chunk exactly once, like a large count.
TEST(ThreadPool, RunsEveryChunkExactlyOnce) {
  ThreadPool pool(4);
  for (std::int64_t chunks : {2, 4, 7, 257}) {
    for (int round = 0; round < 20; ++round) {
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(chunks));
      pool.parallel_for(chunks, [&](std::int64_t c) {
        hits[static_cast<std::size_t>(c)]++;
      });
      for (auto& h : hits) ASSERT_EQ(h.load(), 1) << "chunks=" << chunks;
    }
  }
}

TEST(ThreadPool, ZeroAndNegativeChunksAreNoops) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(0, [&](std::int64_t) { count++; });
  pool.parallel_for(-5, [&](std::int64_t) { count++; });
  EXPECT_EQ(count.load(), 0);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  for (std::int64_t chunks : {2, 4, 7, 8}) {
    // One throwing chunk: its error comes back and every chunk still ran.
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(chunks));
    try {
      pool.parallel_for(chunks, [&](std::int64_t c) {
        hits[static_cast<std::size_t>(c)]++;
        if (c == chunks / 2) throw Error("boom");
      });
      ADD_FAILURE() << "no exception, chunks=" << chunks;
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "boom");
    }
    for (auto& h : hits) EXPECT_EQ(h.load(), 1) << "chunks=" << chunks;
    // Every chunk throwing: exactly one of their errors comes back.
    try {
      pool.parallel_for(chunks, [&](std::int64_t c) {
        throw Error("chunk " + std::to_string(c));
      });
      ADD_FAILURE() << "no exception, chunks=" << chunks;
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("chunk ", 0), 0u);
    }
    // The pool stays usable after a failed call.
    std::atomic<std::int64_t> after{0};
    pool.parallel_for(chunks, [&](std::int64_t) { after++; });
    EXPECT_EQ(after.load(), chunks);
  }
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::int64_t sum = 0;
  pool.parallel_for(100, [&](std::int64_t c) { sum += c; });
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.parallel_for(64, [&](std::int64_t c) { sum += c; });
    EXPECT_EQ(sum.load(), 64 * 63 / 2);
  }
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  EXPECT_THROW(rng.uniform(3, 2), PreconditionError);
}

TEST(Rng, UniformCoversRange) {
  Rng rng(99);
  bool seen[11] = {};
  for (int i = 0; i < 2000; ++i) seen[rng.uniform(0, 10)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

}  // namespace
}  // namespace vdep
