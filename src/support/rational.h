// Exact rational numbers over checked int64, always kept in lowest terms
// with a positive denominator. Used by Fourier-Motzkin elimination and the
// Banerjee bounds test; lattice code stays purely integral.
#pragma once

#include <compare>
#include <iosfwd>
#include <string>

#include "support/checked.h"

namespace vdep {

class Rational {
 public:
  using i64 = checked::i64;

  constexpr Rational() = default;
  Rational(i64 value) : num_(value) {}  // NOLINT: implicit by design
  Rational(i64 num, i64 den);

  i64 num() const { return num_; }
  i64 den() const { return den_; }

  bool is_zero() const { return num_ == 0; }
  bool is_integer() const { return den_ == 1; }

  /// Largest integer <= *this.
  i64 floor() const { return checked::floor_div(num_, den_); }
  /// Smallest integer >= *this.
  i64 ceil() const { return checked::ceil_div(num_, den_); }

  /// Exact integer value; throws unless is_integer().
  i64 as_integer() const;

  Rational operator-() const;
  Rational& operator+=(const Rational& o);
  Rational& operator-=(const Rational& o);
  Rational& operator*=(const Rational& o);
  Rational& operator/=(const Rational& o);

  friend Rational operator+(Rational a, const Rational& b) { return a += b; }
  friend Rational operator-(Rational a, const Rational& b) { return a -= b; }
  friend Rational operator*(Rational a, const Rational& b) { return a *= b; }
  friend Rational operator/(Rational a, const Rational& b) { return a /= b; }

  friend bool operator==(const Rational& a, const Rational& b) {
    return a.num_ == b.num_ && a.den_ == b.den_;
  }
  friend std::strong_ordering operator<=>(const Rational& a, const Rational& b);

  std::string to_string() const;

 private:
  void normalize();

  i64 num_ = 0;
  i64 den_ = 1;
};

std::ostream& operator<<(std::ostream& os, const Rational& r);

}  // namespace vdep
