// Four-state logic values for vectors up to 64 bits, with Verilog-faithful
// operator semantics (pessimistic X propagation for arithmetic, per-bit
// short-circuit for & and |, 1-bit unknown results for comparisons touching
// X). The simulator, the differential testbench, and the hallucination
// injector's behavioural checks all operate on this type.
//
// Everything except to_string() is defined inline: the v_* kernels are the
// innermost loop of both simulator backends, and keeping them visible to the
// compiler lets the bytecode executor fold an op sequence into straight-line
// bit arithmetic instead of a call per op.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace haven::sim {

class Value {
 public:
  // All-X value of the given width.
  explicit Value(int width = 1) : width_(width) {
    if (width < 1 || width > 64) throw std::invalid_argument("Value: width out of range 1..64");
    xz_ = mask();
  }

  // Fully-defined value (truncated to width).
  static Value of(std::uint64_t bits, int width) {
    Value v(width);
    v.bits_ = bits;
    v.xz_ = 0;
    v.normalize();
    return v;
  }
  // Value with explicit unknown mask.
  static Value with_xz(std::uint64_t bits, std::uint64_t xz, int width) {
    Value v(width);
    v.bits_ = bits;
    v.xz_ = xz;
    v.normalize();
    return v;
  }
  static Value all_x(int width) { return Value(width); }

  int width() const { return width_; }
  std::uint64_t bits() const { return bits_; }
  std::uint64_t xz() const { return xz_; }

  bool is_fully_defined() const { return xz_ == 0; }
  bool is_all_x() const { return xz_ == mask(); }

  // Defined-and-nonzero (Verilog truthiness for if/ternary conditions; an
  // unknown condition behaves as false in our simulator, matching common
  // event-driven simulator behaviour for 2-valued branching).
  bool truthy() const { return xz_ == 0 && bits_ != 0; }

  // Exact state equality (like ===): same width after normalization, same
  // bits, same unknowns.
  bool identical(const Value& o) const {
    return width_ == o.width_ && bits_ == o.bits_ && xz_ == o.xz_;
  }

  // Zero-extend or truncate to a new width.
  Value resized(int new_width) const {
    Value v(new_width);
    v.bits_ = bits_;
    v.xz_ = xz_;
    v.normalize();
    return v;
  }

  std::uint64_t mask() const {
    return width_ >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width_) - 1);
  }

  // Verilog string like 4'b10x1 (binary always, for test legibility).
  std::string to_string() const;

  // --- operators (widths: result max(w1,w2) unless stated) ---
  friend Value v_and(const Value& a, const Value& b);
  friend Value v_or(const Value& a, const Value& b);
  friend Value v_xor(const Value& a, const Value& b);
  friend Value v_not(const Value& a);

  friend Value v_add(const Value& a, const Value& b);
  friend Value v_sub(const Value& a, const Value& b);
  friend Value v_mul(const Value& a, const Value& b);
  friend Value v_div(const Value& a, const Value& b);
  friend Value v_mod(const Value& a, const Value& b);
  friend Value v_pow(const Value& a, const Value& b);  // width of a
  friend Value v_neg(const Value& a);

  friend Value v_shl(const Value& a, const Value& b);  // width of a
  friend Value v_shr(const Value& a, const Value& b);  // width of a

  // Relational/equality: 1-bit result, X if any participating bit unknown
  // (except == where mismatching defined bits give a definite 0).
  friend Value v_eq(const Value& a, const Value& b);
  friend Value v_neq(const Value& a, const Value& b);
  friend Value v_lt(const Value& a, const Value& b);
  friend Value v_le(const Value& a, const Value& b);
  friend Value v_gt(const Value& a, const Value& b);
  friend Value v_ge(const Value& a, const Value& b);
  friend Value v_case_eq(const Value& a, const Value& b);  // === (always defined)

  // Logical: 1-bit.
  friend Value v_logical_not(const Value& a);
  friend Value v_logical_and(const Value& a, const Value& b);
  friend Value v_logical_or(const Value& a, const Value& b);

  // Reductions: 1-bit.
  friend Value v_red_and(const Value& a);
  friend Value v_red_or(const Value& a);
  friend Value v_red_xor(const Value& a);

  friend Value v_concat(const Value& hi, const Value& lo);

 private:
  int width_ = 1;
  std::uint64_t bits_ = 0;
  std::uint64_t xz_ = 0;

  void normalize() {
    const std::uint64_t m = mask();
    xz_ &= m;
    bits_ &= m & ~xz_;  // unknown bits carry no defined value
  }

  static int max_w(const Value& a, const Value& b) { return std::max(a.width_, b.width_); }
};

inline Value v_and(const Value& a0, const Value& b0) {
  const int w = Value::max_w(a0, b0);
  const Value a = a0.resized(w), b = b0.resized(w);
  // Bit is 0 if either side is a defined 0; unknown if both could be 1 and
  // either is unknown.
  const std::uint64_t zero_a = ~a.bits_ & ~a.xz_;
  const std::uint64_t zero_b = ~b.bits_ & ~b.xz_;
  const std::uint64_t known_zero = zero_a | zero_b;
  const std::uint64_t known_one = (a.bits_ & ~a.xz_) & (b.bits_ & ~b.xz_);
  const std::uint64_t unknown = ~(known_zero | known_one);
  return Value::with_xz(known_one, unknown, w);
}

inline Value v_or(const Value& a0, const Value& b0) {
  const int w = Value::max_w(a0, b0);
  const Value a = a0.resized(w), b = b0.resized(w);
  const std::uint64_t one_a = a.bits_ & ~a.xz_;
  const std::uint64_t one_b = b.bits_ & ~b.xz_;
  const std::uint64_t known_one = one_a | one_b;
  const std::uint64_t known_zero = (~a.bits_ & ~a.xz_) & (~b.bits_ & ~b.xz_);
  const std::uint64_t unknown = ~(known_zero | known_one);
  return Value::with_xz(known_one, unknown, w);
}

inline Value v_xor(const Value& a0, const Value& b0) {
  const int w = Value::max_w(a0, b0);
  const Value a = a0.resized(w), b = b0.resized(w);
  const std::uint64_t unknown = a.xz_ | b.xz_;
  return Value::with_xz((a.bits_ ^ b.bits_) & ~unknown, unknown, w);
}

inline Value v_not(const Value& a) {
  return Value::with_xz(~a.bits_ & ~a.xz_, a.xz_, a.width());
}

inline Value v_add(const Value& a0, const Value& b0) {
  const int w = Value::max_w(a0, b0);
  if (!a0.is_fully_defined() || !b0.is_fully_defined()) return Value::all_x(w);
  return Value::of(a0.bits_ + b0.bits_, w);
}

inline Value v_sub(const Value& a0, const Value& b0) {
  const int w = Value::max_w(a0, b0);
  if (!a0.is_fully_defined() || !b0.is_fully_defined()) return Value::all_x(w);
  return Value::of(a0.bits_ - b0.bits_, w);
}

inline Value v_mul(const Value& a0, const Value& b0) {
  const int w = Value::max_w(a0, b0);
  if (!a0.is_fully_defined() || !b0.is_fully_defined()) return Value::all_x(w);
  return Value::of(a0.bits_ * b0.bits_, w);
}

inline Value v_div(const Value& a0, const Value& b0) {
  const int w = Value::max_w(a0, b0);
  if (!a0.is_fully_defined() || !b0.is_fully_defined() || b0.bits_ == 0) return Value::all_x(w);
  return Value::of(a0.bits_ / b0.bits_, w);
}

inline Value v_mod(const Value& a0, const Value& b0) {
  const int w = Value::max_w(a0, b0);
  if (!a0.is_fully_defined() || !b0.is_fully_defined() || b0.bits_ == 0) return Value::all_x(w);
  return Value::of(a0.bits_ % b0.bits_, w);
}

// Repeated multiplication, at most 64 factors; X if either side is unknown.
inline Value v_pow(const Value& a, const Value& b) {
  if (!a.is_fully_defined() || !b.is_fully_defined()) return Value::all_x(a.width());
  std::uint64_t r = 1;
  for (std::uint64_t i = 0; i < b.bits_ && i < 64; ++i) r *= a.bits_;
  return Value::of(r, a.width());
}

inline Value v_neg(const Value& a) {
  if (!a.is_fully_defined()) return Value::all_x(a.width());
  return Value::of(~a.bits_ + 1, a.width());
}

inline Value v_shl(const Value& a, const Value& b) {
  if (!b.is_fully_defined()) return Value::all_x(a.width());
  const std::uint64_t sh = b.bits_;
  if (sh >= 64) return Value::of(0, a.width());
  return Value::with_xz(a.bits_ << sh, a.xz_ << sh, a.width());
}

inline Value v_shr(const Value& a, const Value& b) {
  if (!b.is_fully_defined()) return Value::all_x(a.width());
  const std::uint64_t sh = b.bits_;
  if (sh >= 64) return Value::of(0, a.width());
  return Value::with_xz(a.bits_ >> sh, a.xz_ >> sh, a.width());
}

inline Value v_eq(const Value& a0, const Value& b0) {
  const int w = Value::max_w(a0, b0);
  const Value a = a0.resized(w), b = b0.resized(w);
  // Definite 0 if any bit defined on both sides differs.
  const std::uint64_t both_defined = ~a.xz_ & ~b.xz_;
  if ((a.bits_ ^ b.bits_) & both_defined) return Value::of(0, 1);
  if (a.xz_ | b.xz_) return Value::all_x(1);
  return Value::of(1, 1);
}

inline Value v_neq(const Value& a, const Value& b) {
  const Value e = v_eq(a, b);
  if (!e.is_fully_defined()) return e;
  return Value::of(e.bits_ ? 0 : 1, 1);
}

inline Value v_lt(const Value& a, const Value& b) {
  if (!a.is_fully_defined() || !b.is_fully_defined()) return Value::all_x(1);
  return Value::of(a.bits_ < b.bits_ ? 1 : 0, 1);
}
inline Value v_le(const Value& a, const Value& b) {
  if (!a.is_fully_defined() || !b.is_fully_defined()) return Value::all_x(1);
  return Value::of(a.bits_ <= b.bits_ ? 1 : 0, 1);
}
inline Value v_gt(const Value& a, const Value& b) {
  if (!a.is_fully_defined() || !b.is_fully_defined()) return Value::all_x(1);
  return Value::of(a.bits_ > b.bits_ ? 1 : 0, 1);
}
inline Value v_ge(const Value& a, const Value& b) {
  if (!a.is_fully_defined() || !b.is_fully_defined()) return Value::all_x(1);
  return Value::of(a.bits_ >= b.bits_ ? 1 : 0, 1);
}

inline Value v_case_eq(const Value& a0, const Value& b0) {
  const int w = Value::max_w(a0, b0);
  const Value a = a0.resized(w), b = b0.resized(w);
  return Value::of(a.bits_ == b.bits_ && a.xz_ == b.xz_ ? 1 : 0, 1);
}

inline Value v_logical_not(const Value& a) {
  if (a.bits_ != 0) return Value::of(0, 1);     // some defined 1 -> value nonzero
  if (a.xz_ != 0) return Value::all_x(1);       // all-zero-or-unknown -> unknown
  return Value::of(1, 1);
}

inline Value v_logical_and(const Value& a, const Value& b) {
  const Value na = v_logical_not(a), nb = v_logical_not(b);
  // a truthy <=> !a == 0.
  auto truth = [](const Value& n) -> int {  // 1 true, 0 false, -1 unknown
    if (!n.is_fully_defined()) return -1;
    return n.bits() == 0 ? 1 : 0;
  };
  const int ta = truth(na), tb = truth(nb);
  if (ta == 0 || tb == 0) return Value::of(0, 1);
  if (ta == 1 && tb == 1) return Value::of(1, 1);
  return Value::all_x(1);
}

inline Value v_logical_or(const Value& a, const Value& b) {
  const Value na = v_logical_not(a), nb = v_logical_not(b);
  auto truth = [](const Value& n) -> int {
    if (!n.is_fully_defined()) return -1;
    return n.bits() == 0 ? 1 : 0;
  };
  const int ta = truth(na), tb = truth(nb);
  if (ta == 1 || tb == 1) return Value::of(1, 1);
  if (ta == 0 && tb == 0) return Value::of(0, 1);
  return Value::all_x(1);
}

inline Value v_red_and(const Value& a) {
  // 0 if any defined 0 bit; else X if any unknown; else 1.
  if ((~a.bits_ & ~a.xz_ & a.mask()) != 0) return Value::of(0, 1);
  if (a.xz_ != 0) return Value::all_x(1);
  return Value::of(1, 1);
}

inline Value v_red_or(const Value& a) {
  if (a.bits_ != 0) return Value::of(1, 1);
  if (a.xz_ != 0) return Value::all_x(1);
  return Value::of(0, 1);
}

inline Value v_red_xor(const Value& a) {
  if (a.xz_ != 0) return Value::all_x(1);
  return Value::of(static_cast<std::uint64_t>(__builtin_popcountll(a.bits_) & 1), 1);
}

inline Value v_concat(const Value& hi, const Value& lo) {
  const int w = hi.width() + lo.width();
  if (w > 64) throw std::invalid_argument("v_concat: result wider than 64 bits");
  return Value::with_xz((hi.bits() << lo.width()) | lo.bits(),
                        (hi.xz() << lo.width()) | lo.xz(), w);
}

}  // namespace haven::sim
