// Dual-rail symbolic execution of sim::Program bytecode (lower.h,
// DESIGN.md §12). Each opcode maps to the symbolic twin of the v_* helper
// program.cpp calls for it, so the prover and the compiled simulator read
// one lowering of the Verilog source. The cardinal rule: when the settled
// state cannot be reproduced bit-identically as a pure function of the
// swept inputs, throw UnsupportedError — never approximate.
//
// Control flow: a process runs as a set of path states (path condition,
// scratch registers, the bits written so far) taken in ascending pc order.
// A conditional jump on a symbolic condition forks; the states meeting at a
// pc merge, bit by bit, into an if-then-else. Compiled code is structured
// and only a for loop's back edge jumps backwards, so every path through an
// if, case or ternary has merged before any later instruction runs, and a
// back edge is always taken by the one state inside its loop.
#include "prove/lower.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/program.h"
#include "sim/value.h"

namespace haven::prove {
namespace {

using sim::Instr;
using sim::Op;
using sim::ProcessKind;
using sim::ProgProcess;
using sim::Program;
using sim::Value;
using verilog::CaseKind;

// program.cpp's loop cap; exceeding it there flags non-convergence, here it
// forces the simulation fallback which reproduces that flag.
constexpr int kMaxLoopIterations = 1 << 16;
// Longest chain of combinational processes: strictly below the simulator's
// delta-cycle cap (1000) so an acyclic design we accept can never be one the
// simulator fails to settle.
constexpr int kMaxCombDepth = 990;

[[noreturn]] void unsupported(const std::string& reason) { throw UnsupportedError(reason); }

// Kahn's topological order of the graph given by successor lists (duplicate
// edges allowed): among ready nodes the lowest index goes first. nullopt on
// a cycle or when a chain holds more than `max_depth` nodes.
std::optional<std::vector<std::uint32_t>> topo_order(
    const std::vector<std::vector<std::uint32_t>>& succ, int max_depth) {
  const std::size_t n = succ.size();
  std::vector<std::uint32_t> indeg(n, 0);
  for (const auto& out : succ) {
    for (const std::uint32_t s : out) ++indeg[s];
  }
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>, std::greater<>> ready;
  for (std::uint32_t k = 0; k < n; ++k) {
    if (indeg[k] == 0) ready.push(k);
  }
  std::vector<std::uint32_t> order;
  std::vector<int> depth(n, 1);
  while (!ready.empty()) {
    const std::uint32_t k = ready.top();
    ready.pop();
    order.push_back(k);
    for (const std::uint32_t s : succ[k]) {
      depth[s] = std::max(depth[s], depth[k] + 1);
      if (--indeg[s] == 0) ready.push(s);
    }
  }
  if (order.size() != n) return std::nullopt;
  if (n > 0 && *std::max_element(depth.begin(), depth.end()) > max_depth) return std::nullopt;
  return order;
}

int checked_width(int w) {
  if (w < 1 || w > 64) unsupported("vector width outside 1..64");
  return w;
}

bool is_store(Op op) {
  return op == Op::kStoreSig || op == Op::kStoreBitDyn || op == Op::kNbaSig ||
         op == Op::kNbaBitDyn;
}

class Lowerer {
 public:
  Lowerer(Aig* aig, const Program& program,
          const std::map<std::string, std::vector<Lit>>& input_vars)
      : aig_(aig),
        budget_(aig->budget()),
        prog_(program),
        input_vars_(input_vars),
        nsig_(static_cast<std::uint32_t>(program.signals.size())) {}

  std::vector<Word> run();

 private:
  // A scratch register: a word, unset (width 0), or a value the lowering
  // cannot model (`bad` says why). A bad value aborts the proof only when it
  // reaches a store or a branch, so a strict kSelect whose untaken arm
  // divides by a symbolic value still lowers.
  struct Reg {
    Word w = Word(0);
    const char* bad = nullptr;
  };
  static Reg fail(const char* why) { return Reg{Word(0), why}; }

  // One bit of a signal the running process writes: its value, and the
  // condition under which the current path has written it.
  struct TBit {
    Bit bit;
    Lit wr = kFalse;
  };

  // One path through the running process.
  struct State {
    Lit guard = kTrue;                   // path condition
    std::vector<Reg> temps;              // register r >= nsig at [r - nsig]
    std::vector<std::vector<TBit>> tgt;  // per target of the process
    std::vector<int> loops;              // kLoopGuard counters; -1 = merged
  };
  using Pending = std::map<std::uint32_t, std::vector<State>>;  // pc -> arrivals

  struct NbaWrite {
    std::uint32_t slot;
    int hi, lo;
    Word value;
  };

  // A triggered combinational process and the signals it writes.
  struct CombProc {
    std::uint32_t pi = 0;
    std::vector<std::uint32_t> targets;  // signal slots
    std::vector<std::uint64_t> masks;    // per target: bits it may write
  };

  // --- word helpers ---------------------------------------------------------
  Lit land(Lit a, Lit b) { return aig_->land(a, b); }
  Lit lor(Lit a, Lit b) { return aig_->lor(a, b); }
  Lit lxor(Lit a, Lit b) { return aig_->lxor(a, b); }
  Lit lmux(Lit s, Lit t, Lit f) { return aig_->lmux(s, t, f); }
  // Defined zero.
  Lit zero(const Bit& b) { return land(lit_not(b.v), lit_not(b.x)); }

  static Word bit1(Lit v, Lit x) {
    Word out(1);
    out[0] = Bit{v, x};
    return out;
  }

  static Word from_value(const Value& v) {
    Word w(v.width());
    for (int i = 0; i < v.width(); ++i)
      w[i] = (v.xz() >> i) & 1 ? Bit{kFalse, kTrue} : Bit{(v.bits() >> i) & 1 ? kTrue : kFalse, kFalse};
    return w;
  }

  static bool word_const(const Word& w, Value* out) {
    std::uint64_t bits = 0, xz = 0;
    for (int i = 0; i < w.width(); ++i) {
      const Bit& b = w[i];
      if ((b.v != kFalse && b.v != kTrue) || (b.x != kFalse && b.x != kTrue)) return false;
      bits |= std::uint64_t{b.v == kTrue} << i;
      xz |= std::uint64_t{b.x == kTrue} << i;
    }
    *out = Value::with_xz(bits, xz, w.width());
    return true;
  }

  // Zero-extend or truncate, mirroring Value::resized.
  static Word resized(const Word& w, int nw) {
    Word out(checked_width(nw));
    for (int i = 0; i < nw; ++i) out[i] = i < w.width() ? w[i] : Bit{kFalse, kFalse};
    return out;
  }

  Lit any_x(const Word& w) {
    Lit a = kFalse;
    for (const Bit& b : w.bits) a = lor(a, b.x);
    return a;
  }
  Lit any_v(const Word& w) {
    Lit a = kFalse;
    for (const Bit& b : w.bits) a = lor(a, b.v);
    return a;
  }
  // Value::truthy(): fully defined and nonzero.
  Lit truthy_lit(const Word& w) { return land(any_v(w), lit_not(any_x(w))); }

  std::vector<Lit> vplane(const Word& w, int nw) {
    std::vector<Lit> out(static_cast<std::size_t>(nw), kFalse);
    for (int i = 0; i < nw && i < w.width(); ++i) out[static_cast<std::size_t>(i)] = w[i].v;
    return out;
  }

  // All-or-nothing X gate used by arithmetic: any unknown input bit makes the
  // whole result X (v_add/v_sub/v_mul/v_neg).
  Word guard(Lit ax, const std::vector<Lit>& vbits) {
    Word out(static_cast<int>(vbits.size()));
    for (std::size_t i = 0; i < vbits.size(); ++i) out.bits[i] = Bit{land(lit_not(ax), vbits[i]), ax};
    return out;
  }

  std::vector<Lit> ripple_add(const std::vector<Lit>& a, const std::vector<Lit>& b, Lit cin) {
    std::vector<Lit> s(a.size(), kFalse);
    Lit c = cin;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const Lit axb = lxor(a[i], b[i]);
      s[i] = lxor(axb, c);
      c = lor(land(a[i], b[i]), land(c, axb));
    }
    return s;
  }

  // Value-plane equality of `idx` with constant k. Only meaningful in
  // contexts guarded by "idx fully defined".
  Lit eq_const(const Word& idx, std::uint64_t k) {
    const int w = idx.width();
    if (w < 64 && (k >> w) != 0) return kFalse;
    Lit acc = kTrue;
    for (int i = 0; i < w; ++i) acc = land(acc, ((k >> i) & 1) ? idx[i].v : lit_not(idx[i].v));
    return acc;
  }

  // --- operator kernels (symbolic mirrors of the v_* functions) -------------
  // Per-bit op on both operands zero-extended to the wider width.
  template <typename F>
  Word bitwise(const Word& a0, const Word& b0, F f) {
    const int w = std::max(a0.width(), b0.width());
    const Word a = resized(a0, w), b = resized(b0, w);
    Word out(w);
    for (int i = 0; i < w; ++i) out[i] = f(a[i], b[i]);
    return out;
  }

  Word w_and(const Word& a, const Word& b) {
    return bitwise(a, b, [&](const Bit& x, const Bit& y) {
      const Lit z = lor(zero(x), zero(y));
      const Lit one = land(x.v, y.v);
      return Bit{one, lit_not(lor(z, one))};
    });
  }

  Word w_or(const Word& a, const Word& b) {
    return bitwise(a, b, [&](const Bit& x, const Bit& y) {
      const Lit one = lor(x.v, y.v);
      const Lit z = land(zero(x), zero(y));
      return Bit{one, lit_not(lor(z, one))};
    });
  }

  Word w_xor(const Word& a, const Word& b) {
    return bitwise(a, b, [&](const Bit& x, const Bit& y) {
      const Lit ux = lor(x.x, y.x);
      return Bit{land(lxor(x.v, y.v), lit_not(ux)), ux};
    });
  }

  // Bitwise merge under an unknown condition, at the wider width (the
  // X-merge of kSelect and kMergeX).
  Word merge_x(const Word& t, const Word& f) {
    return bitwise(t, f, [&](const Bit& x, const Bit& y) {
      const Lit agree = land(lit_not(lxor(x.v, y.v)), land(lit_not(x.x), lit_not(y.x)));
      return Bit{land(x.v, agree), lit_not(agree)};
    });
  }

  Word w_not(const Word& a) {
    Word out(a.width());
    for (int i = 0; i < a.width(); ++i) out[i] = Bit{zero(a[i]), a[i].x};
    return out;
  }

  Word w_add(const Word& a, const Word& b) {
    const int w = std::max(a.width(), b.width());
    const Lit ax = lor(any_x(a), any_x(b));
    return guard(ax, ripple_add(vplane(a, w), vplane(b, w), kFalse));
  }

  Word w_sub(const Word& a, const Word& b) {
    const int w = std::max(a.width(), b.width());
    const Lit ax = lor(any_x(a), any_x(b));
    std::vector<Lit> nb = vplane(b, w);
    for (Lit& l : nb) l = lit_not(l);
    return guard(ax, ripple_add(vplane(a, w), nb, kTrue));
  }

  Word w_mul(const Word& a, const Word& b) {
    const int w = std::max(a.width(), b.width());
    const Lit ax = lor(any_x(a), any_x(b));
    const std::vector<Lit> va = vplane(a, w), vb = vplane(b, w);
    std::vector<Lit> acc(static_cast<std::size_t>(w), kFalse);
    for (std::size_t i = 0; i < vb.size(); ++i) {
      if (vb[i] == kFalse) continue;
      std::vector<Lit> row(vb.size(), kFalse);
      for (std::size_t j = i; j < vb.size(); ++j) row[j] = land(vb[i], va[j - i]);
      acc = ripple_add(acc, row, kFalse);
    }
    return guard(ax, acc);
  }

  Word w_neg(const Word& a) {
    std::vector<Lit> na = vplane(a, a.width());
    for (Lit& l : na) l = lit_not(l);
    return guard(any_x(a), ripple_add(na, std::vector<Lit>(na.size(), kFalse), kTrue));
  }

  Word w_shift(const Word& a, const Word& b, bool left) {
    const int w = a.width();
    const Lit bx = any_x(b);
    if (bx == kTrue) return Word(w);
    // Shift counts >= w (including >= 64) match no eq term: a defined zero,
    // exactly v_shl/v_shr's masked result.
    Word out(w);
    for (int j = 0; j < w; ++j) out[j] = Bit{kFalse, kFalse};
    for (int k = 0; k < w; ++k) {
      const Lit eq = eq_const(b, static_cast<std::uint64_t>(k));
      if (eq == kFalse) continue;
      for (int j = 0; j < w; ++j) {
        const int src = left ? j - k : j + k;
        if (src < 0 || src >= w) continue;
        out[j] = Bit{lor(out[j].v, land(eq, a[src].v)), lor(out[j].x, land(eq, a[src].x))};
      }
    }
    for (int j = 0; j < w; ++j) out[j] = Bit{land(lit_not(bx), out[j].v), lor(bx, out[j].x)};
    return out;
  }

  Word w_eq(const Word& a0, const Word& b0) {
    const int w = std::max(a0.width(), b0.width());
    const Word a = resized(a0, w), b = resized(b0, w);
    Lit mismatch = kFalse, anyx = kFalse;
    for (int i = 0; i < w; ++i) {
      mismatch = lor(mismatch, land(land(lit_not(a[i].x), lit_not(b[i].x)), lxor(a[i].v, b[i].v)));
      anyx = lor(anyx, lor(a[i].x, b[i].x));
    }
    return bit1(land(lit_not(mismatch), lit_not(anyx)), land(lit_not(mismatch), anyx));
  }

  Word w_neq(const Word& a, const Word& b) {
    const Word e = w_eq(a, b);
    return bit1(zero(e[0]), e[0].x);
  }

  // ===: every bit identical, X included.
  Word w_case_eq(const Word& a0, const Word& b0) {
    const int w = std::max(a0.width(), b0.width());
    const Word a = resized(a0, w), b = resized(b0, w);
    Lit same = kTrue;
    for (int i = 0; i < w; ++i)
      same = land(same, land(lit_not(lxor(a[i].v, b[i].v)), lit_not(lxor(a[i].x, b[i].x))));
    return bit1(same, kFalse);
  }

  // kCaseCmp: 1 iff the subject matches the label, wildcards per case kind.
  Word w_case_cmp(const Word& subject, const Word& label, CaseKind kind) {
    const int w = std::max(subject.width(), label.width());
    const Word sv = resized(subject, w), lv = resized(label, w);
    Lit m = kTrue;
    for (int i = 0; i < w; ++i) {
      Lit wildcard = kFalse;
      if (kind == CaseKind::kCasez) wildcard = lv[i].x;
      else if (kind == CaseKind::kCasex) wildcard = lor(lv[i].x, sv[i].x);
      const Lit same = land(lit_not(lxor(sv[i].v, lv[i].v)), lit_not(lxor(sv[i].x, lv[i].x)));
      m = land(m, lor(wildcard, same));
    }
    return bit1(m, kFalse);
  }

  Word w_cmp(const Word& a, const Word& b, Op op) {
    const Lit anyx = lor(any_x(a), any_x(b));
    const int w = std::max(a.width(), b.width());
    const std::vector<Lit> va = vplane(a, w), vb = vplane(b, w);
    Lit lt = kFalse, eqp = kTrue;
    for (std::size_t i = va.size(); i-- > 0;) {
      lt = lor(lt, land(eqp, land(lit_not(va[i]), vb[i])));
      eqp = land(eqp, lit_not(lxor(va[i], vb[i])));
    }
    const Lit le = lor(lt, eqp);
    const Lit r = op == Op::kLt ? lt : op == Op::kLe ? le : op == Op::kGt ? lit_not(le) : lit_not(lt);
    return guard(anyx, {r});
  }

  Word w_logical_not(const Word& a) {
    const Lit one = any_v(a), x = any_x(a);
    return bit1(land(lit_not(one), lit_not(x)), land(lit_not(one), x));
  }

  Word w_logical_bin(const Word& a, const Word& b, bool is_and) {
    const Lit at = any_v(a), bt = any_v(b);
    const Lit af = land(lit_not(at), lit_not(any_x(a)));
    const Lit bf = land(lit_not(bt), lit_not(any_x(b)));
    const Lit v = is_and ? land(at, bt) : lor(at, bt);
    const Lit z = is_and ? lor(af, bf) : land(af, bf);
    return bit1(v, land(lit_not(v), lit_not(z)));
  }

  Word w_red_and(const Word& a) {
    Lit def0 = kFalse;
    for (const Bit& b : a.bits) def0 = lor(def0, zero(b));
    const Lit x = any_x(a);
    return bit1(land(lit_not(def0), lit_not(x)), land(lit_not(def0), x));
  }

  Word w_red_or(const Word& a) {
    const Lit one = any_v(a), x = any_x(a);
    return bit1(one, land(lit_not(one), x));
  }

  Word w_red_xor(const Word& a) {
    const Lit x = any_x(a);
    Lit parity = kFalse;
    for (const Bit& b : a.bits) parity = lxor(parity, b.v);
    return guard(x, {parity});
  }

  Word w_concat(const Word& hi, const Word& lo) {
    if (hi.width() + lo.width() > 64) unsupported("concatenation wider than 64 bits");
    Word out(lo);
    out.bits.insert(out.bits.end(), hi.bits.begin(), hi.bits.end());
    return out;
  }

  // --- registers ------------------------------------------------------------
  // Bit j of signal `slot` as path `s` sees it; nullptr, or why it cannot.
  const char* read_bit(const State& s, std::uint32_t slot, int j, Bit* out) const {
    const int t = tidx_[slot];
    if (t >= 0) {
      const TBit& tb = s.tgt[static_cast<std::size_t>(t)][static_cast<std::size_t>(j)];
      if (tb.wr == kTrue) {
        *out = tb.bit;
        return nullptr;
      }
      if (tb.wr != kFalse) return "reads a conditionally-assigned target";
      // Not yet written on this path: sound only for bits the process can
      // never write. A writable bit would observe the previous activation,
      // which one pass cannot model.
      if ((masks_[static_cast<std::size_t>(t)] >> j) & 1)
        return "reads its own target before assigning it";
    }
    // A settled value the process does not watch could change after it
    // ran, leaving its result dependent on event order.
    if (!initial_ && !watched_[slot]) return "incomplete sensitivity list";
    *out = state_[slot][j];
    return nullptr;
  }

  // Bits [lo, lo + n) of register r (n < 0: all); bits past its width read
  // as defined 0 (Value's zero extension). A whole temporary comes back by
  // reference, anything else is built in `scratch`.
  const Reg& read(const State& s, std::uint32_t r, Reg& scratch, int lo = 0, int n = -1) const {
    const Reg* t = r >= nsig_ ? &s.temps[r - nsig_] : nullptr;
    if (t && !t->bad && t->w.width() == 0) return scratch = fail("reads an unwritten register");
    if (t && (t->bad || (lo == 0 && (n < 0 || n == t->w.width())))) return *t;
    const int w = t ? t->w.width() : prog_.signals[r].width;
    scratch = Reg{Word(n < 0 ? w : n), nullptr};
    for (int j = 0; j < scratch.w.width(); ++j) {
      Bit& b = scratch.w[j];
      if (lo + j >= w) b = Bit{kFalse, kFalse};
      else if (t) b = t->w[lo + j];
      else if (const char* why = read_bit(s, r, lo + j, &b)) return scratch = fail(why);
    }
    return scratch;
  }

  // Value ops write scratch registers only.
  void set(State& s, std::uint32_t dst, Reg v) const { s.temps[dst - nsig_] = std::move(v); }

  // --- one instruction ------------------------------------------------------
  // r[dst] = f(r[a]) / f(r[a], r[b]); f is a kernel member or a callable.
  template <typename F, typename... W>
  Word apply(F f, const W&... w) {
    if constexpr (std::is_member_function_pointer_v<F>)
      return (this->*f)(w...);
    else
      return f(w...);
  }

  template <typename F>
  void unary(State& s, const Instr& in, F f) {
    Reg sa;
    const Reg& a = read(s, in.a, sa);
    set(s, in.dst, a.bad ? a : Reg{apply(f, a.w), nullptr});
  }

  template <typename F>
  void binary(State& s, const Instr& in, F f) {
    Reg sa, sb;
    const Reg& a = read(s, in.a, sa);
    const Reg& b = read(s, in.b, sb);
    if (a.bad || b.bad) return set(s, in.dst, a.bad ? a : b);
    set(s, in.dst, Reg{apply(f, a.w, b.w), nullptr});
  }

  // No AIG builder: exact through the v_* helper on constants, otherwise a
  // bad value.
  void constant_only(State& s, const Instr& in, Value (*f)(const Value&, const Value&)) {
    Reg sa, sb;
    const Reg& a = read(s, in.a, sa);
    const Reg& b = read(s, in.b, sb);
    if (a.bad || b.bad) return set(s, in.dst, a.bad ? a : b);
    Value av, bv;
    if (!word_const(a.w, &av) || !word_const(b.w, &bv))
      return set(s, in.dst, fail("non-constant operand to '/', '%' or '**'"));
    set(s, in.dst, Reg{from_value(f(av, bv)), nullptr});
  }

  void select(State& s, const Instr& in) {
    Reg sc, sa, sb;
    const Reg& c = read(s, in.a, sc);
    if (c.bad) return set(s, in.dst, c);
    const Lit t_lit = truthy_lit(c.w);
    const Lit u_lit = any_x(c.w);
    // Constant conditions pass one arm through untouched, like program.cpp.
    if (t_lit == kTrue) return set(s, in.dst, read(s, in.b, sa));
    if (t_lit == kFalse && u_lit == kFalse) return set(s, in.dst, read(s, in.c, sb));
    const Reg& t = read(s, in.b, sa);
    const Reg& f = read(s, in.c, sb);
    if (t.bad) return set(s, in.dst, t);
    if (f.bad) return set(s, in.dst, f);
    // A symbolic condition's result width depends on the arm taken, so
    // unequal widths cannot be modelled.
    if (u_lit != kTrue && t.w.width() != f.w.width())
      return set(s, in.dst, fail("ternary arms of different widths under a symbolic condition"));
    Word out = merge_x(t.w, f.w);  // all a constant-X condition needs
    if (u_lit != kTrue) {
      for (int i = 0; i < out.width(); ++i) {
        out[i] = Bit{lmux(t_lit, t.w[i].v, lmux(u_lit, out[i].v, f.w[i].v)),
                     lmux(t_lit, t.w[i].x, lmux(u_lit, out[i].x, f.w[i].x))};
      }
    }
    set(s, in.dst, Reg{std::move(out), nullptr});
  }

  void bit_select(State& s, const Instr& in) {
    Reg si, sa;
    const Reg& idx = read(s, in.b, si);
    if (idx.bad) return set(s, in.dst, idx);
    Value iv;
    if (word_const(idx.w, &iv)) {
      const Reg* t = in.a >= nsig_ ? &s.temps[in.a - nsig_] : nullptr;
      const int w = t ? t->w.width() : prog_.signals[in.a].width;
      if (t && (t->bad || w == 0)) return set(s, in.dst, read(s, in.a, sa));
      if (!iv.is_fully_defined() || iv.bits() >= static_cast<std::uint64_t>(w))
        return set(s, in.dst, Reg{Word(1), nullptr});  // X index or out of range: 1'bx
      return set(s, in.dst, read(s, in.a, sa, static_cast<int>(iv.bits()), 1));
    }
    // Symbolic index: one-hot select over every bit, X when the index is
    // unknown or out of range.
    const Reg& base = read(s, in.a, sa);
    if (base.bad) return set(s, in.dst, base);
    const Lit defined = lit_not(any_x(idx.w));
    Lit sel_v = kFalse, sel_def = kFalse;
    for (int j = 0; j < base.w.width(); ++j) {
      const Lit eq = eq_const(idx.w, static_cast<std::uint64_t>(j));
      sel_v = lor(sel_v, land(eq, base.w[j].v));
      sel_def = lor(sel_def, land(eq, lit_not(base.w[j].x)));
    }
    set(s, in.dst, Reg{bit1(land(defined, sel_v), lit_not(land(defined, sel_def))), nullptr});
  }

  void eval(State& s, const Instr& in) {
    switch (in.op) {
      case Op::kConst:
        // Mode 1 holds a literal whose width Value rejects.
        if (in.mode != 0) unsupported("vector width outside 1..64");
        return set(s, in.dst, Reg{from_value(prog_.consts[in.a]), nullptr});
      case Op::kMove: {
        Reg sa;
        return set(s, in.dst, read(s, in.a, sa));
      }
      case Op::kAnd: return binary(s, in, &Lowerer::w_and);
      case Op::kOr: return binary(s, in, &Lowerer::w_or);
      case Op::kXor: return binary(s, in, &Lowerer::w_xor);
      case Op::kAdd: return binary(s, in, &Lowerer::w_add);
      case Op::kSub: return binary(s, in, &Lowerer::w_sub);
      case Op::kMul: return binary(s, in, &Lowerer::w_mul);
      case Op::kDiv: return constant_only(s, in, sim::v_div);
      case Op::kMod: return constant_only(s, in, sim::v_mod);
      case Op::kPow: return constant_only(s, in, sim::v_pow);
      case Op::kShl:
      case Op::kShr:
        return binary(s, in, [&](const Word& a, const Word& b) { return w_shift(a, b, in.op == Op::kShl); });
      case Op::kEq: return binary(s, in, &Lowerer::w_eq);
      case Op::kNeq: return binary(s, in, &Lowerer::w_neq);
      case Op::kCaseEq: return binary(s, in, &Lowerer::w_case_eq);
      case Op::kLt:
      case Op::kLe:
      case Op::kGt:
      case Op::kGe:
        return binary(s, in, [&](const Word& a, const Word& b) { return w_cmp(a, b, in.op); });
      case Op::kLogAnd:
      case Op::kLogOr:
        return binary(s, in, [&](const Word& a, const Word& b) {
          return w_logical_bin(a, b, in.op == Op::kLogAnd);
        });
      case Op::kNot: return unary(s, in, &Lowerer::w_not);
      case Op::kNeg: return unary(s, in, &Lowerer::w_neg);
      case Op::kLogNot: return unary(s, in, &Lowerer::w_logical_not);
      case Op::kRedAnd: return unary(s, in, &Lowerer::w_red_and);
      case Op::kRedOr: return unary(s, in, &Lowerer::w_red_or);
      case Op::kRedXor: return unary(s, in, &Lowerer::w_red_xor);
      case Op::kSelect: return select(s, in);
      case Op::kMergeX: return binary(s, in, &Lowerer::merge_x);
      case Op::kConcat: return binary(s, in, &Lowerer::w_concat);
      case Op::kReplicate:
        return unary(s, in, [&](const Word& inner) {
          if (std::uint64_t{in.b} * static_cast<std::uint64_t>(inner.width()) > 64)
            unsupported("replication wider than 64 bits");
          Word acc = inner;  // a zero count returns the inner value, like program.cpp
          for (std::uint32_t i = 1; i < in.b; ++i) acc = w_concat(acc, inner);
          return acc;
        });
      case Op::kSlice: {
        const int w = checked_width(static_cast<int>(in.c));
        if (in.mode != 0) return set(s, in.dst, Reg{Word(w), nullptr});  // past the signal: X
        if (in.b > 63) unsupported("part-select offset outside 0..63");
        Reg sa;
        return set(s, in.dst, read(s, in.a, sa, static_cast<int>(in.b), w));
      }
      case Op::kBitDyn: return bit_select(s, in);
      case Op::kResize: {
        const int w = checked_width(static_cast<int>(in.b));
        return unary(s, in, [&](const Word& a) { return resized(a, w); });
      }
      case Op::kCaseCmp:
        return binary(s, in, [&](const Word& a, const Word& b) {
          return w_case_cmp(a, b, static_cast<CaseKind>(in.mode));
        });
      default:
        unsupported("corrupt program: control op evaluated as a value");
    }
  }

  // Write bits [lo, hi] of a signal (program.cpp's write_signal): straight
  // into the settled state in an initial block, into the path's target
  // bits otherwise.
  void write_field(State& s, std::uint32_t slot, int hi, int lo, const Word& vv) {
    const int sw = prog_.signals[slot].width;
    for (int j = std::max(lo, 0); j <= hi && j < sw; ++j) {
      const Bit& b = vv[j - lo];
      if (initial_) {
        state_[slot][j] = b;
        continue;
      }
      TBit& tb = s.tgt[static_cast<std::size_t>(tidx_[slot])][static_cast<std::size_t>(j)];
      if (tb.wr != kFalse) check_rewrite(slot);
      tb = TBit{b, kTrue};
    }
  }

  // The event-driven schedule re-runs a process whenever a signal it
  // watches changes, even between two writes of one activation: a watched
  // bit written twice on a path can retrigger the process without end,
  // which one pass cannot model.
  void check_rewrite(std::uint32_t slot) const {
    if (watched_[slot]) unsupported("rewrites a signal its own sensitivity list watches");
  }

  void store(State& s, const Instr& in) {
    Reg sv, si;
    const Reg& v = read(s, in.a, sv);
    if (v.bad) unsupported(v.bad);
    const bool nba = in.op == Op::kNbaSig || in.op == Op::kNbaBitDyn;
    const auto put = [&](int hi, int lo, Word vv) {
      if (nba)
        nba_.push_back(NbaWrite{in.dst, hi, lo, std::move(vv)});
      else
        write_field(s, in.dst, hi, lo, vv);
    };
    if (in.op == Op::kStoreSig || in.op == Op::kNbaSig) {
      const int hi = static_cast<int>(in.b), lo = static_cast<int>(in.c);
      return put(hi, lo, resized(v.w, hi - lo + 1));
    }
    const Reg& idx = read(s, in.b, si);
    if (idx.bad) unsupported(idx.bad);
    const Word vv = resized(v.w, 1);
    const int sw = prog_.signals[in.dst].width;
    Value iv;
    if (word_const(idx.w, &iv)) {
      // An unknown or out-of-range index writes nothing.
      if (!iv.is_fully_defined() || iv.bits() >= static_cast<std::uint64_t>(sw)) return;
      const int i = static_cast<int>(iv.bits());
      return put(i, i, vv);
    }
    if (initial_ || nba) unsupported("symbolic bit-select assignment target");
    // Exactly the selected bit is replaced, and only when the index is
    // defined: each bit's write condition grows by its select.
    const Lit defined = lit_not(any_x(idx.w));
    std::vector<TBit>& bits = s.tgt[static_cast<std::size_t>(tidx_[in.dst])];
    for (int j = 0; j < sw; ++j) {
      const Lit cond = land(defined, eq_const(idx.w, static_cast<std::uint64_t>(j)));
      TBit& tb = bits[static_cast<std::size_t>(j)];
      if (cond != kFalse && tb.wr != kFalse) check_rewrite(in.dst);
      tb.bit = Bit{lmux(cond, vv[0].v, tb.bit.v), lmux(cond, vv[0].x, tb.bit.x)};
      tb.wr = lor(cond, tb.wr);
    }
  }

  // --- paths ----------------------------------------------------------------
  // If a and b are the two sides of one branch (guards G & c and G & !c),
  // sets *cond = c, the side of a, and *parent = G.
  bool split(Lit a, Lit b, Lit* cond, Lit* parent) const {
    if (a == lit_not(b)) {
      *cond = a;
      *parent = kTrue;
      return true;
    }
    if (lit_compl(a) || lit_compl(b)) return false;
    const Aig::Node& na = aig_->nodes()[lit_node(a)];
    const Aig::Node& nb = aig_->nodes()[lit_node(b)];
    if (na.input >= 0 || nb.input >= 0) return false;
    for (const Lit g : {na.a, na.b}) {
      const Lit ca = g == na.a ? na.b : na.a;
      if ((nb.a == g && nb.b == lit_not(ca)) || (nb.b == g && nb.a == lit_not(ca))) {
        *cond = ca;
        *parent = g;
        return true;
      }
    }
    return false;
  }

  // Merge path b into path a: every value becomes "a's on a's path, b's on
  // b's". Two sides of one branch select on the branch condition and give
  // back the branch's own path condition; others select on b's guard.
  void merge(State& a, const State& b) {
    Lit sel = kFalse, parent = kFalse;
    if (split(a.guard, b.guard, &sel, &parent)) {
      a.guard = parent;
    } else {
      sel = lit_not(b.guard);
      a.guard = lor(a.guard, b.guard);
    }
    const auto mux = [&](Bit& x, const Bit& y) {
      x.v = lmux(sel, x.v, y.v);
      x.x = lmux(sel, x.x, y.x);
    };
    for (std::size_t i = 0; i < a.temps.size(); ++i) {
      Reg& x = a.temps[i];
      const Reg& y = b.temps[i];
      if (x.bad != nullptr || (y.bad == nullptr && x.w.width() == 0)) continue;
      if (y.bad != nullptr) {
        x = y;
      } else if (y.w.width() == 0) {
        x = Reg{};  // written on one path only: dead after the join
      } else if (x.w.width() != y.w.width()) {
        x = fail("merges values of different widths");
      } else {
        for (std::size_t j = 0; j < x.w.bits.size(); ++j) mux(x.w.bits[j], y.w.bits[j]);
      }
    }
    for (std::size_t t = 0; t < a.tgt.size(); ++t) {
      for (std::size_t j = 0; j < a.tgt[t].size(); ++j) {
        TBit& x = a.tgt[t][j];
        const TBit& y = b.tgt[t][j];
        mux(x.bit, y.bit);
        x.wr = lmux(sel, x.wr, y.wr);
      }
    }
    for (std::size_t l = 0; l < a.loops.size(); ++l)
      if (a.loops[l] != b.loops[l]) a.loops[l] = -1;
  }

  // Run path `s` from `pc` until it reaches `end` (true: it is the last
  // path) or the pc of another pending path (false: it is parked there).
  bool run(State& s, std::uint32_t pc, std::uint32_t end, Pending& pending) {
    const std::vector<Instr>& code = prog_.code;
    for (;;) {
      if (pc >= end && pending.empty()) return true;
      if (pc >= end || (!pending.empty() && pc >= pending.begin()->first)) {
        pending[pc].push_back(std::move(s));
        return false;
      }
      budget_->charge();
      const Instr& in = code[pc];
      switch (in.op) {
        case Op::kJump:
          pc = in.dst;
          break;
        case Op::kJumpIfTrue:
        case Op::kJumpIfFalse:
        case Op::kJumpIfDefined: {
          Reg sc;
          const Reg& c = read(s, in.a, sc);
          if (c.bad) unsupported(c.bad);
          Lit take = in.op == Op::kJumpIfDefined ? lit_not(any_x(c.w)) : truthy_lit(c.w);
          if (in.op == Op::kJumpIfFalse) take = lit_not(take);
          if (take == kTrue || take == kFalse) {
            pc = take == kTrue ? in.dst : pc + 1;
            break;
          }
          if (initial_) unsupported("symbolic branch in an initial block");
          if (pc + 1 < end && code[pc + 1].op == Op::kLoopGuard)
            unsupported("non-constant for-loop condition");
          const Lit taken = land(s.guard, take);
          const Lit fall = land(s.guard, lit_not(take));
          if (taken != kFalse && fall != kFalse) {
            State t = s;
            t.guard = taken;
            pending[in.dst].push_back(std::move(t));
          }
          // A side whose path condition folds to false is never taken.
          s.guard = fall == kFalse ? taken : fall;
          pc = fall == kFalse ? in.dst : pc + 1;
          break;
        }
        case Op::kLoopInit:
          s.loops[in.a] = 0;
          ++pc;
          break;
        case Op::kLoopGuard: {
          int& n = s.loops[in.a];
          if (n < 0) unsupported("loop entered on merged paths");
          if (++n > kMaxLoopIterations) unsupported("for-loop iteration limit exceeded");
          ++pc;
          break;
        }
        case Op::kStep:
          ++pc;
          break;
        case Op::kThrow:
          unsupported(prog_.messages[in.a]);
        case Op::kStoreSig:
        case Op::kStoreBitDyn:
        case Op::kNbaSig:
        case Op::kNbaBitDyn:
          store(s, in);
          ++pc;
          break;
        default:
          eval(s, in);
          ++pc;
          break;
      }
    }
  }

  // Execute process p over every path and return the merged final state.
  // Paths meeting at a pc merge first-arrival first, then the rest newest
  // first, which pairs the two sides of each branch innermost-out.
  State exec(const ProgProcess& p, const std::vector<std::uint32_t>& targets) {
    State s;
    s.temps.resize(prog_.num_regs - nsig_);
    for (const std::uint32_t slot : targets)
      s.tgt.emplace_back(static_cast<std::size_t>(prog_.signals[slot].width));
    s.loops.assign(prog_.num_loops, 0);
    Pending pending;
    std::uint32_t pc = p.begin;
    while (!run(s, pc, p.end, pending)) {
      auto node = pending.extract(pending.begin());
      std::vector<State>& arrivals = node.mapped();
      pc = node.key();
      s = std::move(arrivals.front());
      for (std::size_t i = arrivals.size(); i-- > 1;) merge(s, arrivals[i]);
    }
    return s;
  }

  // --- classification -------------------------------------------------------
  // The signals a comb process writes and the bits it may write of each;
  // rejects NBAs.
  CombProc classify(std::uint32_t pi) const {
    const ProgProcess& p = prog_.processes[pi];
    CombProc cp;
    cp.pi = pi;
    for (std::uint32_t pc = p.begin; pc < p.end; ++pc) {
      const Instr& in = prog_.code[pc];
      // A comb-queued NBA only commits when a clocked process fires, which
      // never happens in the designs we accept.
      if (in.op == Op::kNbaSig || in.op == Op::kNbaBitDyn)
        unsupported("nonblocking assignment in a combinational process");
      if (!is_store(in.op)) continue;
      const auto ones = [](int n) { return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1; };
      const int sw = prog_.signals[in.dst].width;
      std::uint64_t mask = ones(sw);  // a dynamic bit select may write any bit
      if (in.op == Op::kStoreSig) {
        const int lo = std::clamp(static_cast<int>(in.c), 0, 63);
        const int hi = std::min({static_cast<int>(in.b), sw - 1, 63});
        mask = hi < lo ? 0 : ones(hi - lo + 1) << lo;
      }
      const auto it = std::find(cp.targets.begin(), cp.targets.end(), in.dst);
      if (it == cp.targets.end()) {
        cp.targets.push_back(in.dst);
        cp.masks.push_back(mask);
      } else {
        cp.masks[static_cast<std::size_t>(it - cp.targets.begin())] |= mask;
      }
    }
    return cp;
  }

  Aig* aig_;
  Budget* budget_;
  const Program& prog_;
  const std::map<std::string, std::vector<Lit>>& input_vars_;
  const std::uint32_t nsig_;
  std::vector<Word> state_;             // settled value per signal slot
  bool initial_ = false;                // running an initial block
  std::vector<NbaWrite> nba_;           // initial blocks' queued NBAs
  std::vector<int> tidx_;               // signal slot -> target index, or -1
  std::vector<std::uint64_t> masks_;    // running process: per target
  std::vector<char> watched_;           // running process: slot in its sens
};

std::vector<Word> Lowerer::run() {
  // 1. Power-on: every signal all-X (CompiledSimulator::init).
  state_.reserve(nsig_);
  for (const auto& sig : prog_.signals) state_.emplace_back(checked_width(sig.width));
  tidx_.assign(nsig_, -1);
  watched_.assign(nsig_, 0);

  // 2. Initial blocks in process order, then their queued NBAs commit
  // immediately (CompiledSimulator::run_initial_blocks).
  initial_ = true;
  for (const std::uint32_t pi : prog_.initial_procs) exec(prog_.processes[pi], {});
  State none;
  for (const NbaWrite& w : nba_) write_field(none, w.slot, w.hi, w.lo, w.value);
  initial_ = false;

  // 3. Classify processes. A comb/cont-assign process executes iff its
  // sensitivity names at least one signal (init marks every signal dirty) or
  // it is a constant assign, which runs once at power-up. Either way it runs
  // before any reader settles, so one pass in dependency order covers both.
  std::vector<bool> power_up(prog_.processes.size(), false);
  for (const std::uint32_t pi : prog_.const_procs) power_up[pi] = true;
  std::vector<CombProc> comb;
  std::vector<bool> edge(nsig_, false), clocked_written(nsig_, false);
  for (std::uint32_t pi = 0; pi < prog_.processes.size(); ++pi) {
    const ProgProcess& p = prog_.processes[pi];
    if (p.kind == ProcessKind::kInitial) continue;
    if (p.kind == ProcessKind::kClocked) {
      for (const auto& [slot, e] : p.edges) edge[slot] = true;
      for (std::uint32_t pc = p.begin; pc < p.end; ++pc)
        if (is_store(prog_.code[pc].op)) clocked_written[prog_.code[pc].dst] = true;
      continue;
    }
    if (p.sens.empty() && !power_up[pi]) continue;  // never runs: targets keep initial values
    comb.push_back(classify(pi));
  }

  // 4. Single combinational driver per signal, and never an input port
  // (poking would race the driver).
  std::vector<int> writer(nsig_, -1);
  for (std::size_t ci = 0; ci < comb.size(); ++ci) {
    for (const std::uint32_t slot : comb[ci].targets) {
      if (prog_.signals[slot].is_input) unsupported("combinational process drives an input port");
      if (writer[slot] >= 0) unsupported("signal has multiple combinational drivers");
      writer[slot] = static_cast<int>(ci);
    }
  }

  // 5. Clocked processes must never fire: their edge signals have to be
  // static after construction. Initial-only writes are fine — the edge
  // baseline is captured after initial blocks run.
  for (std::uint32_t slot = 0; slot < nsig_; ++slot) {
    if (!edge[slot]) continue;
    if (input_vars_.contains(prog_.signals[slot].name)) unsupported("clock edge on a swept input");
    if (writer[slot] >= 0) unsupported("clock edge on a combinationally driven signal");
    if (clocked_written[slot]) unsupported("clock edge on a clocked-process target");
  }

  // 6. Bind the swept inputs. The harness pokes Value::of(slice, elab width),
  // so bits above the port width are defined zeros.
  for (const auto& [name, vars] : input_vars_) {
    const auto it = prog_.signal_slots.find(name);
    if (it == prog_.signal_slots.end()) unsupported("swept input '" + name + "' is not a signal");
    Word& w = state_[it->second];
    for (std::size_t i = 0; i < w.bits.size(); ++i) w.bits[i] = Bit{i < vars.size() ? vars[i] : kFalse, kFalse};
  }

  // 7. Topological order over the writer -> reader dependency graph. A cycle
  // or excessive depth may not settle within the simulator's delta budget.
  std::vector<std::vector<std::uint32_t>> succ(comb.size());
  for (std::size_t ci = 0; ci < comb.size(); ++ci) {
    for (const std::uint32_t slot : prog_.processes[comb[ci].pi].sens) {
      const int w = writer[slot];
      if (w >= 0 && static_cast<std::size_t>(w) != ci)
        succ[static_cast<std::size_t>(w)].push_back(static_cast<std::uint32_t>(ci));
    }
  }
  const auto order = topo_order(succ, kMaxCombDepth);
  if (!order) unsupported("combinational cycle or depth beyond the delta-cycle budget");

  // 8. Execute each process once in dependency order, committing its writes
  // before any reader runs. One pass equals the simulator's fixpoint because
  // every accepted process is a pure function of already-final values.
  for (const std::uint32_t ci : *order) {
    const CombProc& cp = comb[ci];
    const ProgProcess& p = prog_.processes[cp.pi];
    masks_ = cp.masks;
    for (std::size_t t = 0; t < cp.targets.size(); ++t) tidx_[cp.targets[t]] = static_cast<int>(t);
    for (const std::uint32_t slot : p.sens) watched_[slot] = 1;
    const State done = exec(p, cp.targets);
    for (const std::uint32_t slot : p.sens) watched_[slot] = 0;
    for (std::size_t t = 0; t < cp.targets.size(); ++t) {
      const std::uint32_t slot = cp.targets[t];
      tidx_[slot] = -1;
      for (std::size_t j = 0; j < done.tgt[t].size(); ++j) {
        const TBit& tb = done.tgt[t][j];
        // Written on no path: keeps its settled value. On some paths only:
        // a latch, whose settle keeps state one pass cannot model.
        if (tb.wr == kTrue)
          state_[slot].bits[j] = tb.bit;
        else if (tb.wr != kFalse)
          unsupported("signal latches: assigned on some but not all paths");
      }
    }
  }
  return std::move(state_);
}

}  // namespace

std::vector<Word> lower_design(Aig* aig, const sim::Program& program,
                               const std::map<std::string, std::vector<Lit>>& input_vars) {
  return Lowerer(aig, program, input_vars).run();
}

}  // namespace haven::prove
