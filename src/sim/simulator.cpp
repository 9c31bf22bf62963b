#include "sim/simulator.h"

#include <algorithm>

#include "util/fault.h"
#include "util/strings.h"

namespace haven::sim {

using verilog::CaseKind;
using verilog::Edge;
using verilog::ExprKind;
using verilog::ExprPtr;
using verilog::StmtKind;
using verilog::StmtPtr;

namespace {
constexpr int kMaxDeltaCycles = 1000;
constexpr int kMaxLoopIterations = 1 << 16;
}  // namespace

Simulator::Simulator(ElabDesign design, std::uint64_t step_budget)
    : design_(std::move(design)), step_budget_(step_budget) {
  state_.reserve(design_.signals.size());
  for (const auto& sig : design_.signals) state_.emplace_back(Value::all_x(sig.width));

  comb_watchers_.assign(design_.signals.size(), {});
  edge_watchers_.assign(design_.signals.size(), {});
  for (std::size_t pi = 0; pi < design_.processes.size(); ++pi) {
    const ElabProcess& p = design_.processes[pi];
    if (p.kind == ProcessKind::kComb || p.kind == ProcessKind::kContAssign) {
      for (const auto& name : p.read_set) {
        const auto it = design_.signal_ids.find(name);
        if (it != design_.signal_ids.end()) comb_watchers_[it->second].push_back(pi);
      }
    } else if (p.kind == ProcessKind::kClocked) {
      for (const auto& e : p.edges) {
        const auto it = design_.signal_ids.find(e.signal);
        if (it == design_.signal_ids.end())
          throw ElabError("edge on unknown signal '" + e.signal + "'");
        edge_watchers_[it->second].push_back(pi);
      }
    }
  }

  run_initial_blocks();
  // Constant continuous assigns read no signal, so no dirty mark would ever
  // schedule them: drive each once before the first settle.
  std::set<std::size_t> dirty;
  for (const ElabProcess& p : design_.processes) {
    if (p.kind == ProcessKind::kContAssign && p.read_set.empty()) {
      execute_process(p, /*clocked=*/false, dirty);
    }
  }

  // Settle everything once from the initial state.
  for (std::size_t i = 0; i < state_.size(); ++i) dirty.insert(i);
  prev_edge_state_ = state_;
  update(dirty);
  prev_edge_state_ = state_;
}

void Simulator::bump_steps() {
  ++steps_;
  if (step_budget_ != 0 && steps_ > step_budget_) {
    throw BudgetExceeded(util::format("simulation step budget exhausted (%llu steps)",
                                      static_cast<unsigned long long>(step_budget_)));
  }
}

std::size_t Simulator::id_of(const std::string& name) const {
  const auto it = design_.signal_ids.find(name);
  if (it == design_.signal_ids.end()) throw ElabError("unknown signal '" + name + "'");
  return it->second;
}

void Simulator::run_initial_blocks() {
  std::set<std::size_t> dirty;
  for (const auto& p : design_.processes) {
    if (p.kind == ProcessKind::kInitial && p.body) {
      exec_stmt(p.body, /*clocked=*/false, dirty);
    }
  }
  // Initial-block nonblocking assigns commit immediately after.
  for (const auto& nba : nba_queue_) {
    std::set<std::size_t> d2;
    write_signal(nba.id, nba.hi, nba.lo, nba.value, d2);
  }
  nba_queue_.clear();
}

void Simulator::poke(SignalHandle h, std::uint64_t value) {
  const std::size_t id = h.slot;
  if (!design_.signals[id].is_input)
    throw ElabError("poke on non-input signal '" + design_.signals[id].name + "'");
  const Value v = Value::of(value, design_.signals[id].width);
  if (state_[id].identical(v)) return;
  state_[id] = v;
  std::set<std::size_t> dirty{id};
  update(dirty);
}

void Simulator::poke_x(SignalHandle h) {
  const std::size_t id = h.slot;
  if (!design_.signals[id].is_input)
    throw ElabError("poke_x on non-input signal '" + design_.signals[id].name + "'");
  const Value v = Value::all_x(design_.signals[id].width);
  if (state_[id].identical(v)) return;
  state_[id] = v;
  std::set<std::size_t> dirty{id};
  update(dirty);
}

void Simulator::poke(const std::string& input, std::uint64_t value) {
  poke(resolve(input), value);
}

void Simulator::poke_x(const std::string& input) { poke_x(resolve(input)); }

Value Simulator::peek(const std::string& signal) const { return state_[id_of(signal)]; }

void Simulator::clock_cycle(const std::string& clk) {
  poke(clk, 0);
  poke(clk, 1);
}

void Simulator::update(std::set<std::size_t>& dirty) {
  util::maybe_inject(util::kSiteSimRun);
  for (int round = 0; round < kMaxDeltaCycles; ++round) {
    // 1. Combinational fixpoint.
    int delta = 0;
    while (!dirty.empty()) {
      if (++delta > kMaxDeltaCycles) {
        converged_ = false;
        return;
      }
      std::set<std::size_t> procs;
      for (std::size_t id : dirty) {
        for (std::size_t pi : comb_watchers_[id]) procs.insert(pi);
      }
      std::set<std::size_t> new_dirty;
      for (std::size_t pi : procs) {
        execute_process(design_.processes[pi], /*clocked=*/false, new_dirty);
      }
      // Edge bookkeeping: remember levels before declaring quiescence so
      // edges are detected against the pre-change state below.
      dirty = std::move(new_dirty);
    }

    // 2. Detect edges against the last quiescent state.
    std::set<std::size_t> fired;
    for (std::size_t id = 0; id < state_.size(); ++id) {
      if (edge_watchers_[id].empty()) continue;
      const Value& old_v = prev_edge_state_[id];
      const Value& new_v = state_[id];
      if (old_v.identical(new_v)) continue;
      const bool old1 = old_v.is_fully_defined() && (old_v.bits() & 1u);
      const bool old0 = old_v.is_fully_defined() && !(old_v.bits() & 1u);
      const bool new1 = new_v.is_fully_defined() && (new_v.bits() & 1u);
      const bool new0 = new_v.is_fully_defined() && !(new_v.bits() & 1u);
      for (std::size_t pi : edge_watchers_[id]) {
        for (const auto& e : design_.processes[pi].edges) {
          if (design_.signal_ids.at(e.signal) != id) continue;
          const bool pos = !old1 && new1;          // to-1 transition
          const bool neg = !old0 && new0;          // to-0 transition
          if ((e.edge == Edge::kPos && pos) || (e.edge == Edge::kNeg && neg)) {
            fired.insert(pi);
          }
        }
      }
    }
    prev_edge_state_ = state_;
    if (fired.empty()) return;

    // 3. Execute clocked processes (NBA accumulate), then commit NBAs.
    std::set<std::size_t> post_dirty;
    for (std::size_t pi : fired) {
      execute_process(design_.processes[pi], /*clocked=*/true, post_dirty);
    }
    std::vector<NbaEntry> queue;
    queue.swap(nba_queue_);
    for (const auto& nba : queue) {
      write_signal(nba.id, nba.hi, nba.lo, nba.value, post_dirty);
    }
    dirty = std::move(post_dirty);
    if (dirty.empty()) return;
    // Loop: comb settles again, and a clocked process may fire off a derived
    // clock (e.g. clock divider output feeding another always block).
  }
  converged_ = false;
}

void Simulator::execute_process(const ElabProcess& proc, bool clocked,
                                std::set<std::size_t>& dirty) {
  ++activations_;
  bump_steps();
  if (proc.kind == ProcessKind::kContAssign) {
    assign_lvalue(proc.lhs, eval(proc.rhs), /*nonblocking=*/false, dirty);
    return;
  }
  if (proc.body) exec_stmt(proc.body, clocked, dirty);
}

// --- expression evaluation ---------------------------------------------------

Value Simulator::eval(const ExprPtr& e) const {
  switch (e->kind) {
    case ExprKind::kNumber:
      return Value::with_xz(e->number.value, e->number.xz_mask, e->number.width);
    case ExprKind::kIdent: {
      const auto it = design_.signal_ids.find(e->ident);
      if (it == design_.signal_ids.end())
        throw ElabError("evaluation of undeclared identifier '" + e->ident + "'");
      return state_[it->second];
    }
    case ExprKind::kBitSelect: {
      const auto it = design_.signal_ids.find(e->ident);
      if (it == design_.signal_ids.end())
        throw ElabError("evaluation of undeclared identifier '" + e->ident + "'");
      const Value base = state_[it->second];
      const Value idx = eval(e->operands[0]);
      if (!idx.is_fully_defined()) return Value::all_x(1);
      const std::uint64_t i = idx.bits();
      if (i >= static_cast<std::uint64_t>(base.width())) return Value::all_x(1);
      return Value::with_xz((base.bits() >> i) & 1u, (base.xz() >> i) & 1u, 1);
    }
    case ExprKind::kPartSelect: {
      const auto it = design_.signal_ids.find(e->ident);
      if (it == design_.signal_ids.end())
        throw ElabError("evaluation of undeclared identifier '" + e->ident + "'");
      const Value base = state_[it->second];
      const int hi = std::max(e->msb, e->lsb);
      const int lo = std::min(e->msb, e->lsb);
      const int w = hi - lo + 1;
      if (lo >= base.width()) return Value::all_x(w);
      return Value::with_xz(base.bits() >> lo, base.xz() >> lo, w);
    }
    case ExprKind::kUnary: {
      const Value a = eval(e->operands[0]);
      const std::string& op = e->op;
      if (op == "~") return v_not(a);
      if (op == "!") return v_logical_not(a);
      if (op == "-") return v_neg(a);
      if (op == "&") return v_red_and(a);
      if (op == "|") return v_red_or(a);
      if (op == "^") return v_red_xor(a);
      if (op == "~&") return v_not(v_red_and(a));
      if (op == "~|") return v_not(v_red_or(a));
      if (op == "~^" || op == "^~") return v_not(v_red_xor(a));
      throw ElabError("unsupported unary operator '" + op + "'");
    }
    case ExprKind::kBinary: {
      const Value a = eval(e->operands[0]);
      const Value b = eval(e->operands[1]);
      const std::string& op = e->op;
      if (op == "&") return v_and(a, b);
      if (op == "|") return v_or(a, b);
      if (op == "^") return v_xor(a, b);
      if (op == "~^" || op == "^~") return v_not(v_xor(a, b));
      if (op == "~&") return v_not(v_and(a, b));
      if (op == "~|") return v_not(v_or(a, b));
      if (op == "+") return v_add(a, b);
      if (op == "-") return v_sub(a, b);
      if (op == "*") return v_mul(a, b);
      if (op == "/") return v_div(a, b);
      if (op == "%") return v_mod(a, b);
      if (op == "<<" || op == "<<<") return v_shl(a, b);
      if (op == ">>" || op == ">>>") return v_shr(a, b);
      if (op == "==") return v_eq(a, b);
      if (op == "!=") return v_neq(a, b);
      if (op == "===") return v_case_eq(a, b);
      if (op == "!==") return v_logical_not(v_case_eq(a, b));
      if (op == "<") return v_lt(a, b);
      if (op == "<=") return v_le(a, b);
      if (op == ">") return v_gt(a, b);
      if (op == ">=") return v_ge(a, b);
      if (op == "&&") return v_logical_and(a, b);
      if (op == "||") return v_logical_or(a, b);
      if (op == "**") return v_pow(a, b);
      throw ElabError("unsupported binary operator '" + op + "'");
    }
    case ExprKind::kTernary: {
      const Value c = eval(e->operands[0]);
      if (c.truthy()) return eval(e->operands[1]);
      if (c.is_fully_defined()) return eval(e->operands[2]);
      // Unknown condition: merge branches bitwise (Verilog semantics).
      const Value t = eval(e->operands[1]);
      const Value f = eval(e->operands[2]);
      const int w = std::max(t.width(), f.width());
      const Value tr = t.resized(w), fr = f.resized(w);
      const std::uint64_t agree = ~(tr.bits() ^ fr.bits()) & ~tr.xz() & ~fr.xz();
      return Value::with_xz(tr.bits() & agree, ~agree, w);
    }
    case ExprKind::kConcat: {
      Value acc = eval(e->operands[0]);
      for (std::size_t i = 1; i < e->operands.size(); ++i) {
        acc = v_concat(acc, eval(e->operands[i]));
      }
      return acc;
    }
    case ExprKind::kReplicate: {
      const Value inner = eval(e->operands[0]);
      if (e->repeat * static_cast<std::uint64_t>(inner.width()) > 64)
        throw ElabError("replication wider than 64 bits");
      Value acc = inner;
      for (std::uint64_t i = 1; i < e->repeat; ++i) acc = v_concat(acc, inner);
      return acc;
    }
  }
  throw ElabError("corrupt expression node");
}

// --- statement execution ------------------------------------------------------

void Simulator::exec_stmt(const StmtPtr& s, bool clocked, std::set<std::size_t>& dirty) {
  if (!s) return;
  bump_steps();
  switch (s->kind) {
    case StmtKind::kBlock:
      for (const auto& c : s->stmts) exec_stmt(c, clocked, dirty);
      return;
    case StmtKind::kBlockingAssign:
      assign_lvalue(s->lhs, eval(s->rhs), /*nonblocking=*/false, dirty);
      return;
    case StmtKind::kNonblockingAssign:
      assign_lvalue(s->lhs, eval(s->rhs), /*nonblocking=*/true, dirty);
      return;
    case StmtKind::kIf:
      if (eval(s->cond).truthy()) exec_stmt(s->then_branch, clocked, dirty);
      else exec_stmt(s->else_branch, clocked, dirty);
      return;
    case StmtKind::kCase: {
      const Value subject = eval(s->cond);
      const verilog::CaseItem* default_item = nullptr;
      for (const auto& item : s->case_items) {
        if (item.labels.empty()) {
          default_item = &item;
          continue;
        }
        for (const auto& label_expr : item.labels) {
          const Value label = eval(label_expr);
          const int w = std::max(subject.width(), label.width());
          const Value sv = subject.resized(w), lv = label.resized(w);
          std::uint64_t wildcard = 0;
          if (s->case_kind == CaseKind::kCasez) wildcard = lv.xz();
          else if (s->case_kind == CaseKind::kCasex) wildcard = lv.xz() | sv.xz();
          const std::uint64_t care = sv.mask() & ~wildcard;
          const bool match = ((sv.bits() ^ lv.bits()) & care) == 0 &&
                             ((sv.xz() ^ lv.xz()) & care) == 0;
          if (match) {
            exec_stmt(item.body, clocked, dirty);
            return;
          }
        }
      }
      if (default_item) exec_stmt(default_item->body, clocked, dirty);
      return;
    }
    case StmtKind::kFor: {
      assign_lvalue(s->lhs, eval(s->rhs), false, dirty);
      int iterations = 0;
      while (eval(s->cond).truthy()) {
        if (++iterations > kMaxLoopIterations) {
          converged_ = false;
          return;
        }
        exec_stmt(s->body, clocked, dirty);
        assign_lvalue(s->step_lhs, eval(s->step_rhs), false, dirty);
      }
      return;
    }
  }
}

void Simulator::assign_lvalue(const ExprPtr& lhs, const Value& v, bool nonblocking,
                              std::set<std::size_t>& dirty) {
  if (lhs->kind == ExprKind::kConcat) {
    // Distribute bits MSB-first across the parts.
    int total = 0;
    std::vector<int> widths;
    for (const auto& part : lhs->operands) {
      int w = 1;
      if (part->kind == ExprKind::kIdent) {
        w = design_.signals[id_of(part->ident)].width;
      } else if (part->kind == ExprKind::kBitSelect) {
        w = 1;
      } else if (part->kind == ExprKind::kPartSelect) {
        w = std::abs(part->msb - part->lsb) + 1;
      } else {
        throw ElabError("unsupported concat lvalue part");
      }
      widths.push_back(w);
      total += w;
    }
    const Value vv = v.resized(total);
    int offset = total;
    for (std::size_t i = 0; i < lhs->operands.size(); ++i) {
      offset -= widths[i];
      const Value slice =
          Value::with_xz(vv.bits() >> offset, vv.xz() >> offset, widths[i]);
      assign_lvalue(lhs->operands[i], slice, nonblocking, dirty);
    }
    return;
  }

  const std::size_t id = id_of(lhs->ident);
  int hi, lo;
  if (lhs->kind == ExprKind::kIdent) {
    hi = design_.signals[id].width - 1;
    lo = 0;
  } else if (lhs->kind == ExprKind::kBitSelect) {
    const Value idx = eval(lhs->operands[0]);
    if (!idx.is_fully_defined()) return;  // x index: no assignment
    if (idx.bits() >= static_cast<std::uint64_t>(design_.signals[id].width)) return;
    hi = lo = static_cast<int>(idx.bits());
  } else if (lhs->kind == ExprKind::kPartSelect) {
    hi = std::max(lhs->msb, lhs->lsb);
    lo = std::min(lhs->msb, lhs->lsb);
  } else {
    throw ElabError("unsupported lvalue");
  }

  if (nonblocking) {
    nba_queue_.push_back({id, hi, lo, v.resized(hi - lo + 1)});
  } else {
    write_signal(id, hi, lo, v.resized(hi - lo + 1), dirty);
  }
}

void Simulator::write_signal(std::size_t id, int hi, int lo, const Value& v,
                             std::set<std::size_t>& dirty) {
  const ElabSignal& sig = design_.signals[id];
  Value cur = state_[id];
  const int w = hi - lo + 1;
  const std::uint64_t field_mask =
      (w >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << w) - 1)) << lo;
  const Value vv = v.resized(w);
  const std::uint64_t new_bits = (cur.bits() & ~field_mask) | ((vv.bits() << lo) & field_mask);
  const std::uint64_t new_xz = (cur.xz() & ~field_mask) | ((vv.xz() << lo) & field_mask);
  const Value next = Value::with_xz(new_bits, new_xz, sig.width);
  if (next.identical(cur)) return;
  state_[id] = next;
  dirty.insert(id);
}

}  // namespace haven::sim
