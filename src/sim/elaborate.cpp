#include "sim/elaborate.h"

#include <algorithm>

#include "util/strings.h"

namespace haven::sim {

using verilog::AlwaysBlock;
using verilog::ContAssign;
using verilog::Dir;
using verilog::Edge;
using verilog::Expr;
using verilog::ExprKind;
using verilog::ExprPtr;
using verilog::InitialBlock;
using verilog::Instance;
using verilog::Module;
using verilog::NetDecl;
using verilog::NetType;
using verilog::ParameterDecl;
using verilog::SensItem;
using verilog::SourceFile;
using verilog::Stmt;
using verilog::StmtKind;
using verilog::StmtPtr;

const ElabSignal& ElabDesign::signal(const std::string& name) const {
  const auto it = signal_ids.find(name);
  if (it == signal_ids.end()) throw ElabError("unknown signal '" + name + "'");
  return signals[it->second];
}

namespace {

void expr_read_idents(const ExprPtr& e, std::set<std::string>& out) {
  if (!e) return;
  switch (e->kind) {
    case ExprKind::kIdent:
    case ExprKind::kBitSelect:
    case ExprKind::kPartSelect:
      out.insert(e->ident);
      break;
    default:
      break;
  }
  for (const auto& c : e->operands) expr_read_idents(c, out);
}

// For an assignment target, index expressions are *read* but the base is not.
void lvalue_read_idents(const ExprPtr& lhs, std::set<std::string>& out) {
  if (!lhs) return;
  if (lhs->kind == ExprKind::kConcat) {
    for (const auto& p : lhs->operands) lvalue_read_idents(p, out);
    return;
  }
  for (const auto& c : lhs->operands) expr_read_idents(c, out);
}

void stmt_read_idents(const StmtPtr& s, std::set<std::string>& out) {
  if (!s) return;
  switch (s->kind) {
    case StmtKind::kBlock:
      for (const auto& c : s->stmts) stmt_read_idents(c, out);
      break;
    case StmtKind::kBlockingAssign:
    case StmtKind::kNonblockingAssign:
      lvalue_read_idents(s->lhs, out);
      expr_read_idents(s->rhs, out);
      break;
    case StmtKind::kIf:
      expr_read_idents(s->cond, out);
      stmt_read_idents(s->then_branch, out);
      stmt_read_idents(s->else_branch, out);
      break;
    case StmtKind::kCase:
      expr_read_idents(s->cond, out);
      for (const auto& item : s->case_items) {
        for (const auto& l : item.labels) expr_read_idents(l, out);
        stmt_read_idents(item.body, out);
      }
      break;
    case StmtKind::kFor:
      lvalue_read_idents(s->lhs, out);
      expr_read_idents(s->rhs, out);
      expr_read_idents(s->cond, out);
      lvalue_read_idents(s->step_lhs, out);
      expr_read_idents(s->step_rhs, out);
      stmt_read_idents(s->body, out);
      break;
  }
}

// Rewrite every identifier reference in an expression with a prefix (for
// hierarchy flattening).
ExprPtr prefix_expr(const ExprPtr& e, const std::string& prefix) {
  if (!e) return e;
  auto copy = std::make_shared<Expr>(*e);
  if (e->kind == ExprKind::kIdent || e->kind == ExprKind::kBitSelect ||
      e->kind == ExprKind::kPartSelect) {
    copy->ident = prefix + e->ident;
  }
  copy->operands.clear();
  for (const auto& c : e->operands) copy->operands.push_back(prefix_expr(c, prefix));
  return copy;
}

StmtPtr prefix_stmt(const StmtPtr& s, const std::string& prefix) {
  if (!s) return s;
  auto copy = std::make_shared<Stmt>(*s);
  copy->lhs = prefix_expr(s->lhs, prefix);
  copy->rhs = prefix_expr(s->rhs, prefix);
  copy->cond = prefix_expr(s->cond, prefix);
  copy->step_lhs = prefix_expr(s->step_lhs, prefix);
  copy->step_rhs = prefix_expr(s->step_rhs, prefix);
  copy->then_branch = prefix_stmt(s->then_branch, prefix);
  copy->else_branch = prefix_stmt(s->else_branch, prefix);
  copy->body = prefix_stmt(s->body, prefix);
  copy->stmts.clear();
  for (const auto& c : s->stmts) copy->stmts.push_back(prefix_stmt(c, prefix));
  copy->case_items.clear();
  for (const auto& item : s->case_items) {
    verilog::CaseItem ci;
    for (const auto& l : item.labels) ci.labels.push_back(prefix_expr(l, prefix));
    ci.body = prefix_stmt(item.body, prefix);
    copy->case_items.push_back(std::move(ci));
  }
  return copy;
}

class Elaborator {
 public:
  Elaborator(const Module& top, const SourceFile* file) : top_(top), file_(file) {}

  ElabDesign run() {
    design_.top = top_.name;
    elaborate_module(top_, /*prefix=*/"", /*depth=*/0, /*is_top=*/true);
    return std::move(design_);
  }

 private:
  void add_signal(const std::string& name, int width, bool is_reg, bool is_input,
                  bool is_output) {
    if (width < 1 || width > 64)
      throw ElabError("signal '" + name + "' has unsupported width " +
                      std::to_string(width));
    auto it = design_.signal_ids.find(name);
    if (it != design_.signal_ids.end()) {
      // Port re-declared as wire/reg in the body refines reg-ness and width.
      ElabSignal& s = design_.signals[it->second];
      s.is_reg = s.is_reg || is_reg;
      s.width = std::max(s.width, width);
      return;
    }
    design_.signal_ids[name] = design_.signals.size();
    design_.signals.push_back({name, width, is_reg, is_input, is_output});
  }

  void elaborate_module(const Module& m, const std::string& prefix, int depth, bool is_top) {
    if (depth > 8) throw ElabError("instance hierarchy deeper than 8 (recursive instantiation?)");

    for (const auto& p : m.ports) {
      add_signal(prefix + p.name, p.width(), p.is_reg, is_top && p.dir == Dir::kInput,
                 is_top && p.dir == Dir::kOutput);
      if (is_top) {
        if (p.dir == Dir::kInput) design_.inputs.push_back(p.name);
        else if (p.dir == Dir::kOutput) design_.outputs.push_back(p.name);
        else throw ElabError("inout ports are not supported by the simulator");
      }
    }
    for (const auto& item : m.items) {
      if (const auto* d = std::get_if<NetDecl>(&item)) {
        const int width = d->type == NetType::kInteger ? 32 : (d->range ? d->range->width() : 1);
        for (const auto& name : d->names) {
          add_signal(prefix + name, width, d->type != NetType::kWire, false, false);
        }
        if (d->init) {
          if (d->type == NetType::kWire) {
            ElabProcess proc;
            proc.kind = ProcessKind::kContAssign;
            proc.lhs = Expr::make_ident(prefix + d->names.back());
            proc.rhs = prefix_expr(d->init, prefix);
            expr_read_idents(proc.rhs, proc.read_set);
            design_.processes.push_back(std::move(proc));
          } else {
            // reg r = expr: initial value.
            ElabProcess proc;
            proc.kind = ProcessKind::kInitial;
            proc.body = Stmt::make_assign(true, Expr::make_ident(prefix + d->names.back()),
                                          prefix_expr(d->init, prefix));
            design_.processes.push_back(std::move(proc));
          }
        }
      }
    }

    for (const auto& item : m.items) {
      if (std::holds_alternative<NetDecl>(item) || std::holds_alternative<ParameterDecl>(item))
        continue;
      if (const auto* a = std::get_if<ContAssign>(&item)) {
        ElabProcess proc;
        proc.kind = ProcessKind::kContAssign;
        proc.lhs = prefix_expr(a->lhs, prefix);
        proc.rhs = prefix_expr(a->rhs, prefix);
        expr_read_idents(proc.rhs, proc.read_set);
        lvalue_read_idents(proc.lhs, proc.read_set);
        design_.processes.push_back(std::move(proc));
      } else if (const auto* ab = std::get_if<AlwaysBlock>(&item)) {
        ElabProcess proc;
        proc.body = prefix_stmt(ab->body, prefix);
        const bool clocked = !ab->star && std::any_of(ab->sens.begin(), ab->sens.end(),
                                                      [](const SensItem& s) {
                                                        return s.edge != Edge::kLevel;
                                                      });
        if (clocked) {
          proc.kind = ProcessKind::kClocked;
          for (const auto& s : ab->sens) {
            if (s.edge == Edge::kLevel) {
              throw ElabError("mixed edge and level sensitivity is not supported");
            }
            proc.edges.push_back({s.edge, prefix + s.signal});
          }
        } else {
          proc.kind = ProcessKind::kComb;
          if (ab->star) {
            stmt_read_idents(proc.body, proc.read_set);
          } else {
            for (const auto& s : ab->sens) proc.read_set.insert(prefix + s.signal);
            // Incomplete sensitivity lists simulate per spec: only listed
            // signals trigger. (The analyzer warns; the simulator is honest.)
          }
        }
        design_.processes.push_back(std::move(proc));
      } else if (const auto* ib = std::get_if<InitialBlock>(&item)) {
        ElabProcess proc;
        proc.kind = ProcessKind::kInitial;
        proc.body = prefix_stmt(ib->body, prefix);
        design_.processes.push_back(std::move(proc));
      } else if (const auto* inst = std::get_if<Instance>(&item)) {
        elaborate_instance(*inst, prefix, depth);
      }
    }
  }

  void elaborate_instance(const Instance& inst, const std::string& prefix, int depth) {
    if (file_ == nullptr)
      throw ElabError("instance of '" + inst.module_name + "' but no sibling modules provided");
    const Module* def = file_->find_module(inst.module_name);
    if (def == nullptr) throw ElabError("instance of unknown module '" + inst.module_name + "'");

    const std::string child_prefix = prefix + inst.instance_name + "__";
    elaborate_module(*def, child_prefix, depth + 1, /*is_top=*/false);

    // Positional -> named normalization.
    std::vector<std::pair<std::string, ExprPtr>> conns;
    const bool named = !inst.connections.empty() && !inst.connections.front().port.empty();
    if (named) {
      for (const auto& c : inst.connections) {
        if (c.port.empty()) throw ElabError("mixed named and positional connections");
        conns.emplace_back(c.port, c.expr);
      }
    } else {
      if (inst.connections.size() != def->ports.size())
        throw ElabError("positional connection count mismatch for instance '" +
                        inst.instance_name + "'");
      for (std::size_t i = 0; i < inst.connections.size(); ++i) {
        conns.emplace_back(def->ports[i].name, inst.connections[i].expr);
      }
    }

    for (const auto& [port_name, expr] : conns) {
      const verilog::Port* port = def->find_port(port_name);
      if (port == nullptr)
        throw ElabError("connection to unknown port '" + port_name + "' of '" +
                        inst.module_name + "'");
      if (!expr) continue;  // unconnected port floats (stays X)
      ExprPtr parent_expr = prefix_expr(expr, prefix);
      ExprPtr child_sig = Expr::make_ident(child_prefix + port_name);
      ElabProcess proc;
      proc.kind = ProcessKind::kContAssign;
      if (port->dir == Dir::kInput) {
        proc.lhs = child_sig;
        proc.rhs = parent_expr;
      } else if (port->dir == Dir::kOutput) {
        // Parent side must be an assignable expression (ident/select/concat).
        proc.lhs = parent_expr;
        proc.rhs = child_sig;
      } else {
        throw ElabError("inout instance ports are not supported");
      }
      expr_read_idents(proc.rhs, proc.read_set);
      lvalue_read_idents(proc.lhs, proc.read_set);
      design_.processes.push_back(std::move(proc));
    }
  }

  const Module& top_;
  const SourceFile* file_;
  ElabDesign design_;
};

}  // namespace

ElabDesign elaborate(const Module& top, const SourceFile* file) {
  return Elaborator(top, file).run();
}

}  // namespace haven::sim
