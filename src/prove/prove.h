// haven::prove — combinational equivalence checking as a zero-simulation
// verdict fast-path (DESIGN.md §12).
//
// prove_equivalence() lowers the compiled bytecode of the candidate and the
// golden module into one shared structurally-hashed AIG over the 4-state
// value domain, builds the miscompare network exactly as sim::run_diff_test's
// outputs_match would judge each exhaustive vector, and decides
// satisfiability with reduced-ordered BDDs (64-lane exhaustive cofactor
// sweep as the fallback when the BDD outgrows its share of the node budget).
//
// The verdict contract: on a task where the engine deems the golden module
// provable (golden_provable), kEquivalent is returned iff the simulator's
// exhaustive sweep would pass the candidate, and kInequivalent
// iff it would fail it — bit-identically, by construction. Everything the
// lowering cannot mirror exactly returns kUnsupported (and budget blow-ups
// kBudgetExceeded); both mean "simulate instead", never a wrong verdict.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "sim/program.h"
#include "sim/testbench.h"
#include "verilog/ast.h"

namespace haven::prove {

// Default shared node budget (AIG nodes + BDD nodes + sweep word-ops) for one
// proof attempt. Big enough for every suite golden; small enough that a
// hostile candidate cannot stall a worker.
inline constexpr std::uint64_t kDefaultNodeBudget = std::uint64_t{1} << 20;

enum class ProveStatus : std::uint8_t {
  kEquivalent,      // no input vector distinguishes DUT from golden
  kInequivalent,    // some vector (or the interface itself) does
  kUnsupported,     // construct outside the provable fragment: simulate
  kBudgetExceeded,  // proof structures outgrew the node budget: simulate
};

struct ProveOptions {
  std::uint64_t node_budget = kDefaultNodeBudget;  // 0 = unbounded
};

struct ProveResult {
  ProveStatus status = ProveStatus::kUnsupported;
  std::string reason;      // mismatch description / unsupported construct
  std::uint64_t nodes = 0; // budget units consumed (AIG + BDD + sweep)
  bool used_bdd = false;
  bool used_exhaustive = false;
};

// Eligibility: sim::sweeps_exhaustively (the proof is only verdict-identical
// when simulation would itself test every vector) plus a dry-run
// elaboration, compile and lowering of the golden module under `opts`. When
// this holds, prove_equivalence() on any candidate either returns a verdict
// identical to simulation or defers to it.
bool golden_provable(const verilog::Module& golden, const verilog::SourceFile* golden_file,
                     const sim::StimulusSpec& spec, const ProveOptions& opts = {});

// The golden's compiled Program when golden_provable() holds, else nullopt:
// what a caller that proves many candidates against one golden prepares once.
std::optional<sim::Program> provable_golden(const verilog::Module& golden,
                                            const verilog::SourceFile* golden_file,
                                            const sim::StimulusSpec& spec,
                                            const ProveOptions& opts = {});

// Decide equivalence of `dut` against a golden prepared by provable_golden().
// `dut_file` supplies the candidate's instance definitions (may be null),
// mirroring run_diff_test.
ProveResult prove_equivalence(const verilog::Module& dut, const verilog::SourceFile* dut_file,
                              const verilog::Module& golden, const sim::Program& golden_program,
                              const sim::StimulusSpec& spec, const ProveOptions& opts = {});

// The same from the golden's source: elaborates and compiles it, then
// proves as above.
ProveResult prove_equivalence(const verilog::Module& dut, const verilog::SourceFile* dut_file,
                              const verilog::Module& golden, const verilog::SourceFile* golden_file,
                              const sim::StimulusSpec& spec, const ProveOptions& opts = {});

}  // namespace haven::prove
