// haven::prove unit tests: AIG/BDD kernels, the equivalence verdict on
// hand-written pairs (cross-checked against the diff testbench), the
// unsupported/budget escape hatches, and the golden self-proof calibration
// sweep over every suite (DESIGN.md §12). Engine-level verdict identity
// lives in eval_prove_diff_test.cpp.
#include <gtest/gtest.h>

#include <string>

#include "eval/suites.h"
#include "prove/aig.h"
#include "prove/bdd.h"
#include "prove/prove.h"
#include "sim/testbench.h"
#include "util/rng.h"
#include "verilog/parser.h"

namespace haven::prove {
namespace {

TEST(Aig, ConstantAndUnitFolds) {
  Budget budget(0);
  Aig aig(&budget);
  const Lit a = aig.add_input();
  const Lit b = aig.add_input();
  EXPECT_EQ(aig.land(kFalse, a), kFalse);
  EXPECT_EQ(aig.land(kTrue, a), a);
  EXPECT_EQ(aig.land(a, a), a);
  EXPECT_EQ(aig.land(a, lit_not(a)), kFalse);
  EXPECT_EQ(aig.lor(a, lit_not(a)), kTrue);
  EXPECT_EQ(aig.lxor(a, a), kFalse);
  EXPECT_EQ(aig.lxor(a, lit_not(a)), kTrue);
  // Structural hashing: the same AND built twice (in either operand order)
  // is one node.
  const Lit ab1 = aig.land(a, b);
  const Lit ab2 = aig.land(b, a);
  EXPECT_EQ(ab1, ab2);
}

TEST(Aig, BudgetChargesAndThrows) {
  Budget budget(5);  // inputs charge too: 3 inputs + 2 ANDs exhaust it
  Aig aig(&budget);
  const Lit a = aig.add_input();
  const Lit b = aig.add_input();
  const Lit c = aig.add_input();
  (void)aig.land(a, b);
  (void)aig.land(b, c);
  EXPECT_EQ(budget.used(), 5u);
  EXPECT_THROW((void)aig.land(a, c), BudgetExceededError);
  budget.rewind(0);
  EXPECT_EQ(budget.used(), 0u);
}

TEST(Bdd, CanonicityAndTerminalCases) {
  Budget budget(0);
  Bdd bdd(&budget);
  const Bdd::Ref x = bdd.var(0);
  const Bdd::Ref y = bdd.var(1);
  EXPECT_EQ(bdd.land(x, Bdd::kTrueRef), x);
  EXPECT_EQ(bdd.land(x, Bdd::kFalseRef), Bdd::kFalseRef);
  EXPECT_EQ(bdd.land(x, x), x);
  EXPECT_EQ(bdd.land(x, Bdd::lnot(x)), Bdd::kFalseRef);
  // x & y built twice is the same reference (unique table + and-cache).
  EXPECT_EQ(bdd.land(x, y), bdd.land(y, x));
  // De Morgan at the reference level: ~(~x & ~y) == x | y != FALSE.
  const Bdd::Ref nor = bdd.land(Bdd::lnot(x), Bdd::lnot(y));
  EXPECT_NE(Bdd::lnot(nor), Bdd::kFalseRef);
}

// --- prove_equivalence on source pairs --------------------------------------

ProveResult prove_sources(const std::string& dut_src, const std::string& golden_src,
                          const sim::StimulusSpec& spec, const ProveOptions& opts = {}) {
  verilog::ParseOutput dut = verilog::parse_source(dut_src);
  verilog::ParseOutput golden = verilog::parse_source(golden_src);
  EXPECT_TRUE(dut.ok() && !dut.file.modules.empty()) << dut_src;
  EXPECT_TRUE(golden.ok() && !golden.file.modules.empty()) << golden_src;
  return prove_equivalence(dut.file.modules.front(), &dut.file, golden.file.modules.front(),
                           &golden.file, spec, opts);
}

// The prover's verdict must agree with the diff testbench on the same pair.
void expect_matches_simulation(const std::string& dut_src, const std::string& golden_src,
                               const sim::StimulusSpec& spec, ProveStatus status) {
  util::Rng rng(0x5eed);
  const sim::DiffResult diff = sim::run_diff_test(dut_src, golden_src, spec, rng);
  if (status == ProveStatus::kEquivalent) {
    EXPECT_TRUE(diff.passed) << diff.reason;
  } else {
    EXPECT_FALSE(diff.passed);
  }
}

constexpr char kGoldenMux[] =
    "module top(input wire s, input wire a, input wire b, output wire y);\n"
    "  assign y = s ? a : b;\n"
    "endmodule\n";

TEST(Prove, SelfEquivalenceCollapsesWithoutBdd) {
  const ProveResult r = prove_sources(kGoldenMux, kGoldenMux, sim::StimulusSpec{});
  EXPECT_EQ(r.status, ProveStatus::kEquivalent) << r.reason;
  // Shared lowering + structural hashing: golden-vs-self folds to constant
  // FALSE before any decision procedure runs.
  EXPECT_FALSE(r.used_bdd);
  EXPECT_FALSE(r.used_exhaustive);
}

TEST(Prove, StructurallyDifferentEquivalentNeedsBdd) {
  // Same mux, AND/OR decomposition: y = (s & a) | (~s & b).
  const std::string dut =
      "module top(input wire s, input wire a, input wire b, output wire y);\n"
      "  assign y = (s & a) | (~s & b);\n"
      "endmodule\n";
  const ProveResult r = prove_sources(dut, kGoldenMux, sim::StimulusSpec{});
  EXPECT_EQ(r.status, ProveStatus::kEquivalent) << r.reason;
  expect_matches_simulation(dut, kGoldenMux, sim::StimulusSpec{}, r.status);
}

TEST(Prove, DeMorganEquivalent) {
  const std::string golden =
      "module top(input wire a, input wire b, output wire y);\n"
      "  assign y = ~(a & b);\n"
      "endmodule\n";
  const std::string dut =
      "module top(input wire a, input wire b, output wire y);\n"
      "  assign y = ~a | ~b;\n"
      "endmodule\n";
  const ProveResult r = prove_sources(dut, golden, sim::StimulusSpec{});
  EXPECT_EQ(r.status, ProveStatus::kEquivalent) << r.reason;
  expect_matches_simulation(dut, golden, sim::StimulusSpec{}, r.status);
}

TEST(Prove, AdderDecompositionEquivalent) {
  const std::string golden =
      "module top(input wire [3:0] a, input wire [3:0] b, output wire [3:0] s);\n"
      "  assign s = a + b;\n"
      "endmodule\n";
  const std::string dut =
      "module top(input wire [3:0] a, input wire [3:0] b, output wire [3:0] s);\n"
      "  assign s = (a ^ b) + ((a & b) << 1);\n"
      "endmodule\n";
  const ProveResult r = prove_sources(dut, golden, sim::StimulusSpec{});
  EXPECT_EQ(r.status, ProveStatus::kEquivalent) << r.reason;
  expect_matches_simulation(dut, golden, sim::StimulusSpec{}, r.status);
}

TEST(Prove, CaseVersusTernaryEquivalent) {
  const std::string dut =
      "module top(input wire s, input wire a, input wire b, output reg y);\n"
      "  always @(*) begin\n"
      "    case (s)\n"
      "      1'b1: y = a;\n"
      "      default: y = b;\n"
      "    endcase\n"
      "  end\n"
      "endmodule\n";
  const ProveResult r = prove_sources(dut, kGoldenMux, sim::StimulusSpec{});
  EXPECT_EQ(r.status, ProveStatus::kEquivalent) << r.reason;
  expect_matches_simulation(dut, kGoldenMux, sim::StimulusSpec{}, r.status);
}

TEST(Prove, InequivalentGateSwap) {
  const std::string golden =
      "module top(input wire a, input wire b, output wire y);\n"
      "  assign y = a & b;\n"
      "endmodule\n";
  const std::string dut =
      "module top(input wire a, input wire b, output wire y);\n"
      "  assign y = a | b;\n"
      "endmodule\n";
  const ProveResult r = prove_sources(dut, golden, sim::StimulusSpec{});
  EXPECT_EQ(r.status, ProveStatus::kInequivalent);
  expect_matches_simulation(dut, golden, sim::StimulusSpec{}, r.status);
}

TEST(Prove, LatchingDutFallsBackToSimulation) {
  const std::string golden =
      "module top(input wire a, output wire y);\n"
      "  assign y = a;\n"
      "endmodule\n";
  // y is assigned on some but not all paths (a comb latch): the lowering
  // cannot model the stateful settle, so the prover must defer to the
  // testbench — NOT guess a verdict.
  const std::string dut =
      "module top(input wire a, output reg y);\n"
      "  always @(*) if (a) y = 1'b1;\n"
      "endmodule\n";
  const ProveResult r = prove_sources(dut, golden, sim::StimulusSpec{});
  EXPECT_EQ(r.status, ProveStatus::kUnsupported);
  EXPECT_NE(r.reason.find("latches"), std::string::npos) << r.reason;
  // The simulated fallback then fails the candidate (dut X where golden is
  // defined on the a=0 vector).
  util::Rng rng(7);
  EXPECT_FALSE(sim::run_diff_test(dut, golden, sim::StimulusSpec{}, rng).passed);
}

TEST(Prove, InterfaceMismatchMatchesTestbenchReason) {
  const std::string dut =
      "module top(input wire a, output wire y);\n"
      "  assign y = a;\n"
      "endmodule\n";
  const std::string golden =
      "module top(input wire a, input wire b, output wire y);\n"
      "  assign y = a & b;\n"
      "endmodule\n";
  const ProveResult r = prove_sources(dut, golden, sim::StimulusSpec{});
  EXPECT_EQ(r.status, ProveStatus::kInequivalent);
  EXPECT_EQ(r.reason, "missing port 'b'");
  util::Rng rng(1);
  const sim::DiffResult diff = sim::run_diff_test(dut, golden, sim::StimulusSpec{}, rng);
  EXPECT_FALSE(diff.passed);
  EXPECT_EQ(diff.reason, r.reason);
}

TEST(Prove, SequentialSpecUnsupported) {
  sim::StimulusSpec spec;
  spec.sequential = true;
  const std::string golden =
      "module top(input wire clk, input wire d, output reg q);\n"
      "  always @(posedge clk) q <= d;\n"
      "endmodule\n";
  EXPECT_EQ(prove_sources(golden, golden, spec).status, ProveStatus::kUnsupported);
  verilog::ParseOutput g = verilog::parse_source(golden);
  EXPECT_FALSE(sim::sweeps_exhaustively(g.file.modules.front(), spec));
  EXPECT_FALSE(golden_provable(g.file.modules.front(), &g.file, spec));
}

TEST(Prove, WideInputSpaceUnsupported) {
  // 32 input bits exceeds the exhaustive sweep (max_exhaustive_bits = 12
  // default): the testbench would fall back to random vectors, where a proof
  // is no longer verdict-identical.
  const std::string golden =
      "module top(input wire [31:0] a, output wire [31:0] y);\n"
      "  assign y = ~a;\n"
      "endmodule\n";
  const ProveResult r = prove_sources(golden, golden, sim::StimulusSpec{});
  EXPECT_EQ(r.status, ProveStatus::kUnsupported);
  verilog::ParseOutput g = verilog::parse_source(golden);
  EXPECT_FALSE(sim::sweeps_exhaustively(g.file.modules.front(), sim::StimulusSpec{}));
}

TEST(Prove, TinyBudgetExceeded) {
  const std::string golden =
      "module top(input wire [3:0] a, input wire [3:0] b, output wire [3:0] s);\n"
      "  assign s = a + b;\n"
      "endmodule\n";
  const std::string dut =
      "module top(input wire [3:0] a, input wire [3:0] b, output wire [3:0] s);\n"
      "  assign s = b + a;\n"
      "endmodule\n";
  ProveOptions opts;
  opts.node_budget = 3;
  const ProveResult r = prove_sources(dut, golden, sim::StimulusSpec{}, opts);
  EXPECT_EQ(r.status, ProveStatus::kBudgetExceeded);
}

TEST(Prove, GoldenXBitsAreUnconstrained) {
  // The golden reads past its input's width, so y is X on every vector
  // (4-state semantics, matching the simulator's out-of-range bit-select).
  // The testbench only checks golden-defined bits, so ANY dut passes.
  const std::string golden =
      "module top(input wire [1:0] a, output wire y);\n"
      "  assign y = a[2];\n"
      "endmodule\n";
  const std::string dut =
      "module top(input wire [1:0] a, output wire y);\n"
      "  assign y = a[0] ^ a[1];\n"
      "endmodule\n";
  const ProveResult r = prove_sources(dut, golden, sim::StimulusSpec{});
  EXPECT_EQ(r.status, ProveStatus::kEquivalent) << r.reason;
  expect_matches_simulation(dut, golden, sim::StimulusSpec{}, r.status);
}

// --- bytecode constructs: decided, and agreeing with simulation --------------

// The prover must decide the pair (no fallback) with simulation's verdict.
void expect_decided_like_simulation(const std::string& dut, const std::string& golden) {
  const ProveResult r = prove_sources(dut, golden, sim::StimulusSpec{});
  ASSERT_TRUE(r.status == ProveStatus::kEquivalent || r.status == ProveStatus::kInequivalent)
      << r.reason;
  expect_matches_simulation(dut, golden, sim::StimulusSpec{}, r.status);
}

constexpr char kGoldenPriority[] =
    "module top(input wire [3:0] req, output wire [1:0] idx, output wire valid);\n"
    "  assign idx = req[3] ? 2'd3 : req[2] ? 2'd2 : req[1] ? 2'd1 : 2'd0;\n"
    "  assign valid = |req;\n"
    "endmodule\n";

TEST(ProveBytecode, ForLoopWithSymbolicIfPriorityEncoder) {
  // The back edge is taken by one path: the symbolic if inside the body
  // merges before the loop step. The loop index is left out of the
  // sensitivity list (its reads all follow its writes); under @(*) its
  // rewrites would retrigger the block without end.
  const std::string dut =
      "module top(input wire [3:0] req, output reg [1:0] idx, output reg valid);\n"
      "  integer i;\n"
      "  always @(req) begin\n"
      "    idx = 2'd0;\n"
      "    valid = 1'b0;\n"
      "    for (i = 0; i < 4; i = i + 1)\n"
      "      if (req[i]) begin idx = i; valid = 1'b1; end\n"
      "  end\n"
      "endmodule\n";
  expect_decided_like_simulation(dut, kGoldenPriority);
  // Lowest index wins instead: a different function.
  const std::string reversed =
      "module top(input wire [3:0] req, output reg [1:0] idx, output reg valid);\n"
      "  integer i;\n"
      "  always @(req) begin\n"
      "    idx = 2'd0;\n"
      "    valid = 1'b0;\n"
      "    for (i = 0; i < 4; i = i + 1)\n"
      "      if (req[3 - i]) begin idx = 3 - i; valid = 1'b1; end\n"
      "  end\n"
      "endmodule\n";
  expect_decided_like_simulation(reversed, kGoldenPriority);
}

TEST(ProveBytecode, SelfRetriggeringLoopFallsBackToSimulation) {
  // Under @(*) the index is watched: every activation moves it 4 -> 0 -> 4,
  // so the simulator never settles and fails the candidate. The prover
  // must defer, not prove the settled function equivalent.
  const std::string dut =
      "module top(input wire [3:0] req, output reg [1:0] idx, output reg valid);\n"
      "  integer i;\n"
      "  always @(*) begin\n"
      "    idx = 2'd0;\n"
      "    valid = 1'b0;\n"
      "    for (i = 0; i < 4; i = i + 1)\n"
      "      if (req[i]) begin idx = i; valid = 1'b1; end\n"
      "  end\n"
      "endmodule\n";
  const ProveResult r = prove_sources(dut, kGoldenPriority, sim::StimulusSpec{});
  EXPECT_EQ(r.status, ProveStatus::kUnsupported);
  EXPECT_NE(r.reason.find("sensitivity list watches"), std::string::npos) << r.reason;
  util::Rng rng(3);
  EXPECT_FALSE(sim::run_diff_test(dut, kGoldenPriority, sim::StimulusSpec{}, rng).passed);
}

TEST(ProveBytecode, CombinationalFeedbackFallsBackToSimulation) {
  // Feedback through one process (a read of its own target before the
  // write), through two processes (a cycle in the process graph), and
  // through a child instance's port connections: the settled value can
  // oscillate or latch, so the prover defers.
  const std::string golden =
      "module top(input wire a, input wire b, output wire y);\n"
      "  assign y = a & b;\n"
      "endmodule\n";
  const std::string duts[] = {
      "module top(input wire a, input wire b, output wire y);\n"
      "  assign y = a ? b : y;\n"
      "endmodule\n",
      "module top(input wire a, input wire b, output reg y);\n"
      "  always @(*) y = ~y ^ (a & b);\n"
      "endmodule\n",
      "module top(input wire a, input wire b, output wire y);\n"
      "  wire q, qn;\n"
      "  assign q = ~(a | qn);\n"
      "  assign qn = ~(b | q);\n"
      "  assign y = q;\n"
      "endmodule\n",
      "module inv(input wire i, output wire o);\n"
      "  assign o = ~i;\n"
      "endmodule\n"
      "module top(input wire a, input wire b, output wire y);\n"
      "  wire n;\n"
      "  inv u0(.i(y), .o(n));\n"
      "  assign y = (a & b) ^ n;\n"
      "endmodule\n",
  };
  for (const std::string& dut : duts) {
    verilog::ParseOutput parsed = verilog::parse_source(dut);
    ASSERT_TRUE(parsed.ok() && !parsed.file.modules.empty()) << dut;
    const verilog::Module& top = parsed.file.modules.back();
    verilog::ParseOutput g = verilog::parse_source(golden);
    const ProveResult r = prove_equivalence(top, &parsed.file, g.file.modules.front(), &g.file,
                                            sim::StimulusSpec{});
    EXPECT_EQ(r.status, ProveStatus::kUnsupported) << dut << r.reason;
  }
}

TEST(ProveBytecode, CasezAndCasexWildcardLabels) {
  const std::string golden =
      "module top(input wire [2:0] sel, input wire a, input wire b, input wire c,\n"
      "           output wire y);\n"
      "  assign y = sel[2] ? a : sel[1] ? b : c;\n"
      "endmodule\n";
  const std::string casez_dut =
      "module top(input wire [2:0] sel, input wire a, input wire b, input wire c,\n"
      "           output reg y);\n"
      "  always @(*) begin\n"
      "    casez (sel)\n"
      "      3'b1??: y = a;\n"
      "      3'b01?: y = b;\n"
      "      default: y = c;\n"
      "    endcase\n"
      "  end\n"
      "endmodule\n";
  expect_decided_like_simulation(casez_dut, golden);
  const std::string casex_dut =
      "module top(input wire [2:0] sel, input wire a, input wire b, input wire c,\n"
      "           output reg y);\n"
      "  always @(*) begin\n"
      "    casex (sel)\n"
      "      3'b1xx: y = a;\n"
      "      3'b0x1: y = b;\n"
      "      default: y = c;\n"
      "    endcase\n"
      "  end\n"
      "endmodule\n";
  expect_decided_like_simulation(casex_dut, golden);
}

TEST(ProveBytecode, ConcatLvalue) {
  const std::string golden =
      "module top(input wire [2:0] a, input wire [2:0] b, output wire [2:0] s,\n"
      "           output wire co);\n"
      "  wire [3:0] t = {1'b0, a} + {1'b0, b};\n"
      "  assign s = t[2:0];\n"
      "  assign co = t[3];\n"
      "endmodule\n";
  const std::string dut =
      "module top(input wire [2:0] a, input wire [2:0] b, output wire [2:0] s,\n"
      "           output wire co);\n"
      "  assign {co, s} = {1'b0, a} + {1'b0, b};\n"
      "endmodule\n";
  expect_decided_like_simulation(dut, golden);
}

TEST(ProveBytecode, DynamicBitSelectWrite) {
  const std::string golden =
      "module top(input wire [1:0] sel, output wire [3:0] y);\n"
      "  assign y = 4'b0001 << sel;\n"
      "endmodule\n";
  const std::string dut =
      "module top(input wire [1:0] sel, output reg [3:0] y);\n"
      "  always @(*) begin\n"
      "    y = 4'b0000;\n"
      "    y[sel] = 1'b1;\n"
      "  end\n"
      "endmodule\n";
  expect_decided_like_simulation(dut, golden);
}

TEST(ProveBytecode, TernaryWithFaultableArmTakesEveryPath) {
  // The then-arm names an undeclared signal on a never-taken side, so the
  // ternary compiles to the branchy kJumpIfTrue / kJumpIfDefined / kMergeX
  // form; a[i] is X for i >= 2, so the undefined-condition path is live too.
  const std::string golden =
      "module top(input wire [1:0] a, input wire [1:0] i, input wire [1:0] b,\n"
      "           input wire [1:0] d, output wire [1:0] y);\n"
      "  assign y = a[i] ? b : d;\n"
      "endmodule\n";
  const std::string dut =
      "module top(input wire [1:0] a, input wire [1:0] i, input wire [1:0] b,\n"
      "           input wire [1:0] d, output wire [1:0] y);\n"
      "  assign y = a[i] ? (1'b0 ? nosuch : b) : d;\n"
      "endmodule\n";
  expect_decided_like_simulation(dut, golden);
}

TEST(ProveBytecode, ComplementaryElseIfWritesOnEveryPath) {
  // The else-if's false side has path condition !a & a: pruned, so y is
  // written on every path and no latch is inferred.
  const std::string dut =
      "module top(input wire a, input wire b, output reg y);\n"
      "  always @(*) begin\n"
      "    if (a) y = b;\n"
      "    else if (!a) y = ~b;\n"
      "  end\n"
      "endmodule\n";
  const std::string golden =
      "module top(input wire a, input wire b, output wire y);\n"
      "  assign y = a ? b : ~b;\n"
      "endmodule\n";
  expect_decided_like_simulation(dut, golden);
}

// --- golden self-proof calibration ------------------------------------------

// Every provable suite golden must prove equivalent to itself: the lowering
// is deterministic and the shared AIG strashes both copies onto the same
// nodes. Any kInequivalent here would be a soundness bug; any kUnsupported
// contradicts golden_provable's dry run.
void calibrate_suite(const eval::Suite& suite, int* provable, int* comb) {
  for (const eval::EvalTask& task : suite.tasks) {
    if (task.stimulus.sequential) continue;
    ++*comb;
    verilog::ParseOutput g = verilog::parse_source(task.golden_source);
    ASSERT_TRUE(g.ok() && !g.file.modules.empty()) << task.id;
    const verilog::Module& gm = g.file.modules.front();
    if (!golden_provable(gm, &g.file, task.stimulus)) continue;
    ++*provable;
    const ProveResult r = prove_equivalence(gm, &g.file, gm, &g.file, task.stimulus);
    EXPECT_EQ(r.status, ProveStatus::kEquivalent)
        << suite.name << "/" << task.id << ": " << r.reason;
  }
}

TEST(ProveCalibration, EverySuiteGoldenSelfProves) {
  int provable = 0;
  int comb = 0;
  calibrate_suite(eval::build_verilogeval_machine(), &provable, &comb);
  calibrate_suite(eval::build_verilogeval_human(), &provable, &comb);
  calibrate_suite(eval::build_verilogeval_v2(), &provable, &comb);
  calibrate_suite(eval::build_rtllm(), &provable, &comb);
  calibrate_suite(eval::build_symbolic44(), &provable, &comb);
  // The fast-path must actually cover a real share of the corpus.
  EXPECT_GT(provable, 0);
  EXPECT_GT(comb, 0);
}

// The two comb modalities of the symbolic suite (waveform- and truth-table-
// specified tasks) both calibrate: the modality only changes the prompt, not
// the golden, so provability is modality-independent.
TEST(ProveCalibration, SymbolicSuiteBothModalities) {
  const eval::Suite suite = eval::build_symbolic44();
  int provable = 0;
  int comb = 0;
  calibrate_suite(suite, &provable, &comb);
  EXPECT_GT(provable, 0);
}

}  // namespace
}  // namespace haven::prove
