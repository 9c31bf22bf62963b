// Suite-level prove parity: the formal equivalence fast-path must be verdict-
// identical to plain simulation through the whole evaluation stack — across
// suites, seeds, thread counts, lint triage, chaos injection, and the result
// cache (whose keys deliberately bind the prove knobs, so prove-on and
// prove-off runs never share entries). Unit-level prover correctness lives in
// prove_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/result_cache.h"
#include "eval/engine.h"
#include "eval/suites.h"
#include "llm/model_zoo.h"
#include "prove/prove.h"
#include "sim/testbench.h"
#include "util/fault.h"
#include "util/rng.h"
#include "verilog/parser.h"

namespace haven::eval {
namespace {

Suite small_rtllm(std::size_t n_tasks) {
  Suite suite = build_rtllm();
  if (suite.tasks.size() > n_tasks) suite.tasks.resize(n_tasks);
  return suite;
}

// Everything the prover is allowed to touch must still come out bit-identical:
// per-task verdicts and every counter that describes WHAT was decided. Only
// the counters describing HOW (simulated work volume vs proof volume) may
// legitimately differ, and those are bound by expect_work_conserved below.
void expect_verdicts_identical(const SuiteResult& sim_only, const SuiteResult& proved) {
  EXPECT_EQ(sim_only.suite_name, proved.suite_name);
  EXPECT_EQ(sim_only.model_name, proved.model_name);
  ASSERT_EQ(sim_only.per_task.size(), proved.per_task.size());
  for (std::size_t i = 0; i < sim_only.per_task.size(); ++i) {
    EXPECT_EQ(sim_only.per_task[i].task_id, proved.per_task[i].task_id);
    EXPECT_EQ(sim_only.per_task[i].n, proved.per_task[i].n);
    EXPECT_EQ(sim_only.per_task[i].syntax_pass, proved.per_task[i].syntax_pass);
    EXPECT_EQ(sim_only.per_task[i].func_pass, proved.per_task[i].func_pass)
        << sim_only.per_task[i].task_id;
  }
  EXPECT_EQ(sim_only.counters.candidates, proved.counters.candidates);
  EXPECT_EQ(sim_only.counters.compile_failures, proved.counters.compile_failures);
  EXPECT_EQ(sim_only.counters.sim_mismatches, proved.counters.sim_mismatches);
  EXPECT_EQ(sim_only.counters.sicot_refinements, proved.counters.sicot_refinements);
  EXPECT_EQ(sim_only.counters.unit_faults, proved.counters.unit_faults);
  EXPECT_EQ(sim_only.counters.lint_triaged, proved.counters.lint_triaged);
  EXPECT_EQ(sim_only.counters.lint_findings, proved.counters.lint_findings);
}

// Conservation of verdict work: every candidate the prove run settled formally
// is exactly one candidate the sim-only run had to simulate, and fallbacks
// land back in the simulated bucket — nothing is dropped or double-counted.
void expect_work_conserved(const SuiteResult& sim_only, const SuiteResult& proved) {
  EXPECT_EQ(sim_only.counters.simulated,
            proved.counters.simulated + proved.counters.proven_equiv +
                proved.counters.proven_inequiv);
  EXPECT_LE(proved.counters.prove_fallback, proved.counters.simulated);
  EXPECT_EQ(sim_only.counters.proven_equiv, 0);
  EXPECT_EQ(sim_only.counters.proven_inequiv, 0);
  EXPECT_EQ(sim_only.counters.prove_fallback, 0);
  EXPECT_TRUE(counters_consistent(sim_only.counters));
  EXPECT_TRUE(counters_consistent(proved.counters));
}

EvalRequest prove_request(bool prove, std::uint64_t seed, int threads = 4) {
  EvalRequest request;
  request.n_samples = 2;
  request.temperatures = {0.2, 0.8};
  request.threads = threads;
  request.seed = seed;
  request.prove = prove;
  return request;
}

TEST(EvalProveDiff, FullSuiteVerdictIdentical) {
  const Suite suite = build_rtllm();  // all designs, comb + sequential
  const llm::SimLlm model = llm::make_model("RTLCoder-DeepSeek");
  const SuiteResult sim_only =
      EvalEngine(prove_request(false, kDefaultEvalSeed)).evaluate(model, suite);
  const SuiteResult proved =
      EvalEngine(prove_request(true, kDefaultEvalSeed)).evaluate(model, suite);
  expect_verdicts_identical(sim_only, proved);
  expect_work_conserved(sim_only, proved);
  // The run must actually prove something to mean anything: the acceptance
  // criterion is verdict identity WHILE the formal path carries real load.
  EXPECT_GT(proved.counters.proven_equiv + proved.counters.proven_inequiv, 0);
  EXPECT_LT(proved.counters.simulated, sim_only.counters.simulated);
  // A fallback keeps every verdict identical, so lost coverage is invisible
  // to the checks above: pin the proven count on this fixed suite and seed.
  EXPECT_GE(proved.counters.proven_equiv + proved.counters.proven_inequiv, 19);
}

TEST(EvalProveDiff, MultiSeedMultiSuiteParity) {
  const llm::SimLlm model = llm::make_model("CodeLlama");
  for (const std::uint64_t seed : {0x1ULL, 0xBEEFULL, 0x5EED5EEDULL}) {
    for (const Suite& suite : {small_rtllm(10), build_symbolic44()}) {
      const SuiteResult sim_only = EvalEngine(prove_request(false, seed)).evaluate(model, suite);
      const SuiteResult proved = EvalEngine(prove_request(true, seed)).evaluate(model, suite);
      expect_verdicts_identical(sim_only, proved);
      expect_work_conserved(sim_only, proved);
    }
  }
}

// The prover must not perturb scheduling determinism: a serial prove run and
// a wide prove run agree with each other and with serial/wide sim-only runs.
TEST(EvalProveDiff, ThreadCountInvariance) {
  const Suite suite = small_rtllm(12);
  const llm::SimLlm model = llm::make_model("RTLCoder-DeepSeek");
  const SuiteResult serial =
      EvalEngine(prove_request(true, 0x7412ULL, 1)).evaluate(model, suite);
  const SuiteResult wide = EvalEngine(prove_request(true, 0x7412ULL, 8)).evaluate(model, suite);
  expect_verdicts_identical(serial, wide);
  EXPECT_EQ(serial.counters.proven_equiv, wide.counters.proven_equiv);
  EXPECT_EQ(serial.counters.proven_inequiv, wide.counters.proven_inequiv);
  EXPECT_EQ(serial.counters.prove_fallback, wide.counters.prove_fallback);
  EXPECT_EQ(serial.counters.simulated, wide.counters.simulated);
  const SuiteResult sim_only =
      EvalEngine(prove_request(false, 0x7412ULL, 8)).evaluate(model, suite);
  expect_verdicts_identical(sim_only, wide);
  expect_work_conserved(sim_only, wide);
}

// Ordering seam between the two zero-simulation paths: lint triage fires
// first, so a candidate with a proven lint failure counts ONCE (lint_triaged)
// and is never offered to the prover. Turning prove on must leave the
// lint_triaged count untouched, and the counter identity must keep holding
// with all four buckets (triaged / proven / simulated / cached) live at once.
TEST(EvalProveDiff, LintTriageFiresBeforeProve) {
  const Suite suite = small_rtllm(12);
  const llm::SimLlm model = llm::make_model("CodeQwen");
  EvalRequest without_prove = prove_request(false, 0x717AULL);
  EvalRequest with_prove = prove_request(true, 0x717AULL);
  without_prove.lint = with_prove.lint = true;
  without_prove.lint_triage = with_prove.lint_triage = true;
  const SuiteResult lint_only = EvalEngine(without_prove).evaluate(model, suite);
  const SuiteResult lint_and_prove = EvalEngine(with_prove).evaluate(model, suite);
  expect_verdicts_identical(lint_only, lint_and_prove);
  expect_work_conserved(lint_only, lint_and_prove);
  EXPECT_GT(lint_and_prove.counters.lint_triaged, 0);  // triage actually fired
  EXPECT_EQ(lint_only.counters.lint_triaged, lint_and_prove.counters.lint_triaged);
  EXPECT_GT(lint_and_prove.counters.proven_equiv + lint_and_prove.counters.proven_inequiv, 0);
}

// Chaos-injected candidates: faults must land on the same units with the
// same classification whether or not the prover is on. Only the llm and
// compile sites are armed — a candidate the prover settles never reaches the
// simulator, so arming kSiteSimRun would (correctly) change which draws
// happen; that asymmetry is exactly what the fast-path is for.
TEST(EvalProveDiff, ChaosInjectionParity) {
  auto chaos_run = [](bool prove, util::FaultInjector* injector) {
    injector->arm(util::kSiteLlmGenerate, 0.2);
    injector->arm(util::kSiteEvalCompile, 0.2);
    injector->install();
    const llm::SimLlm model = llm::make_model("RTLCoder-DeepSeek");
    const SuiteResult result =
        EvalEngine(prove_request(prove, 0xC405ULL)).evaluate(model, small_rtllm(8));
    injector->uninstall();
    return result;
  };
  util::FaultInjector sim_injector(0xC405);
  util::FaultInjector prove_injector(0xC405);
  const SuiteResult sim_only = chaos_run(false, &sim_injector);
  const SuiteResult proved = chaos_run(true, &prove_injector);
  expect_verdicts_identical(sim_only, proved);
  expect_work_conserved(sim_only, proved);
  EXPECT_GT(proved.counters.unit_faults, 0);
  EXPECT_EQ(sim_injector.total_injected(), prove_injector.total_injected());
  ASSERT_EQ(sim_only.faults.size(), proved.faults.size());
  for (std::size_t i = 0; i < sim_only.faults.size(); ++i) {
    EXPECT_EQ(sim_only.faults[i].task_id, proved.faults[i].task_id);
    EXPECT_EQ(sim_only.faults[i].sample, proved.faults[i].sample);
    EXPECT_EQ(static_cast<int>(sim_only.faults[i].kind),
              static_cast<int>(proved.faults[i].kind));
  }
}

// Prove is result-affecting in the counter sense, so cache digests bind it:
// a cache warmed with prove off must NOT serve a prove-on run (the replayed
// proved/fallback bits would be wrong), but each configuration replays
// itself, and the verdicts agree across all four runs.
TEST(EvalProveDiff, WarmCacheKeepsConfigsDistinct) {
  const Suite suite = small_rtllm(8);
  const llm::SimLlm model = llm::make_model("RTLCoder-DeepSeek");
  cache::ResultCache cache;
  EvalRequest off = prove_request(false, kDefaultEvalSeed);
  EvalRequest on = prove_request(true, kDefaultEvalSeed);
  off.cache = on.cache = &cache;

  const SuiteResult off_cold = EvalEngine(off).evaluate(model, suite);
  EXPECT_EQ(off_cold.counters.cache_hits, 0);
  EXPECT_EQ(off_cold.counters.cache_misses, off_cold.counters.candidates);

  // Same candidates, same verdicts — but a disjoint key space.
  const SuiteResult on_cold = EvalEngine(on).evaluate(model, suite);
  EXPECT_EQ(on_cold.counters.cache_hits, 0);
  EXPECT_EQ(on_cold.counters.cache_misses, on_cold.counters.candidates);
  expect_verdicts_identical(off_cold, on_cold);
  expect_work_conserved(off_cold, on_cold);

  // Each configuration replays its own entries bit-identically.
  const SuiteResult on_warm = EvalEngine(on).evaluate(model, suite);
  EXPECT_EQ(on_warm.counters.cache_hits, on_warm.counters.candidates);
  EXPECT_EQ(on_warm.counters.cache_misses, 0);
  EXPECT_EQ(on_warm.counters.simulated, 0);
  EXPECT_TRUE(counters_consistent(on_warm.counters));
  const SuiteResult off_warm = EvalEngine(off).evaluate(model, suite);
  EXPECT_EQ(off_warm.counters.cache_hits, off_warm.counters.candidates);
  ASSERT_EQ(on_warm.per_task.size(), off_warm.per_task.size());
  for (std::size_t i = 0; i < on_warm.per_task.size(); ++i) {
    EXPECT_EQ(on_warm.per_task[i].syntax_pass, off_warm.per_task[i].syntax_pass);
    EXPECT_EQ(on_warm.per_task[i].func_pass, off_warm.per_task[i].func_pass);
  }
}

// A starved node budget exhausts mid-proof; every such candidate must land in
// prove_fallback and re-join the simulated bucket with its verdict unchanged.
TEST(EvalProveDiff, BudgetExhaustionFallsBackToSimulation) {
  const Suite suite = build_symbolic44();  // all-combinational: every task is eligible
  const llm::SimLlm model = llm::make_model("RTLCoder-DeepSeek");
  EvalRequest starved = prove_request(true, kDefaultEvalSeed);
  starved.prove_budget = 64;  // far below any real cone
  const SuiteResult sim_only =
      EvalEngine(prove_request(false, kDefaultEvalSeed)).evaluate(model, suite);
  const SuiteResult proved = EvalEngine(starved).evaluate(model, suite);
  expect_verdicts_identical(sim_only, proved);
  expect_work_conserved(sim_only, proved);
  EXPECT_GT(proved.counters.prove_fallback, 0);
}

// Constant continuous assigns run once at power-up in the simulator; the
// lowering must give them the same constant, on the DUT side and on the
// golden side, so proven verdicts keep matching the testbench's.
TEST(EvalProveDiff, ConstantAssignsMatchSimulation) {
  struct Case {
    const char* name;
    const char* dut;
    const char* golden;
    bool equivalent;
  };
  const Case cases[] = {
      {"golden constant rejects another constant",
       "module top(input wire a, input wire b, output wire y);\n  assign y = 1'b1;\nendmodule\n",
       "module top(input wire a, input wire b, output wire y);\n  assign y = 1'b0;\nendmodule\n",
       false},
      {"golden constant accepts an equal function",
       "module top(input wire a, input wire b, output wire y);\n  assign y = a & ~a;\nendmodule\n",
       "module top(input wire a, input wire b, output wire y);\n  assign y = 1'b0;\nendmodule\n",
       true},
      {"dut stub ties its output low",
       "module top(input wire a, input wire b, output wire y);\n  assign y = 1'b0;\nendmodule\n",
       "module top(input wire a, input wire b, output wire y);\n  assign y = a & b;\nendmodule\n",
       false},
      {"dut stub matches a golden that is constant where defined",
       "module top(input wire a, input wire b, output wire y);\n  assign y = 1'b0;\nendmodule\n",
       "module top(input wire a, input wire b, output wire y);\n  assign y = a & ~a;\nendmodule\n",
       true},
      {"constant wire feeds downstream logic",
       "module top(input wire a, input wire b, output wire [1:0] y);\n"
       "  wire [1:0] k = 2'd1;\n  assign y = {1'b0, a} + k;\nendmodule\n",
       "module top(input wire a, input wire b, output wire [1:0] y);\n"
       "  assign y = {1'b0, a} + 2'd1;\nendmodule\n",
       true},
  };
  const sim::StimulusSpec spec;
  for (const Case& c : cases) {
    const verilog::ParseOutput dut = verilog::parse_source(c.dut);
    const verilog::ParseOutput golden = verilog::parse_source(c.golden);
    ASSERT_TRUE(dut.ok() && golden.ok()) << c.name;
    const verilog::Module& gm = golden.file.modules.front();
    const std::optional<sim::Program> gp = prove::provable_golden(gm, &golden.file, spec);
    ASSERT_TRUE(gp.has_value()) << c.name;
    const prove::ProveResult proof =
        prove::prove_equivalence(dut.file.modules.front(), &dut.file, gm, *gp, spec);
    EXPECT_EQ(proof.status, c.equivalent ? prove::ProveStatus::kEquivalent
                                         : prove::ProveStatus::kInequivalent)
        << c.name << " / " << proof.reason;
    util::Rng rng(0x5eed);
    const sim::DiffResult diff = sim::run_diff_test(c.dut, c.golden, spec, rng);
    EXPECT_EQ(diff.passed, c.equivalent) << c.name << " / " << diff.reason;
  }
}

}  // namespace
}  // namespace haven::eval
