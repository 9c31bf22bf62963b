// Suite-level backend parity: the compiled simulator must be verdict- and
// counter-identical to the interpreter through the whole evaluation stack —
// across suites, seeds, models, thread counts, lint triage, chaos injection,
// and the result cache (whose keys deliberately ignore the backend, so a
// cache warmed by one backend replays for the other). Unit-level simulator
// parity lives in sim_compile_test.cpp.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/result_cache.h"
#include "eval/engine.h"
#include "eval/suites.h"
#include "llm/model_zoo.h"
#include "sim/testbench.h"
#include "util/fault.h"
#include "util/rng.h"

namespace haven::eval {
namespace {

Suite small_rtllm(std::size_t n_tasks) {
  Suite suite = build_rtllm();
  if (suite.tasks.size() > n_tasks) suite.tasks.resize(n_tasks);
  return suite;
}

// Full bit-identity over everything deterministic: per-task verdicts and the
// complete non-timing counter block, including simulated work volume.
void expect_backend_identical(const SuiteResult& a, const SuiteResult& b) {
  EXPECT_EQ(a.suite_name, b.suite_name);
  EXPECT_EQ(a.model_name, b.model_name);
  ASSERT_EQ(a.per_task.size(), b.per_task.size());
  for (std::size_t i = 0; i < a.per_task.size(); ++i) {
    EXPECT_EQ(a.per_task[i].task_id, b.per_task[i].task_id);
    EXPECT_EQ(a.per_task[i].n, b.per_task[i].n);
    EXPECT_EQ(a.per_task[i].syntax_pass, b.per_task[i].syntax_pass);
    EXPECT_EQ(a.per_task[i].func_pass, b.per_task[i].func_pass) << a.per_task[i].task_id;
  }
  EXPECT_EQ(a.counters.candidates, b.counters.candidates);
  EXPECT_EQ(a.counters.compile_failures, b.counters.compile_failures);
  EXPECT_EQ(a.counters.sim_mismatches, b.counters.sim_mismatches);
  EXPECT_EQ(a.counters.sicot_refinements, b.counters.sicot_refinements);
  EXPECT_EQ(a.counters.unit_faults, b.counters.unit_faults);
  EXPECT_EQ(a.counters.lint_triaged, b.counters.lint_triaged);
  EXPECT_EQ(a.counters.simulated, b.counters.simulated);
  EXPECT_EQ(a.counters.sim_vectors, b.counters.sim_vectors);
  EXPECT_EQ(a.counters.cache_hits, b.counters.cache_hits);
  EXPECT_EQ(a.counters.cache_misses, b.counters.cache_misses);
  EXPECT_EQ(a.counters.lint_findings, b.counters.lint_findings);
}

void expect_accounting_identity(const EvalCounters& c) {
  EXPECT_TRUE(counters_consistent(c));
}

EvalRequest backend_request(sim::SimBackend backend, std::uint64_t seed) {
  EvalRequest request;
  request.n_samples = 2;
  request.temperatures = {0.2, 0.8};
  request.threads = 4;
  request.seed = seed;
  request.sim_backend = backend;
  return request;
}

TEST(EvalBackendDiff, FullSuiteVerdictIdentical) {
  const Suite suite = build_rtllm();  // all 29 designs, comb + sequential
  const llm::SimLlm model = llm::make_model("RTLCoder-DeepSeek");
  const SuiteResult interp =
      EvalEngine(backend_request(sim::SimBackend::kInterpreter, kDefaultEvalSeed))
          .evaluate(model, suite);
  const SuiteResult compiled =
      EvalEngine(backend_request(sim::SimBackend::kCompiled, kDefaultEvalSeed))
          .evaluate(model, suite);
  expect_backend_identical(interp, compiled);
  expect_accounting_identity(interp.counters);
  expect_accounting_identity(compiled.counters);
  // The run must actually exercise the simulator to mean anything.
  EXPECT_GT(compiled.counters.simulated, 0);
  EXPECT_GT(compiled.counters.sim_vectors, 0);
}

TEST(EvalBackendDiff, MultiSeedMultiModelParity) {
  const Suite suite = small_rtllm(10);
  for (const std::uint64_t seed : {0x1ULL, 0xBEEFULL, 0x5EED5EEDULL}) {
    for (const char* name : {"GPT-4", "CodeLlama"}) {
      const llm::SimLlm model = llm::make_model(name);
      const SuiteResult interp =
          EvalEngine(backend_request(sim::SimBackend::kInterpreter, seed)).evaluate(model, suite);
      const SuiteResult compiled =
          EvalEngine(backend_request(sim::SimBackend::kCompiled, seed)).evaluate(model, suite);
      expect_backend_identical(interp, compiled);
    }
  }
}

TEST(EvalBackendDiff, LintTriageParity) {
  const Suite suite = small_rtllm(10);
  const llm::SimLlm model = llm::make_model("CodeQwen");
  EvalRequest ir = backend_request(sim::SimBackend::kInterpreter, 0x717AULL);
  EvalRequest cr = backend_request(sim::SimBackend::kCompiled, 0x717AULL);
  ir.lint = cr.lint = true;
  ir.lint_triage = cr.lint_triage = true;
  const SuiteResult interp = EvalEngine(ir).evaluate(model, suite);
  const SuiteResult compiled = EvalEngine(cr).evaluate(model, suite);
  expect_backend_identical(interp, compiled);
  expect_accounting_identity(compiled.counters);
  EXPECT_GT(compiled.counters.lint_triaged, 0);  // triage actually fired
}

// Chaos-injected candidates: faults must land on the same units with the
// same classification regardless of backend (injection draws are keyed on
// (seed, site, unit), never on backend-dependent call counts).
TEST(EvalBackendDiff, ChaosInjectionParity) {
  auto chaos_run = [](sim::SimBackend backend, util::FaultInjector* injector) {
    injector->arm(util::kSiteLlmGenerate, 0.2);
    injector->arm(util::kSiteEvalCompile, 0.2);
    injector->arm(util::kSiteSimRun, 0.2);
    injector->install();
    const llm::SimLlm model = llm::make_model("RTLCoder-DeepSeek");
    const SuiteResult result =
        EvalEngine(backend_request(backend, 0xC405ULL)).evaluate(model, small_rtllm(8));
    injector->uninstall();
    return result;
  };
  util::FaultInjector interp_injector(0xC405);
  util::FaultInjector compiled_injector(0xC405);
  const SuiteResult interp = chaos_run(sim::SimBackend::kInterpreter, &interp_injector);
  const SuiteResult compiled = chaos_run(sim::SimBackend::kCompiled, &compiled_injector);
  expect_backend_identical(interp, compiled);
  expect_accounting_identity(interp.counters);
  expect_accounting_identity(compiled.counters);
  EXPECT_GT(compiled.counters.unit_faults, 0);
  EXPECT_EQ(interp_injector.total_injected(), compiled_injector.total_injected());
  ASSERT_EQ(interp.faults.size(), compiled.faults.size());
  for (std::size_t i = 0; i < interp.faults.size(); ++i) {
    EXPECT_EQ(interp.faults[i].task_id, compiled.faults[i].task_id);
    EXPECT_EQ(interp.faults[i].sample, compiled.faults[i].sample);
    EXPECT_EQ(static_cast<int>(interp.faults[i].kind),
              static_cast<int>(compiled.faults[i].kind));
  }
}

// The acceptance criterion for cache digests: a cache warmed entirely by the
// interpreter replays every verdict for the compiled backend (and the other
// way round), because unit keys bind content + task + stimulus stream but
// never the backend.
TEST(EvalBackendDiff, WarmCacheReplaysAcrossBackends) {
  const Suite suite = small_rtllm(8);
  const llm::SimLlm model = llm::make_model("RTLCoder-DeepSeek");
  cache::ResultCache cache;
  EvalRequest ir = backend_request(sim::SimBackend::kInterpreter, kDefaultEvalSeed);
  EvalRequest cr = backend_request(sim::SimBackend::kCompiled, kDefaultEvalSeed);
  ir.cache = cr.cache = &cache;

  const SuiteResult cold = EvalEngine(ir).evaluate(model, suite);
  EXPECT_EQ(cold.counters.cache_hits, 0);
  EXPECT_EQ(cold.counters.cache_misses, cold.counters.candidates);

  const SuiteResult warm = EvalEngine(cr).evaluate(model, suite);
  EXPECT_EQ(warm.counters.cache_hits, warm.counters.candidates);
  EXPECT_EQ(warm.counters.cache_misses, 0);
  EXPECT_EQ(warm.counters.simulated, 0);  // nothing re-simulated
  expect_accounting_identity(warm.counters);
  ASSERT_EQ(cold.per_task.size(), warm.per_task.size());
  for (std::size_t i = 0; i < cold.per_task.size(); ++i) {
    EXPECT_EQ(cold.per_task[i].syntax_pass, warm.per_task[i].syntax_pass);
    EXPECT_EQ(cold.per_task[i].func_pass, warm.per_task[i].func_pass);
  }

  // And the reverse direction: compiled-warmed cache serves the interpreter.
  cache::ResultCache cache2;
  cr.cache = ir.cache = &cache2;
  const SuiteResult cold2 = EvalEngine(cr).evaluate(model, suite);
  const SuiteResult warm2 = EvalEngine(ir).evaluate(model, suite);
  EXPECT_EQ(warm2.counters.cache_hits, warm2.counters.candidates);
  expect_backend_identical(cold2, cold);
}

// A continuous assign with an empty read set (`assign y = 1'b0;`) has no
// signal to wake it; both backends drive it once at power-up. Golden X bits
// are don't-care, so an undriven golden constant would accept any DUT value,
// and an undriven DUT stub would fail with an X where it ties a 0.
TEST(EvalBackendDiff, ConstantAssignsDriveOnBothSides) {
  struct Case {
    const char* name;
    const char* dut;
    const char* golden;
    bool sequential;
    bool passes;
    const char* reason;
  };
  const Case cases[] = {
      {"golden constant rejects another constant",
       "module top(input wire a, input wire b, output wire y);\n  assign y = 1'b1;\nendmodule\n",
       "module top(input wire a, input wire b, output wire y);\n  assign y = 1'b0;\nendmodule\n",
       false, false, "vector 0: output 'y': golden=1'b0 dut=1'b1"},
      {"golden constant accepts an equal function",
       "module top(input wire a, input wire b, output wire y);\n  assign y = a & ~a;\nendmodule\n",
       "module top(input wire a, input wire b, output wire y);\n  assign y = 1'b0;\nendmodule\n",
       false, true, ""},
      {"dut stub ties its output low",
       "module top(input wire a, input wire b, output wire y);\n  assign y = 1'b0;\nendmodule\n",
       "module top(input wire a, input wire b, output wire y);\n  assign y = a & b;\nendmodule\n",
       false, false, "vector 3: output 'y': golden=1'b1 dut=1'b0"},
      {"constant wire feeds downstream logic",
       "module top(input wire a, input wire b, output wire [1:0] y);\n"
       "  wire [1:0] k = 2'd1;\n  assign y = {1'b0, a} + k;\nendmodule\n",
       "module top(input wire a, input wire b, output wire [1:0] y);\n"
       "  assign y = {1'b0, a} + 2'd1;\nendmodule\n",
       false, true, ""},
      {"sequential golden with a constant output",
       "module top(input wire clk, input wire rst, input wire d, output reg q,\n"
       "           output wire busy);\n"
       "  always @(posedge clk) if (rst) q <= 1'b0; else q <= d;\n"
       "  assign busy = 1'b1;\nendmodule\n",
       "module top(input wire clk, input wire rst, input wire d, output reg q,\n"
       "           output wire busy);\n"
       "  always @(posedge clk) if (rst) q <= 1'b0; else q <= d;\n"
       "  assign busy = 1'b0;\nendmodule\n",
       true, false, "initial reset assertion: output 'busy': golden=1'b0 dut=1'b1"},
  };
  for (const Case& c : cases) {
    for (const sim::SimBackend backend :
         {sim::SimBackend::kInterpreter, sim::SimBackend::kCompiled}) {
      sim::StimulusSpec spec;
      spec.backend = backend;
      if (c.sequential) {
        spec.sequential = true;
        spec.reset = "rst";
      }
      util::Rng rng(0x5eed);
      const sim::DiffResult r = sim::run_diff_test(c.dut, c.golden, spec, rng);
      EXPECT_EQ(r.passed, c.passes) << c.name << " / " << r.reason;
      EXPECT_EQ(r.reason, c.reason) << c.name;
    }
  }
}

}  // namespace
}  // namespace haven::eval
