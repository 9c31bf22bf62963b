#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "eval/engine.h"
#include "eval/report.h"
#include "eval/suites.h"
#include "llm/model_zoo.h"
#include "util/fault.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace haven::eval {
namespace {

Suite small_rtllm(std::size_t n_tasks) {
  Suite suite = build_rtllm();
  if (suite.tasks.size() > n_tasks) suite.tasks.resize(n_tasks);
  return suite;
}

void expect_same_result(const SuiteResult& a, const SuiteResult& b) {
  EXPECT_EQ(a.suite_name, b.suite_name);
  EXPECT_EQ(a.model_name, b.model_name);
  EXPECT_DOUBLE_EQ(a.temperature, b.temperature);
  ASSERT_EQ(a.per_task.size(), b.per_task.size());
  for (std::size_t i = 0; i < a.per_task.size(); ++i) {
    EXPECT_EQ(a.per_task[i].task_id, b.per_task[i].task_id);
    EXPECT_EQ(a.per_task[i].n, b.per_task[i].n);
    EXPECT_EQ(a.per_task[i].syntax_pass, b.per_task[i].syntax_pass);
    EXPECT_EQ(a.per_task[i].func_pass, b.per_task[i].func_pass);
  }
}

// The determinism contract: thread count changes wall-clock, never results.
TEST(EvalEngine, SerialAndParallelRunsAreBitIdentical) {
  const llm::SimLlm model = llm::make_model("RTLCoder-DeepSeek");
  const Suite suite = small_rtllm(10);

  EvalRequest request;
  request.n_samples = 2;
  request.temperatures = {0.2, 0.8};

  EvalRequest serial = request;
  serial.threads = 1;
  EvalRequest parallel = request;
  parallel.threads = 8;

  const SuiteResult a = EvalEngine(serial).evaluate(model, suite);
  const SuiteResult b = EvalEngine(parallel).evaluate(model, suite);
  expect_same_result(a, b);
  // Deterministic counters match too; only the timing fields may differ.
  EXPECT_EQ(a.counters.candidates, b.counters.candidates);
  EXPECT_EQ(a.counters.compile_failures, b.counters.compile_failures);
  EXPECT_EQ(a.counters.sim_mismatches, b.counters.sim_mismatches);
  EXPECT_EQ(a.counters.sicot_refinements, b.counters.sicot_refinements);
  EXPECT_EQ(a.counters.threads_used, 1);
  EXPECT_EQ(b.counters.threads_used, 8);
}

// An external (shared) worker pool is a pure scheduling knob: results are
// bit-identical to an engine-owned pool and to the serial path. This is the
// seam the haven::serve daemon runs every evaluation through.
TEST(EvalEngine, ExternalPoolIsBitIdenticalToOwnedPool) {
  const llm::SimLlm model = llm::make_model("CodeQwen");
  const Suite suite = small_rtllm(8);

  const EvalRequest request = EvalRequest{}.with_samples(3).with_temperatures({0.2, 0.5});
  const SuiteResult serial =
      EvalEngine(EvalRequest(request).with_threads(1)).evaluate(model, suite);

  util::ThreadPool shared_pool(4);
  const SuiteResult pooled =
      EvalEngine(EvalRequest(request).with_pool(&shared_pool)).evaluate(model, suite);

  expect_same_result(serial, pooled);
  EXPECT_EQ(pooled.counters.threads_used, 4);
  // The pool survives the evaluation and can host another run (the serve
  // daemon reuses one pool for its whole lifetime).
  const SuiteResult again =
      EvalEngine(EvalRequest(request).with_pool(&shared_pool)).evaluate(model, suite);
  expect_same_result(serial, again);
}

TEST(EvalEngine, CheckIsDeterministicForAFixedRngSeed) {
  const llm::SimLlm model = llm::make_model("GPT-4");
  const Suite suite = small_rtllm(1);

  util::Rng rng_a(123);
  util::Rng rng_b(123);
  const CandidateOutcome a = EvalEngine().check(model, suite.tasks.front(), 0.5, rng_a);
  const CandidateOutcome b = EvalEngine().check(model, suite.tasks.front(), 0.5, rng_b);
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.syntax_ok, b.syntax_ok);
  EXPECT_EQ(a.func_ok, b.func_ok);
}

TEST(EvalEngine, CountersAreConsistentWithTallies) {
  const llm::SimLlm model = llm::make_model("CodeLlama");
  const Suite suite = small_rtllm(8);

  EvalRequest request;
  request.n_samples = 3;
  request.temperatures = {0.2};  // single temperature: counters == best run
  request.threads = 1;
  const SuiteResult result = EvalEngine(request).evaluate(model, suite);

  const std::int64_t expected_candidates =
      static_cast<std::int64_t>(suite.tasks.size()) * 3;
  EXPECT_EQ(result.counters.candidates, expected_candidates);

  std::int64_t syntax_pass = 0, func_pass = 0;
  for (const auto& task : result.per_task) {
    syntax_pass += task.syntax_pass;
    func_pass += task.func_pass;
  }
  EXPECT_EQ(result.counters.compile_failures, expected_candidates - syntax_pass);
  EXPECT_EQ(result.counters.sim_mismatches, syntax_pass - func_pass);
  EXPECT_EQ(result.counters.sicot_refinements, 0);  // SI-CoT disabled
  EXPECT_GT(result.counters.wall_seconds, 0.0);
  EXPECT_GE(result.counters.generate_seconds, 0.0);
  EXPECT_GT(result.counters.compile_seconds, 0.0);
  EXPECT_EQ(result.counters.threads_used, 1);
  EXPECT_FALSE(summarize(result.counters).empty());
}

TEST(EvalEngine, ProgressCallbackCoversEveryUnitInIndexOrder) {
  const llm::SimLlm model = llm::make_model("GPT-4");
  const Suite suite = small_rtllm(3);

  std::vector<EvalProgress> seen;
  EvalRequest request;
  request.n_samples = 2;
  request.temperatures = {0.2, 0.8};
  request.threads = 4;  // parallel execution must not reorder the stream
  request.on_progress = [&seen](const EvalProgress& p) {
    seen.push_back(EvalProgress{p.completed, p.total, p.temperature, p.task_id, p.sample});
  };
  EvalEngine(request).evaluate(model, suite);

  const std::size_t total = 2 * 3 * 2;  // temps * tasks * samples
  ASSERT_EQ(seen.size(), total);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].completed, i + 1);
    EXPECT_EQ(seen[i].total, total);
  }
  // Temperature-major order: first half at 0.2, second half at 0.8.
  EXPECT_DOUBLE_EQ(seen.front().temperature, 0.2);
  EXPECT_DOUBLE_EQ(seen[total / 2].temperature, 0.8);
  EXPECT_EQ(seen[0].sample, 0);
  EXPECT_EQ(seen[1].sample, 1);
}

// A golden that does not parse is a broken task definition. Every candidate
// that compiles and is not lint-triaged faults at the simulation point with
// one message, whichever fast paths are on, and the accounting still holds.
TEST(EvalEngine, UnparseableGoldenFaultsEveryCompiledCandidate) {
  const llm::SimLlm model = llm::make_model("CodeLlama");
  Suite suite = small_rtllm(1);
  suite.tasks.front().golden_source = "module broken(input a;\n";

  const EvalRequest request =
      EvalRequest{}.with_samples(8).with_temperatures({0.2, 0.8}).with_threads(1);
  auto evaluate = [&](const EvalRequest& r) {
    const SuiteResult result = EvalEngine(r).evaluate(model, suite);
    const EvalCounters& c = result.counters;
    EXPECT_TRUE(counters_consistent(c)) << counters_inconsistency(c);
    EXPECT_EQ(c.simulated, 0);
    EXPECT_EQ(c.proven_equiv + c.proven_inequiv, 0);
    EXPECT_EQ(c.unit_faults, c.candidates - c.compile_failures - c.lint_triaged);
    EXPECT_GT(c.unit_faults, 0);
    EXPECT_EQ(static_cast<std::int64_t>(result.faults.size()), c.unit_faults);
    for (const UnitFault& f : result.faults) {
      EXPECT_EQ(f.kind, FaultKind::kException);
      EXPECT_EQ(f.what, "golden source does not parse");
    }
    for (const TaskResult& t : result.per_task) EXPECT_EQ(t.func_pass, 0);
    return result;
  };

  const SuiteResult plain = evaluate(request);
  const SuiteResult proved = evaluate(EvalRequest(request).with_prove());
  expect_same_result(plain, proved);
  ASSERT_EQ(plain.faults.size(), proved.faults.size());
  for (std::size_t i = 0; i < plain.faults.size(); ++i) {
    EXPECT_EQ(plain.faults[i].task_id, proved.faults[i].task_id);
    EXPECT_EQ(plain.faults[i].sample, proved.faults[i].sample);
    EXPECT_DOUBLE_EQ(plain.faults[i].temperature, proved.faults[i].temperature);
    EXPECT_EQ(plain.faults[i].attempts, proved.faults[i].attempts);
    EXPECT_EQ(plain.faults[i].what, proved.faults[i].what);
  }
  evaluate(EvalRequest(request).with_lint());
  evaluate(EvalRequest(request).with_lint_triage());
}

// --- pinned regression --------------------------------------------------
//
// Every deterministic output of three fixed runs, rendered as text and pinned
// to values recorded before the engine shared work between duplicate samples.
// Any drift in verdicts, accounting, fault records or the lint block shows up
// here as a readable diff (long lists are pinned by length + FNV-1a digest).

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// "syntax/func" per task of the reported temperature, space separated.
std::string tallies_text(const SuiteResult& r) {
  std::string out = util::format("t=%.1f", r.temperature);
  for (const TaskResult& t : r.per_task) {
    out += util::format(" %d/%d", t.syntax_pass, t.func_pass);
  }
  return out;
}

// Every EvalCounters field that does not measure time or the host.
std::string counters_text(const EvalCounters& c) {
  return util::format(
      "candidates=%lld compile_failures=%lld sim_mismatches=%lld sicot_refinements=%lld "
      "unit_faults=%lld deadline_exceeded=%lld cycles_aborted=%lld retries=%lld "
      "lint_findings=%lld lint_triaged=%lld simulated=%lld sim_vectors=%lld "
      "proven_equiv=%lld proven_inequiv=%lld prove_fallback=%lld repair_rounds=%lld "
      "repaired_pass=%lld repair_exhausted=%lld cache_hits=%lld cache_misses=%lld "
      "cache_evictions=%lld cache_bytes=%lld",
      static_cast<long long>(c.candidates), static_cast<long long>(c.compile_failures),
      static_cast<long long>(c.sim_mismatches), static_cast<long long>(c.sicot_refinements),
      static_cast<long long>(c.unit_faults), static_cast<long long>(c.deadline_exceeded),
      static_cast<long long>(c.cycles_aborted), static_cast<long long>(c.retries),
      static_cast<long long>(c.lint_findings), static_cast<long long>(c.lint_triaged),
      static_cast<long long>(c.simulated), static_cast<long long>(c.sim_vectors),
      static_cast<long long>(c.proven_equiv), static_cast<long long>(c.proven_inequiv),
      static_cast<long long>(c.prove_fallback), static_cast<long long>(c.repair_rounds),
      static_cast<long long>(c.repaired_pass), static_cast<long long>(c.repair_exhausted),
      static_cast<long long>(c.cache_hits), static_cast<long long>(c.cache_misses),
      static_cast<long long>(c.cache_evictions), static_cast<long long>(c.cache_bytes));
}

std::string faults_text(const SuiteResult& r) {
  std::string out;
  for (const UnitFault& f : r.faults) {
    out += util::format("%s#%d@%.1f x%d %s: %s\n", f.task_id.c_str(), f.sample, f.temperature,
                        f.attempts, fault_kind_name(f.kind), f.what.c_str());
  }
  return out;
}

// Length and digest of a long canonical text, e.g. "4180:0123456789abcdef".
std::string digest_text(const std::string& s) {
  return util::format("%zu:%016llx", s.size(), static_cast<unsigned long long>(fnv1a(s)));
}

struct Pins {
  std::string tallies;
  std::string counters;
  std::string faults;  // digest_text(faults_text)
  std::string lint;    // digest_text(lint_json)
};

void expect_pinned(const SuiteResult& r, const Pins& pins) {
  EXPECT_EQ(tallies_text(r), pins.tallies);
  EXPECT_EQ(counters_text(r.counters), pins.counters);
  EXPECT_EQ(digest_text(faults_text(r)), pins.faults) << faults_text(r);
  EXPECT_EQ(digest_text(lint_json(r)), pins.lint);
  EXPECT_TRUE(counters_consistent(r.counters)) << counters_inconsistency(r.counters);
}

EvalRequest rtllm_pin_request() {
  return EvalRequest{}.with_samples(10).with_temperatures({0.2, 0.5, 0.8}).with_threads(4);
}

SuiteResult run_pin_b() {
  util::FaultInjector injector(0xC405);
  injector.arm(util::kSiteSimRun, 0.2);
  injector.arm(util::kSiteEvalCompile, 0.2);
  injector.install();
  const SuiteResult r = EvalEngine(rtllm_pin_request().with_retries(2))
                            .evaluate(llm::make_model("GPT-4"), build_rtllm());
  injector.uninstall();
  return r;
}

EvalRequest human_pin_request() {
  return EvalRequest{}
      .with_samples(10)
      .with_temperatures({0.2, 0.5, 0.8})
      .with_threads(4)
      .with_sicot()
      .with_lint_triage()
      .with_prove()
      .with_repair_rounds(2);
}

// (a) RTLLM x GPT-4, three temperatures, n = 10: the default simulated path.
TEST(EvalEnginePins, RtllmDefaultPath) {
  expect_pinned(
      EvalEngine(rtllm_pin_request()).evaluate(llm::make_model("GPT-4"), build_rtllm()),
      {"t=0.8 5/0 9/7 0/0 10/10 10/8 10/0 10/0 10/0 10/0 9/0 9/8 10/8 10/8 9/0 4/0 10/0 10/1 "
       "10/0 10/0 10/9 10/0 10/0 9/3 10/8 10/7 10/7 10/9 10/10 10/0",
       "candidates=870 compile_failures=84 sim_mismatches=492 sicot_refinements=0 "
       "unit_faults=0 deadline_exceeded=0 cycles_aborted=0 retries=0 lint_findings=0 "
       "lint_triaged=0 simulated=786 sim_vectors=147496 proven_equiv=0 proven_inequiv=0 "
       "prove_fallback=0 repair_rounds=0 repaired_pass=0 repair_exhausted=0 cache_hits=0 "
       "cache_misses=0 cache_evictions=0 cache_bytes=0",
       "0:cbf29ce484222325", "513:bf3e98fa67cc1c71"});
}

// (b) The same run with the compile and simulation sites armed and retries
// on: faults land on the same units, with the same attempts and messages.
TEST(EvalEnginePins, RtllmChaosWithRetries) {
  expect_pinned(
      run_pin_b(),
      {"t=0.5 2/0 10/8 0/0 10/6 10/9 10/0 10/0 10/0 10/0 7/0 10/9 10/10 10/10 9/0 3/0 9/0 "
       "10/0 10/0 9/0 9/7 10/0 10/0 10/5 10/5 9/5 9/5 10/10 10/8 10/0",
       "candidates=870 compile_failures=84 sim_mismatches=470 sicot_refinements=0 "
       "unit_faults=30 deadline_exceeded=0 cycles_aborted=0 retries=352 lint_findings=0 "
       "lint_triaged=0 simulated=756 sim_vectors=138630 proven_equiv=0 proven_inequiv=0 "
       "prove_fallback=0 repair_rounds=0 repaired_pass=0 repair_exhausted=0 cache_hits=0 "
       "cache_misses=0 cache_evictions=0 cache_bytes=0",
       "1695:609e21f8382fdd8f", "513:d37273db25f5613a"});
}

// (c) VerilogEval-human with SI-CoT, lint triage, prove and two repair
// rounds: every verdict path is live, and lint_findings must match too.
TEST(EvalEnginePins, HumanFastPathWithRepair) {
  expect_pinned(
      EvalEngine(human_pin_request())
          .evaluate(llm::make_model("GPT-4"), build_verilogeval_human()),
      {"t=0.2 10/10 10/10 10/10 10/0 10/10 10/9 10/10 10/10 10/0 10/10 10/10 7/0 9/2 10/10 "
       "10/10 10/10 10/10 10/10 10/3 10/10 10/10 10/10 10/6 10/0 10/10 10/10 10/10 9/9 10/10 "
       "10/10 10/0 10/0 10/2 10/10 10/5 10/0 10/10 10/0 9/0 0/0 10/10 10/9 10/10 10/10 10/10 "
       "10/10 10/0 10/10 10/9 10/10 10/10 10/10 0/0 10/9 9/2 10/1 10/10 1/0 10/10 5/0 10/1 "
       "10/10 10/10 10/10 10/10 10/10 10/10 10/10 7/0 10/0 9/9 10/0 10/6 10/10 10/10 10/0 0/0 "
       "10/0 10/2 10/0 10/10 10/10 10/10 10/10 10/10 1/0 10/10 10/8 10/0 10/10 10/8 0/0 10/10 "
       "10/10 10/10 10/0 4/3 10/4 10/10 10/10 10/10 10/10 10/10 10/7 10/2 10/10 10/10 9/0 "
       "10/10 10/4 10/10 10/0 8/0 9/4 10/9 10/9 10/10 10/10 10/9 10/9 10/0 10/10 10/8 10/9 "
       "10/10 10/10 10/3 10/10 10/10 10/10 10/10 10/10 10/1 10/10 10/10 10/10 10/0 10/10 "
       "10/10 10/9 10/10 10/10 10/2 10/0 10/10 9/1 10/8 10/0 10/0 10/5 10/0 10/9 10/9 10/10 "
       "10/10 10/0",
       "candidates=4680 compile_failures=707 sim_mismatches=5476 sicot_refinements=1260 "
       "unit_faults=0 deadline_exceeded=0 cycles_aborted=0 retries=0 lint_findings=3010 "
       "lint_triaged=1140 simulated=3569 sim_vectors=164910 proven_equiv=1929 "
       "proven_inequiv=1930 prove_fallback=224 repair_rounds=4595 repaired_pass=1174 "
       "repair_exhausted=1588 cache_hits=0 cache_misses=0 cache_evictions=0 cache_bytes=0",
       "0:cbf29ce484222325", "625628:37a78d9b89ad9fa5"});
}

// A block where the model mostly repeats itself (rtllm_12, a comparator swept
// exhaustively): duplicate samples share stage results, and that sharing must
// not depend on which worker reaches a text first.
TEST(EvalEnginePins, DuplicateHeavyBlockIsThreadCountInvariant) {
  const llm::SimLlm model = llm::make_model("GPT-4");
  Suite suite = build_rtllm();
  suite.tasks = {suite.tasks[12]};

  std::set<std::string> distinct;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    util::Rng rng(seed);
    distinct.insert(EvalEngine().check(model, suite.tasks.front(), 0.2, rng).source);
  }
  EXPECT_LE(distinct.size(), 6u);  // the block is mostly duplicates

  const EvalRequest base = EvalRequest{}.with_samples(24).with_temperature(0.2);
  for (const EvalRequest& request :
       {base, EvalRequest(base).with_lint_triage().with_prove().with_repair_rounds(2)}) {
    const SuiteResult serial =
        EvalEngine(EvalRequest(request).with_threads(1)).evaluate(model, suite);
    const SuiteResult wide =
        EvalEngine(EvalRequest(request).with_threads(8)).evaluate(model, suite);
    EXPECT_EQ(tallies_text(serial), tallies_text(wide));
    EXPECT_EQ(counters_text(serial.counters), counters_text(wide.counters));
    EXPECT_EQ(faults_text(serial), faults_text(wide));
    EXPECT_EQ(lint_json(serial), lint_json(wide));
  }
}

// RTLLM, whose blocks repeat texts, under a 1 ms per-attempt deadline on 8
// workers: duplicates wait on each other's stage runs, and that wait counts
// against their own deadline. Whatever the timing, a wait may only surface as
// an ordinary deadline fault, and every unit that completes reports the
// verdict of the deadline-free run.
TEST(EvalEnginePins, TightDeadlineWithDuplicatesFaultsOnlyAsDeadline) {
  const llm::SimLlm model = llm::make_model("GPT-4");
  const Suite suite = build_rtllm();

  const EvalRequest base = EvalRequest{}.with_samples(24).with_temperature(0.2).with_threads(8);
  for (const EvalRequest& request : {base, EvalRequest(base).with_lint_triage().with_prove()}) {
    const SuiteResult free_run = EvalEngine(request).evaluate(model, suite);
    const SuiteResult tight =
        EvalEngine(EvalRequest(request).with_deadline_ms(1)).evaluate(model, suite);
    EXPECT_EQ(tight.counters.candidates, free_run.counters.candidates);
    EXPECT_EQ(tight.counters.unit_faults, tight.counters.deadline_exceeded);
    EXPECT_TRUE(counters_consistent(tight.counters)) << counters_inconsistency(tight.counters);
    std::vector<int> faults(suite.tasks.size(), 0);
    for (const UnitFault& f : tight.faults) {
      EXPECT_EQ(f.kind, FaultKind::kDeadline) << f.what;
      EXPECT_EQ(f.what.rfind("deadline exceeded at ", 0), 0u) << f.what;
      for (std::size_t i = 0; i < suite.tasks.size(); ++i) {
        if (suite.tasks[i].id == f.task_id) ++faults[i];
      }
    }
    ASSERT_EQ(tight.per_task.size(), free_run.per_task.size());
    for (std::size_t i = 0; i < suite.tasks.size(); ++i) {
      const TaskResult& want = free_run.per_task[i];
      const TaskResult& got = tight.per_task[i];
      EXPECT_LE(got.syntax_pass, want.syntax_pass) << suite.tasks[i].id;
      EXPECT_GE(got.syntax_pass + faults[i], want.syntax_pass) << suite.tasks[i].id;
      EXPECT_LE(got.func_pass, want.func_pass) << suite.tasks[i].id;
      EXPECT_GE(got.func_pass + faults[i], want.func_pass) << suite.tasks[i].id;
    }
  }
}

TEST(EvalRequest, CotModelAccessorIsOptionalStyle) {
  EvalRequest request;
  EXPECT_FALSE(request.has_cot_model());
  EXPECT_EQ(request.cot_model_ptr(), nullptr);
  EXPECT_THROW(request.cot_model(), std::logic_error);

  const llm::SimLlm model = llm::make_model("GPT-4");
  request.set_cot_model(model);
  EXPECT_TRUE(request.has_cot_model());
  EXPECT_EQ(&request.cot_model(), &model);
  EXPECT_EQ(request.cot_model_ptr(), &model);

  request.clear_cot_model();
  EXPECT_FALSE(request.has_cot_model());
}

TEST(EvalEngine, EmptySuiteAndEmptyTemperaturesAreSafe) {
  const llm::SimLlm model = llm::make_model("GPT-4");

  Suite empty_suite;
  empty_suite.name = "empty";
  EvalRequest request;
  request.n_samples = 2;
  request.threads = 8;
  const SuiteResult no_tasks = EvalEngine(request).evaluate(model, empty_suite);
  EXPECT_TRUE(no_tasks.per_task.empty());
  EXPECT_EQ(no_tasks.counters.candidates, 0);
  EXPECT_DOUBLE_EQ(no_tasks.pass_at(1), 0.0);

  EvalRequest no_temps;
  no_temps.temperatures = {};
  const SuiteResult no_temp_result = EvalEngine(no_temps).evaluate(model, small_rtllm(2));
  EXPECT_TRUE(no_temp_result.per_task.empty());
  EXPECT_EQ(no_temp_result.counters.candidates, 0);
  EXPECT_EQ(no_temp_result.suite_name, "RTLLM-v1.1");
}

// Regression for the modality_pass rounding fix: three tasks contributing
// 1/3 + 1/12 + 1/12 tally to 0.49999999999999994; the old
// static_cast<int>(passed + 0.5) double-rounded this up to 1, std::lround
// correctly reports 0 expected passes.
TEST(SuiteResult, ModalityPassRoundsFractionalTalliesCorrectly) {
  SuiteResult result;
  auto add_task = [&result](int n, int c) {
    TaskResult tr;
    tr.task_id = "t" + std::to_string(result.per_task.size());
    tr.modality = symbolic::Modality::kTruthTable;
    tr.n = n;
    tr.func_pass = c;
    result.per_task.push_back(tr);
  };
  add_task(3, 1);
  add_task(12, 1);
  add_task(12, 1);
  const auto [passed, total] = result.modality_pass(symbolic::Modality::kTruthTable);
  EXPECT_EQ(passed, 0);
  EXPECT_EQ(total, 3);

  // Plain fractional tally still rounds to nearest: 0.3 + 0.3 + 0.5 -> 1.
  result.per_task.clear();
  add_task(10, 3);
  add_task(10, 3);
  add_task(10, 5);
  const auto [passed2, total2] = result.modality_pass(symbolic::Modality::kTruthTable);
  EXPECT_EQ(passed2, 1);
  EXPECT_EQ(total2, 3);
}

}  // namespace
}  // namespace haven::eval
