// EvalEngine × haven::cache integration: warm replays are bit-identical to
// cold runs at any thread count, the extended accounting identity holds with
// caching on and off (including under fault injection), verdicts persist
// across cache instances through the artifact store, and the CachedVerdict
// codec round-trips and rejects malformed payloads.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "cache/result_cache.h"
#include "eval/cache_io.h"
#include "eval/engine.h"
#include "eval/suites.h"
#include "llm/model_zoo.h"
#include "util/fault.h"

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

void expect_same_lint(const SuiteResult& a, const SuiteResult& b) {
  EXPECT_EQ(a.lint.enabled, b.lint.enabled);
  EXPECT_EQ(a.lint.findings, b.lint.findings);
  EXPECT_EQ(a.lint.flagged_candidates, b.lint.flagged_candidates);
  EXPECT_EQ(a.lint.true_positives, b.lint.true_positives);
  EXPECT_EQ(a.lint.false_positives, b.lint.false_positives);
  EXPECT_EQ(a.lint.false_negatives, b.lint.false_negatives);
  EXPECT_EQ(a.lint.true_negatives, b.lint.true_negatives);
  EXPECT_EQ(a.lint.axis_candidates, b.lint.axis_candidates);
  EXPECT_EQ(a.counters.lint_findings, b.counters.lint_findings);
  ASSERT_EQ(a.lint_findings.size(), b.lint_findings.size());
  for (std::size_t i = 0; i < a.lint_findings.size(); ++i) {
    EXPECT_EQ(a.lint_findings[i].task_id, b.lint_findings[i].task_id);
    EXPECT_EQ(a.lint_findings[i].sample, b.lint_findings[i].sample);
    EXPECT_EQ(a.lint_findings[i].findings.size(), b.lint_findings[i].findings.size());
  }
}

// The extended accounting identity, via the engine's own central check
// (counters_consistent) instead of re-deriving it here.
void expect_accounting_identity(const EvalCounters& c) {
  EXPECT_TRUE(counters_consistent(c));
}

EvalRequest base_request(int threads, cache::ResultCache* cache) {
  EvalRequest request;
  request.n_samples = 2;
  request.temperatures = {0.2, 0.8};
  request.threads = threads;
  request.cache = cache;
  return request;
}

// --- cold/warm bit-identity ------------------------------------------------

void cold_warm_roundtrip(int threads, bool lint, bool lint_triage) {
  const llm::SimLlm model = llm::make_model("RTLCoder-DeepSeek");
  const Suite suite = small_rtllm(8);

  cache::ResultCache cache;
  EvalRequest request = base_request(threads, &cache);
  request.lint = lint;
  request.lint_triage = lint_triage;
  const EvalEngine engine(request);

  const SuiteResult cold = engine.evaluate(model, suite);
  const SuiteResult warm = engine.evaluate(model, suite);

  expect_same_result(cold, warm);
  expect_same_lint(cold, warm);
  expect_accounting_identity(cold.counters);
  expect_accounting_identity(warm.counters);

  // Cold run: everything misses. Warm run: everything hits.
  EXPECT_EQ(cold.counters.cache_hits, 0);
  EXPECT_EQ(cold.counters.cache_misses, cold.counters.candidates);
  EXPECT_EQ(warm.counters.cache_hits, warm.counters.candidates);
  EXPECT_EQ(warm.counters.cache_misses, 0);
  // A hit replays the verdict without running the pipeline.
  EXPECT_EQ(warm.counters.compile_failures, 0);
  EXPECT_EQ(warm.counters.simulated, 0);
  EXPECT_EQ(warm.counters.sim_vectors, 0);
}

TEST(EvalCache, ColdWarmBitIdenticalSerial) { cold_warm_roundtrip(1, false, false); }
TEST(EvalCache, ColdWarmBitIdenticalParallel) { cold_warm_roundtrip(4, false, false); }
TEST(EvalCache, ColdWarmBitIdenticalLintSerial) { cold_warm_roundtrip(1, true, false); }
TEST(EvalCache, ColdWarmBitIdenticalTriageParallel) { cold_warm_roundtrip(4, true, true); }

TEST(EvalCache, WarmRunIdenticalAcrossThreadCounts) {
  const llm::SimLlm model = llm::make_model("CodeQwen");
  const Suite suite = small_rtllm(8);

  cache::ResultCache cache;
  const SuiteResult cold = EvalEngine(base_request(1, &cache)).evaluate(model, suite);
  const SuiteResult warm_serial = EvalEngine(base_request(1, &cache)).evaluate(model, suite);
  const SuiteResult warm_parallel = EvalEngine(base_request(8, &cache)).evaluate(model, suite);

  expect_same_result(cold, warm_serial);
  expect_same_result(cold, warm_parallel);
  EXPECT_EQ(warm_serial.counters.cache_hits, warm_serial.counters.candidates);
  EXPECT_EQ(warm_parallel.counters.cache_hits, warm_parallel.counters.candidates);
}

TEST(EvalCache, CachedRunMatchesUncachedRun) {
  // Attaching a cache must not change cold-run verdicts.
  const llm::SimLlm model = llm::make_model("GPT-4");
  const Suite suite = small_rtllm(8);

  cache::ResultCache cache;
  const SuiteResult uncached = EvalEngine(base_request(4, nullptr)).evaluate(model, suite);
  const SuiteResult cached = EvalEngine(base_request(4, &cache)).evaluate(model, suite);

  expect_same_result(uncached, cached);
  EXPECT_EQ(uncached.counters.compile_failures, cached.counters.compile_failures);
  EXPECT_EQ(uncached.counters.sim_mismatches, cached.counters.sim_mismatches);
  EXPECT_EQ(uncached.counters.cache_hits, 0);
  EXPECT_EQ(uncached.counters.cache_misses, 0);  // no cache attached: no lookups
  expect_accounting_identity(uncached.counters);
  expect_accounting_identity(cached.counters);
}

TEST(EvalCache, DifferentModelsDoNotCrossReplay) {
  // Keys are content-addressed on candidate source: two different models
  // share entries only for byte-identical candidates, and verdicts must stay
  // exactly what an uncached run of each model produces.
  const Suite suite = small_rtllm(6);
  cache::ResultCache cache;
  const EvalEngine cached_engine(base_request(4, &cache));
  const EvalEngine plain_engine(base_request(4, nullptr));

  for (const char* name : {"GPT-4", "CodeLlama"}) {
    const llm::SimLlm model = llm::make_model(name);
    expect_same_result(plain_engine.evaluate(model, suite),
                       cached_engine.evaluate(model, suite));
  }
}

TEST(EvalCache, CountersBytesAndSummaryReflectCacheUse) {
  const llm::SimLlm model = llm::make_model("GPT-4");
  const Suite suite = small_rtllm(4);
  cache::ResultCache cache;
  const EvalEngine engine(base_request(1, &cache));

  const SuiteResult cold = engine.evaluate(model, suite);
  EXPECT_GT(cold.counters.cache_bytes, 0);
  EXPECT_EQ(cold.counters.cache_evictions, 0);
  const SuiteResult warm = engine.evaluate(model, suite);
  EXPECT_EQ(warm.counters.cache_bytes, cold.counters.cache_bytes);
  const cache::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, warm.counters.cache_hits);
  EXPECT_EQ(stats.insertions, cold.counters.cache_misses);
}

// --- fault injection × caching ---------------------------------------------

SuiteResult chaos_run(double p, int threads, cache::ResultCache* cache,
                      util::FaultInjector* injector) {
  injector->arm(util::kSiteLlmGenerate, p);
  injector->arm(util::kSiteEvalCompile, p);
  injector->arm(util::kSiteSimRun, p);
  injector->install();
  const llm::SimLlm model = llm::make_model("RTLCoder-DeepSeek");
  const Suite suite = small_rtllm(8);
  const SuiteResult result = EvalEngine(base_request(threads, cache)).evaluate(model, suite);
  injector->uninstall();
  return result;
}

TEST(EvalCache, ChaosSweepKeepsExactAccounting) {
  for (double p : {0.1, 0.3}) {
    cache::ResultCache cache;
    util::FaultInjector cold_injector(0xC405);
    util::FaultInjector warm_injector(0xC405);
    const SuiteResult cold = chaos_run(p, 4, &cache, &cold_injector);
    const SuiteResult warm = chaos_run(p, 4, &cache, &warm_injector);

    expect_same_result(cold, warm);
    expect_accounting_identity(cold.counters);
    expect_accounting_identity(warm.counters);

    // Injection draws are context-keyed, so the warm run faults the exact
    // same units; everything else replays from the cache.
    EXPECT_EQ(cold.counters.unit_faults, warm.counters.unit_faults) << p;
    EXPECT_EQ(cold_injector.total_injected(), warm_injector.total_injected()) << p;
    ASSERT_EQ(cold.faults.size(), warm.faults.size()) << p;
    for (std::size_t i = 0; i < cold.faults.size(); ++i) {
      EXPECT_EQ(cold.faults[i].task_id, warm.faults[i].task_id);
      EXPECT_EQ(cold.faults[i].sample, warm.faults[i].sample);
      EXPECT_EQ(static_cast<int>(cold.faults[i].kind), static_cast<int>(warm.faults[i].kind));
    }
    // Faulted units are never cached, so hits + misses covers exactly the
    // healthy candidates (generation faults precede the lookup; compile/sim
    // faults abort after the miss was counted).
    EXPECT_EQ(warm.counters.cache_hits + warm.counters.cache_misses,
              warm.counters.candidates - warm.counters.unit_faults) << p;
    EXPECT_GT(warm.counters.cache_hits, 0) << p;
  }
}

// --- persistence -----------------------------------------------------------

TEST(EvalCache, WarmAcrossCacheInstancesViaDisk) {
  const std::string dir = std::string(::testing::TempDir()) + "haven_eval_cache_disk";
  std::filesystem::remove_all(dir);
  const llm::SimLlm model = llm::make_model("GPT-4");
  const Suite suite = small_rtllm(6);
  cache::CacheConfig config;
  config.dir = dir;

  SuiteResult cold;
  {
    cache::ResultCache cache(config);
    cold = EvalEngine(base_request(4, &cache)).evaluate(model, suite);
    EXPECT_EQ(cold.counters.cache_hits, 0);
    EXPECT_GT(cache.stats().disk_writes, 0);
  }
  // New process simulated: a fresh cache instance with empty memory reads
  // the artifacts back and the whole run replays.
  cache::ResultCache cache(config);
  const SuiteResult warm = EvalEngine(base_request(4, &cache)).evaluate(model, suite);
  expect_same_result(cold, warm);
  EXPECT_EQ(warm.counters.cache_hits, warm.counters.candidates);
  EXPECT_EQ(cache.stats().disk_hits, warm.counters.cache_hits);
  std::filesystem::remove_all(dir);
}

// --- CachedVerdict codec ---------------------------------------------------

TEST(CachedVerdictCodec, RoundTripsWithFindings) {
  CachedVerdict v;
  v.syntax_ok = true;
  v.func_ok = false;
  v.triaged = true;
  v.simulated = false;
  v.sim_vectors = 1234;
  v.findings.push_back(lint::make_finding(lint::Rule::kLatch, verilog::Severity::kWarning,
                                          17, "inferred latch", true, false));
  v.findings.push_back(lint::make_finding(lint::Rule::kSyntax, verilog::Severity::kError,
                                          3, "parse error", true, true));

  CachedVerdict out;
  ASSERT_TRUE(decode_verdict(encode_verdict(v), &out));
  EXPECT_EQ(out.syntax_ok, v.syntax_ok);
  EXPECT_EQ(out.func_ok, v.func_ok);
  EXPECT_EQ(out.triaged, v.triaged);
  EXPECT_EQ(out.simulated, v.simulated);
  EXPECT_EQ(out.sim_vectors, v.sim_vectors);
  ASSERT_EQ(out.findings.size(), v.findings.size());
  for (std::size_t i = 0; i < v.findings.size(); ++i) {
    EXPECT_EQ(out.findings[i].rule, v.findings[i].rule);
    EXPECT_EQ(out.findings[i].axis, v.findings[i].axis);
    EXPECT_EQ(out.findings[i].predicts_failure, v.findings[i].predicts_failure);
    EXPECT_EQ(out.findings[i].proven, v.findings[i].proven);
    EXPECT_EQ(out.findings[i].diag.severity, v.findings[i].diag.severity);
    EXPECT_EQ(out.findings[i].diag.line, v.findings[i].diag.line);
    EXPECT_EQ(out.findings[i].diag.message, v.findings[i].diag.message);
    EXPECT_EQ(out.findings[i].diag.rule, v.findings[i].diag.rule);
  }
}

TEST(CachedVerdictCodec, RoundTripsEmpty) {
  CachedVerdict v;
  v.syntax_ok = true;
  v.func_ok = true;
  v.simulated = true;
  v.sim_vectors = 64;
  CachedVerdict out;
  ASSERT_TRUE(decode_verdict(encode_verdict(v), &out));
  EXPECT_TRUE(out.func_ok);
  EXPECT_TRUE(out.findings.empty());
}

TEST(CachedVerdictCodec, RejectsMalformedPayloads) {
  CachedVerdict v;
  v.syntax_ok = true;
  v.findings.push_back(lint::make_finding(lint::Rule::kSyntax, verilog::Severity::kError,
                                          1, "x", true, true));
  const std::string good = encode_verdict(v);
  CachedVerdict out;
  ASSERT_TRUE(decode_verdict(good, &out));

  EXPECT_FALSE(decode_verdict("", &out));
  // Every strict prefix is a truncation.
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(decode_verdict(good.substr(0, len), &out)) << len;
  }
  // Trailing garbage is rejected too (exact-length contract).
  EXPECT_FALSE(decode_verdict(good + "x", &out));
  // Wrong schema version.
  std::string bad_version = good;
  bad_version[0] = static_cast<char>(kVerdictSchemaVersion + 1);
  EXPECT_FALSE(decode_verdict(bad_version, &out));
  // Bad flag bits beyond the defined mask.
  std::string bad_flags = good;
  bad_flags[4] = static_cast<char>(0xf0);
  EXPECT_FALSE(decode_verdict(bad_flags, &out));
}

// --- key derivation --------------------------------------------------------

TEST(EvalCacheKeys, KeyBindsEvalKnobsAndStream) {
  const Suite suite = small_rtllm(2);
  const EvalTask& task = suite.tasks.front();

  const cache::Digest seed_a = task_cache_seed(task, 0, CacheLintMode::kOff);
  EXPECT_EQ(seed_a, task_cache_seed(task, 0, CacheLintMode::kOff));
  // Any knob change re-keys the task.
  EXPECT_NE(seed_a, task_cache_seed(task, 1000, CacheLintMode::kOff));
  EXPECT_NE(seed_a, task_cache_seed(task, 0, CacheLintMode::kObserve));
  EXPECT_NE(seed_a, task_cache_seed(task, 0, CacheLintMode::kTriage));
  EXPECT_NE(seed_a, task_cache_seed(suite.tasks[1], 0, CacheLintMode::kOff));

  const cache::Digest unit = unit_cache_key(seed_a, "module m;\nendmodule\n", 42);
  // Rendering-identical source shares the key; a different stimulus stream
  // or different source does not.
  EXPECT_EQ(unit, unit_cache_key(seed_a, "module m;\r\nendmodule\r\n", 42));
  EXPECT_NE(unit, unit_cache_key(seed_a, "module m;\nendmodule\n", 43));
  EXPECT_NE(unit, unit_cache_key(seed_a, "module n;\nendmodule\n", 42));
}

// A cache written before constant continuous assigns drove from power-up
// holds X-era verdicts for texts such as `assign y = 1'b0;`, and one written
// under kEvalSemanticsVersion 1 holds verdicts of the compiled backend's old
// levelized schedule. Their keys must miss, not replay. Each seed is
// rtllm_00's task seed as computed by the last build before that change
// (kEvalSemanticsVersion did not exist before version 1).
TEST(EvalCacheKeys, EntriesKeyedBeforeSemanticsChangeMiss) {
  const Suite suite = small_rtllm(1);
  const EvalTask& task = suite.tasks.front();
  ASSERT_EQ(task.id, "rtllm_00");
  const cache::Digest seed = task_cache_seed(task, 0, CacheLintMode::kOff);
  const cache::Digest x_era_seed{0x932a3f5b5015ab68ULL, 0x959fa30177663f8eULL};
  const cache::Digest v1_seed{0x009246289fbb5d63ULL, 0xffa7a5b086378c47ULL};
  for (const cache::Digest& old_seed : {x_era_seed, v1_seed}) {
    EXPECT_NE(seed, old_seed);
    const std::string source = "module m(output y);\n  assign y = 1'b0;\nendmodule\n";
    CachedVerdict old;
    old.syntax_ok = true;
    old.func_ok = true;
    old.simulated = true;
    cache::ResultCache cache;
    cache.insert(unit_cache_key(old_seed, source, 42), encode_verdict(old));
    EXPECT_FALSE(cache.lookup(unit_cache_key(seed, source, 42)).has_value());
  }
}

}  // namespace
}  // namespace haven::eval
