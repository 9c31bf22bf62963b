#include "eval/engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "cache/result_cache.h"
#include "cot/sicot.h"
#include "eval/cache_io.h"
#include "eval/passk.h"
#include "lint/lint.h"
#include "logic/truth_table.h"
#include "prove/prove.h"
#include "sim/elaborate.h"
#include "sim/testbench.h"
#include "util/fault.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "verilog/analyzer.h"
#include "verilog/parser.h"

namespace haven::eval {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kException: return "exception";
    case FaultKind::kInjected: return "injected";
    case FaultKind::kDeadline: return "deadline";
    case FaultKind::kSimBudget: return "sim_budget";
  }
  return "?";
}

double SuiteResult::pass_at(int k) const {
  std::vector<std::pair<int, int>> nc;
  nc.reserve(per_task.size());
  for (const auto& t : per_task) nc.emplace_back(t.n, t.func_pass);
  return mean_pass_at_k(nc, k);
}

double SuiteResult::syntax_pass_at(int k) const {
  std::vector<std::pair<int, int>> nc;
  nc.reserve(per_task.size());
  for (const auto& t : per_task) nc.emplace_back(t.n, t.syntax_pass);
  return mean_pass_at_k(nc, k);
}

double LintSummary::precision() const {
  const std::int64_t fired = true_positives + false_positives;
  return fired == 0 ? 1.0 : static_cast<double>(true_positives) / static_cast<double>(fired);
}

double LintSummary::recall() const {
  const std::int64_t failed = true_positives + false_negatives;
  return failed == 0 ? 1.0 : static_cast<double>(true_positives) / static_cast<double>(failed);
}

int LintSummary::dominant_axis() const {
  int best = -1;
  std::int64_t best_count = 0;
  for (int a = 0; a < llm::kNumHalluAxes; ++a) {
    if (axis_candidates[static_cast<std::size_t>(a)] > best_count) {
      best = a;
      best_count = axis_candidates[static_cast<std::size_t>(a)];
    }
  }
  return best;
}

bool counters_consistent(const EvalCounters& c) { return counters_inconsistency(c).empty(); }

std::string counters_inconsistency(const EvalCounters& c) {
  std::string out;
  auto violated = [&](const std::string& term) {
    if (!out.empty()) out += "; ";
    out += term;
  };
  const std::int64_t passes = c.candidates + c.repair_rounds;
  const std::int64_t buckets = c.unit_faults + c.compile_failures + c.lint_triaged +
                               c.proven_equiv + c.proven_inequiv + c.simulated + c.cache_hits;
  if (passes != buckets) {
    violated(util::format(
        "candidates + repair_rounds (%lld + %lld = %lld) != unit_faults + compile_failures + "
        "lint_triaged + proven_equiv + proven_inequiv + simulated + cache_hits "
        "(%lld + %lld + %lld + %lld + %lld + %lld + %lld = %lld)",
        static_cast<long long>(c.candidates), static_cast<long long>(c.repair_rounds),
        static_cast<long long>(passes), static_cast<long long>(c.unit_faults),
        static_cast<long long>(c.compile_failures), static_cast<long long>(c.lint_triaged),
        static_cast<long long>(c.proven_equiv), static_cast<long long>(c.proven_inequiv),
        static_cast<long long>(c.simulated), static_cast<long long>(c.cache_hits),
        static_cast<long long>(buckets)));
  }
  if (c.deadline_exceeded + c.cycles_aborted > c.unit_faults) {
    violated(util::format(
        "deadline_exceeded + cycles_aborted (%lld + %lld) > unit_faults (%lld)",
        static_cast<long long>(c.deadline_exceeded), static_cast<long long>(c.cycles_aborted),
        static_cast<long long>(c.unit_faults)));
  }
  // Every fallback reached the testbench by definition.
  if (c.prove_fallback > c.simulated) {
    violated(util::format("prove_fallback (%lld) > simulated (%lld)",
                          static_cast<long long>(c.prove_fallback),
                          static_cast<long long>(c.simulated)));
  }
  // With a cache attached every non-faulted pass is exactly one lookup; with
  // no cache both counters stay zero (then the check is vacuous).
  if (c.cache_hits + c.cache_misses != 0 &&
      c.cache_hits + c.cache_misses != passes - c.unit_faults) {
    violated(util::format(
        "cache_hits + cache_misses (%lld + %lld = %lld) != candidates + repair_rounds - "
        "unit_faults (%lld)",
        static_cast<long long>(c.cache_hits), static_cast<long long>(c.cache_misses),
        static_cast<long long>(c.cache_hits + c.cache_misses),
        static_cast<long long>(passes - c.unit_faults)));
  }
  // A unit with >= 1 repair round terminates as exactly one of repaired /
  // exhausted / passed-round-0-anyway (stop_on_pass = false burns rounds
  // after a pass), and contributes at least one round.
  if (c.repaired_pass + c.repair_exhausted > c.repair_rounds) {
    violated(util::format(
        "repaired_pass + repair_exhausted (%lld + %lld) > repair_rounds (%lld)",
        static_cast<long long>(c.repaired_pass), static_cast<long long>(c.repair_exhausted),
        static_cast<long long>(c.repair_rounds)));
  }
  return out;
}

std::pair<int, int> SuiteResult::modality_pass(symbolic::Modality m) const {
  // Expected pass-case count under the paper's single-attempt protocol:
  // each task contributes its per-sample pass fraction c/n.
  double passed = 0;
  int total = 0;
  for (const auto& t : per_task) {
    if (t.modality != m) continue;
    ++total;
    if (t.n > 0) passed += static_cast<double>(t.func_pass) / static_cast<double>(t.n);
  }
  // lround, not static_cast<int>(passed + 0.5): the +0.5 trick double-rounds
  // tallies infinitesimally below a half (e.g. 1/3 + 1/12 + 1/12) up to the
  // next integer.
  return {static_cast<int>(std::lround(passed)), total};
}

namespace {

std::uint64_t mix_hash(std::uint64_t seed, const std::string& s) {
  std::uint64_t h = seed ^ 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// One (temperature, task, sample) work unit's result plus stage timings and
// the fault record when the unit terminally failed. With repair enabled a
// unit runs the candidate pipeline several times; the verdict-carrying pass
// fills the flags below and every superseded pass folds into `prior`.
struct UnitOutcome {
  bool syntax_ok = false;
  bool func_ok = false;
  bool refined = false;
  bool triaged = false;    // failed by lint proof, simulation skipped
  bool proved = false;     // verdict decided by haven::prove, sim skipped
  bool prove_fallback = false;  // prove attempted, deferred to simulation
  bool simulated = false;  // the diff testbench actually ran
  int sim_vectors = 0;     // vectors/cycles the diff testbench compared
  std::vector<lint::Finding> findings;  // only when lint is enabled
  // Failure witness of this pass: the first diff-sim miscompare or the prove
  // inequivalence witness ("" when passing / compile-failed / triaged).
  // Feeds repair::FeedbackBuilder and replays from the extended cache.
  std::string fail_reason;
  double generate_seconds = 0.0;
  double compile_seconds = 0.0;
  double lint_seconds = 0.0;
  double prove_seconds = 0.0;
  double sim_seconds = 0.0;
  int attempts = 1;  // attempts consumed (1 = no retries)
  bool cache_hit = false;  // verdict replayed from the result cache
  bool faulted = false;
  FaultKind fault_kind = FaultKind::kException;
  std::string fault_what;
  // Self-repair bookkeeping (all zero when repair is off).
  int repair_rounds = 0;          // repair passes this unit ran
  bool repaired = false;          // failed round 0, some repair round passed
  bool repair_exhausted = false;  // ran >= 1 round, final verdict still fails
  // Pipeline-bucket contributions of the superseded (non-verdict) passes,
  // folded by the unit so the reducer keeps one accounting site.
  struct PriorPasses {
    std::int64_t compile_failures = 0;
    std::int64_t sim_mismatches = 0;
    std::int64_t lint_triaged = 0;
    std::int64_t proven_equiv = 0;
    std::int64_t proven_inequiv = 0;
    std::int64_t prove_fallback = 0;
    std::int64_t simulated = 0;
    std::int64_t sim_vectors = 0;
    std::int64_t cache_hits = 0;
    std::int64_t cache_misses = 0;
  } prior;
};

// Everything the candidate pipeline needs about one task, prepared once
// before the sample fan-out and shared read-only by every worker.
struct PreparedTask {
  // The golden, parsed unconditionally. A golden that does not parse (broken
  // task definition) leaves lint reference-free and prove off, and every
  // compiled candidate faults at the simulation point.
  verilog::ParseOutput golden;
  bool golden_ok = false;  // parsed cleanly, >= 1 module
  // Lint switches; the profile is filled only when the golden is usable.
  bool lint = false;
  bool lint_triage = false;
  lint::ReferenceProfile profile;
  // The golden's compiled Program when prove is on and the task is in the
  // provable fragment; empty (sequential, sweep too wide, golden doesn't
  // lower, or a step budget is in force) means every candidate simulates,
  // with no fallback counted.
  std::optional<sim::Program> prove_golden;
  prove::ProveOptions prove_opts;
  // The testbench sweeps every input vector (sim::sweeps_exhaustively), so a
  // candidate's diff result does not depend on its stimulus stream.
  bool sweeps_exhaustively = false;
  // Null cache = caching off. `extended` selects the v3 verdict payload
  // carrying fail_reason (repair-enabled runs only; their task seeds already
  // key a disjoint space).
  cache::ResultCache* cache = nullptr;
  cache::Digest cache_seed;
  bool extended = false;
};

// Distill the lint reference profile from a usable golden.
void fill_profile(const EvalTask& task, const verilog::ParseOutput& golden,
                  lint::ReferenceProfile* profile) {
  const verilog::Module& gm = golden.file.modules.front();
  lint::profile_from_golden(gm, &golden.file, profile);
  profile->sequential = task.stimulus.sequential;
  profile->clock = task.stimulus.clock;
  profile->reset = task.stimulus.reset;
  profile->exhaustive_comb = sim::sweeps_exhaustively(gm, task.stimulus);
  try {
    (void)sim::elaborate(gm, &golden.file);
  } catch (const sim::ElabError&) {
    profile->golden_elab_ok = false;
  }
  // Golden truth rows for the constant-output proof: only combinational
  // expression tasks carry an exact semantic function.
  if (task.spec.kind == llm::TaskKind::kCombExpr && task.spec.expr != nullptr &&
      !task.spec.comb_inputs.empty() && task.spec.comb_inputs.size() <= 20) {
    const logic::TruthTable tt = logic::TruthTable::from_expr(
        *task.spec.expr, task.spec.comb_inputs, task.spec.comb_output);
    lint::ReferenceProfile::OutputTruth truth;
    truth.port = task.spec.comb_output;
    const std::uint32_t rows = std::uint32_t{1}
                               << static_cast<std::uint32_t>(task.spec.comb_inputs.size());
    for (std::uint32_t row = 0; row < rows; ++row) {
      const logic::Tri v = tt.row(row);
      truth.defined_zero |= v == logic::Tri::kFalse;
      truth.defined_one |= v == logic::Tri::kTrue;
    }
    profile->truth.push_back(std::move(truth));
  }
}

PreparedTask prepare_task(const EvalTask& task, const EvalRequest& request) {
  PreparedTask p;
  p.golden = verilog::parse_source(task.golden_source);
  p.golden_ok = p.golden.ok() && !p.golden.file.modules.empty();

  p.sweeps_exhaustively =
      p.golden_ok && sim::sweeps_exhaustively(p.golden.file.modules.front(), task.stimulus);

  p.lint = request.lint || request.lint_triage;
  p.lint_triage = request.lint_triage;
  if (p.lint && p.golden_ok) fill_profile(task, p.golden, &p.profile);

  // Prove eligibility is structural (combinational spec, sweep fits, golden
  // lowers, no step budget in force — a budget-blown sim must still surface
  // as a unit fault); the dry run is unbudgeted so that a small request
  // budget exhausts per candidate, counted under prove_fallback, instead of
  // silently disabling the task.
  p.prove_opts.node_budget = request.prove_budget;
  if (request.prove && p.golden_ok && request.sim_step_budget == 0 &&
      task.stimulus.step_budget == 0) {
    p.prove_golden = prove::provable_golden(p.golden.file.modules.front(), &p.golden.file,
                                            task.stimulus, prove::ProveOptions{0});
  }

  // Cache seed: task identity + eval knobs hashed once. The per-candidate key
  // then adds the candidate's content and its stimulus stream (see
  // eval/cache_io.h).
  if (request.cache != nullptr) {
    const CacheLintMode lint_mode = request.lint_triage ? CacheLintMode::kTriage
                                    : p.lint            ? CacheLintMode::kObserve
                                                        : CacheLintMode::kOff;
    p.cache = request.cache;
    p.cache_seed = task_cache_seed(task, request.sim_step_budget, lint_mode, request.prove,
                                   request.prove_budget, &request.repair);
    p.extended = request.repair.enabled();
  }
  return p;
}

// One distinct candidate text's stage results, shared by the duplicate
// samples of a (temperature, task) block (DESIGN.md §5). Parse, analysis,
// lint and prove are pure functions of the text and the PreparedTask, and so
// is the diff test when the golden is swept exhaustively: that sweep draws
// nothing from the sample's testbench stream. Random-vector and sequential
// tests do, so they are never stored. Each stage runs under `mu` and stores
// only a completed result: it runs once per text however many workers reach
// it, and a stage that threw is simply run again by the next sample.
struct CandidateEntry {
  struct Compiled {
    verilog::ParseOutput parsed;
    verilog::SourceAnalysis analysis;
  };
  std::mutex mu;
  std::optional<Compiled> compiled;
  std::optional<lint::LintResult> lint;
  std::optional<prove::ProveResult> proof;
  std::optional<sim::DiffResult> diff;  // exhaustive sweeps only
};

// `slot`'s value, computed under the entry lock by its first user. A sample
// that waited for the lock while another ran the stage, and finds it still
// unfilled (that run threw), checks its own deadline before computing, so
// the wait surfaces as an ordinary deadline fault at `stage`. `hit`, when
// non-null, reports whether an earlier sample had stored the value.
template <typename T, typename Compute>
const T& stage_once(CandidateEntry& entry, std::optional<T>& slot,
                    const util::Deadline& deadline, const char* stage, Compute compute,
                    bool* hit = nullptr) {
  const std::lock_guard<std::mutex> lock(entry.mu);
  if (hit != nullptr) *hit = slot.has_value();
  if (!slot) {
    deadline.check(stage);
    slot.emplace(compute());
  }
  return *slot;
}

// The candidate memo of one (temperature, task) block, keyed by source text.
// It starts empty, gains an entry per distinct text, and is emptied when the
// block's last unit returns (its repair rounds included), so only the blocks
// in flight — about one per worker — hold parsed candidates.
class CandidateMemo {
 public:
  explicit CandidateMemo(std::size_t units) : pending_units_(units) {}

  std::shared_ptr<CandidateEntry> entry(const std::string& source) {
    const std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<CandidateEntry>& e = entries_[source];
    if (e == nullptr) e = std::make_shared<CandidateEntry>();
    return e;
  }

  void unit_done() {
    const std::lock_guard<std::mutex> lock(mu_);
    if (--pending_units_ == 0) decltype(entries_)().swap(entries_);
  }

 private:
  std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<CandidateEntry>> entries_;
  std::size_t pending_units_;
};

FaultKind classify_fault(const std::exception& e) {
  if (dynamic_cast<const util::InjectedFault*>(&e) != nullptr) return FaultKind::kInjected;
  if (dynamic_cast<const util::DeadlineExceeded*>(&e) != nullptr) return FaultKind::kDeadline;
  if (dynamic_cast<const sim::BudgetExceeded*>(&e) != nullptr) return FaultKind::kSimBudget;
  return FaultKind::kException;
}

// The candidate pipeline shared by evaluate() and check(): SI-CoT refine,
// generate, cache lookup, compile-check, lint, prove, differential
// simulation. Each distinct text is parsed once per block, by the compile
// stage of its first sample, and that parse feeds every later stage; with a
// `memo`, duplicate samples also share the lint, prove and exhaustive-sweep
// results (CandidateEntry). check() passes no memo and gets a private entry.
// The draw order against `rng` is part of the determinism contract — do not
// reorder. Neither the deadline checks nor the injection hook draw from
// `rng`, so enabling them never perturbs results. A non-null `damping`
// routes generation through generate_with_hints (repair rounds); round 0 and
// repair-off runs pass null and take the byte-identical generate() path.
CandidateOutcome run_candidate(const llm::SimLlm& model, const EvalTask& task,
                               const PreparedTask& prep, const EvalRequest& request,
                               double temperature, util::Rng& rng, UnitOutcome* stats,
                               const util::Deadline& deadline, CandidateMemo* memo,
                               const llm::AxisDamping* damping = nullptr) {
  CandidateOutcome outcome;

  const Clock::time_point gen_start = Clock::now();
  std::string prompt = task.prompt;
  if (request.use_sicot) {
    const llm::SimLlm* cot_model = request.cot_model_ptr();
    cot::SiCotPipeline pipeline(cot_model != nullptr ? cot_model : &model);
    const cot::SiCotResult refined = pipeline.refine(prompt, temperature, rng);
    prompt = refined.prompt;
    if (stats != nullptr) stats->refined = refined.transformed;
  }

  llm::GenerationConfig gen;
  gen.temperature = temperature;
  outcome.source = damping != nullptr ? model.generate_with_hints(prompt, gen, *damping, rng)
                                      : model.generate(prompt, gen, rng);
  if (stats != nullptr) stats->generate_seconds = seconds_since(gen_start);
  deadline.check("generate");

  // The testbench stream forks here, right after generation. It used to fork
  // at simulation time, but no stage in between draws from `rng`, so the
  // stream is bit-identical to the historical derivation — and forking early
  // lets the cache key bind the stimulus stream before any cached stage.
  util::Rng tb_rng = rng.fork();

  // Result-cache lookup (content + task + knobs + stimulus stream): a hit
  // replays the stored verdict and short-circuits compile/lint/simulate
  // bit-identically; see DESIGN.md §9 for the soundness argument.
  const bool caching = prep.cache != nullptr && stats != nullptr;
  cache::Digest cache_key;
  if (caching) {
    cache_key = unit_cache_key(prep.cache_seed, outcome.source, tb_rng.state_hash());
    if (std::optional<std::string> payload = prep.cache->lookup(cache_key)) {
      CachedVerdict v;
      if (decode_verdict(*payload, &v)) {
        outcome.syntax_ok = v.syntax_ok;
        outcome.func_ok = v.func_ok;
        stats->syntax_ok = v.syntax_ok;
        stats->func_ok = v.func_ok;
        stats->triaged = v.triaged;
        stats->proved = v.proved;
        stats->prove_fallback = v.prove_fallback;
        stats->simulated = v.simulated;
        stats->sim_vectors = v.sim_vectors;
        stats->findings = std::move(v.findings);
        stats->fail_reason = std::move(v.fail_reason);
        stats->cache_hit = true;
        return outcome;
      }
      // Undecodable payload (older schema, corrupt artifact): treat as a
      // miss; the fresh verdict below overwrites the bad entry.
    }
  }
  // Populate the cache at each completed exit. Faults throw past this, so
  // only terminally successful pipelines are ever stored.
  auto store = [&](const CandidateOutcome& oc) {
    if (!caching) return;
    CachedVerdict v;
    v.syntax_ok = oc.syntax_ok;
    v.func_ok = oc.func_ok;
    v.triaged = stats->triaged;
    v.proved = stats->proved;
    v.prove_fallback = stats->prove_fallback;
    v.simulated = stats->simulated;
    v.sim_vectors = stats->sim_vectors;
    v.findings = stats->findings;
    v.fail_reason = stats->fail_reason;
    prep.cache->insert(cache_key, encode_verdict(v, prep.extended));
  };

  // The one parse of the text, charged to the compile stage.
  const Clock::time_point compile_start = Clock::now();
  util::maybe_inject(util::kSiteEvalCompile);
  const std::shared_ptr<CandidateEntry> entry =
      memo != nullptr ? memo->entry(outcome.source) : std::make_shared<CandidateEntry>();
  const CandidateEntry::Compiled& compiled =
      stage_once(*entry, entry->compiled, deadline, "compile", [&] {
        CandidateEntry::Compiled c;
        c.parsed = verilog::parse_source(outcome.source);
        c.analysis = verilog::analyze_parsed(c.parsed);
        return c;
      });
  const verilog::ParseOutput& parsed = compiled.parsed;
  const verilog::SourceAnalysis& analysis = compiled.analysis;
  outcome.syntax_ok = analysis.ok();
  if (stats != nullptr) {
    stats->compile_seconds = seconds_since(compile_start);
    stats->syntax_ok = outcome.syntax_ok;
  }
  deadline.check("compile");

  if (!outcome.syntax_ok) {
    if (prep.lint && stats != nullptr) {
      // Attribute the compile failure: parse errors and semantic errors map
      // to kSyntax/kSema findings with taxonomy axes.
      const Clock::time_point lint_start = Clock::now();
      stats->findings = lint::findings_from_diagnostics(analysis.parse_errors);
      for (const auto& m : analysis.modules) {
        auto more = lint::findings_from_diagnostics(m.diagnostics);
        stats->findings.insert(stats->findings.end(), more.begin(), more.end());
      }
      stats->lint_seconds = seconds_since(lint_start);
    }
    store(outcome);
    return outcome;
  }
  // A compiled candidate parsed cleanly into at least one module.
  const verilog::Module& cand = parsed.file.modules.front();

  // Lint the compiled candidate against the reference profile. Draws nothing
  // from `rng` (determinism contract).
  if (prep.lint) {
    const Clock::time_point lint_start = Clock::now();
    const lint::LintResult& lint_result =
        stage_once(*entry, entry->lint, deadline, "lint", [&] {
          return lint::lint_candidate(cand, &parsed.file,
                                      prep.golden_ok ? &prep.profile : nullptr);
        });
    const bool proven = lint_result.proven_failure();
    if (stats != nullptr) {
      stats->findings = lint_result.findings;
      stats->lint_seconds = seconds_since(lint_start);
    }
    deadline.check("lint");
    if (prep.lint_triage && proven) {
      // Proven findings imply the diff test fails (DESIGN.md §8): score the
      // candidate as a functional failure without simulating.
      outcome.func_ok = false;
      if (stats != nullptr) stats->triaged = true;
      store(outcome);
      return outcome;
    }
  }

  // Formal equivalence fast-path (DESIGN.md §12), after lint triage — a
  // candidate with a proven lint failure counts once, under lint_triaged —
  // and before simulation. A proven verdict is bit-identical to the diff
  // testbench's by construction; anything else falls through to it.
  if (prep.prove_golden) {
    const Clock::time_point prove_start = Clock::now();
    const prove::ProveResult& proof = stage_once(*entry, entry->proof, deadline, "prove", [&] {
      return prove::prove_equivalence(cand, &parsed.file, prep.golden.file.modules.front(),
                                      *prep.prove_golden, task.stimulus, prep.prove_opts);
    });
    if (stats != nullptr) stats->prove_seconds = seconds_since(prove_start);
    deadline.check("prove");
    if (proof.status == prove::ProveStatus::kEquivalent ||
        proof.status == prove::ProveStatus::kInequivalent) {
      outcome.func_ok = proof.status == prove::ProveStatus::kEquivalent;
      if (stats != nullptr) {
        stats->func_ok = outcome.func_ok;
        stats->proved = true;
        if (!outcome.func_ok) stats->fail_reason = proof.reason;
      }
      store(outcome);
      return outcome;
    }
    // kUnsupported / kBudgetExceeded: defer to the testbench.
    if (stats != nullptr) stats->prove_fallback = true;
  }

  const Clock::time_point sim_start = Clock::now();
  if (!prep.golden_ok) throw std::invalid_argument("golden source does not parse");
  sim::StimulusSpec stimulus = task.stimulus;
  if (request.sim_step_budget != 0) stimulus.step_budget = request.sim_step_budget;
  stimulus.backend = request.sim_backend;
  auto simulate = [&] {
    return sim::run_diff_test(cand, &parsed.file, prep.golden.file.modules.front(),
                              &prep.golden.file, stimulus, tb_rng, &deadline);
  };
  const sim::DiffResult diff = [&] {
    if (!prep.sweeps_exhaustively) return simulate();
    bool hit = false;
    const sim::DiffResult& stored =
        stage_once(*entry, entry->diff, deadline, "exhaustive vector sweep", simulate, &hit);
    // Injection draws key on (seed, site, unit context), not on a call count,
    // so one hook call replays this unit's fate at the simulator it would
    // have built.
    if (hit && stored.simulated) util::maybe_inject(util::kSiteSimRun);
    return stored;
  }();
  outcome.func_ok = diff.passed;
  if (stats != nullptr) {
    stats->sim_seconds = seconds_since(sim_start);
    stats->func_ok = outcome.func_ok;
    stats->simulated = true;
    stats->sim_vectors = diff.vectors;
    if (!diff.passed) stats->fail_reason = diff.reason;
  }
  store(outcome);
  return outcome;
}

}  // namespace

CandidateOutcome EvalEngine::check(const llm::SimLlm& model, const EvalTask& task,
                                   double temperature, util::Rng& rng) const {
  const util::Deadline deadline = request_.deadline_ms > 0
                                      ? util::Deadline::after_ms(request_.deadline_ms)
                                      : util::Deadline::none();
  // A default request prepares the golden only: lint, prove and cache off.
  // One candidate has no duplicates to share with: no memo.
  return run_candidate(model, task, prepare_task(task, EvalRequest{}), request_, temperature,
                       rng, nullptr, deadline, nullptr);
}

SuiteResult EvalEngine::evaluate(const llm::SimLlm& model, const Suite& suite) const {
  const Clock::time_point wall_start = Clock::now();
  const std::clock_t cpu_start = std::clock();

  const std::size_t n_temps = request_.temperatures.size();
  const std::size_t n_tasks = suite.tasks.size();
  const std::size_t n_samples =
      request_.n_samples > 0 ? static_cast<std::size_t>(request_.n_samples) : 0;
  const std::size_t total = n_temps * n_tasks * n_samples;

  // Per-task seed base, identical to the legacy serial derivation.
  std::vector<std::uint64_t> task_seed(n_tasks);
  for (std::size_t i = 0; i < n_tasks; ++i) {
    task_seed[i] = mix_hash(request_.seed, model.name() + "|" + suite.tasks[i].id);
  }

  // Each task prepared once, shared read-only by every worker.
  const bool lint_enabled = request_.lint || request_.lint_triage;
  std::vector<PreparedTask> prepared;
  prepared.reserve(n_tasks);
  for (const EvalTask& task : suite.tasks) prepared.push_back(prepare_task(task, request_));

  cache::ResultCache* result_cache = request_.cache;
  const std::int64_t cache_evictions_before =
      result_cache != nullptr ? result_cache->stats().evictions : 0;

  // Work-unit index layout: temperature-major, then task, then sample.
  auto decode = [&](std::size_t unit, std::size_t& ti, std::size_t& task_i, int& s) {
    ti = unit / (n_tasks * n_samples);
    const std::size_t rest = unit % (n_tasks * n_samples);
    task_i = rest / n_samples;
    s = static_cast<int>(rest % n_samples);
  };

  // One candidate memo per (temperature, task) block, in block index order.
  std::deque<CandidateMemo> memos;
  for (std::size_t b = 0; b < n_temps * n_tasks; ++b) memos.emplace_back(n_samples);

  // One isolated work unit: run the candidate pipeline, retrying transient
  // faults per the request's policy. Attempt k derives its RNG from
  // (seed, unit, k) — the k = 0 term is zero, so first attempts reproduce
  // the legacy derivation bit for bit — and its fault-injection context
  // from (seed, unit, k), so chaos runs are deterministic at any thread
  // count. Every exception is converted into a structured fault record;
  // nothing escapes the unit.
  auto attempt_unit = [&](std::size_t unit, CandidateMemo* memo) -> UnitOutcome {
    std::size_t ti = 0, task_i = 0;
    int s = 0;
    decode(unit, ti, task_i, s);
    const double temperature = request_.temperatures[ti];
    const int max_retries = std::max(0, request_.retry.max_retries);
    const repair::RepairPolicy& policy = request_.repair;
    const repair::FeedbackBuilder feedback;
    UnitOutcome stats;
    for (int attempt = 0;; ++attempt) {
      stats = UnitOutcome{};  // drop partial stage results of a failed attempt
      stats.attempts = attempt + 1;
      // Round 0 uses this seed unmodified (the legacy derivation, bit for
      // bit); repair round r >= 1 XORs in a per-round term below.
      const std::uint64_t unit_seed =
          task_seed[task_i] ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(s + 1)) ^
          static_cast<std::uint64_t>(temperature * 4096) ^
          (0xda942042e4dd58b5ULL * static_cast<std::uint64_t>(attempt));
      util::Rng rng(unit_seed);
      util::FaultInjector::ScopedContext fault_context(
          request_.seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(unit) + 1)) ^
          (0xbf58476d1ce4e5b9ULL * (static_cast<std::uint64_t>(attempt) + 1)));
      // One deadline per attempt, covering every repair round of the attempt:
      // repair stretches a candidate's work, it does not extend its time box.
      const util::Deadline deadline = request_.deadline_ms > 0
                                          ? util::Deadline::after_ms(request_.deadline_ms)
                                          : util::Deadline::none();
      try {
        run_candidate(model, suite.tasks[task_i], prepared[task_i], request_, temperature, rng,
                      &stats, deadline, memo);
        if (!policy.enabled()) return stats;

        // Closed-loop self-repair (DESIGN.md §13): distill the latest pass's
        // failure evidence into a hint, damp the hinted axes, regenerate.
        // Round r's RNG depends only on (unit_seed, r), and its hint only on
        // rounds 0..r-1, so round sequences are prefix-stable across
        // max_rounds settings — pass@k is monotone in rounds by construction.
        // A fault inside any round retries the whole unit like before.
        std::vector<UnitOutcome> rounds;
        auto last = [&]() -> const UnitOutcome& {
          return rounds.empty() ? stats : rounds.back();
        };
        while (policy.admits_round(static_cast<int>(rounds.size()),
                                   1 + static_cast<int>(rounds.size()))) {
          const UnitOutcome& prev = last();
          if (policy.stop_on_pass && prev.func_ok) break;
          repair::Evidence evidence;
          evidence.passed = prev.func_ok;
          evidence.compile_failed = !prev.syntax_ok;
          evidence.lint_triaged = prev.triaged;
          evidence.proven_inequiv = prev.proved && !prev.func_ok;
          evidence.sim_mismatch = prev.simulated && !prev.func_ok;
          evidence.findings = &prev.findings;
          evidence.fail_reason = prev.fail_reason;
          const llm::AxisDamping damping =
              repair::damping_for(feedback.distill(evidence), policy.efficacy);
          const std::uint64_t round = static_cast<std::uint64_t>(rounds.size()) + 1;
          util::Rng round_rng(unit_seed ^ (0x8bb84b93962eacc9ULL * round));
          UnitOutcome pass;
          run_candidate(model, suite.tasks[task_i], prepared[task_i], request_, temperature,
                        round_rng, &pass, deadline, memo, &damping);
          rounds.push_back(std::move(pass));
        }
        if (rounds.empty()) return stats;

        // Merge: the verdict is the first passing pass (else the last). The
        // merged outcome carries that pass's flags/findings/witness; every
        // superseded pass folds its pipeline buckets into `prior` so the
        // reducer's accounting identity extends exactly by repair_rounds.
        std::vector<UnitOutcome*> passes;
        passes.reserve(rounds.size() + 1);
        passes.push_back(&stats);
        for (UnitOutcome& r : rounds) passes.push_back(&r);
        std::size_t verdict_i = passes.size() - 1;
        for (std::size_t p = 0; p < passes.size(); ++p) {
          if (passes[p]->func_ok) {
            verdict_i = p;
            break;
          }
        }
        const bool round0_refined = stats.refined;
        double gen_s = 0, comp_s = 0, lint_s = 0, prove_s = 0, sim_s = 0;
        for (const UnitOutcome* p : passes) {
          gen_s += p->generate_seconds;
          comp_s += p->compile_seconds;
          lint_s += p->lint_seconds;
          prove_s += p->prove_seconds;
          sim_s += p->sim_seconds;
        }
        UnitOutcome merged = std::move(*passes[verdict_i]);
        for (std::size_t p = 0; p < passes.size(); ++p) {
          if (p == verdict_i) continue;
          const UnitOutcome& pass = *passes[p];
          if (pass.cache_hit) {
            ++merged.prior.cache_hits;
          } else {
            if (result_cache != nullptr) ++merged.prior.cache_misses;
            merged.prior.compile_failures += !pass.syntax_ok;
            merged.prior.sim_mismatches += pass.syntax_ok && !pass.func_ok;
            merged.prior.lint_triaged += pass.triaged;
            merged.prior.proven_equiv += pass.proved && pass.func_ok;
            merged.prior.proven_inequiv += pass.proved && !pass.func_ok;
            merged.prior.prove_fallback += pass.prove_fallback;
            merged.prior.simulated += pass.simulated;
            merged.prior.sim_vectors += pass.sim_vectors;
          }
        }
        merged.refined = round0_refined;
        merged.attempts = attempt + 1;
        merged.generate_seconds = gen_s;
        merged.compile_seconds = comp_s;
        merged.lint_seconds = lint_s;
        merged.prove_seconds = prove_s;
        merged.sim_seconds = sim_s;
        merged.repair_rounds = static_cast<int>(rounds.size());
        merged.repaired = merged.func_ok && verdict_i >= 1;
        merged.repair_exhausted = !merged.func_ok;
        return merged;
      } catch (const std::exception& e) {
        if (attempt < max_retries && request_.retry.should_retry(e)) {
          const int backoff = request_.retry.backoff_ms(attempt);
          if (backoff > 0) std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
          continue;
        }
        stats.faulted = true;
        stats.fault_kind = classify_fault(e);
        stats.fault_what = e.what();
        return stats;
      } catch (...) {
        stats.faulted = true;
        stats.fault_kind = FaultKind::kException;
        stats.fault_what = "unknown non-standard exception";
        return stats;
      }
    }
  };
  // A unit never throws, so every unit that runs reaches unit_done(). Units
  // are numbered block-major, so unit / n_samples is the unit's block.
  auto run_unit = [&](std::size_t unit) -> UnitOutcome {
    CandidateMemo& memo = memos[unit / n_samples];
    UnitOutcome outcome = attempt_unit(unit, &memo);
    memo.unit_done();
    return outcome;
  };

  auto make_fault = [&](std::size_t unit, const UnitOutcome& u) -> UnitFault {
    std::size_t ti = 0, task_i = 0;
    int s = 0;
    decode(unit, ti, task_i, s);
    UnitFault fault;
    fault.kind = u.fault_kind;
    fault.task_id = suite.tasks[task_i].id;
    fault.sample = s;
    fault.temperature = request_.temperatures[ti];
    fault.attempts = u.attempts;
    fault.what = u.fault_what;
    return fault;
  };

  auto report_progress = [&](std::size_t unit) {
    if (!request_.on_progress) return;
    std::size_t ti = 0, task_i = 0;
    int s = 0;
    decode(unit, ti, task_i, s);
    EvalProgress progress;
    progress.completed = unit + 1;
    progress.total = total;
    progress.temperature = request_.temperatures[ti];
    progress.task_id = suite.tasks[task_i].id;
    progress.sample = s;
    request_.on_progress(progress);
  };

  util::ThreadPool* external_pool = request_.pool;
  const std::size_t requested_threads =
      external_pool != nullptr ? external_pool->worker_count()
      : request_.threads <= 0 ? util::ThreadPool::default_worker_count()
                              : static_cast<std::size_t>(request_.threads);
  const std::size_t workers = std::min(requested_threads, total == 0 ? std::size_t{1} : total);

  std::vector<UnitOutcome> outcomes(total);

  // In fail_fast mode the first faulted unit (in index order) condemns the
  // run: queued-but-unstarted work is cancelled and EvalAborted is thrown.
  // An external (shared) pool is never cancelled — its queue carries other
  // evaluations' work — so there the abort waits out the remaining units
  // (see run_on_pool) instead of dropping them.
  auto abort_if_fail_fast = [&](std::size_t i, util::ThreadPool* cancellable) {
    if (!request_.fail_fast || !outcomes[i].faulted) return;
    if (cancellable != nullptr) cancellable->cancel();
    throw EvalAborted(make_fault(i, outcomes[i]));
  };

  // Fan the units out over `pool`, collecting strictly in index order: the
  // reduction below (and the progress stream) must never observe completion
  // order.
  auto run_on_pool = [&](util::ThreadPool& pool, bool owned) {
    std::vector<std::future<UnitOutcome>> futures;
    futures.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
      futures.push_back(pool.submit([&run_unit, i] { return run_unit(i); }));
    }
    try {
      for (std::size_t i = 0; i < total; ++i) {
        outcomes[i] = futures[i].get();
        abort_if_fail_fast(i, owned ? &pool : nullptr);
        report_progress(i);
      }
    } catch (...) {
      // Every queued task captures this stack frame; on a shared pool they
      // would keep running after it unwinds. Block on each outstanding
      // future (cancelled tasks are already ready with a broken promise) so
      // no task can outlive the frame, then let the abort out.
      for (std::future<UnitOutcome>& future : futures) {
        if (future.valid()) future.wait();
      }
      throw;
    }
  };

  if (external_pool != nullptr) {
    run_on_pool(*external_pool, /*owned=*/false);
  } else if (workers <= 1) {
    for (std::size_t i = 0; i < total; ++i) {
      outcomes[i] = run_unit(i);
      abort_if_fail_fast(i, nullptr);
      report_progress(i);
    }
  } else {
    util::ThreadPool pool(workers);
    run_on_pool(pool, /*owned=*/true);
  }

  EvalCounters counters;
  std::vector<UnitFault> faults;
  LintSummary lint_summary;
  lint_summary.enabled = lint_enabled;
  std::vector<CandidateFindings> candidate_findings;
  counters.threads_used = static_cast<int>(workers);
  for (std::size_t i = 0; i < total; ++i) {
    const UnitOutcome& u = outcomes[i];
    ++counters.candidates;
    counters.retries += u.attempts - 1;
    if (u.faulted) {
      // A faulted unit's partial stage results are discarded: it counts
      // toward candidates/unit_faults only and scores as a total failure.
      ++counters.unit_faults;
      counters.deadline_exceeded += u.fault_kind == FaultKind::kDeadline;
      counters.cycles_aborted += u.fault_kind == FaultKind::kSimBudget;
      faults.push_back(make_fault(i, u));
      continue;
    }
    counters.sicot_refinements += u.refined;
    counters.lint_findings += static_cast<std::int64_t>(u.findings.size());
    counters.generate_seconds += u.generate_seconds;
    counters.compile_seconds += u.compile_seconds;
    counters.lint_seconds += u.lint_seconds;
    counters.prove_seconds += u.prove_seconds;
    counters.sim_seconds += u.sim_seconds;
    if (u.cache_hit) {
      // A hit replays the verdict without running compile/lint/simulate: it
      // lands in its own accounting bucket and nowhere else. The lint block
      // below still runs — findings replay bit-identically from the cache.
      ++counters.cache_hits;
    } else {
      if (result_cache != nullptr) ++counters.cache_misses;
      counters.compile_failures += !u.syntax_ok;
      counters.sim_mismatches += u.syntax_ok && !u.func_ok;
      counters.lint_triaged += u.triaged;
      counters.proven_equiv += u.proved && u.func_ok;
      counters.proven_inequiv += u.proved && !u.func_ok;
      counters.prove_fallback += u.prove_fallback;
      counters.simulated += u.simulated;
      counters.sim_vectors += u.sim_vectors;
    }
    // Superseded repair passes (folded by the unit) land in the same buckets
    // as live passes, extending the identity's LHS by exactly repair_rounds.
    counters.compile_failures += u.prior.compile_failures;
    counters.sim_mismatches += u.prior.sim_mismatches;
    counters.lint_triaged += u.prior.lint_triaged;
    counters.proven_equiv += u.prior.proven_equiv;
    counters.proven_inequiv += u.prior.proven_inequiv;
    counters.prove_fallback += u.prior.prove_fallback;
    counters.simulated += u.prior.simulated;
    counters.sim_vectors += u.prior.sim_vectors;
    counters.cache_hits += u.prior.cache_hits;
    counters.cache_misses += u.prior.cache_misses;
    counters.repair_rounds += u.repair_rounds;
    counters.repaired_pass += u.repaired;
    counters.repair_exhausted += u.repair_exhausted;

    if (!lint_enabled) continue;
    bool flagged = false;
    std::uint32_t axis_mask = 0;
    for (const lint::Finding& f : u.findings) {
      flagged |= f.predicts_failure;
      ++lint_summary.rule_counts[lint::rule_id(f.rule)];
      if (f.diag.severity != verilog::Severity::kNote) {
        axis_mask |= std::uint32_t{1} << static_cast<int>(f.axis);
      }
    }
    lint_summary.flagged_candidates += flagged;
    for (int a = 0; a < llm::kNumHalluAxes; ++a) {
      lint_summary.axis_candidates[static_cast<std::size_t>(a)] +=
          (axis_mask >> a) & 1u;
    }
    // Confusion vs the simulated verdict (compiled candidates only: compile
    // failures have no testbench ground truth). Triaged candidates are true
    // positives by the soundness argument.
    if (u.syntax_ok) {
      const bool failed = !u.func_ok;
      if (flagged && failed) {
        ++lint_summary.true_positives;
      } else if (flagged) {
        ++lint_summary.false_positives;
      } else if (failed) {
        ++lint_summary.false_negatives;
      } else {
        ++lint_summary.true_negatives;
      }
    }
    if (!u.findings.empty()) {
      std::size_t ti = 0, task_i = 0;
      int s = 0;
      decode(i, ti, task_i, s);
      CandidateFindings cf;
      cf.task_id = suite.tasks[task_i].id;
      cf.sample = s;
      cf.temperature = request_.temperatures[ti];
      cf.findings = u.findings;
      candidate_findings.push_back(std::move(cf));
    }
  }
  lint_summary.findings = counters.lint_findings;

  // The accounting identity is enforced HERE, once, where the buckets are
  // filled (debug builds). Tests assert counters_consistent() on results
  // instead of re-deriving the sum per call site; the diagnostic names the
  // specific violated term(s) so a broken build fails loudly, not opaquely.
#ifndef NDEBUG
  if (const std::string broken = counters_inconsistency(counters); !broken.empty()) {
    std::fprintf(stderr, "EvalCounters accounting identity violated: %s\n", broken.c_str());
    assert(false && "EvalCounters accounting identity violated");
  }
#endif

  SuiteResult best;
  double best_pass1 = 0.0;
  bool have_best = false;
  for (std::size_t ti = 0; ti < n_temps; ++ti) {
    SuiteResult result;
    result.suite_name = suite.name;
    result.model_name = model.name();
    result.temperature = request_.temperatures[ti];
    result.per_task.reserve(n_tasks);
    for (std::size_t task_i = 0; task_i < n_tasks; ++task_i) {
      TaskResult tr;
      tr.task_id = suite.tasks[task_i].id;
      tr.modality = suite.tasks[task_i].modality;
      tr.n = request_.n_samples;
      const std::size_t base = (ti * n_tasks + task_i) * n_samples;
      for (std::size_t s = 0; s < n_samples; ++s) {
        const UnitOutcome& u = outcomes[base + s];
        // Faulted units score as total failures even when an earlier stage
        // succeeded before the fault (e.g. compiled, then sim deadline blew).
        if (u.faulted) continue;
        tr.syntax_pass += u.syntax_ok;
        tr.func_pass += u.func_ok;
      }
      result.per_task.push_back(std::move(tr));
    }
    const double pass1 = result.pass_at(1);
    if (!have_best || pass1 > best_pass1) {
      best = std::move(result);
      best_pass1 = pass1;
      have_best = true;
    }
  }
  if (!have_best) {
    // No temperatures configured: return an empty, but labelled, result.
    best.suite_name = suite.name;
    best.model_name = model.name();
  }

  if (result_cache != nullptr) {
    const cache::CacheStats cs = result_cache->stats();
    counters.cache_evictions = cs.evictions - cache_evictions_before;
    counters.cache_bytes = cs.bytes;
  }

  counters.wall_seconds = seconds_since(wall_start);
  counters.cpu_seconds =
      static_cast<double>(std::clock() - cpu_start) / static_cast<double>(CLOCKS_PER_SEC);
  best.counters = counters;
  best.faults = std::move(faults);
  best.lint = std::move(lint_summary);
  best.lint_findings = std::move(candidate_findings);
  return best;
}

}  // namespace haven::eval
