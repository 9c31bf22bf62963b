#include "replay.h"

#include <exception>
#include <future>
#include <optional>
#include <string>
#include <utility>

#include "cot/sicot.h"
#include "eval/cache_io.h"
#include "logic/truth_table.h"
#include "prove/prove.h"
#include "repair/repair.h"
#include "sim/compile.h"
#include "sim/elaborate.h"
#include "sim/testbench.h"
#include "util/strings.h"
#include "verilog/analyzer.h"

namespace e2ebench {

namespace hv = haven;

namespace {

// The engine's per-task seed base (eval/engine.cpp mix_hash).
std::uint64_t task_seed(std::uint64_t seed, const std::string& s) {
  std::uint64_t h = seed ^ 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool lint_on(const hv::eval::EvalRequest& r) { return r.lint || r.lint_triage; }

// One pass of the candidate pipeline (round 0 or a repair round).
struct Pass {
  bool syntax_ok = false;
  bool func_ok = false;
  bool refined = false;
  bool triaged = false;
  bool proved = false;
  bool prove_fallback = false;
  bool simulated = false;
  bool cache_hit = false;
  int sim_vectors = 0;
  std::vector<hv::lint::Finding> findings;
  std::string fail_reason;
};

void side_probes(const std::string& source, UnitTrace& tr) {
  hv::verilog::ParseOutput parsed;
  {
    Scope s(tr, "verilog.parse", /*probe=*/true);
    parsed = hv::verilog::parse_source(source);
  }
  if (!parsed.ok() || parsed.file.modules.empty()) return;
  try {
    hv::sim::ElabDesign design;
    {
      Scope s(tr, "sim.elaborate", /*probe=*/true);
      design = hv::sim::elaborate(parsed.file.modules.front(), &parsed.file);
    }
    Scope s(tr, "sim.compile", /*probe=*/true);
    const hv::sim::Program program = hv::sim::compile(design);
    (void)program;
  } catch (const std::exception&) {
    // A candidate the elaborator rejects fails its diff test the same way;
    // the probe only times the attempt.
  }
}

// Mirrors run_candidate in eval/engine.cpp stage for stage. Each simulated
// candidate's source is appended to `probe_sources` (when not null) for the
// side probes, which run after the timed replay.
Pass run_pass(const hv::llm::SimLlm& model, const hv::eval::EvalTask& task,
              const TaskContext& ctx, const hv::eval::EvalRequest& request, double temperature,
              hv::util::Rng& rng, const hv::llm::AxisDamping* damping, UnitTrace& tr,
              std::vector<std::string>* probe_sources) {
  Pass p;
  std::string prompt = task.prompt;
  if (request.use_sicot) {
    Scope s(tr, "cot.refine");
    const hv::llm::SimLlm* interpreter =
        request.cot_model_ptr() != nullptr ? request.cot_model_ptr() : &model;
    const hv::cot::SiCotPipeline pipeline(interpreter);
    hv::cot::SiCotResult refined = pipeline.refine(prompt, temperature, rng);
    prompt = std::move(refined.prompt);
    p.refined = refined.transformed;
  }
  std::string source;
  {
    Scope s(tr, "llm.generate");
    hv::llm::GenerationConfig gen;
    gen.temperature = temperature;
    source = damping != nullptr ? model.generate_with_hints(prompt, gen, *damping, rng)
                                : model.generate(prompt, gen, rng);
  }
  hv::util::Rng tb_rng = rng.fork();

  hv::cache::ResultCache* cache = request.cache;
  hv::cache::Digest key;
  if (cache != nullptr) {
    key = hv::eval::unit_cache_key(ctx.cache_seed, source, tb_rng.state_hash());
    std::optional<std::string> payload;
    {
      Scope s(tr, "cache.lookup");
      payload = cache->lookup(key);
    }
    hv::eval::CachedVerdict v;
    if (payload && hv::eval::decode_verdict(*payload, &v)) {
      p.syntax_ok = v.syntax_ok;
      p.func_ok = v.func_ok;
      p.triaged = v.triaged;
      p.proved = v.proved;
      p.prove_fallback = v.prove_fallback;
      p.simulated = v.simulated;
      p.sim_vectors = v.sim_vectors;
      p.findings = std::move(v.findings);
      p.fail_reason = std::move(v.fail_reason);
      p.cache_hit = true;
      return p;
    }
  }
  auto store = [&] {
    if (cache == nullptr) return;
    hv::eval::CachedVerdict v;
    v.syntax_ok = p.syntax_ok;
    v.func_ok = p.func_ok;
    v.triaged = p.triaged;
    v.proved = p.proved;
    v.prove_fallback = p.prove_fallback;
    v.simulated = p.simulated;
    v.sim_vectors = p.sim_vectors;
    v.findings = p.findings;
    v.fail_reason = p.fail_reason;
    std::string payload = hv::eval::encode_verdict(v, request.repair.enabled());
    Scope s(tr, "cache.insert");
    cache->insert(key, std::move(payload));
  };

  {
    Scope s(tr, "verilog.compile_ok");
    p.syntax_ok = hv::verilog::compile_ok(source);
  }
  if (!p.syntax_ok) {
    if (lint_on(request)) {
      Scope s(tr, "lint.attribute");
      const hv::verilog::SourceAnalysis analysis = hv::verilog::analyze_source(source);
      p.findings = hv::lint::findings_from_diagnostics(analysis.parse_errors);
      for (const auto& m : analysis.modules) {
        auto more = hv::lint::findings_from_diagnostics(m.diagnostics);
        p.findings.insert(p.findings.end(), more.begin(), more.end());
      }
    }
    store();
    return p;
  }

  const bool prove_active = request.prove && ctx.provable;
  hv::verilog::ParseOutput cand;
  bool ready = false;
  if (lint_on(request) || prove_active) {
    {
      Scope s(tr, "eval.parse");
      cand = hv::verilog::parse_source(source);
    }
    ready = cand.ok() && !cand.file.modules.empty();
  }
  if (lint_on(request) && ready) {
    hv::lint::LintResult lint_result;
    {
      Scope s(tr, "lint.lint");
      lint_result = hv::lint::lint_candidate(cand.file.modules.front(), &cand.file,
                                             ctx.lint_usable ? &ctx.profile : nullptr);
    }
    const bool proven = lint_result.proven_failure();
    p.findings = std::move(lint_result.findings);
    if (request.lint_triage && proven) {
      p.func_ok = false;
      p.triaged = true;
      store();
      return p;
    }
  }
  if (prove_active && ready) {
    hv::prove::ProveResult proof;
    {
      Scope s(tr, "prove.prove");
      hv::prove::ProveOptions opts;
      opts.node_budget = request.prove_budget;
      proof = hv::prove::prove_equivalence(cand.file.modules.front(), &cand.file,
                                           ctx.golden.file.modules.front(), &ctx.golden.file,
                                           task.stimulus, opts);
    }
    if (proof.status == hv::prove::ProveStatus::kEquivalent ||
        proof.status == hv::prove::ProveStatus::kInequivalent) {
      p.func_ok = proof.status == hv::prove::ProveStatus::kEquivalent;
      p.proved = true;
      if (!p.func_ok) p.fail_reason = proof.reason;
      store();
      return p;
    }
    p.prove_fallback = true;
  }

  hv::sim::StimulusSpec stimulus = task.stimulus;
  if (request.sim_step_budget != 0) stimulus.step_budget = request.sim_step_budget;
  stimulus.backend = request.sim_backend;
  const bool golden_ast = (lint_on(request) && ctx.lint_usable) || prove_active;
  hv::sim::DiffResult diff;
  {
    Scope s(tr, "sim.diff");
    diff = (ready && golden_ast)
               ? hv::sim::run_diff_test(cand.file.modules.front(), &cand.file,
                                        ctx.golden.file.modules.front(), &ctx.golden.file,
                                        stimulus, tb_rng)
               : hv::sim::run_diff_test(source, task.golden_source, stimulus, tb_rng);
  }
  p.func_ok = diff.passed;
  p.simulated = true;
  p.sim_vectors = diff.vectors;
  if (!diff.passed) p.fail_reason = diff.reason;
  if (probe_sources != nullptr) probe_sources->push_back(source);
  store();
  return p;
}

struct UnitReplay {
  bool faulted = false;
  bool syntax_ok = false;
  bool func_ok = false;
  bool refined = false;
  std::int64_t lint_findings = 0;
  std::vector<Pass> passes;  // round 0 first; verdict flags folded below
  int repair_rounds = 0;
  bool repaired = false;
  bool exhausted = false;
  std::vector<Span> spans;
  std::vector<std::string> probe_sources;  // simulated candidates, for side probes
};

UnitReplay replay_unit(const hv::llm::SimLlm& model, const hv::eval::EvalTask& task,
                       const TaskContext& ctx, const hv::eval::EvalRequest& request,
                       double temperature, std::uint64_t base_seed, int sample,
                       std::uint64_t unit_id, bool probes) {
  UnitReplay out;
  UnitTrace tr(unit_id);
  std::vector<std::string>* probe_sources = probes ? &out.probe_sources : nullptr;
  try {
    Scope unit_span(tr, "eval.unit");
    const std::uint64_t unit_seed =
        base_seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(sample + 1)) ^
        static_cast<std::uint64_t>(temperature * 4096);
    hv::util::Rng rng(unit_seed);
    out.passes.push_back(
        run_pass(model, task, ctx, request, temperature, rng, nullptr, tr, probe_sources));
    const hv::repair::RepairPolicy& policy = request.repair;
    const hv::repair::FeedbackBuilder feedback;
    while (policy.enabled() &&
           policy.admits_round(static_cast<int>(out.passes.size()) - 1,
                               static_cast<int>(out.passes.size()))) {
      const Pass& prev = out.passes.back();
      if (policy.stop_on_pass && prev.func_ok) break;
      hv::repair::Evidence evidence;
      evidence.passed = prev.func_ok;
      evidence.compile_failed = !prev.syntax_ok;
      evidence.lint_triaged = prev.triaged;
      evidence.proven_inequiv = prev.proved && !prev.func_ok;
      evidence.sim_mismatch = prev.simulated && !prev.func_ok;
      evidence.findings = &prev.findings;
      evidence.fail_reason = prev.fail_reason;
      hv::llm::AxisDamping damping;
      {
        Scope s(tr, "repair.distill");
        damping = hv::repair::damping_for(feedback.distill(evidence), policy.efficacy);
      }
      const auto round = static_cast<std::uint64_t>(out.passes.size());
      hv::util::Rng round_rng(unit_seed ^ (0x8bb84b93962eacc9ULL * round));
      out.passes.push_back(
          run_pass(model, task, ctx, request, temperature, round_rng, &damping, tr,
                   probe_sources));
    }
  } catch (const std::exception&) {
    out.faulted = true;
  }
  out.spans = std::move(tr.spans());
  if (out.faulted) return out;

  std::size_t verdict = out.passes.size() - 1;
  for (std::size_t i = 0; i < out.passes.size(); ++i) {
    if (out.passes[i].func_ok) {
      verdict = i;
      break;
    }
  }
  out.syntax_ok = out.passes[verdict].syntax_ok;
  out.func_ok = out.passes[verdict].func_ok;
  out.refined = out.passes.front().refined;
  out.lint_findings = static_cast<std::int64_t>(out.passes[verdict].findings.size());
  out.repair_rounds = static_cast<int>(out.passes.size()) - 1;
  out.repaired = out.repair_rounds > 0 && out.func_ok && verdict >= 1;
  out.exhausted = out.repair_rounds > 0 && !out.func_ok;
  return out;
}

}  // namespace

std::vector<TaskContext> prepare_tasks(const hv::eval::Suite& suite,
                                       const hv::eval::EvalRequest& request) {
  // Sized up front and filled in place: the profile points into `golden`.
  std::vector<TaskContext> out(suite.tasks.size());
  using hv::eval::CacheLintMode;
  const CacheLintMode lint_mode = request.lint_triage ? CacheLintMode::kTriage
                                  : lint_on(request)  ? CacheLintMode::kObserve
                                                      : CacheLintMode::kOff;
  for (std::size_t i = 0; i < suite.tasks.size(); ++i) {
    const hv::eval::EvalTask& task = suite.tasks[i];
    TaskContext& c = out[i];
    if (request.cache != nullptr) {
      c.cache_seed = hv::eval::task_cache_seed(task, request.sim_step_budget, lint_mode,
                                               request.prove, request.prove_budget,
                                               &request.repair);
    }
    if (!lint_on(request) && !request.prove) continue;
    c.golden = hv::verilog::parse_source(task.golden_source);
    if (!c.golden.ok() || c.golden.file.modules.empty()) continue;
    const hv::verilog::Module& gm = c.golden.file.modules.front();
    if (lint_on(request)) {
      // The reference profile exactly as EvalEngine::evaluate distills it.
      hv::lint::profile_from_golden(gm, &c.golden.file, &c.profile);
      c.profile.sequential = task.stimulus.sequential;
      c.profile.clock = task.stimulus.clock;
      c.profile.reset = task.stimulus.reset;
      if (!task.stimulus.sequential) {
        int total_bits = 0;
        for (const auto& port : gm.ports) {
          if (port.dir == hv::verilog::Dir::kOutput) continue;
          if (port.name == task.stimulus.clock || port.name == task.stimulus.reset) continue;
          total_bits += port.width();
        }
        c.profile.exhaustive_comb =
            total_bits <= task.stimulus.max_exhaustive_bits && total_bits <= 20;
      }
      try {
        (void)hv::sim::elaborate(gm, &c.golden.file);
      } catch (const hv::sim::ElabError&) {
        c.profile.golden_elab_ok = false;
      }
      if (task.spec.kind == hv::llm::TaskKind::kCombExpr && task.spec.expr != nullptr &&
          !task.spec.comb_inputs.empty() && task.spec.comb_inputs.size() <= 20) {
        const hv::logic::TruthTable tt = hv::logic::TruthTable::from_expr(
            *task.spec.expr, task.spec.comb_inputs, task.spec.comb_output);
        hv::lint::ReferenceProfile::OutputTruth truth;
        truth.port = task.spec.comb_output;
        const std::uint32_t rows =
            std::uint32_t{1} << static_cast<std::uint32_t>(task.spec.comb_inputs.size());
        for (std::uint32_t row = 0; row < rows; ++row) {
          const hv::logic::Tri v = tt.row(row);
          truth.defined_zero |= v == hv::logic::Tri::kFalse;
          truth.defined_one |= v == hv::logic::Tri::kTrue;
        }
        c.profile.truth.push_back(std::move(truth));
      }
      c.lint_usable = true;
    }
    if (request.prove && request.sim_step_budget == 0 && task.stimulus.step_budget == 0) {
      c.provable = hv::prove::golden_provable(gm, &c.golden.file, task.stimulus,
                                              hv::prove::ProveOptions{0});
    }
  }
  return out;
}

JobReplay replay_job(const hv::llm::SimLlm& model, const hv::eval::Suite& suite,
                     const hv::eval::EvalRequest& request,
                     const std::vector<TaskContext>& tasks, hv::util::ThreadPool& pool,
                     std::uint64_t unit_base, bool probes) {
  JobReplay out;
  const double temperature = request.temperatures.front();
  const std::size_t n = static_cast<std::size_t>(std::max(0, request.n_samples));
  const std::int64_t t0 = now_ns();
  std::vector<std::future<UnitReplay>> futures;
  futures.reserve(suite.tasks.size() * n);
  for (std::size_t t = 0; t < suite.tasks.size(); ++t) {
    const std::uint64_t base = task_seed(request.seed, model.name() + "|" + suite.tasks[t].id);
    for (std::size_t s = 0; s < n; ++s) {
      const std::uint64_t unit = unit_base + t * n + s;
      futures.push_back(pool.submit([&, t, s, base, unit] {
        return replay_unit(model, suite.tasks[t], tasks[t], request, temperature, base,
                           static_cast<int>(s), unit, probes);
      }));
    }
  }
  hv::eval::EvalCounters& c = out.counters;
  std::vector<std::pair<std::uint64_t, std::vector<std::string>>> probe_work;
  for (std::size_t t = 0; t < suite.tasks.size(); ++t) {
    hv::eval::TaskResult tr;
    tr.task_id = suite.tasks[t].id;
    tr.modality = suite.tasks[t].modality;
    tr.n = request.n_samples;
    for (std::size_t s = 0; s < n; ++s) {
      UnitReplay u = futures[t * n + s].get();
      append_spans(out.spans, u.spans);
      if (!u.probe_sources.empty()) {
        probe_work.emplace_back(unit_base + t * n + s, std::move(u.probe_sources));
      }
      ++c.candidates;
      if (u.faulted) {
        ++c.unit_faults;
        continue;
      }
      tr.syntax_pass += u.syntax_ok;
      tr.func_pass += u.func_ok;
      c.sicot_refinements += u.refined;
      c.lint_findings += u.lint_findings;
      for (const Pass& p : u.passes) {
        if (p.cache_hit) {
          ++c.cache_hits;
          continue;
        }
        if (request.cache != nullptr) ++c.cache_misses;
        c.compile_failures += !p.syntax_ok;
        c.sim_mismatches += p.syntax_ok && !p.func_ok;
        c.lint_triaged += p.triaged;
        c.proven_equiv += p.proved && p.func_ok;
        c.proven_inequiv += p.proved && !p.func_ok;
        c.prove_fallback += p.prove_fallback;
        c.simulated += p.simulated;
        c.sim_vectors += p.sim_vectors;
      }
      c.repair_rounds += u.repair_rounds;
      c.repaired_pass += u.repaired;
      c.repair_exhausted += u.exhausted;
    }
    out.per_task.push_back(std::move(tr));
  }
  out.wall_s = static_cast<double>(now_ns() - t0) / 1e9;

  // Side probes run after the timed replay, as root spans of their unit, so
  // they stay out of the unit spans, the replay wall and the coverage.
  std::vector<std::future<std::vector<Span>>> probe_futures;
  probe_futures.reserve(probe_work.size());
  for (const auto& work : probe_work) {
    probe_futures.push_back(pool.submit([&work] {
      UnitTrace tr(work.first);
      for (const std::string& source : work.second) side_probes(source, tr);
      return std::move(tr.spans());
    }));
  }
  for (auto& f : probe_futures) append_spans(out.spans, f.get());
  return out;
}

std::string replay_mismatch(const JobReplay& replay, const hv::eval::SuiteResult& engine) {
  if (replay.per_task.size() != engine.per_task.size()) return "task count differs";
  for (std::size_t i = 0; i < replay.per_task.size(); ++i) {
    const hv::eval::TaskResult& a = replay.per_task[i];
    const hv::eval::TaskResult& b = engine.per_task[i];
    if (a.syntax_pass != b.syntax_pass || a.func_pass != b.func_pass) {
      return hv::util::format("task %s: replay (syntax %d, func %d) vs engine (%d, %d)",
                              b.task_id.c_str(), a.syntax_pass, a.func_pass, b.syntax_pass,
                              b.func_pass);
    }
  }
  const hv::eval::EvalCounters& a = replay.counters;
  const hv::eval::EvalCounters& b = engine.counters;
  const std::pair<const char*, std::pair<std::int64_t, std::int64_t>> fields[] = {
      {"candidates", {a.candidates, b.candidates}},
      {"unit_faults", {a.unit_faults, b.unit_faults}},
      {"compile_failures", {a.compile_failures, b.compile_failures}},
      {"sim_mismatches", {a.sim_mismatches, b.sim_mismatches}},
      {"sicot_refinements", {a.sicot_refinements, b.sicot_refinements}},
      {"lint_findings", {a.lint_findings, b.lint_findings}},
      {"lint_triaged", {a.lint_triaged, b.lint_triaged}},
      {"simulated", {a.simulated, b.simulated}},
      {"sim_vectors", {a.sim_vectors, b.sim_vectors}},
      {"proven_equiv", {a.proven_equiv, b.proven_equiv}},
      {"proven_inequiv", {a.proven_inequiv, b.proven_inequiv}},
      {"prove_fallback", {a.prove_fallback, b.prove_fallback}},
      {"repair_rounds", {a.repair_rounds, b.repair_rounds}},
      {"repaired_pass", {a.repaired_pass, b.repaired_pass}},
      {"repair_exhausted", {a.repair_exhausted, b.repair_exhausted}},
      {"cache_hits", {a.cache_hits, b.cache_hits}},
      {"cache_misses", {a.cache_misses, b.cache_misses}},
  };
  for (const auto& [name, values] : fields) {
    if (values.first != values.second) {
      return hv::util::format("%s: replay %lld vs engine %lld", name,
                              static_cast<long long>(values.first),
                              static_cast<long long>(values.second));
    }
  }
  return "";
}

}  // namespace e2ebench
