// e2ebench: the end-to-end and per-layer benchmark of the HaVen evaluation
// stack (generate -> SI-CoT -> compile -> lint -> prove -> simulate -> repair,
// behind eval::EvalEngine and serve::Server).
//
//   e2ebench --workload rtllm_sim|human_fastpath|serve_mixed --seed N
//            --seconds S --trace 0|1 [--trace-out PATH]
//
// --trace 0 measures the end-to-end metrics untraced for --seconds, on one
// worker, as CPU time scaled by a host-speed reference (see HostSpeed). --trace 1
// reports the per-layer metrics from the traced replay (see replay.h): one
// round of a batch workload, or the open-loop jobs of a serve run, each
// checked against the engine's own verdicts and counters. Either way the run
// ends with the verdict oracle and the accounting checks, and the last
// stdout line is one JSON object {correct, attempted, failed, metrics}. Any
// verdict or accounting mismatch exits 1. Workload rationale and parameters:
// workloads.json beside this file.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <time.h>

#include "core/haven.h"
#include "eval/engine.h"
#include "eval/suites.h"
#include "llm/model_zoo.h"
#include "replay.h"
#include "serve/serve.h"
#include "trace.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace hv = haven;
using e2ebench::Span;

namespace {

// ---------------------------------------------------------------- reporting

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(e2ebench::now_ns() - start_ns) / 1e9;
}

// CPU time in seconds. The kernel leaves out time the hypervisor stole from
// the guest and time a thread sat preempted, so on a shared host this reads
// the program's own work where wall time also reads the neighbours'.
double cpu_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}
double process_cpu_s() { return cpu_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_s(CLOCK_THREAD_CPUTIME_ID); }

// VmHWM of this process image. getrusage's ru_maxrss would also carry the
// peak of the parent that forked it (the python launcher) across exec.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

struct Report {
  std::vector<Metric> e2e;     // printed in the result line with --trace 0
  std::vector<Metric> layer;   // printed in the result line with --trace 1
  std::vector<Metric> extra;   // printed for humans only
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;  // verdict / accounting mismatches

  void add(std::vector<Metric>& to, std::string name, double value, std::string unit,
           std::size_t samples) {
    to.push_back({std::move(name), value, std::move(unit), samples});
  }
  void error(std::string what) {
    std::fprintf(stderr, "e2ebench: %s\n", what.c_str());
    errors.push_back(std::move(what));
  }
};

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.6g %-6s (n=%zu)\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  }
}

// Timing distribution of one layer's calls: <prefix>_us_p50 / _us_p99.
void add_timing(Report& r, std::vector<Metric>& to, const std::string& prefix,
                const std::vector<double>& us) {
  r.add(to, prefix + "_us_p50", quantile(us, 0.5), "us", us.size());
  r.add(to, prefix + "_us_p99", quantile(us, 0.99), "us", us.size());
}

// ---------------------------------------------------------------- workloads

const std::vector<double> kTemps = {0.2, 0.5, 0.8};

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// On a shared host the CPU time of the same work drifts by tens of percent
// within minutes as neighbours come and go (and by up to 2x within an hour).
// The gated timings are therefore scaled by a reference kernel sampled in
// the same process throughout the run: an integer hash chain with an
// unpredictable branch, a symbol-table pass (build net names, count them in
// a std::map, sort and look each up) and a switch-dispatched interpreter,
// about a third each by time, the mix whose speed tracked this program's
// closest over such drift. A
// gated timing is the CPU time the work would take on a host where one
// reference sample takes kRefNominalS: a batch job's CPU time and each
// set-up repeat are scaled by the sample taken next to them, and the served
// jobs' by the median of the run's samples. The raw CPU time is printed
// beside it.
class HostSpeed {
 public:
  static constexpr double kRefNominalS = 0.007;

  HostSpeed() {
    std::uint64_t x = 99;
    for (Op& op : code_) {
      x = splitmix(x);
      op = {static_cast<std::uint8_t>(x % 9), static_cast<std::uint8_t>((x >> 8) & 15),
            static_cast<std::uint8_t>((x >> 16) & 15), static_cast<std::uint8_t>((x >> 24) & 15),
            static_cast<std::uint8_t>(x >> 32)};
    }
  }

  // Runs the kernel once; returns its CPU time in seconds.
  double sample() {
    const double t0 = thread_cpu_s();
    sink_ = hash_chain() + symbol_table() + interpret();
    samples_.push_back(thread_cpu_s() - t0);
    return samples_.back();
  }

  // Multiplies a CPU time measured in this run into reference-host time.
  double scale() const { return samples_.empty() ? 1.0 : kRefNominalS / median(samples_); }
  std::size_t samples() const { return samples_.size(); }
  double median_s() const { return median(samples_); }

 private:
  // Each part takes about a third of a sample.
  static constexpr int kHashSteps = 280000;
  static constexpr int kNames = 2700;
  static constexpr int kOpSteps = 800000;

  std::uint64_t hash_chain() const {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL, acc = 0;
    for (int i = 0; i < kHashSteps; ++i) {
      h ^= h << 13;
      h ^= h >> 7;
      h ^= h << 17;
      if (h & 1) acc += h >> 3;
      else acc ^= h * 31;
    }
    return acc;
  }

  static std::uint64_t symbol_table() {
    std::uint64_t h = 12345, acc = 0;
    std::map<std::string, int> table;
    std::vector<std::string> names;
    names.reserve(kNames);
    for (int i = 0; i < kNames; ++i) {
      h = splitmix(h);
      names.push_back("net_" + std::to_string(h % 997) + ((h & 1) != 0 ? "_q" : "_d") +
                      std::to_string(i % 13));
      table[names.back()] += i;
    }
    std::sort(names.begin(), names.end());
    for (const std::string& name : names) {
      acc += static_cast<std::uint64_t>(table.find(name)->second) + name.size();
    }
    return acc;
  }

  // A switch-dispatched register machine over a fixed random program.
  std::uint64_t interpret() const {
    std::uint64_t reg[16];
    for (std::uint64_t i = 0; i < 16; ++i) reg[i] = splitmix(i + 1);
    std::size_t pc = 0;
    for (int step = 0; step < kOpSteps; ++step) {
      const Op& o = code_[pc];
      pc = (pc + 1) % code_.size();
      switch (o.kind) {
        case 0: reg[o.a] = reg[o.b] + reg[o.c]; break;
        case 1: reg[o.a] = reg[o.b] ^ reg[o.c]; break;
        case 2: reg[o.a] = reg[o.b] << (reg[o.c] & 7); break;
        case 3: reg[o.a] = reg[o.b] >> (reg[o.c] & 7); break;
        case 4: reg[o.a] = reg[o.b] & ~reg[o.c]; break;
        case 5: reg[o.a] = reg[o.b] | (reg[o.c] >> 1); break;
        case 6: reg[o.a] = reg[o.b] * 0x9e3779b97f4a7c15ULL + 1; break;
        case 7: if (reg[o.a] & 1) pc = o.target; break;
        default: reg[o.a] = ~reg[o.b]; break;
      }
    }
    std::uint64_t acc = 0;
    for (std::uint64_t v : reg) acc += v;
    return acc;
  }

  struct Op {
    std::uint8_t kind, a, b, c, target;
  };
  std::array<Op, 256> code_{};
  volatile std::uint64_t sink_ = 0;
  std::vector<double> samples_;
};

// The gated timings, reported once the run's reference samples are in.
void add_host_speed(const HostSpeed& speed, Report& r) {
  r.add(r.extra, "host.ref_sample_ms", speed.median_s() * 1e3, "ms", speed.samples());
  r.add(r.extra, "host.scale", speed.scale(), "ratio", speed.samples());
}

// A batch workload: every (card, temperature) pair is one job, a whole-suite
// EvalEngine::evaluate call; a round runs every job once. Each round draws
// its own eval seed from the run seed, so a run averages over many distinct
// candidate sets instead of repeating one.
struct Batch {
  hv::eval::Suite suite;
  std::unique_ptr<hv::HavenPipeline> haven;  // human_fastpath: model + CoT model
  std::vector<hv::llm::SimLlm> models;
  hv::eval::EvalRequest base;

  std::vector<std::pair<const hv::llm::SimLlm*, hv::eval::EvalRequest>> jobs(
      std::uint64_t round) const {
    std::vector<std::pair<const hv::llm::SimLlm*, hv::eval::EvalRequest>> out;
    for (const hv::llm::SimLlm& m : models) {
      for (double t : kTemps) {
        hv::eval::EvalRequest r = base;
        r.seed = splitmix(base.seed + round);
        r.temperatures = {t};
        out.emplace_back(&m, std::move(r));
      }
    }
    return out;
  }
};

// Set-up is the suite build plus the models (HavenPipeline::build for
// human_fastpath). The worker pool is made once, outside the timed set-up.
std::unique_ptr<Batch> setup_batch(const std::string& workload, std::uint64_t seed,
                                   hv::util::ThreadPool* pool) {
  auto b = std::make_unique<Batch>();
  b->base.n_samples = 10;
  b->base.seed = splitmix(seed);
  b->base.pool = pool;
  if (workload == "rtllm_sim") {
    b->suite = hv::eval::build_rtllm();
    for (const char* card : {"GPT-4", "RTLCoder-DeepSeek", "OriGen-DeepSeek"}) {
      b->models.push_back(hv::llm::make_model(card));
    }
  } else {
    b->suite = hv::eval::build_verilogeval_human();
    b->haven = std::make_unique<hv::HavenPipeline>(hv::HavenPipeline::build(hv::HavenConfig{}));
    b->models.push_back(b->haven->codegen_model());
    for (const char* card : {"GPT-4", "RTLCoder-DeepSeek"}) {
      b->models.push_back(hv::llm::make_model(card));
    }
    b->base.use_sicot = true;
    b->base.set_cot_model(b->haven->cot_model());
    b->base.lint_triage = true;
    b->base.prove = true;
    b->base.repair.max_rounds = 2;
  }
  return b;
}

// Set-up time, sampled between units of the timed work: each repeat builds
// a fresh instance, timed on the CPU clock of the thread that sets up
// (threads it starts run concurrently and are left out) and scaled by the
// reference sample taken just before it, then tears it down untimed.
// Repeats in a tight loop at the start of a run read bimodally across
// processes (about 0.35 or 0.5 ms for rtllm_sim); repeats between jobs start
// from the caches the work left, as a real set-up does, and agree within a
// few percent.
class SetupProbe {
 public:
  explicit SetupProbe(std::function<std::shared_ptr<void>()> make) : make_(std::move(make)) {}

  void sample(double ref_s) {
    const double cpu0 = thread_cpu_s();
    const std::int64_t t0 = e2ebench::now_ns();
    std::shared_ptr<void> made = make_();
    wall_s_.push_back(seconds_since(t0));
    cpu_s_.push_back(thread_cpu_s() - cpu0);
    scaled_s_.push_back(cpu_s_.back() * HostSpeed::kRefNominalS / ref_s);
  }

  void report(Report& r) const {
    r.add(r.e2e, "setup_s", median(scaled_s_), "s", scaled_s_.size());
    r.add(r.extra, "setup_cpu_s", median(cpu_s_), "s", cpu_s_.size());
    r.add(r.extra, "setup_wall_s", median(wall_s_), "s", wall_s_.size());
  }

 private:
  std::function<std::shared_ptr<void>()> make_;
  std::vector<double> cpu_s_, wall_s_, scaled_s_;
};

void check_counters(const hv::eval::EvalCounters& c, const std::string& what, Report& r) {
  if (!hv::eval::counters_consistent(c)) {
    r.error("counters_inconsistency (" + what + "): " + hv::eval::counters_inconsistency(c));
  }
}

std::string job_label(const hv::llm::SimLlm& m, const hv::eval::EvalRequest& req) {
  return hv::util::format("%s@%.1f", m.name().c_str(), req.temperatures.front());
}

std::size_t oracle_width() {
  return std::min<std::size_t>(4, hv::util::ThreadPool::default_worker_count());
}

// Verdict oracle: the same inputs on the interpreter backend must give the
// same per-task (syntax, func) tallies. A repair-on run is also re-run with
// repair off and checked against its own repair-off reference (round-0
// identity across every fast path).
void batch_oracle(const Batch& b, const std::vector<hv::eval::SuiteResult>& round0,
                  Report& r) {
  // Repair rounds distill their hints from lint findings and prove
  // witnesses, so a repair-on reference keeps the run's lint and prove knobs
  // and changes only the backend; the repair-off reference turns every fast
  // path off. The oracle is not timed, so it runs on every core (verdicts do
  // not depend on the pool width).
  hv::util::ThreadPool wide(oracle_width());
  auto reference = [&wide](hv::eval::EvalRequest req) {
    req.pool = &wide;
    req.sim_backend = hv::sim::SimBackend::kInterpreter;
    req.cache = nullptr;
    if (!req.repair.enabled()) {
      req.lint = false;
      req.lint_triage = false;
      req.prove = false;
    }
    return req;
  };
  auto compare = [&](const hv::eval::SuiteResult& got, const hv::eval::SuiteResult& want,
                     const std::string& label) {
    check_counters(want.counters, "oracle " + label, r);
    for (std::size_t i = 0; i < want.per_task.size(); ++i) {
      const auto& a = got.per_task[i];
      const auto& w = want.per_task[i];
      if (a.syntax_pass != w.syntax_pass || a.func_pass != w.func_pass) {
        r.error(hv::util::format("verdict mismatch %s task %s: (syntax %d, func %d) vs oracle "
                                 "(%d, %d)",
                                 label.c_str(), w.task_id.c_str(), a.syntax_pass, a.func_pass,
                                 w.syntax_pass, w.func_pass));
        return;
      }
    }
  };
  const auto jobs = b.jobs(0);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto& [model, req] = jobs[j];
    const std::string label = job_label(*model, req);
    compare(round0[j], hv::eval::EvalEngine(reference(req)).evaluate(*model, b.suite), label);
    if (req.repair.enabled()) {
      hv::eval::EvalRequest off = req;
      off.repair = hv::repair::RepairPolicy{};
      off.pool = &wide;
      const hv::eval::SuiteResult fast = hv::eval::EvalEngine(off).evaluate(*model, b.suite);
      check_counters(fast.counters, label + " repair-off", r);
      compare(fast, hv::eval::EvalEngine(reference(off)).evaluate(*model, b.suite),
              label + " repair-off");
    }
  }
}

void run_batch_e2e(const std::string& workload, std::uint64_t seed, double seconds, int threads,
                   Report& r) {
  hv::util::ThreadPool pool(static_cast<std::size_t>(threads));
  HostSpeed speed;
  SetupProbe setup([&] { return std::shared_ptr<void>(setup_batch(workload, seed, &pool)); });
  std::unique_ptr<Batch> b = setup_batch(workload, seed, &pool);

  // Untimed warm-up round 0; the oracle checks its verdicts.
  std::vector<hv::eval::SuiteResult> first;
  for (const auto& [model, req] : b->jobs(0)) {
    first.push_back(hv::eval::EvalEngine(req).evaluate(*model, b->suite));
    r.attempted += first.back().counters.candidates;
    r.failed += first.back().counters.unit_faults;
    check_counters(first.back().counters, job_label(*model, req), r);
    speed.sample();
  }

  // job_cpu_us[j]: process CPU time per candidate of job j, one per round;
  // job_ref_us[j]: the same scaled by the reference sample taken after it.
  std::vector<double> job_ms, round_rate;
  std::vector<std::vector<double>> job_cpu_us(first.size()), job_ref_us(first.size());
  const std::int64_t start = e2ebench::now_ns();
  std::uint64_t round = 0;
  do {
    const auto jobs = b->jobs(++round);
    double round_wall_s = 0.0;
    std::int64_t round_candidates = 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const auto& [model, req] = jobs[j];
      const double cpu0 = process_cpu_s();
      const std::int64_t t0 = e2ebench::now_ns();
      const hv::eval::SuiteResult res = hv::eval::EvalEngine(req).evaluate(*model, b->suite);
      round_wall_s += seconds_since(t0);
      job_ms.push_back(seconds_since(t0) * 1e3);
      job_cpu_us[j].push_back((process_cpu_s() - cpu0) * 1e6 /
                              static_cast<double>(res.counters.candidates));
      round_candidates += res.counters.candidates;
      r.attempted += res.counters.candidates;
      r.failed += res.counters.unit_faults;
      check_counters(res.counters, job_label(*model, req), r);
      const double ref_s = speed.sample();
      job_ref_us[j].push_back(job_cpu_us[j].back() * HostSpeed::kRefNominalS / ref_s);
      setup.sample(ref_s);
    }
    round_rate.push_back(static_cast<double>(round_candidates) / round_wall_s);
  } while (seconds_since(start) < seconds);

  // Each job's median over the rounds, averaged over the jobs (every job of
  // a round has the same candidate count).
  double cpu_us = 0.0, ref_us = 0.0;
  for (std::size_t j = 0; j < job_cpu_us.size(); ++j) {
    cpu_us += median(job_cpu_us[j]) / static_cast<double>(job_cpu_us.size());
    ref_us += median(job_ref_us[j]) / static_cast<double>(job_cpu_us.size());
  }
  setup.report(r);
  r.add(r.e2e, "cpu_us_per_candidate", ref_us, "us", job_ms.size());
  r.add(r.e2e, "peak_rss_mb", peak_rss_mb(), "MB", 1);
  add_host_speed(speed, r);
  r.add(r.extra, "cpu_us_per_candidate_raw", cpu_us, "us", job_ms.size());
  r.add(r.extra, "candidates_per_s", median(round_rate), "1/s", round_rate.size());
  r.add(r.extra, "job_ms_p50", quantile(job_ms, 0.5), "ms", job_ms.size());
  r.add(r.extra, "job_ms_p90", quantile(job_ms, 0.9), "ms", job_ms.size());
  r.add(r.extra, "job_ms_p99", quantile(job_ms, 0.99), "ms", job_ms.size());
  r.add(r.extra, "fail_frac",
        ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)), "ratio",
        static_cast<std::size_t>(r.attempted));
  r.add(r.extra, "pool_width", static_cast<double>(threads), "threads", 1);
  batch_oracle(*b, first, r);
}

void add_counts(hv::eval::EvalCounters& into, const hv::eval::EvalCounters& c) {
  into.candidates += c.candidates;
  into.unit_faults += c.unit_faults;
  into.compile_failures += c.compile_failures;
  into.sicot_refinements += c.sicot_refinements;
  into.lint_triaged += c.lint_triaged;
  into.proven_equiv += c.proven_equiv;
  into.proven_inequiv += c.proven_inequiv;
  into.prove_fallback += c.prove_fallback;
  into.simulated += c.simulated;
  into.sim_vectors += c.sim_vectors;
  into.repair_rounds += c.repair_rounds;
  into.repaired_pass += c.repaired_pass;
  into.repair_exhausted += c.repair_exhausted;
  into.cache_hits += c.cache_hits;
  into.cache_misses += c.cache_misses;
}

// Per-layer numbers shared by the batch and serve traced runs.
struct LayerInput {
  std::vector<Span> spans;
  hv::eval::EvalCounters counters;  // replay counters (== the engine's)
  double replay_wall_s = 0.0;
  double untraced_wall_s = 0.0;
  e2ebench::Coverage coverage;  // summed over the replayed jobs
  std::int64_t cache_evictions = 0;
  double coalesced_ratio = 0.0;  // serve only

  void add_job(const e2ebench::JobReplay& rep, std::uint32_t lanes) {
    replay_wall_s += rep.wall_s;
    add_counts(counters, rep.counters);
    const e2ebench::Coverage c = e2ebench::coverage(rep.spans, lanes);
    coverage.total_s += c.total_s;
    coverage.uncovered_s += c.uncovered_s;
    e2ebench::append_spans(spans, rep.spans);
  }
};

void report_layers(const LayerInput& in, Report& r) {
  std::map<std::string, std::vector<double>> us;
  double probe_s = 0.0, root_s = 0.0;
  for (const Span& s : in.spans) {
    us[s.name].push_back(s.us());
    if (s.probe) probe_s += s.us() / 1e6;
    if (s.parent < 0 && !s.probe) root_s += s.us() / 1e6;
  }
  // Layers every workload exercises go into the result line; the rest are
  // printed only where they apply.
  for (const char* span : {"llm.generate", "verilog.compile_ok", "verilog.parse",
                           "sim.elaborate", "sim.compile", "sim.diff", "eval.unit"}) {
    add_timing(r, r.layer, span, us[span]);
  }
  for (const char* span : {"cot.refine", "lint.lint", "prove.prove", "repair.distill",
                           "cache.lookup", "cache.insert"}) {
    if (!us[span].empty()) add_timing(r, r.extra, span, us[span]);
  }

  const hv::eval::EvalCounters& c = in.counters;
  const double passes = static_cast<double>(c.candidates + c.repair_rounds);
  const double compiled = passes - static_cast<double>(c.unit_faults + c.compile_failures +
                                                       c.cache_hits);
  const double prove_attempts =
      static_cast<double>(c.proven_equiv + c.proven_inequiv + c.prove_fallback);
  double diff_s = 0.0;
  for (double d : us["sim.diff"]) diff_s += d / 1e6;
  const auto n_c = static_cast<std::size_t>(c.candidates);
  r.add(r.layer, "cot.transformed_ratio",
        ratio(static_cast<double>(c.sicot_refinements), static_cast<double>(c.candidates)),
        "ratio", n_c);
  r.add(r.layer, "lint.triaged_ratio", ratio(static_cast<double>(c.lint_triaged), compiled),
        "ratio", static_cast<std::size_t>(compiled));
  r.add(r.layer, "prove.decided_ratio",
        ratio(static_cast<double>(c.proven_equiv + c.proven_inequiv), prove_attempts), "ratio",
        static_cast<std::size_t>(prove_attempts));
  r.add(r.layer, "prove.fallback", static_cast<double>(c.prove_fallback), "count", 1);
  r.add(r.layer, "sim.vectors", static_cast<double>(c.sim_vectors), "count", 1);
  r.add(r.layer, "sim.ns_per_vector", ratio(diff_s * 1e9, static_cast<double>(c.sim_vectors)),
        "ns", us["sim.diff"].size());
  r.add(r.layer, "sim.cost_tail_ratio",
        ratio(quantile(us["sim.diff"], 0.99), quantile(us["sim.diff"], 0.5)), "ratio",
        us["sim.diff"].size());
  r.add(r.layer, "repair.rounds", static_cast<double>(c.repair_rounds), "count", 1);
  r.add(r.layer, "repair.rescued_ratio",
        ratio(static_cast<double>(c.repaired_pass), static_cast<double>(c.repair_rounds)),
        "ratio", static_cast<std::size_t>(c.repair_rounds));
  const std::int64_t lookups = c.cache_hits + c.cache_misses;
  r.add(r.layer, "cache.hit_ratio",
        ratio(static_cast<double>(c.cache_hits), static_cast<double>(lookups)), "ratio",
        static_cast<std::size_t>(lookups));
  r.add(r.layer, "cache.evictions", static_cast<double>(in.cache_evictions), "count", 1);
  r.add(r.layer, "serve.coalesced_ratio", in.coalesced_ratio, "ratio", 1);
  r.add(r.layer, "trace.overhead_ratio", ratio(in.replay_wall_s, in.untraced_wall_s), "ratio",
        1);
  r.add(r.layer, "trace.uncovered_share", ratio(in.coverage.uncovered_s, in.coverage.total_s),
        "ratio", 1);
  r.add(r.extra, "trace.probe_share", ratio(probe_s, root_s), "ratio", 1);
  r.add(r.extra, "trace.spans", static_cast<double>(in.spans.size()), "count", 1);

  // Replay stage shares, printed beside the engine's own stage sums.
  const std::vector<std::pair<const char*, std::vector<const char*>>> stages = {
      {"generate", {"cot.refine", "llm.generate"}},
      {"compile", {"verilog.compile_ok"}},
      {"lint", {"eval.parse", "lint.lint", "lint.attribute"}},
      {"prove", {"prove.prove"}},
      {"sim", {"sim.diff"}}};
  double total = 0.0;
  std::vector<double> stage_s;
  for (const auto& [stage, spans] : stages) {
    double s = 0.0;
    for (const char* span : spans) {
      for (double d : us[span]) s += d / 1e6;
    }
    stage_s.push_back(s);
    total += s;
  }
  for (std::size_t i = 0; i < stages.size(); ++i) {
    r.add(r.extra, std::string("replay.stage_share.") + stages[i].first,
          ratio(stage_s[i], total), "ratio", 1);
  }
  for (const e2ebench::LayerSelf& l : e2ebench::self_times(in.spans)) {
    r.add(r.extra, "self_s." + l.name, l.self_s, "s", static_cast<std::size_t>(l.calls));
  }
}

// Engine stage sums over a set of results, with the engine's own shares.
void report_engine_stages(const std::vector<hv::eval::SuiteResult>& results, Report& r) {
  double gen = 0, comp = 0, lint = 0, prove = 0, sim = 0, cpu = 0, busy = 0;
  for (const auto& res : results) {
    const auto& c = res.counters;
    gen += c.generate_seconds;
    comp += c.compile_seconds;
    lint += c.lint_seconds;
    prove += c.prove_seconds;
    sim += c.sim_seconds;
    cpu += c.cpu_seconds;
    busy += c.wall_seconds * c.threads_used;
  }
  const double total = gen + comp + lint + prove + sim;
  r.add(r.layer, "eval.cpu_util", ratio(cpu, busy), "ratio", results.size());
  r.add(r.layer, "eval.stage_s.generate", gen, "s", results.size());
  r.add(r.layer, "eval.stage_s.compile", comp, "s", results.size());
  r.add(r.layer, "eval.stage_s.sim", sim, "s", results.size());
  r.add(r.extra, "eval.stage_s.lint", lint, "s", results.size());
  r.add(r.extra, "eval.stage_s.prove", prove, "s", results.size());
  const std::pair<const char*, double> shares[] = {
      {"generate", gen}, {"compile", comp}, {"lint", lint}, {"prove", prove}, {"sim", sim}};
  for (const auto& [stage, s] : shares) {
    r.add(r.extra, std::string("eval.stage_share.") + stage, ratio(s, total), "ratio", 1);
  }
}

// One round, untraced through the engine and then traced through the
// replay, job by job.
void run_batch_traced(const std::string& workload, std::uint64_t seed, int threads,
                      const std::string& trace_out, Report& r) {
  hv::util::ThreadPool pool(static_cast<std::size_t>(threads));
  std::unique_ptr<Batch> b = setup_batch(workload, seed, &pool);
  LayerInput in;
  std::vector<hv::eval::SuiteResult> untraced;
  std::uint64_t unit_base = 0;
  for (const auto& [model, req] : b->jobs(0)) {
    const std::int64_t t0 = e2ebench::now_ns();
    hv::eval::SuiteResult res = hv::eval::EvalEngine(req).evaluate(*model, b->suite);
    in.untraced_wall_s += seconds_since(t0);
    r.attempted += res.counters.candidates;
    r.failed += res.counters.unit_faults;
    check_counters(res.counters, job_label(*model, req), r);

    const std::vector<e2ebench::TaskContext> ctx = e2ebench::prepare_tasks(b->suite, req);
    const e2ebench::JobReplay rep =
        e2ebench::replay_job(*model, b->suite, req, ctx, pool, unit_base, true);
    unit_base += static_cast<std::uint64_t>(res.counters.candidates);
    if (const std::string m = e2ebench::replay_mismatch(rep, res); !m.empty()) {
      r.error("replay of " + job_label(*model, req) + " diverges from the engine: " + m);
    }
    in.add_job(rep, static_cast<std::uint32_t>(threads));
    untraced.push_back(std::move(res));
  }
  report_layers(in, r);
  report_engine_stages(untraced, r);
  if (!trace_out.empty() && !e2ebench::write_trace(trace_out, in.spans)) {
    r.error("cannot write trace " + trace_out);
  }
  batch_oracle(*b, untraced, r);
}

// -------------------------------------------------------------- serve_mixed

// Open-loop arrival rate, jobs/s: a fifth of the closed-loop capacity of a
// 1-worker server on this mix (about 500 jobs/s), so the queue stays bounded
// even when a shared host halves the machine's speed.
constexpr double kServeRate = 100.0;
constexpr std::size_t kServeMinJobs = 1000;
constexpr int kTenants = 4;
// Shares of repeated jobs, calibrated so the served mix comes near the
// shares measured on a serve probe of mixed traffic: 46% of unit lookups hit
// the result cache (38.3k of 83.2k) and 1.3% of jobs are coalesced.
constexpr double kRevisitShare = 0.6;
constexpr double kResendShare = 0.013;
constexpr std::size_t kRecentJobs = 32;
constexpr std::size_t kResendWindow = 8;  // well inside ServerConfig::memo_capacity
constexpr std::size_t kOracleJobs = 16;
constexpr double kClosedWindowSeconds = 0.5;
constexpr double kOpenWindowSeconds = 2.0;
constexpr double kMaxGenLagMs = 20.0;  // two mean inter-arrival gaps
// Open-loop reference samples run on the generator thread at most every
// kServeRefEvery seconds, and only when the next job is due more than
// kServeRefGap seconds later, so they do not delay a submission.
constexpr double kServeRefEvery = 0.05;
constexpr double kServeRefGap = 3 * HostSpeed::kRefNominalS;

struct ServeSetup {
  hv::eval::Suite rtllm;
  hv::eval::Suite human;
  std::unique_ptr<hv::serve::Server> server;
};

std::unique_ptr<ServeSetup> setup_serve(int threads) {
  auto s = std::make_unique<ServeSetup>();
  s->rtllm = hv::eval::build_rtllm();
  s->human = hv::eval::build_verilogeval_human();
  hv::serve::ServerConfig config;
  config.threads = threads;
  s->server = std::make_unique<hv::serve::Server>(config);
  return s;
}

// One drawn job: a zoo card, a contiguous task window of one suite, n, a
// temperature and an eval seed.
struct JobSpec {
  int tenant = 0;
  std::size_t card = 0;
  bool human = false;
  std::size_t first = 0;
  std::size_t count = 0;
  int n = 2;
  double temperature = 0.2;
  std::uint64_t seed = 0;
};

// A fresh job draws every field uniformly and a fresh eval seed. The rest
// repeat a recent job, from any tenant:
//  * a revisit asks for one of the last kRecentJobs fresh jobs again with an
//    n that job's key has not been asked with yet, so the samples already
//    computed are result-cache hits and no two revisits are the same job;
//  * a resend repeats one of the last kResendWindow jobs byte for byte, so
//    the server coalesces it onto the running or memoized computation.
// The job shapes follow one fixed sequence, as the batch workloads fix their
// suite and cards; --seed draws the eval seeds, and with them every
// candidate, and the arrival times.
class JobSource {
 public:
  explicit JobSource(std::uint64_t seed) : rng_(0x5e57e), seeds_(splitmix(seed ^ 0x5e57e)) {}
  JobSpec next(const ServeSetup& s) {
    JobSpec j;
    const double u = rng_.uniform01();
    if (u < kResendShare && !last_.empty()) {
      j = last_[pick(last_.size())];
    } else if (u >= kResendShare + kRevisitShare || !revisit(j)) {
      j.card = pick(hv::llm::model_zoo().size());
      j.human = rng_.chance(0.5);
      const std::size_t size = (j.human ? s.human : s.rtllm).tasks.size();
      j.count = static_cast<std::size_t>(rng_.uniform_int(2, 6));
      j.first = pick(size - j.count + 1);
      j.n = static_cast<int>(rng_.uniform_int(2, 5));
      j.temperature = kTemps[pick(kTemps.size())];
      j.seed = seeds_.next();
      fresh_.push_back({j, 1u << j.n});
      if (fresh_.size() > kRecentJobs) fresh_.pop_front();
    }
    j.tenant = static_cast<int>(pick(kTenants));
    last_.push_back(j);
    if (last_.size() > kResendWindow) last_.pop_front();
    return j;
  }

 private:
  struct Fresh {
    JobSpec spec;
    unsigned asked_n = 0;  // bit n set once the key was asked with that n
  };

  std::size_t pick(std::size_t size) {
    return static_cast<std::size_t>(rng_.uniform_int(0, static_cast<std::int64_t>(size) - 1));
  }
  bool revisit(JobSpec& j) {
    if (fresh_.empty()) return false;
    Fresh& f = fresh_[pick(fresh_.size())];
    std::vector<int> unasked;
    for (int n = 2; n <= 5; ++n) {
      if ((f.asked_n & (1u << n)) == 0) unasked.push_back(n);
    }
    if (unasked.empty()) return false;
    j = f.spec;
    j.n = unasked[pick(unasked.size())];
    f.asked_n |= 1u << j.n;
    return true;
  }

  hv::util::Rng rng_;    // job shapes
  hv::util::Rng seeds_;  // eval seeds
  std::deque<Fresh> fresh_;
  std::deque<JobSpec> last_;
};

hv::serve::EvalJob make_job(const JobSpec& spec, const ServeSetup& s) {
  hv::serve::EvalJob job;
  job.tenant = hv::util::format("tenant-%d", spec.tenant);
  job.model = hv::llm::make_model(hv::llm::model_zoo()[spec.card].name);
  const hv::eval::Suite& from = spec.human ? s.human : s.rtllm;
  job.suite.name = from.name;
  const auto first = from.tasks.begin() + static_cast<std::ptrdiff_t>(spec.first);
  job.suite.tasks.assign(first, first + static_cast<std::ptrdiff_t>(spec.count));
  job.request.n_samples = spec.n;
  job.request.temperatures = {spec.temperature};
  job.request.seed = spec.seed;
  return job;
}

// Timeline of one served job, seconds on the trace clock. Progress fields
// are written by the server's dispatcher thread and read after the job's
// ticket reached a terminal status.
struct JobRecord {
  JobSpec spec;
  double due = 0, submit_start = 0, submit_end = 0;
  double first_progress = -1, last_progress = -1, done = -1;
  std::size_t units = 0;
  hv::serve::JobStatus status = hv::serve::JobStatus::kQueued;
  bool coalesced = false;
  bool sampled = false;  // re-run solo by the oracle
  hv::cache::Digest verdict;
  std::unique_ptr<hv::eval::SuiteResult> result;  // kept for the traced replay
};

double now_s() { return static_cast<double>(e2ebench::now_ns()) / 1e9; }

// Record a ticket's terminal state (blocks until it has one). A job is done
// when its last unit completes (the progress callback, on the dispatcher
// thread), or when submit returns if it had no unit left to run: a memo
// replay, a rejection, or an attach after the shared run's last unit.
void settle(const hv::serve::JobTicket& ticket, JobRecord& rec, Report& r, bool keep) {
  rec.status = ticket.wait();
  rec.done = rec.last_progress >= 0 ? rec.last_progress : rec.submit_end;
  if (rec.status != hv::serve::JobStatus::kDone) return;
  const hv::eval::SuiteResult& res = ticket.result();
  if (!hv::eval::counters_consistent(res.counters)) {
    r.error("counters_inconsistency (served job): " +
            hv::eval::counters_inconsistency(res.counters));
  }
  if (rec.sampled) rec.verdict = hv::serve::verdict_digest(res);
  if (keep && !rec.coalesced) rec.result = std::make_unique<hv::eval::SuiteResult>(res);
}

hv::serve::JobTicket submit(hv::serve::Server& server, const ServeSetup& s, JobRecord& rec) {
  hv::serve::EvalJob job = make_job(rec.spec, s);
  rec.units = hv::serve::job_units(job);
  JobRecord* target = &rec;
  job.request.on_progress = [target](const hv::eval::EvalProgress& p) {
    const double t = now_s();
    if (target->first_progress < 0) target->first_progress = t;
    if (p.completed == p.total) target->last_progress = t;
  };
  rec.submit_start = now_s();
  hv::serve::JobTicket ticket = server.submit(std::move(job));
  rec.submit_end = now_s();
  rec.coalesced = ticket.coalesced();
  return ticket;
}

struct ServeRun {
  std::deque<JobRecord> open;    // open-loop jobs, submission order
  std::deque<JobRecord> closed;  // closed-loop jobs
  double closed_wall_s = 0.0;
  std::vector<double> closed_units_per_s;  // one per closed-loop window
  // Server CPU time over the open loop (the process's, less the job
  // generator's) and the units of the open-loop jobs that completed.
  double open_server_cpu_s = 0.0;
  double open_units = 0.0;
  // Peak RSS at the end of the open loop, whose job count is fixed; the
  // closed loop then grows the cache with however many jobs it gets to.
  double open_peak_rss_mb = 0.0;
};

// Reference samples, when `speed` is given, are taken on the generator thread
// in the open loop's gaps; `idle`, when given, runs after each closed-loop
// window, while no job is in flight.
ServeRun run_serve_phases(ServeSetup& s, std::uint64_t seed, double seconds, bool keep_results,
                          HostSpeed* speed, const std::function<void()>& idle, Report& r) {
  ServeRun run;
  JobSource source(seed);
  hv::util::Rng arrivals(splitmix(seed ^ 0xa441));
  hv::util::Rng sampler(splitmix(seed ^ 0x0ac1e));
  const double open_s = 0.6 * seconds;
  const std::size_t n_open =
      std::max(kServeMinJobs, static_cast<std::size_t>(std::llround(kServeRate * open_s)));
  std::set<std::size_t> sampled;
  while (sampled.size() < std::min(kOracleJobs, n_open)) {
    sampled.insert(static_cast<std::size_t>(
        sampler.uniform_int(0, static_cast<std::int64_t>(n_open) - 1)));
  }

  // Open loop: Poisson arrivals at a fixed absolute rate, each job timed
  // from its due time. Tickets are settled once every job is sent.
  std::vector<hv::serve::JobTicket> tickets;
  tickets.reserve(n_open);
  const double process_cpu0 = process_cpu_s(), generator_cpu0 = thread_cpu_s();
  double due = now_s() + 0.01, last_ref = 0.0;
  for (std::size_t i = 0; i < n_open; ++i) {
    due += -std::log(1.0 - arrivals.uniform01()) / kServeRate;
    JobRecord& rec = run.open.emplace_back();
    rec.spec = source.next(s);
    rec.due = due;
    rec.sampled = sampled.count(i) != 0;
    if (speed != nullptr && due - now_s() > kServeRefGap && now_s() - last_ref > kServeRefEvery) {
      speed->sample();  // on the generator thread, whose CPU time is left out below
      last_ref = now_s();
    }
    const double wait = due - now_s();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    tickets.push_back(submit(*s.server, s, rec));
  }
  for (std::size_t i = 0; i < n_open; ++i) settle(tickets[i], run.open[i], r, keep_results);
  run.open_server_cpu_s =
      (process_cpu_s() - process_cpu0) - (thread_cpu_s() - generator_cpu0);
  for (const JobRecord& rec : run.open) {
    if (rec.status == hv::serve::JobStatus::kDone) run.open_units += static_cast<double>(rec.units);
  }
  run.open_peak_rss_mb = peak_rss_mb();

  // Closed loop: one job in flight, the next sent when the previous ends.
  // Throughput is taken per window and the median window reported.
  const double closed_start = now_s();
  const double closed_s = std::max(kClosedWindowSeconds, seconds - open_s);
  double window_start = closed_start, window_units = 0;
  while (now_s() - closed_start < closed_s) {
    JobRecord& rec = run.closed.emplace_back();
    rec.spec = source.next(s);
    rec.due = now_s();
    settle(submit(*s.server, s, rec), rec, r, false);
    if (rec.status == hv::serve::JobStatus::kDone) {
      window_units += static_cast<double>(rec.units);
    }
    if (now_s() - window_start >= kClosedWindowSeconds) {
      run.closed_units_per_s.push_back(window_units / (now_s() - window_start));
      if (idle) idle();
      window_start = now_s();
      window_units = 0;
    }
  }
  run.closed_wall_s = now_s() - closed_start;
  s.server->drain();
  const hv::serve::ServeCounters c = s.server->stats();
  if (!hv::serve::serve_counters_consistent(c)) {
    r.error(hv::util::format(
        "serve_counters_inconsistency: submitted %lld, admitted %lld, coalesced %lld, "
        "rejected %lld, expired %lld, completed %lld, failed %lld",
        static_cast<long long>(c.submitted), static_cast<long long>(c.admitted),
        static_cast<long long>(c.coalesced), static_cast<long long>(c.rejected),
        static_cast<long long>(c.expired), static_cast<long long>(c.completed),
        static_cast<long long>(c.failed)));
  }
  if (c.expired + c.completed + c.failed != c.admitted) {
    r.error("served jobs left without a terminal status after drain");
  }
  // A generator that fell behind its schedule sent a different load than
  // the rate says; such a run is flagged invalid (host trouble, not a wrong
  // verdict, so it does not fail the run) and run.py --all leaves it out of
  // its medians.
  std::vector<double> lag_ms;
  for (const JobRecord& rec : run.open) lag_ms.push_back((rec.submit_start - rec.due) * 1e3);
  const double lag_p99 = quantile(lag_ms, 0.99);
  r.add(r.extra, "serve.gen_lag_ms_p99", lag_p99, "ms", lag_ms.size());
  if (lag_p99 > kMaxGenLagMs) {
    std::printf("INVALID RUN: the job generator ran %.1f ms late at p99 (limit %.0f ms)\n",
                lag_p99, kMaxGenLagMs);
  }
  r.attempted = c.submitted;
  r.failed = c.rejected + c.expired + c.failed;
  r.add(r.extra, "fail_frac",
        ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)), "ratio",
        static_cast<std::size_t>(r.attempted));
  r.add(r.extra, "pool_width", static_cast<double>(s.server->pool_width()), "threads", 1);
  return run;
}

// Sampled jobs re-run solo through a fresh EvalEngine must reproduce the
// served verdicts.
void serve_oracle(const ServeSetup& s, const ServeRun& run, Report& r) {
  for (const JobRecord& rec : run.open) {
    if (!rec.sampled || rec.status != hv::serve::JobStatus::kDone) continue;
    hv::serve::EvalJob job = make_job(rec.spec, s);
    job.request.threads = static_cast<int>(oracle_width());
    const hv::eval::SuiteResult solo =
        hv::eval::EvalEngine(job.request).evaluate(job.model, job.suite);
    check_counters(solo.counters, "serve oracle", r);
    if (hv::serve::verdict_digest(solo) != rec.verdict) {
      r.error("served verdict differs from a solo EvalEngine run for " + job.tenant + " " +
              job.model.name());
    }
  }
}

void run_serve_e2e(std::uint64_t seed, double seconds, int threads, Report& r) {
  HostSpeed speed;
  SetupProbe setup([&] { return std::shared_ptr<void>(setup_serve(threads)); });
  std::unique_ptr<ServeSetup> s = setup_serve(threads);
  const ServeRun run =
      run_serve_phases(*s, seed, seconds, false, &speed, [&] { setup.sample(speed.sample()); }, r);

  // Latency percentiles are taken per window of due times and the median
  // window reported, so one stretch of host noise moves one window, not the
  // run's figure. A last partial window joins the one before it.
  std::vector<double> latency_ms;
  std::vector<std::vector<double>> windows(1);
  if (!run.open.empty()) {
    const double span = run.open.back().due - run.open.front().due;
    windows.resize(
        std::max<std::size_t>(1, static_cast<std::size_t>(span / kOpenWindowSeconds)));
  }
  for (const JobRecord& rec : run.open) {
    if (rec.status != hv::serve::JobStatus::kDone) continue;
    latency_ms.push_back((rec.done - rec.due) * 1e3);
    const auto w =
        static_cast<std::size_t>((rec.due - run.open.front().due) / kOpenWindowSeconds);
    windows[std::min(w, windows.size() - 1)].push_back(latency_ms.back());
  }
  std::vector<double> p50_ms, p90_ms;
  for (const std::vector<double>& w : windows) {
    p50_ms.push_back(quantile(w, 0.5));
    p90_ms.push_back(quantile(w, 0.9));
  }
  std::size_t closed_done = 0;
  for (const JobRecord& rec : run.closed) {
    closed_done += rec.status == hv::serve::JobStatus::kDone;
  }
  const double cpu_us = ratio(run.open_server_cpu_s * 1e6, run.open_units);
  const auto open_units = static_cast<std::size_t>(run.open_units);
  setup.report(r);
  r.add(r.e2e, "cpu_us_per_candidate", cpu_us * speed.scale(), "us", open_units);
  r.add(r.e2e, "peak_rss_mb", run.open_peak_rss_mb, "MB", 1);
  add_host_speed(speed, r);
  r.add(r.extra, "cpu_us_per_candidate_raw", cpu_us, "us", open_units);
  r.add(r.extra, "candidates_per_s", median(run.closed_units_per_s), "1/s",
        run.closed_units_per_s.size());
  r.add(r.extra, "job_ms_p50", median(p50_ms), "ms", latency_ms.size());
  r.add(r.extra, "job_ms_p90", median(p90_ms), "ms", latency_ms.size());
  r.add(r.extra, "job_ms_p99", quantile(latency_ms, 0.99), "ms", latency_ms.size());
  r.add(r.extra, "latency_windows", static_cast<double>(windows.size()), "count",
        windows.size());
  r.add(r.extra, "serve_jobs_per_s", static_cast<double>(closed_done) / run.closed_wall_s,
        "1/s", closed_done);
  r.add(r.extra, "serve.rate", kServeRate, "1/s", run.open.size());
  serve_oracle(*s, run, r);
}

void run_serve_traced(std::uint64_t seed, double seconds, int threads,
                      const std::string& trace_out, Report& r) {
  std::unique_ptr<ServeSetup> s = setup_serve(threads);
  ServeRun run = run_serve_phases(*s, seed, seconds, true, nullptr, {}, r);

  // Serve-level spans come from the job timelines: submit call, queue wait
  // (submit to first progress event), compute (first progress to done).
  // Their unit is the open-loop job index; they get lanes of their own.
  constexpr std::uint32_t kGeneratorLane = 1000, kServerLane = 1001;
  std::vector<Span> spans;
  std::vector<double> submit_us, queue_ms, compute_ms;
  double compute_s = 0.0;
  std::uint64_t job_id = 0;
  auto ns = [](double t) { return static_cast<std::int64_t>(t * 1e9); };
  for (const JobRecord& rec : run.open) {
    ++job_id;
    submit_us.push_back((rec.submit_end - rec.submit_start) * 1e6);
    spans.push_back({"serve.submit", ns(rec.submit_start), ns(rec.submit_end), -1, job_id,
                     kGeneratorLane, false});
    if (rec.first_progress < 0 || rec.coalesced) continue;
    queue_ms.push_back((rec.first_progress - rec.submit_end) * 1e3);
    compute_ms.push_back((rec.done - rec.first_progress) * 1e3);
    compute_s += rec.done - rec.first_progress;
    spans.push_back({"serve.queue", ns(rec.submit_end), ns(rec.first_progress), -1, job_id,
                     kServerLane, false});
    spans.push_back({"serve.compute", ns(rec.first_progress), ns(rec.done), -1, job_id,
                     kServerLane, false});
  }
  r.add(r.extra, "serve.submit_us_p50", quantile(submit_us, 0.5), "us", submit_us.size());
  r.add(r.extra, "serve.submit_us_p99", quantile(submit_us, 0.99), "us", submit_us.size());
  r.add(r.extra, "serve.queue_ms_p50", quantile(queue_ms, 0.5), "ms", queue_ms.size());
  r.add(r.extra, "serve.queue_ms_p99", quantile(queue_ms, 0.99), "ms", queue_ms.size());
  r.add(r.extra, "serve.compute_ms_p50", quantile(compute_ms, 0.5), "ms", compute_ms.size());
  r.add(r.extra, "serve.compute_ms_p99", quantile(compute_ms, 0.99), "ms", compute_ms.size());

  // Cache-layer replay: the open-loop computations, in dispatch order, on a
  // fresh cache configured like the server's, must hit and miss exactly as
  // the server's engine did.
  hv::cache::ResultCache replay_cache;
  hv::util::ThreadPool pool(s->server->pool_width());
  LayerInput in;
  in.untraced_wall_s = compute_s;
  std::uint64_t unit_base = 0;
  for (const JobRecord& rec : run.open) {
    if (!rec.result) continue;
    hv::serve::EvalJob job = make_job(rec.spec, *s);
    job.request.cache = &replay_cache;
    const auto ctx = e2ebench::prepare_tasks(job.suite, job.request);
    e2ebench::JobReplay rep =
        e2ebench::replay_job(job.model, job.suite, job.request, ctx, pool, unit_base, true);
    unit_base += rec.units;
    if (const std::string m = e2ebench::replay_mismatch(rep, *rec.result); !m.empty()) {
      r.error("cache replay diverges from the served job: " + m);
    }
    in.add_job(rep, static_cast<std::uint32_t>(pool.worker_count()));
  }
  const hv::serve::ServeCounters sc = s->server->stats();
  in.coalesced_ratio =
      ratio(static_cast<double>(sc.coalesced), static_cast<double>(sc.submitted));
  in.cache_evictions = s->server->cache()->stats().evictions;
  report_layers(in, r);

  std::vector<hv::eval::SuiteResult> results;
  for (const JobRecord& rec : run.open) {
    if (rec.result) results.push_back(*rec.result);
  }
  report_engine_stages(results, r);
  for (const Span& sp : spans) in.spans.push_back(sp);
  if (!trace_out.empty() && !e2ebench::write_trace(trace_out, in.spans)) {
    r.error("cannot write trace " + trace_out);
  }
  serve_oracle(*s, run, r);
}

// --------------------------------------------------------------------- main

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload rtllm_sim|human_fastpath|serve_mixed --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") seconds = std::atof(value.c_str());
    else if (flag == "--trace") traced = value == "1";
    else if (flag == "--trace-out") trace_out = value;
    else return usage();
  }
  if (argc % 2 == 0 || seconds <= 0) return usage();

  Report r;
  const bool serve = workload == "serve_mixed";
  if (!serve && workload != "rtllm_sim" && workload != "human_fastpath") return usage();
  // One worker in the measured runs: on a shared host each further thread
  // adds the scheduler and the neighbours' load to what is measured. The
  // untimed oracles use up to 4 (oracle_width).
  constexpr int width = 1;
  std::printf("e2ebench %s seed=%llu seconds=%g trace=%d pool_width=%d\n", workload.c_str(),
              static_cast<unsigned long long>(seed), seconds, traced ? 1 : 0, width);
  if (serve) {
    traced ? run_serve_traced(seed, seconds, width, trace_out, r)
           : run_serve_e2e(seed, seconds, width, r);
  } else {
    traced ? run_batch_traced(workload, seed, width, trace_out, r)
           : run_batch_e2e(workload, seed, seconds, width, r);
  }

  const std::vector<Metric>& result_metrics = traced ? r.layer : r.e2e;
  print_metrics(traced ? "per-layer metrics:" : "end-to-end metrics:", result_metrics);
  print_metrics("further metrics:", r.extra);
  const bool correct = r.errors.empty();
  std::printf("verdict oracle and accounting: %s\n", correct ? "ok" : "MISMATCH");
  std::string json = hv::util::format(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
      correct ? "true" : "false", static_cast<long long>(r.attempted),
      static_cast<long long>(r.failed));
  for (std::size_t i = 0; i < result_metrics.size(); ++i) {
    const Metric& m = result_metrics[i];
    json += hv::util::format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                             i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
