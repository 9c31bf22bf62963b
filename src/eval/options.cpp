#include "eval/options.h"

#include <algorithm>
#include <climits>
#include <cstring>
#include <iostream>

#include "util/strings.h"

namespace haven::eval {
namespace {

// One entry per flag: the spec both drives parse() and renders the help
// text, so a flag and its documentation cannot drift apart. `value` is the
// placeholder shown in help (null = boolean flag). `apply` mutates the
// options; it reports malformed values by filling *error and returning
// false (parse() turns that into a usage error, exit 2).
struct FlagSpec {
  const char* name;   // including the leading "--"
  const char* value;  // e.g. "N"; nullptr for boolean flags
  const char* help;   // one-line description for --help
  bool (*apply)(RequestOptions& o, const char* v, std::string* error);
};

// Strict value parsers: the whole value must be one number in range, else
// *error names the flag and what it wants (malformed values exit 2).
bool bad_value(const char* flag, const char* want, const char* v, std::string* error) {
  *error = std::string(flag) + " wants " + want + ", got '" + v + "'";
  return false;
}

bool int_value(const char* flag, const char* v, long long min, int* out, std::string* error) {
  long long i = 0;
  if (!util::parse_i64(v, &i) || i < min || i > INT_MAX) {
    return bad_value(flag, min == 0 ? "an integer >= 0" : min == 1 ? "an integer >= 1" : "an integer",
                     v, error);
  }
  *out = static_cast<int>(i);
  return true;
}

bool u64_value(const char* flag, const char* v, std::uint64_t* out, std::string* error) {
  return util::parse_u64(v, out) || bad_value(flag, "an unsigned integer", v, error);
}

bool f64_value(const char* flag, const char* v, double* out, std::string* error) {
  return util::parse_f64(v, out) || bad_value(flag, "a number", v, error);
}

const FlagSpec kFlags[] = {
    {"--fast", nullptr, "CI-friendly protocol: n=5, single temperature 0.2",
     [](RequestOptions& o, const char*, std::string*) {
       o.fast = true;
       o.n_samples = 5;  // pass@5 needs k <= n
       o.temperatures = {0.2};
       return true;
     }},
    {"--n", "N", "samples per task (pass@k needs k <= n)",
     [](RequestOptions& o, const char* v, std::string* error) {
       return int_value("--n", v, 1, &o.n_samples, error);
     }},
    {"--temps", "a,b,c", "sampling temperatures to sweep",
     [](RequestOptions& o, const char* v, std::string* error) {
       o.temperatures.clear();
       for (const std::string& field : util::split(v, ',')) {
         const std::string_view trimmed = util::trim(field);
         if (trimmed.empty()) continue;
         double t = 0.0;
         if (!util::parse_f64(trimmed, &t)) return bad_value("--temps", "e.g. 0.2,0.5,0.8", v, error);
         o.temperatures.push_back(t);
       }
       if (o.temperatures.empty()) return bad_value("--temps", "e.g. 0.2,0.5,0.8", v, error);
       return true;
     }},
    {"--seed", "N", "base evaluation seed",
     [](RequestOptions& o, const char* v, std::string* error) {
       return u64_value("--seed", v, &o.seed, error);
     }},
    {"--sicot", nullptr, "refine prompts through the SI-CoT pipeline",
     [](RequestOptions& o, const char*, std::string*) {
       o.use_sicot = true;
       return true;
     }},
    {"--progress", nullptr, "coarse progress lines on stderr",
     [](RequestOptions& o, const char*, std::string*) {
       o.progress = true;
       return true;
     }},
    {"--threads", "N", "worker threads (0 = one per hardware thread)",
     [](RequestOptions& o, const char* v, std::string* error) {
       return int_value("--threads", v, INT_MIN, &o.threads, error);
     }},
    {"--serial", nullptr, "single-threaded evaluation (= --threads=1)",
     [](RequestOptions& o, const char*, std::string*) {
       o.threads = 1;
       return true;
     }},
    {"--deadline-ms", "N", "per-attempt wall-clock deadline (0 = none)",
     [](RequestOptions& o, const char* v, std::string* error) {
       return int_value("--deadline-ms", v, INT_MIN, &o.deadline_ms, error);
     }},
    {"--retries", "N", "transient-fault retries per work unit",
     [](RequestOptions& o, const char* v, std::string* error) {
       return int_value("--retries", v, INT_MIN, &o.retries, error);
     }},
    {"--fail-fast", nullptr, "abort the run on the first faulted unit",
     [](RequestOptions& o, const char*, std::string*) {
       o.fail_fast = true;
       return true;
     }},
    {"--sim-budget", "N", "simulation step budget per candidate (0 = unbounded)",
     [](RequestOptions& o, const char* v, std::string* error) {
       return u64_value("--sim-budget", v, &o.sim_step_budget, error);
     }},
    {"--sim-backend", "interp|compiled", "simulator backend (verdict-identical)",
     [](RequestOptions& o, const char* v, std::string* error) {
       if (auto backend = sim::parse_backend(v)) {
         o.sim_backend = *backend;
         return true;
       }
       *error = std::string("unknown --sim-backend '") + v + "' (want " +
                std::string(sim::kBackendValues) + ")";
       return false;
     }},
    {"--inject", "P", "chaos-mode fault probability per site",
     [](RequestOptions& o, const char* v, std::string* error) {
       return f64_value("--inject", v, &o.inject, error);
     }},
    {"--inject-seed", "N", "chaos-mode injection seed",
     [](RequestOptions& o, const char* v, std::string* error) {
       return u64_value("--inject-seed", v, &o.inject_seed, error);
     }},
    {"--lint", nullptr, "lint candidates against the golden reference profile",
     [](RequestOptions& o, const char*, std::string*) {
       o.lint = true;
       return true;
     }},
    {"--lint-triage", nullptr, "skip simulation when lint proves failure",
     [](RequestOptions& o, const char*, std::string*) {
       o.lint_triage = true;
       return true;
     }},
    {"--lint-json", nullptr, "emit per-candidate findings as JSON (implies --lint)",
     [](RequestOptions& o, const char*, std::string*) {
       o.lint = true;
       o.lint_json = true;
       return true;
     }},
    {"--prove", nullptr, "formal equivalence fast-path before simulation",
     [](RequestOptions& o, const char*, std::string*) {
       o.prove = true;
       return true;
     }},
    {"--no-prove", nullptr, "force proving off",
     [](RequestOptions& o, const char*, std::string*) {
       o.no_prove = true;
       return true;
     }},
    {"--prove-budget", "N", "BDD node budget per proof (0 = unbounded)",
     [](RequestOptions& o, const char* v, std::string* error) {
       return u64_value("--prove-budget", v, &o.prove_budget, error);
     }},
    {"--repair-rounds", "N", "self-repair rounds per failed candidate (0 = off)",
     [](RequestOptions& o, const char* v, std::string* error) {
       return int_value("--repair-rounds", v, 0, &o.repair_rounds, error);
     }},
    {"--repair-budget", "N", "total generations per candidate incl. round 0 (0 = rounds only)",
     [](RequestOptions& o, const char* v, std::string* error) {
       return int_value("--repair-budget", v, 0, &o.repair_budget, error);
     }},
    {"--repair-efficacy", "F", "repair feedback efficacy factor in [0,1]",
     [](RequestOptions& o, const char* v, std::string* error) {
       if (!util::parse_f64(v, &o.repair_efficacy) || o.repair_efficacy < 0.0 ||
           o.repair_efficacy > 1.0) {
         return bad_value("--repair-efficacy", "a number in [0, 1]", v, error);
       }
       return true;
     }},
    {"--cache", nullptr, "in-memory result cache",
     [](RequestOptions& o, const char*, std::string*) {
       o.cache = true;
       return true;
     }},
    {"--no-cache", nullptr, "force caching off",
     [](RequestOptions& o, const char*, std::string*) {
       o.no_cache = true;
       return true;
     }},
    {"--cache-dir", "PATH", "persistent cache artifact directory (implies --cache)",
     [](RequestOptions& o, const char* v, std::string*) {
       o.cache_dir = v;
       o.cache = true;
       return true;
     }},
    {"--cache-mb", "N", "result-cache budget in MiB",
     [](RequestOptions& o, const char* v, std::string* error) {
       std::uint64_t mb = 0;
       if (!u64_value("--cache-mb", v, &mb, error)) return false;
       o.cache_mb = static_cast<std::size_t>(mb);
       return true;
     }},
    {"--bench-json", "PATH", "append a machine-readable run record",
     [](RequestOptions& o, const char* v, std::string*) {
       o.bench_json = v;
       return true;
     }},
};

std::string render_flag(const FlagSpec& spec) {
  std::string s = spec.name;
  if (spec.value != nullptr) {
    s += "=";
    s += spec.value;
  }
  return s;
}

// Full per-flag listing behind --help.
std::string help_text() {
  std::string out = "Evaluation flags (one grammar for every eval front end):\n";
  for (const FlagSpec& spec : kFlags) {
    out += util::format("  %-28s %s\n", render_flag(spec).c_str(), spec.help);
  }
  out += util::format("  %-28s %s\n", "--help", "print this help and exit");
  return out;
}

}  // namespace

RequestOptions RequestOptions::parse(int argc, char** argv,
                                     std::vector<std::string>* leftover) {
  RequestOptions options;
  auto usage_error = [&](const std::string& message) {
    std::cerr << message << "\n" << flag_help() << "\n";
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0) {
      std::cout << help_text();
      std::exit(0);
    }
    const FlagSpec* matched = nullptr;
    const char* value = nullptr;
    for (const FlagSpec& spec : kFlags) {
      const std::size_t len = std::strlen(spec.name);
      if (std::strncmp(arg, spec.name, len) != 0) continue;
      if (spec.value == nullptr) {
        // Boolean flags match exactly; "--flag=x" is not a boolean match.
        if (arg[len] != '\0') continue;
        matched = &spec;
      } else if (arg[len] == '=') {
        matched = &spec;
        value = arg + len + 1;
      } else if (arg[len] == '\0') {
        if (i + 1 >= argc) usage_error(std::string(spec.name) + " wants a value");
        matched = &spec;
        value = argv[++i];
      } else {
        continue;  // shared prefix of a longer flag (e.g. "--n" vs "--no-cache")
      }
      break;
    }
    if (matched != nullptr) {
      std::string error;
      if (!matched->apply(options, value, &error)) usage_error(error);
    } else if (leftover != nullptr) {
      leftover->push_back(arg);
    } else if (std::strncmp(arg, "--", 2) == 0) {
      usage_error(std::string("unknown flag '") + arg + "'");
    }
    // Bare operands with no sink are silently ignored, matching the old
    // per-bench parsers (benches take no positional arguments).
  }
  if (!options.no_cache && (options.cache || !options.cache_dir.empty())) {
    cache::CacheConfig config;
    config.max_bytes = options.cache_mb << 20;
    config.dir = options.cache_dir;
    options.result_cache = std::make_shared<cache::ResultCache>(config);
  }
  return options;
}

const char* RequestOptions::flag_help() {
  // Compact wrapped summary for usage errors, rendered from the same table.
  static const std::string text = [] {
    std::string out = "eval flags:";
    std::size_t column = out.size();
    for (const FlagSpec& spec : kFlags) {
      const std::string flag = render_flag(spec);
      if (column + 1 + flag.size() > 78) {
        out += "\n           ";
        column = 11;
      }
      out += " " + flag;
      column += 1 + flag.size();
    }
    return out;
  }();
  return text.c_str();
}

EvalRequest RequestOptions::request() const {
  EvalRequest req;
  req.n_samples = n_samples;
  req.temperatures = temperatures;
  req.seed = seed;
  req.use_sicot = use_sicot;
  req.threads = threads;
  req.deadline_ms = deadline_ms;
  req.retry.max_retries = retries;
  req.fail_fast = fail_fast;
  req.sim_step_budget = sim_step_budget;
  req.sim_backend = sim_backend;
  req.lint = lint;
  req.lint_triage = lint_triage;
  req.prove = prove && !no_prove;
  req.prove_budget = prove_budget;
  req.repair.max_rounds = repair_rounds;
  req.repair.attempt_budget = repair_budget;
  req.repair.efficacy = repair_efficacy;
  req.cache = result_cache.get();
  if (progress) req.on_progress = progress_printer();
  return req;
}

EvalRequest RequestOptions::sicot_request(const llm::SimLlm& cot_model) const {
  EvalRequest req = request();
  req.use_sicot = true;
  req.set_cot_model(cot_model);
  return req;
}

ProgressCallback progress_printer() {
  return [](const EvalProgress& p) {
    if (p.total == 0) return;
    const std::size_t step = std::max<std::size_t>(std::size_t{1}, p.total / 10);
    if (p.completed % step == 0 || p.completed == p.total) {
      std::cerr << "    [" << p.completed << "/" << p.total << " candidates]\n";
    }
  };
}

ChaosScope::ChaosScope(const RequestOptions& options) : injector_(options.inject_seed) {
  if (options.inject <= 0.0) return;
  injector_.arm(util::kSiteLlmGenerate, options.inject);
  injector_.arm(util::kSiteEvalCompile, options.inject);
  injector_.arm(util::kSiteSimRun, options.inject);
  injector_.install();
  armed_ = true;
  std::cerr << "  [chaos] injecting faults at p=" << options.inject << " per site (seed "
            << options.inject_seed << ")\n";
}

ChaosScope::~ChaosScope() {
  if (!armed_) return;
  injector_.uninstall();
  std::cerr << "  [chaos] " << injector_.total_injected() << " faults injected ("
            << injector_.injected(util::kSiteLlmGenerate) << " llm, "
            << injector_.injected(util::kSiteEvalCompile) << " compile, "
            << injector_.injected(util::kSiteSimRun) << " sim)\n";
}

}  // namespace haven::eval
