// Traced replay of the eval engine's candidate pipeline.
//
// EvalEngine::evaluate runs each (temperature, task, sample) unit through
// SI-CoT -> generate -> cache lookup -> compile -> lint -> prove -> simulate
// -> repair inside src/eval/engine.cpp, where the benchmark cannot put spans.
// The replay runs the same stage order through the modules' public
// functions, with the engine's RNG derivation, so every unit sees the same
// candidate and the same verdict as in the engine; the benchmark checks
// that the replay's tallies and counters equal the engine's before it
// reports any per-layer number.
#pragma once

#include <cstdint>
#include <vector>

#include "eval/engine.h"
#include "eval/task.h"
#include "lint/lint.h"
#include "llm/simllm.h"
#include "trace.h"
#include "util/thread_pool.h"
#include "verilog/parser.h"

namespace e2ebench {

// What the engine prepares once per task before its fan-out.
struct TaskContext {
  haven::verilog::ParseOutput golden;   // parsed when lint or prove needs it
  haven::lint::ReferenceProfile profile;
  bool lint_usable = false;  // golden parsed; profile filled
  bool provable = false;     // prove::golden_provable held
  haven::cache::Digest cache_seed;
};

std::vector<TaskContext> prepare_tasks(const haven::eval::Suite& suite,
                                       const haven::eval::EvalRequest& request);

struct JobReplay {
  std::vector<haven::eval::TaskResult> per_task;
  haven::eval::EvalCounters counters;  // deterministic fields only
  std::vector<Span> spans;
  double wall_s = 0.0;
};

// Replay one single-temperature job (the request's first temperature) on
// `pool`, units in index order. `unit_base` offsets the unit ids in spans.
// With `probes`, every simulated candidate is also parsed, elaborated and
// bytecode-compiled on its own once the timed replay (`wall_s`) has ended.
JobReplay replay_job(const haven::llm::SimLlm& model, const haven::eval::Suite& suite,
                     const haven::eval::EvalRequest& request,
                     const std::vector<TaskContext>& tasks, haven::util::ThreadPool& pool,
                     std::uint64_t unit_base, bool probes);

// "" when the replay agrees with the engine on every per-task tally and
// every deterministic counter; otherwise the first disagreement.
std::string replay_mismatch(const JobReplay& replay, const haven::eval::SuiteResult& engine);

}  // namespace e2ebench
