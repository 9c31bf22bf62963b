// The simulation-backend seam. Two executors implement the same stratified
// event-queue semantics over an ElabDesign:
//
//  * SimBackend::kInterpreter — sim::Simulator, the original AST-walking
//    event-driven interpreter (re-walks shared_ptr expression trees).
//  * SimBackend::kCompiled — sim::CompiledSimulator, a one-shot compile of
//    the design into a flat bytecode program executed over a dense register
//    file (see sim/compile.h and DESIGN.md §10).
//
// The backends are bit-identical on every observable: peeked values,
// convergence flags, differential-test verdicts, and the testbench stimulus
// stream (which is drawn before simulation and never touched by either
// executor). Everything downstream — Testbench, EvalEngine, the
// hallucination injector's behavioural checks — selects a backend through
// this enum (StimulusSpec::backend / EvalRequest::sim_backend); the compiled
// backend is the default everywhere, the interpreter stays available as the
// differential-testing oracle via --sim-backend=interp.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace haven::sim {

enum class SimBackend : std::uint8_t { kInterpreter = 0, kCompiled = 1 };

inline constexpr SimBackend kDefaultSimBackend = SimBackend::kCompiled;

// Canonical list of accepted backend spellings. Every surface that rejects a
// backend value (eval::RequestOptions, the serve line protocol) names these
// in its error message, so the valid set is stated in exactly one place.
inline constexpr std::string_view kBackendValues = "interp|interpreter|compiled|compile";

// Parse a --sim-backend= value ("interp"/"interpreter" or "compiled"/
// "compile"; keep kBackendValues in sync); nullopt on anything else.
inline std::optional<SimBackend> parse_backend(std::string_view name) {
  if (name == "interp" || name == "interpreter") return SimBackend::kInterpreter;
  if (name == "compiled" || name == "compile") return SimBackend::kCompiled;
  return std::nullopt;
}

// Interned signal slot: resolve a top-level name once, then poke/peek
// through the handle with no per-call string map lookup. Handles are only
// meaningful on the simulator instance that resolved them (both backends
// number slots identically — by ElabDesign signal id — but validity is not
// checked across instances beyond a bounds check).
struct SignalHandle {
  std::uint32_t slot = UINT32_MAX;
  bool valid() const { return slot != UINT32_MAX; }
};

}  // namespace haven::sim
