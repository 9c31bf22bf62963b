// Serialization and key derivation between the eval engine and the
// haven::cache result cache.
//
// What is cached (see DESIGN.md §9 "Replay soundness"): everything the
// candidate pipeline computes *after* generation — the compile verdict, the
// lint findings, the triage decision, and the simulated functional verdict —
// as a CachedVerdict. Generation itself (SI-CoT refinement + SimLlm
// emission) always runs live: it is cheap, it is what produces the content
// the key hashes, and it keeps the RNG stream position identical on hits and
// misses.
//
// The key binds every input that can influence the cached stages:
//   * the canonicalized candidate source (content addressing proper),
//   * the task identity: id, golden source, and the full StimulusSpec,
//   * the eval knobs that change verdicts or payload shape: sim step budget,
//     lint mode (off / observe / triage), and the prove knobs (on/off +
//     node budget — verdicts are identical either way, but the replayed
//     counter flags are not, so the configs must not share entries),
//   * the stimulus stream: the forked testbench Rng's state_hash(). Random
//     stimulus makes the functional verdict depend on the vector stream, so
//     two byte-identical candidates with different streams must NOT share an
//     entry — replaying across streams would not be bit-identical. Within a
//     fixed (seed, unit, attempt) derivation the stream is stable across
//     runs, which is exactly the cross-run reuse the cache targets.
//   * a schema version, bumped whenever the payload layout changes,
//   * a semantics version, bumped whenever the simulator, prove or lint
//     change what they compute for the same text and task.
//
// Payloads are versioned little-endian binary; decode_verdict rejects (and
// the engine then treats as a miss) anything malformed rather than throwing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/hash.h"
#include "eval/task.h"
#include "lint/lint.h"
#include "repair/repair.h"

namespace haven::eval {

// Bump when CachedVerdict's encoding or the key derivation changes; old
// entries then miss instead of replaying garbage.
inline constexpr std::uint32_t kVerdictSchemaVersion = 2;
// Extended payload carrying the failure witness (fail_reason), written only
// for repair-enabled runs — their key space is disjoint (task_cache_seed
// binds the repair knobs when enabled), so repair-off runs keep writing and
// replaying byte-identical v2 entries. decode_verdict accepts both.
inline constexpr std::uint32_t kVerdictSchemaVersionExtended = 3;
// Bump when a verdict, fail_reason, finding or sim_vectors count can change
// for the same text, task and knobs: the payload layout is unchanged, but an
// entry written under the old semantics would replay what a cold run no
// longer computes. task_cache_seed hashes it, so such entries miss.
//   1: constant continuous assigns (`assign y = 1'b0;`) drive from power-up;
//      before, they stayed X.
//   2: the compiled backend settles every design with the interpreter's
//      event-driven loop: a transient self-write under @(*) (`y = 0; if (a)
//      y = 1; z = y;`) gets the interpreter's verdict, and budgeted step
//      counts follow the event-driven schedule.
inline constexpr std::uint32_t kEvalSemanticsVersion = 2;

// The replayable outcome of one candidate's compile→lint→prove→simulate
// stages.
struct CachedVerdict {
  bool syntax_ok = false;
  bool func_ok = false;
  bool triaged = false;    // failed by lint proof; simulation was skipped
  bool simulated = false;  // the diff testbench actually ran
  bool proved = false;     // verdict decided by haven::prove; sim skipped
  bool prove_fallback = false;  // prove attempted, deferred to simulation
  std::int32_t sim_vectors = 0;
  std::vector<lint::Finding> findings;  // empty unless lint was enabled
  // Failure witness (diff miscompare / prove witness), replayed so a warm
  // repair loop distills bit-identical hints. Only round-trips through the
  // extended encoding; always "" for v2 payloads.
  std::string fail_reason;
};

// `extended` selects the v3 layout (appends fail_reason); the default v2
// encoding is byte-identical to the pre-repair engine's.
std::string encode_verdict(const CachedVerdict& v, bool extended = false);
// Strict decode: any truncation, bad enum value, or version mismatch returns
// false and leaves *out untouched enough to be discarded.
bool decode_verdict(std::string_view payload, CachedVerdict* out);

// Lint mode knob folded into the key: off / observe-only / triage.
enum class CacheLintMode : std::uint8_t { kOff = 0, kObserve, kTriage };

// Per-task key base, computed once per task per run: hashes the schema and
// semantics versions, task id, golden source (canonicalized), stimulus spec, sim step
// budget, lint mode, and the prove knobs (request-level: hashed whether or
// not the task itself turns out to be provable). The repair policy is bound
// ONLY when enabled — a null/disabled policy contributes nothing, so a
// repair-off digest equals the one the same build computes with no policy.
cache::Digest task_cache_seed(const EvalTask& task, std::uint64_t sim_step_budget,
                              CacheLintMode lint_mode, bool prove = false,
                              std::uint64_t prove_budget = 0,
                              const repair::RepairPolicy* repair = nullptr);

// Per-candidate key: the task seed + canonicalized candidate source + the
// testbench stream digest.
cache::Digest unit_cache_key(const cache::Digest& task_seed, std::string_view candidate_source,
                             std::uint64_t tb_stream_hash);

}  // namespace haven::eval
