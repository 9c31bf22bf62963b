// Dual-rail symbolic execution of a compiled sim::Program: the settled
// combinational state of a design, lowered onto the prove::Aig
// (DESIGN.md §12).
//
// Each 4-state signal bit becomes a (value, unknown) literal pair with the
// same invariant sim::Value::normalize enforces: an unknown bit carries no
// defined value (v implies !x). lower_design() replays the compiled
// simulator's construction sequence symbolically over the same bytecode the
// simulator executes — initial blocks on the all-X state, NBA commit, input
// binding, then one pure-function execution of every triggered
// combinational process in dependency order — so the returned words are,
// bit for bit, the values sim::run_diff_test would observe after poking the
// corresponding input vector.
//
// Anything whose event-driven behaviour is NOT a pure function of the
// current inputs throws UnsupportedError and the verdict falls back to
// simulation. Each check reads a fact of the Program:
//  * latches: a written bit whose per-path write condition is neither
//    constant true nor constant false when the process ends;
//  * reads of a process's own target before it is written on every path;
//  * incomplete sensitivity: a signal read on a path, outside
//    ProgProcess::sens, whose value was not written earlier on that path;
//  * self-retriggering: a bit in ProgProcess::sens written twice on a path
//    (kStoreSig / kStoreBitDyn), which the event-driven schedule can re-run
//    without end;
//  * nonblocking assigns in comb processes: kNbaSig / kNbaBitDyn;
//  * multiple comb drivers, or a comb driver of an input port: the
//    kStoreSig / kStoreBitDyn targets of the comb processes;
//  * clocked processes whose edge could ever fire: ProgProcess::edges on a
//    swept input (Program::signals), a comb target or a clocked target;
//  * comb feedback or depth beyond the delta budget: a topological sort over
//    ProgProcess::sens;
//  * lazy faults and runaway loops: a kThrow reached, or a kLoopGuard that
//    overflows, on a path whose condition is not constant false.
// The fallback is the soundness valve: the prover never guesses, it either
// reproduces the simulator exactly or declines.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "prove/aig.h"
#include "sim/program.h"

namespace haven::prove {

// Thrown when the design uses a construct the lowering cannot model
// bit-identically to the simulator. Internal control flow: converted to
// ProveStatus::kUnsupported by prove_equivalence().
struct UnsupportedError {
  explicit UnsupportedError(std::string r) : reason(std::move(r)) {}
  std::string reason;
};

// One 4-state bit as a dual-rail literal pair (v = defined value,
// x = unknown). Default-constructed bits are X, matching power-on state.
struct Bit {
  Lit v = kFalse;
  Lit x = kTrue;
};

// Fixed-width little-endian vector of dual-rail bits.
struct Word {
  explicit Word(int w = 1) : bits(static_cast<std::size_t>(w)) {}
  int width() const { return static_cast<int>(bits.size()); }
  Bit& operator[](int i) { return bits[static_cast<std::size_t>(i)]; }
  const Bit& operator[](int i) const { return bits[static_cast<std::size_t>(i)]; }
  std::vector<Bit> bits;
};

// Settled state of every signal (indexed by signal slot) as a pure function
// of the AIG inputs. `input_vars` maps top-level input port names to their
// port-width variable literals, LSB first; the same literals are passed for
// DUT and golden so the miscompare network shares structure. Inputs not in
// the map (clock/reset names) keep their post-initial constant values.
// Throws UnsupportedError / BudgetExceededError.
std::vector<Word> lower_design(Aig* aig, const sim::Program& program,
                               const std::map<std::string, std::vector<Lit>>& input_vars);

}  // namespace haven::prove
