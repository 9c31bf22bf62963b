// One-shot compiler from an elaborated design to a flat bytecode Program
// (see sim/program.h for the IR and executor, DESIGN.md §10 for the
// equivalence argument).
//
// Lowering rules that preserve the interpreter's lazy-error contract:
//  * references to undeclared identifiers, unsupported operators, and
//    unsupported lvalue shapes compile to kThrow ops placed at the exact
//    point the interpreter would fault, so designs that never execute the
//    offending code behave identically;
//  * ternaries whose branches are provably throw-free lower to a strict
//    kSelect (both branches evaluated, branch-free); otherwise to the
//    branchy form that evaluates exactly the branches the interpreter would;
//  * literals and selects with out-of-range widths materialize lazily.
//
// The compiler only lowers code; it makes no scheduling decision. Every
// Program settles through the interpreter's event-driven delta loop (see
// CompiledSimulator in sim/program.h).
#pragma once

#include "sim/elaborate.h"
#include "sim/program.h"

namespace haven::sim {

// Throws ElabError for the same eager faults as the Simulator constructor
// (an edge on an unknown signal); everything else stays lazy.
Program compile(const ElabDesign& design);

}  // namespace haven::sim
