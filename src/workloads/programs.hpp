// Program factories: the synthetic loop nests the benches sweep, plus a
// seeded random-program generator for property tests.
#pragma once

#include "common/rng.hpp"
#include "program/tables.hpp"

namespace selfsched::runtime {
struct Strategy;
}  // namespace selfsched::runtime

namespace selfsched::workloads {

/// Flat Doall: one innermost parallel loop of n iterations.
program::NestedLoopProgram flat_doall(i64 n, program::CostFn cost,
                                      program::BodyFn body = nullptr);

/// Triangular nest: parallel I (1..n) around innermost parallel loop whose
/// bound is I — index-dependent bounds and shrinking instances (the classic
/// imbalanced nest).
program::NestedLoopProgram triangular(i64 n, Cycles body_cost);

/// Doacross chain: one innermost Doacross loop of n iterations, dependence
/// distance d, source at fraction f of the body.
program::NestedLoopProgram doacross_chain(i64 n, i64 distance, double f,
                                          Cycles body_cost);

/// The Fig. 3 pair: (a) two perfectly nested parallel loops n1 x n2 as a
/// two-level nest; (b) the same iteration space coalesced into one flat
/// loop of n1*n2 iterations.  Same total work, different scheduling
/// structure.
program::NestedLoopProgram nested_pair(i64 n1, i64 n2, Cycles body_cost);
program::NestedLoopProgram coalesced_pair(i64 n1, i64 n2, Cycles body_cost);

/// Branch-heavy nest: parallel I (1..n) over an IF ladder whose branches
/// hold innermost loops of very different weights — the §I "conditional
/// statements ... contribute to the inaccuracy" scenario.
program::NestedLoopProgram branchy(i64 n, Cycles light, Cycles heavy);

/// Deep serial-parallel alternation: ser/par/ser/par ... `depth` levels,
/// exercising the activation machinery (EXIT walking multiple levels).
program::NestedLoopProgram deep_alternating(Level depth, i64 width,
                                            Cycles body_cost);

/// Configuration of the random-program generator.
struct RandomProgramConfig {
  u32 max_depth = 4;        // container nesting (on top of the wrapper)
  u32 max_constructs = 3;   // max sequence length per body
  i64 max_bound = 4;        // container-loop bound range [0, max_bound]
  i64 max_leaf_bound = 6;   // innermost bound range [0, max_leaf_bound]
  u32 if_permille = 250;    // probability a construct is an IF
  u32 serial_permille = 300;   // probability a container loop is serial
  u32 doacross_permille = 150; // probability a leaf is Doacross
  u32 zero_bound_permille = 100;  // probability a bound is 0 (edge case)
  u32 expr_bound_permille = 250;  // probability a bound is index-dependent
  Cycles max_body_cost = 50;
};

/// Seeded random general parallel nested loop.  All bounds/conditions are
/// deterministic functions of (seed, indices); `bodies` hooks leaves as in
/// program::BodyFactory.
program::NestedLoopProgram random_program(
    u64 seed, const RandomProgramConfig& cfg = {},
    const program::BodyFactory& bodies = nullptr);

/// The scheduling strategy paired with random_program(seed): one of the ten
/// kinds by seed % 10, with seed-derived parameters.  Fuzz seeds and repro
/// files replay through this mapping, so it must not change.
runtime::Strategy strategy_for_seed(u64 seed);

}  // namespace selfsched::workloads
