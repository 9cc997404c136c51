// Package repro is a from-scratch Go reproduction of "Solving DQBF Through
// Quantifier Elimination" (Gitina, Wimmer, Reimer, Sauer, Scholl, Becker;
// DATE 2015): the HQS solver for dependency quantified Boolean formulas, the
// substrates it builds on (CDCL SAT, partial MaxSAT, And-Inverter Graphs),
// the iDQ-style instantiation baseline it is compared
// against, the partial-equivalence-checking application, and a benchmark
// harness regenerating every table and figure of the paper's evaluation.
//
// The root package holds the evaluation benchmarks (bench_test.go); the
// implementation lives under internal/ — see DESIGN.md for the system
// inventory and per-experiment index, EXPERIMENTS.md for the
// paper-vs-measured record, and README.md for usage.
package repro
