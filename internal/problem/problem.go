// Package problem is the unified ingestion layer of the solver stack: one
// Problem type carrying the matrix, the quantifier structure, and the input
// format, with format autodetection and one byte-slice reader, ParseBytes,
// for the four accepted input languages — DQDIMACS, QDIMACS, AIGER (ascii and
// binary), and ISCAS-85-style BENCH netlists — plus the PQE dialect for
// partial-quantifier-elimination queries.
//
// Every consumer of a parsed instance (core.Solve, the service scheduler,
// the hqsd daemon, and the hqs/hqsc/dqbfinfo/dqbffuzz/dqbfbench CLIs) routes
// through this package, so a new input language is one reader here instead
// of five call-site patches. The canonical cache/store hash is computed on
// the normalized Problem, which makes cache keys stable across input
// formats: the same circuit submitted as BENCH and as its DQDIMACS encoding
// shares one cache and store entry.
package problem

import (
	"fmt"
	"sort"

	"repro/internal/cnf"
	"repro/internal/dqbf"
)

// Kind classifies what question a Problem asks.
type Kind int

const (
	// KindDQBF is a dependency QBF: a Henkin prefix that is not expressible
	// as a linear QBF prefix.
	KindDQBF Kind = iota
	// KindQBF is a DQBF whose prefix is linear (Theorem 3): plain
	// QDIMACS/QBF inputs and all circuit encodings land here.
	KindQBF
	// KindPQE is a partial-quantifier-elimination query ∃X[F ∧ G]: compute a
	// clause set Q over the free variables with Q ∧ ∃X[G] ≡ ∃X[F ∧ G].
	KindPQE
)

func (k Kind) String() string {
	switch k {
	case KindDQBF:
		return "dqbf"
	case KindQBF:
		return "qbf"
	case KindPQE:
		return "pqe"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Format identifies the input language a Problem was read from.
type Format string

const (
	// FormatDQDIMACS is the DQBF extension of QDIMACS ("d" lines).
	FormatDQDIMACS Format = "dqdimacs"
	// FormatQDIMACS is plain prenex QBF in DIMACS form (a/e lines only).
	FormatQDIMACS Format = "qdimacs"
	// FormatAIGER is an and-inverter-graph circuit, ascii ("aag") or binary
	// ("aig"); outputs are constrained true, inputs quantify by symbol name.
	FormatAIGER Format = "aiger"
	// FormatBENCH is an ISCAS-85-style netlist; outputs are constrained
	// true, primary inputs are universal, free (undriven) signals are
	// existential over all inputs.
	FormatBENCH Format = "bench"
	// FormatPQE is the PQE query dialect: "p pqe <vars> <nf> <ng>", "e" lines
	// declaring X, then nf F-clauses followed by ng G-clauses.
	FormatPQE Format = "pqe"
)

// PQESplit is the payload of a KindPQE problem: the query ∃X[F ∧ G] over
// variables 1..NumVars, asking for F to be taken out of the quantifier
// scope. Variables outside X are the free (Y) variables the answer Q ranges
// over.
type PQESplit struct {
	// NumVars is the declared variable count (X and Y combined).
	NumVars int
	// X lists the quantified variables.
	X []cnf.Var
	// F and G are the two clause sets of the split ∃X[F ∧ G].
	F []cnf.Clause
	G []cnf.Clause
}

// Clone returns a deep copy of the split.
func (q *PQESplit) Clone() *PQESplit {
	c := &PQESplit{NumVars: q.NumVars, X: append([]cnf.Var(nil), q.X...)}
	c.F = cloneClauses(q.F)
	c.G = cloneClauses(q.G)
	return c
}

func cloneClauses(cs []cnf.Clause) []cnf.Clause {
	out := make([]cnf.Clause, len(cs))
	for i, c := range cs {
		out[i] = append(cnf.Clause(nil), c...)
	}
	return out
}

// Validate checks the split: X variables and clause literals must lie in
// 1..NumVars, and X must be duplicate-free.
func (q *PQESplit) Validate() error {
	seen := make(map[cnf.Var]bool, len(q.X))
	for _, x := range q.X {
		if int(x) < 1 || int(x) > q.NumVars {
			return fmt.Errorf("problem: PQE variable %d out of range (declared %d variables)", x, q.NumVars)
		}
		if seen[x] {
			return fmt.Errorf("problem: duplicate PQE variable %d", x)
		}
		seen[x] = true
	}
	check := func(cs []cnf.Clause, what string) error {
		for _, c := range cs {
			for _, l := range c {
				if int(l.Var()) < 1 || int(l.Var()) > q.NumVars {
					return fmt.Errorf("problem: %s-clause literal %d out of range (declared %d variables)",
						what, l.Dimacs(), q.NumVars)
				}
			}
		}
		return nil
	}
	if err := check(q.F, "F"); err != nil {
		return err
	}
	return check(q.G, "G")
}

// FreeVars returns the Y variables — those occurring in F or G but not in X
// — in ascending order.
func (q *PQESplit) FreeVars() []cnf.Var {
	inX := make(map[cnf.Var]bool, len(q.X))
	for _, x := range q.X {
		inX[x] = true
	}
	seen := make(map[cnf.Var]bool)
	var out []cnf.Var
	for _, cs := range [][]cnf.Clause{q.F, q.G} {
		for _, c := range cs {
			for _, l := range c {
				v := l.Var()
				if !inX[v] && !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Problem is one parsed solver input: a DQBF/QBF formula or a PQE split,
// together with the format it was read from.
type Problem struct {
	// Kind classifies the question (DQBF, QBF, or PQE).
	Kind Kind
	// Format is the input language the problem was read from.
	Format Format
	// Formula is the parsed formula for KindDQBF/KindQBF problems; nil for
	// KindPQE.
	Formula *dqbf.Formula
	// PQE is the query split for KindPQE problems; nil otherwise.
	PQE *PQESplit
}

// FromDQBF wraps an already-parsed formula as a Problem, classifying its
// kind by prefix linearity (Theorem 3). The formula is referenced, not
// cloned. The format defaults to DQDIMACS.
func FromDQBF(f *dqbf.Formula) *Problem {
	p := &Problem{Kind: KindDQBF, Format: FormatDQDIMACS, Formula: f}
	if dqbf.HasQBFPrefix(f) {
		p.Kind = KindQBF
	}
	return p
}

// Clone returns a deep copy of the problem.
func (p *Problem) Clone() *Problem {
	c := &Problem{Kind: p.Kind, Format: p.Format}
	if p.Formula != nil {
		c.Formula = p.Formula.Clone()
	}
	if p.PQE != nil {
		c.PQE = p.PQE.Clone()
	}
	return c
}

// Validate checks internal consistency: formula problems must carry a valid
// formula, PQE problems a valid split.
func (p *Problem) Validate() error {
	switch p.Kind {
	case KindDQBF, KindQBF:
		if p.Formula == nil {
			return fmt.Errorf("problem: %s problem carries no formula", p.Kind)
		}
		return p.Formula.Validate()
	case KindPQE:
		if p.PQE == nil {
			return fmt.Errorf("problem: pqe problem carries no query split")
		}
		return p.PQE.Validate()
	default:
		return fmt.Errorf("problem: unknown kind %d", int(p.Kind))
	}
}
