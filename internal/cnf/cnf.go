// Package cnf provides the shared propositional-logic substrate used by all
// solvers in this repository: variables, literals, clauses, CNF formulas, and
// DIMACS reading/writing.
//
// Variables are positive integers starting at 1, as in the DIMACS format.
// Literals use a packed encoding (variable index shifted left by one, with the
// low bit indicating negation), which keeps watch lists and assignment arrays
// dense in the SAT solver.
package cnf

import (
	"fmt"
	"math"
	"slices"
)

// Var is a propositional variable. Valid variables are >= 1.
type Var int32

// MaxVar is the largest variable whose literals fit the packed int32
// encoding of Lit. Readers reject inputs naming larger variables.
const MaxVar = math.MaxInt32 >> 1

// VarLimit is the largest variable count a reader accepts from an input
// that spells out items variables, literals or lines: 64 per item, and at
// least 2^16. Tables indexed by variable, such as dependency bitsets, then
// grow with what the input holds rather than with what its header declares.
func VarLimit(items int) int { return max(1<<16, 64*items) }

// Lit is a literal: a variable or its negation, in packed encoding.
// For a variable v, the positive literal is 2v and the negative literal 2v+1.
// The zero value is not a valid literal.
type Lit int32

// NewLit returns the literal for variable v, negated if neg is true.
func NewLit(v Var, neg bool) Lit {
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return Lit(v) << 1 }

// NegLit returns the negative literal of v.
func NegLit(v Var) Lit { return Lit(v)<<1 | 1 }

// LitFromDimacs converts a non-zero DIMACS integer (±v) to a Lit.
func LitFromDimacs(d int) Lit {
	if d == 0 {
		panic("cnf: DIMACS literal 0")
	}
	if d < 0 {
		return NegLit(Var(-d))
	}
	return PosLit(Var(d))
}

// Var returns the variable of the literal.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg reports whether the literal is negative.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// XorSign returns l negated if s is true, l otherwise.
func (l Lit) XorSign(s bool) Lit {
	if s {
		return l ^ 1
	}
	return l
}

// Dimacs returns the literal in DIMACS ±v form.
func (l Lit) Dimacs() int {
	if l.Neg() {
		return -int(l.Var())
	}
	return int(l.Var())
}

// String renders the literal in DIMACS form.
func (l Lit) String() string { return fmt.Sprintf("%d", l.Dimacs()) }

// Clause is a disjunction of literals.
type Clause []Lit

// Clone returns a copy of the clause.
func (c Clause) Clone() Clause {
	d := make(Clause, len(c))
	copy(d, c)
	return d
}

// Has reports whether the clause contains the literal l.
func (c Clause) Has(l Lit) bool {
	for _, m := range c {
		if m == l {
			return true
		}
	}
	return false
}

// HasVar reports whether the clause mentions variable v (in either polarity).
func (c Clause) HasVar(v Var) bool {
	for _, m := range c {
		if m.Var() == v {
			return true
		}
	}
	return false
}

// Normalize sorts the clause, removes duplicate literals, and reports whether
// the clause is a tautology (contains l and ¬l). The returned clause aliases
// the receiver's storage.
func (c Clause) Normalize() (Clause, bool) {
	if len(c) == 0 {
		return c, false
	}
	slices.Sort(c)
	out := c[:1]
	for _, l := range c[1:] {
		last := out[len(out)-1]
		if l == last {
			continue
		}
		if l == last.Not() {
			return c, true
		}
		out = append(out, l)
	}
	return out, false
}

// String renders the clause as space-separated DIMACS literals terminated by 0.
func (c Clause) String() string {
	s := ""
	for _, l := range c {
		s += fmt.Sprintf("%d ", l.Dimacs())
	}
	return s + "0"
}

// Formula is a CNF formula: a conjunction of clauses over variables 1..NumVars.
type Formula struct {
	NumVars int
	Clauses []Clause
}

// NewFormula returns an empty formula over n variables.
func NewFormula(n int) *Formula {
	return &Formula{NumVars: n}
}

// AddClause appends a clause, growing NumVars as needed.
func (f *Formula) AddClause(lits ...Lit) {
	for _, l := range lits {
		if int(l.Var()) > f.NumVars {
			f.NumVars = int(l.Var())
		}
	}
	f.Clauses = append(f.Clauses, Clause(lits))
}

// AddDimacsClause appends a clause given as DIMACS integers (without the
// terminating zero).
func (f *Formula) AddDimacsClause(ds ...int) {
	c := make(Clause, len(ds))
	for i, d := range ds {
		c[i] = LitFromDimacs(d)
	}
	for _, l := range c {
		if int(l.Var()) > f.NumVars {
			f.NumVars = int(l.Var())
		}
	}
	f.Clauses = append(f.Clauses, c)
}

// NewVar allocates a fresh variable.
func (f *Formula) NewVar() Var {
	f.NumVars++
	return Var(f.NumVars)
}

// Clone returns a deep copy of the formula.
func (f *Formula) Clone() *Formula {
	g := &Formula{NumVars: f.NumVars, Clauses: make([]Clause, len(f.Clauses))}
	for i, c := range f.Clauses {
		g.Clauses[i] = c.Clone()
	}
	return g
}

// Assignment maps variables to truth values. Index 0 is unused.
type Assignment []bool

// NewAssignment returns an all-false assignment for n variables.
func NewAssignment(n int) Assignment { return make(Assignment, n+1) }

// Get returns the value of v under the assignment.
func (a Assignment) Get(v Var) bool { return a[v] }

// Set assigns value b to v.
func (a Assignment) Set(v Var, b bool) { a[v] = b }

// Lit returns the truth value of literal l under the assignment.
func (a Assignment) Lit(l Lit) bool { return a[l.Var()] != l.Neg() }

// EvalClause reports whether the clause is satisfied under a.
func (a Assignment) EvalClause(c Clause) bool {
	for _, l := range c {
		if a.Lit(l) {
			return true
		}
	}
	return false
}

// Eval reports whether the formula is satisfied under a.
func (f *Formula) Eval(a Assignment) bool {
	for _, c := range f.Clauses {
		if !a.EvalClause(c) {
			return false
		}
	}
	return true
}

// MaxVar returns the largest variable index actually occurring in a clause.
func (f *Formula) MaxVar() Var {
	var m Var
	for _, c := range f.Clauses {
		for _, l := range c {
			if l.Var() > m {
				m = l.Var()
			}
		}
	}
	return m
}
