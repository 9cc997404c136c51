package cnf

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestLitEncoding(t *testing.T) {
	cases := []struct {
		v   Var
		neg bool
	}{{1, false}, {1, true}, {2, false}, {7, true}, {1000, false}}
	for _, c := range cases {
		l := NewLit(c.v, c.neg)
		if l.Var() != c.v {
			t.Errorf("NewLit(%d,%v).Var() = %d", c.v, c.neg, l.Var())
		}
		if l.Neg() != c.neg {
			t.Errorf("NewLit(%d,%v).Neg() = %v", c.v, c.neg, l.Neg())
		}
		if l.Not().Var() != c.v || l.Not().Neg() == c.neg {
			t.Errorf("Not() broken for %v", l)
		}
		if l.Not().Not() != l {
			t.Errorf("double negation broken for %v", l)
		}
	}
}

func TestLitDimacsRoundTrip(t *testing.T) {
	f := func(d int16) bool {
		if d == 0 {
			return true
		}
		return LitFromDimacs(int(d)).Dimacs() == int(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPosNegLit(t *testing.T) {
	if PosLit(3).Neg() || !NegLit(3).Neg() {
		t.Fatal("PosLit/NegLit polarity wrong")
	}
	if PosLit(3).Not() != NegLit(3) {
		t.Fatal("PosLit(3).Not() != NegLit(3)")
	}
}

func TestXorSign(t *testing.T) {
	l := PosLit(5)
	if l.XorSign(false) != l {
		t.Error("XorSign(false) changed literal")
	}
	if l.XorSign(true) != l.Not() {
		t.Error("XorSign(true) did not negate")
	}
}

func TestClauseNormalize(t *testing.T) {
	c := Clause{PosLit(2), PosLit(1), PosLit(2), NegLit(3)}
	n, taut := c.Normalize()
	if taut {
		t.Fatal("unexpected tautology")
	}
	if len(n) != 3 {
		t.Fatalf("want 3 literals after dedup, got %v", n)
	}
	c2 := Clause{PosLit(1), NegLit(1)}
	if _, taut := c2.Normalize(); !taut {
		t.Fatal("missed tautology")
	}
}

func TestClauseHas(t *testing.T) {
	c := Clause{PosLit(1), NegLit(2)}
	if !c.Has(PosLit(1)) || c.Has(NegLit(1)) {
		t.Error("Has wrong")
	}
	if !c.HasVar(2) || c.HasVar(3) {
		t.Error("HasVar wrong")
	}
}

func TestFormulaEval(t *testing.T) {
	f := NewFormula(3)
	f.AddDimacsClause(1, 2)
	f.AddDimacsClause(-1, 3)
	a := NewAssignment(3)
	a.Set(1, true)
	a.Set(3, true)
	if !f.Eval(a) {
		t.Fatal("assignment should satisfy formula")
	}
	a.Set(3, false)
	if f.Eval(a) {
		t.Fatal("assignment should falsify formula")
	}
}

func TestFormulaNewVarClone(t *testing.T) {
	f := NewFormula(2)
	v := f.NewVar()
	if v != 3 || f.NumVars != 3 {
		t.Fatalf("NewVar: got %d, NumVars %d", v, f.NumVars)
	}
	f.AddDimacsClause(1, -3)
	g := f.Clone()
	g.Clauses[0][0] = NegLit(1)
	if f.Clauses[0][0] != PosLit(1) {
		t.Fatal("Clone aliases clause storage")
	}
}

func TestClauseString(t *testing.T) {
	c := Clause{PosLit(1), NegLit(2)}
	if got := c.String(); got != "1 -2 0" {
		t.Errorf("String() = %q", got)
	}
	if !strings.Contains(PosLit(7).String(), "7") {
		t.Error("lit String broken")
	}
}
