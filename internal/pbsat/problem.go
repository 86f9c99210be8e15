// Package pbsat implements a small pseudo-Boolean constraint solver:
// linear 0/1 constraints (the ILP of the paper's Section III-C) solved
// by DPLL search with slack-based unit propagation and an externally
// supplied decision order.
//
// The external decision order is the heart of SAT-decoding
// (Lukasiewycz et al.): the evolutionary optimizer evolves variable
// priorities and preferred polarities; the solver turns every genotype
// into a *feasible* implementation by construction, searching near the
// genotype first.
package pbsat

import (
	"fmt"
	"math"
)

// Var is a 1-based Boolean variable index.
type Var int

// Lit is a possibly negated variable.
type Lit struct {
	Var Var
	Neg bool
}

// Pos returns the positive literal of v.
func Pos(v Var) Lit { return Lit{Var: v} }

// Not returns the negated literal of v.
func Not(v Var) Lit { return Lit{Var: v, Neg: true} }

// Negated returns the complement literal.
func (l Lit) Negated() Lit { return Lit{Var: l.Var, Neg: !l.Neg} }

// String renders the literal like "x3" or "~x3".
func (l Lit) String() string {
	if l.Neg {
		return fmt.Sprintf("~x%d", int(l.Var))
	}
	return fmt.Sprintf("x%d", int(l.Var))
}

// Term is one weighted literal of a constraint.
type Term struct {
	Coef int
	Lit  Lit
}

// Problem is a conjunction of pseudo-Boolean constraints over numbered
// variables. Normalized constraints Σ coef_i · lit_i ≥ bound (all
// coefficients positive) are stored flat, in compressed sparse row
// form: constraint ci's terms are lits[start[ci]:start[ci+1]] with
// weights coefs[start[ci]:start[ci+1]]. A literal is packed as
// (var−1)<<1 | neg. Solvers share these arrays instead of copying them.
// Create problems with NewProblem; the zero value is not ready for use.
type Problem struct {
	names  []string
	start  []int32 // CSR row offsets, len NumConstraints()+1
	lits   []int32 // packed literal per term
	coefs  []int32 // positive weight per term
	bounds []int32 // per-constraint bound, always > 0
	tags   []string
}

// packLit packs a literal as (var−1)<<1 | neg.
func packLit(l Lit) int32 {
	p := int32(l.Var-1) << 1
	if l.Neg {
		p |= 1
	}
	return p
}

// unpackLit is the inverse of packLit.
func unpackLit(p int32) Lit { return Lit{Var: Var(p>>1 + 1), Neg: p&1 != 0} }

// NewProblem returns an empty problem.
func NewProblem() *Problem { return &Problem{start: []int32{0}} }

// NewVar allocates a fresh variable with a debugging name.
func (p *Problem) NewVar(name string) Var {
	p.names = append(p.names, name)
	return Var(len(p.names))
}

// NumVars returns the number of allocated variables.
func (p *Problem) NumVars() int { return len(p.names) }

// Name returns the debugging name of v.
func (p *Problem) Name(v Var) string {
	if v < 1 || int(v) > len(p.names) {
		return fmt.Sprintf("x%d", int(v))
	}
	return p.names[v-1]
}

// NumConstraints returns the number of stored (normalized) constraints.
func (p *Problem) NumConstraints() int { return len(p.bounds) }

// AddGE adds Σ coef_i·lit_i ≥ bound. Coefficients may be negative or
// zero; the constraint is normalized to positive coefficients by
// flipping literals (a·l ≡ a − a·¬l). Trivially true constraints are
// dropped; trivially false ones are kept and will make the problem
// unsatisfiable. AddGE panics if a coefficient or the normalized bound
// does not fit in an int32, the solver's term width.
func (p *Problem) AddGE(terms []Term, bound int, tag string) {
	for _, t := range terms {
		if t.Coef > math.MaxInt32 || t.Coef < -math.MaxInt32 {
			panic(fmt.Sprintf("pbsat: coefficient %d exceeds solver range", t.Coef))
		}
		if t.Coef < 0 {
			bound -= t.Coef // a·l with a<0: substitute l = 1 − ¬l
		}
	}
	if bound <= 0 {
		return // always satisfied
	}
	if bound > math.MaxInt32 {
		panic(fmt.Sprintf("pbsat: bound %d exceeds solver range", bound))
	}
	for _, t := range terms {
		switch {
		case t.Coef > 0:
			p.lits = append(p.lits, packLit(t.Lit))
			p.coefs = append(p.coefs, int32(t.Coef))
		case t.Coef < 0:
			p.lits = append(p.lits, packLit(t.Lit.Negated()))
			p.coefs = append(p.coefs, int32(-t.Coef))
		}
	}
	p.start = append(p.start, int32(len(p.lits)))
	p.bounds = append(p.bounds, int32(bound))
	p.tags = append(p.tags, tag)
}

// AddLE adds Σ coef_i·lit_i ≤ bound via negation.
func (p *Problem) AddLE(terms []Term, bound int, tag string) {
	neg := make([]Term, len(terms))
	for i, t := range terms {
		neg[i] = Term{Coef: -t.Coef, Lit: t.Lit}
	}
	p.AddGE(neg, -bound, tag)
}

// AddEQ adds Σ coef_i·lit_i = bound as a GE/LE pair.
func (p *Problem) AddEQ(terms []Term, bound int, tag string) {
	p.AddGE(terms, bound, tag)
	p.AddLE(terms, bound, tag)
}

// AddClause adds the disjunction of the literals (at least one true).
func (p *Problem) AddClause(tag string, lits ...Lit) {
	terms := make([]Term, len(lits))
	for i, l := range lits {
		terms[i] = Term{Coef: 1, Lit: l}
	}
	p.AddGE(terms, 1, tag)
}

// AtMostOne constrains at most one of the literals to be true.
func (p *Problem) AtMostOne(tag string, lits ...Lit) {
	terms := make([]Term, len(lits))
	for i, l := range lits {
		terms[i] = Term{Coef: 1, Lit: l}
	}
	p.AddLE(terms, 1, tag)
}

// ExactlyOne constrains exactly one of the literals to be true.
func (p *Problem) ExactlyOne(tag string, lits ...Lit) {
	terms := make([]Term, len(lits))
	for i, l := range lits {
		terms[i] = Term{Coef: 1, Lit: l}
	}
	p.AddEQ(terms, 1, tag)
}

// Implies adds a → b.
func (p *Problem) Implies(a, b Lit, tag string) {
	p.AddClause(tag, a.Negated(), b)
}

// Equiv adds a ↔ b.
func (p *Problem) Equiv(a, b Lit, tag string) {
	p.Implies(a, b, tag)
	p.Implies(b, a, tag)
}
