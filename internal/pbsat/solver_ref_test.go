package pbsat

import (
	"fmt"
	"math/rand"
	"testing"
)

// refSolver is the pre-counter propagation engine kept verbatim as a
// test oracle: propagate recomputes every touched constraint's
// maxPossible from its terms, every constraint mentioning a freshly
// assigned variable is re-queued, and each fallback decision rescans
// the assignment from index 0. The counter-based Solver must agree
// with it verdict-for-verdict, model-for-model and count-for-count —
// that equivalence is what makes the optimization invisible to the
// deterministic decode pipeline.
type refSolver struct {
	p            *Problem
	maxConflicts int

	assign  []int8
	trail   []Var
	occurs  [][]int32
	inQueue []bool
	queue   []int32
}

func newRefSolver(p *Problem) *refSolver {
	s := &refSolver{
		p:            p,
		maxConflicts: 1_000_000,
		assign:       make([]int8, p.NumVars()),
		occurs:       make([][]int32, p.NumVars()),
		inQueue:      make([]bool, p.NumConstraints()),
	}
	for ci := 0; ci < p.NumConstraints(); ci++ {
		for _, t := range s.terms(ci) {
			v := int(t.Lit.Var) - 1
			s.occurs[v] = append(s.occurs[v], int32(ci))
		}
	}
	return s
}

// terms unpacks constraint ci from the problem's flat storage.
func (s *refSolver) terms(ci int) []Term {
	var ts []Term
	for k := s.p.start[ci]; k < s.p.start[ci+1]; k++ {
		ts = append(ts, Term{Coef: int(s.p.coefs[k]), Lit: unpackLit(s.p.lits[k])})
	}
	return ts
}

func (s *refSolver) value(l Lit) int8 {
	v := s.assign[l.Var-1]
	if l.Neg {
		return -v
	}
	return v
}

func (s *refSolver) assignLit(l Lit) {
	val := int8(1)
	if l.Neg {
		val = -1
	}
	s.assign[l.Var-1] = val
	s.trail = append(s.trail, l.Var)
	for _, ci := range s.occurs[l.Var-1] {
		if !s.inQueue[ci] {
			s.inQueue[ci] = true
			s.queue = append(s.queue, ci)
		}
	}
}

func (s *refSolver) enqueueAll() {
	s.queue = s.queue[:0]
	for ci := range s.inQueue {
		s.inQueue[ci] = true
		s.queue = append(s.queue, int32(ci))
	}
}

func (s *refSolver) propagate(res *Result) bool {
	for len(s.queue) > 0 {
		ci := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.inQueue[ci] = false
		terms, bound := s.terms(int(ci)), int(s.p.bounds[ci])
		maxPossible := 0
		for _, t := range terms {
			if s.value(t.Lit) >= 0 {
				maxPossible += t.Coef
			}
		}
		if maxPossible < bound {
			for _, qi := range s.queue {
				s.inQueue[qi] = false
			}
			s.queue = s.queue[:0]
			s.inQueue[ci] = false
			return false
		}
		slack := maxPossible - bound
		for _, t := range terms {
			if s.value(t.Lit) == 0 && t.Coef > slack {
				s.assignLit(t.Lit)
				res.Propagated++
			}
		}
	}
	return true
}

func (s *refSolver) solve(branch Branching) Result {
	res := Result{}
	for i := range s.assign {
		s.assign[i] = 0
	}
	s.trail = s.trail[:0]
	s.enqueueAll()
	if pb, ok := branch.(*PriorityBranching); ok {
		pb.Reset()
	}
	isAssigned := func(v Var) bool { return s.assign[v-1] != 0 }

	var stack []decision
	for {
		ok := s.propagate(&res)
		if ok {
			l, any := s.nextDecision(branch, isAssigned, &res)
			if !any {
				res.SAT = true
				res.Model = make(Assignment, len(s.assign))
				for i, v := range s.assign {
					res.Model[i] = v > 0
				}
				return res
			}
			stack = append(stack, decision{trailLen: len(s.trail), lit: l})
			s.assignLit(l)
			res.Decisions++
			continue
		}
		res.Conflicts++
		if res.Conflicts > s.maxConflicts {
			res.Aborted = true
			return res
		}
		flipped := false
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			for len(s.trail) > top.trailLen {
				v := s.trail[len(s.trail)-1]
				s.trail = s.trail[:len(s.trail)-1]
				s.assign[v-1] = 0
			}
			if !top.flipped {
				top.flipped = true
				top.lit = top.lit.Negated()
				s.assignLit(top.lit)
				flipped = true
				break
			}
			stack = stack[:len(stack)-1]
		}
		if !flipped {
			return res
		}
	}
}

func (s *refSolver) nextDecision(branch Branching, isAssigned func(Var) bool, res *Result) (Lit, bool) {
	if branch != nil {
		if l, ok := branch.Next(isAssigned); ok {
			return l, true
		}
	}
	for i, v := range s.assign {
		if v == 0 {
			res.Fallbacks++
			return Lit{Var: Var(i + 1), Neg: true}, true
		}
	}
	return Lit{}, false
}

// randomProblem builds a random small PB problem plus a random priority
// branching over its variables, mirroring the brute-force test's
// generator but with more terms so counters actually matter.
func randomProblem(rng *rand.Rand) (*Problem, *PriorityBranching) {
	nVars := 3 + rng.Intn(10)
	p := NewProblem()
	vars := make([]Var, nVars)
	for i := range vars {
		vars[i] = p.NewVar("v")
	}
	nCons := 1 + rng.Intn(8)
	for c := 0; c < nCons; c++ {
		nTerms := 1 + rng.Intn(nVars)
		terms := make([]Term, nTerms)
		maxSum := 0
		for i := range terms {
			coef := 1 + rng.Intn(6)
			if rng.Intn(4) == 0 {
				coef = -coef
			}
			terms[i] = Term{Coef: coef, Lit: Lit{Var: vars[rng.Intn(nVars)], Neg: rng.Intn(2) == 0}}
			if coef > 0 {
				maxSum += coef
			}
		}
		bound := rng.Intn(maxSum + 2)
		switch rng.Intn(3) {
		case 0:
			p.AddGE(terms, bound, "ge")
		case 1:
			p.AddLE(terms, bound, "le")
		default:
			p.AddEQ(terms, bound, "eq")
		}
	}
	var br *PriorityBranching
	if rng.Intn(2) == 0 {
		prio := make(map[Var]float64, nVars)
		pref := make(map[Var]bool, nVars)
		for _, v := range vars {
			prio[v] = rng.Float64()
			pref[v] = rng.Intn(2) == 0
		}
		br = NewPriorityBranching(prio, pref)
	}
	return p, br
}

// TestCounterPropagationMatchesReference is the differential test: the
// counter-based solver and the recompute-from-scratch oracle must agree
// on verdict, model, and search statistics across randomized problems,
// with and without priority branching.
func TestCounterPropagationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for round := 0; round < 500; round++ {
		p, br := randomProblem(rng)
		// Avoid a typed-nil Branching interface when no branching rolled.
		var branch Branching
		if br != nil {
			branch = br
		}
		got := NewSolver(p).Solve(branch)
		// Propagated is not compared: how many literals a conflicting
		// cascade assigns before the conflict is detected depends on the
		// queue order (and is rewound anyway); the search trajectory —
		// decisions and conflicts — is the deterministic invariant.
		sameSearch(t, fmt.Sprintf("round %d", round), got, newRefSolver(p).solve(branch))
		if got.SAT {
			if bad := p.Verify(got.Model); len(bad) != 0 {
				t.Fatalf("round %d: model violates %v", round, bad)
			}
		}
	}
}

// TestFallbackCursorRewind drives backtracking that unassigns a
// variable below the fallback cursor. With a=false, b is propagated
// and the cursor moves past it to decide c; both polarities of c then
// conflict on d, so the search flips a, which frees b again. The cursor
// must rewind to b: without the rewind b would never be decided and the
// decision count would drop from 5 to 4.
func TestFallbackCursorRewind(t *testing.T) {
	p := NewProblem()
	a, b, c, d := p.NewVar("a"), p.NewVar("b"), p.NewVar("c"), p.NewVar("d")
	p.AddClause("a|b", Pos(a), Pos(b))
	for _, lc := range []Lit{Pos(c), Not(c)} {
		for _, ld := range []Lit{Pos(d), Not(d)} {
			p.AddClause("b->(c,d)", Not(b), lc, ld)
		}
	}
	got := NewSolver(p).Solve(nil)
	sameSearch(t, "cursor rewind", got, newRefSolver(p).solve(nil))
	if !got.SAT || got.Decisions != 5 || got.Fallbacks != 5 || got.Conflicts != 2 {
		t.Fatalf("res = %+v, want SAT with 5 fallback decisions and 2 conflicts", got)
	}
	if !got.Model.Get(a) || got.Model.Get(b) {
		t.Fatalf("model = %v, want a=true b=false", got.Model)
	}
}

// TestSolverReuseMatchesFresh pins the state-reset contract: a single
// Solver solving a sequence of problems-with-branchings must return
// exactly what a fresh Solver returns at every step.
func TestSolverReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 50; round++ {
		p, _ := randomProblem(rng)
		reused := NewSolver(p)
		for i := 0; i < 4; i++ {
			var br Branching
			if i%2 == 1 {
				prio := make(map[Var]float64)
				pref := make(map[Var]bool)
				for v := 1; v <= p.NumVars(); v++ {
					prio[Var(v)] = rng.Float64()
					pref[Var(v)] = rng.Intn(2) == 0
				}
				br = NewPriorityBranching(prio, pref)
			}
			got := reused.Solve(br)
			want := NewSolver(p).Solve(br)
			if got.SAT != want.SAT || got.Decisions != want.Decisions || got.Conflicts != want.Conflicts {
				t.Fatalf("round %d call %d: reused (SAT=%v d=%d c=%d), fresh (SAT=%v d=%d c=%d)",
					round, i, got.SAT, got.Decisions, got.Conflicts, want.SAT, want.Decisions, want.Conflicts)
			}
			if got.SAT {
				for j := range got.Model {
					if got.Model[j] != want.Model[j] {
						t.Fatalf("round %d call %d: model differs at x%d", round, i, j+1)
					}
				}
			}
		}
	}
}

// TestSetDenseMatchesMapConstructor pins the dense-branching rebuild
// against the map-based constructor on random priorities.
func TestSetDenseMatchesMapConstructor(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dense := NewDensePriorityBranching(0)
	for round := 0; round < 100; round++ {
		n := 1 + rng.Intn(20)
		prio := make([]float64, n)
		pref := make([]bool, n)
		mp := make(map[Var]float64, n)
		mb := make(map[Var]bool, n)
		for i := 0; i < n; i++ {
			prio[i] = float64(rng.Intn(4)) // coarse: force ties
			pref[i] = rng.Intn(2) == 0
			mp[Var(i+1)] = prio[i]
			mb[Var(i+1)] = pref[i]
		}
		dense.SetDense(prio, pref)
		ref := NewPriorityBranching(mp, mb)
		if len(dense.order) != len(ref.order) {
			t.Fatalf("round %d: order lengths %d vs %d", round, len(dense.order), len(ref.order))
		}
		for i := range dense.order {
			if dense.order[i] != ref.order[i] {
				t.Fatalf("round %d: order[%d] = %v vs %v", round, i, dense.order[i], ref.order[i])
			}
		}
	}
}

// sameSearch fails unless got and the oracle's want agree on verdict,
// decisions, conflicts, fallbacks and model.
func sameSearch(t *testing.T, name string, got, want Result) {
	t.Helper()
	if got.SAT != want.SAT || got.Aborted != want.Aborted || got.Decisions != want.Decisions ||
		got.Conflicts != want.Conflicts || got.Fallbacks != want.Fallbacks {
		t.Fatalf("%s: solver (SAT=%v aborted=%v d=%d c=%d f=%d), oracle (SAT=%v aborted=%v d=%d c=%d f=%d)",
			name, got.SAT, got.Aborted, got.Decisions, got.Conflicts, got.Fallbacks,
			want.SAT, want.Aborted, want.Decisions, want.Conflicts, want.Fallbacks)
	}
	if got.SAT {
		for i := range got.Model {
			if got.Model[i] != want.Model[i] {
				t.Fatalf("%s: model differs at x%d", name, i+1)
			}
		}
	}
}

// TestRootConflict: a problem that conflicts at the root is UNSAT
// without a decision and with exactly one conflict, as the oracle finds
// when it propagates from scratch.
func TestRootConflict(t *testing.T) {
	p := NewProblem()
	x, y := p.NewVar("x"), p.NewVar("y")
	p.AddClause("x", Pos(x))
	p.Implies(Pos(x), Pos(y), "x->y")
	p.AddClause("~y", Not(y))
	s := NewSolver(p)
	for call := 0; call < 2; call++ {
		got := s.Solve(nil)
		sameSearch(t, "root conflict", got, newRefSolver(p).solve(nil))
		if got.SAT || got.Aborted || got.Decisions != 0 || got.Conflicts != 1 {
			t.Fatalf("call %d: res = %+v, want UNSAT with 0 decisions and 1 conflict", call, got)
		}
	}
}

// TestRootFixesEverything: when the root propagation assigns every
// variable, Solve returns the model without a decision and the
// residual problem is empty.
func TestRootFixesEverything(t *testing.T) {
	p := NewProblem()
	x, y, z := p.NewVar("x"), p.NewVar("y"), p.NewVar("z")
	p.AddClause("x", Pos(x))
	p.Implies(Pos(x), Pos(y), "x->y")
	p.Implies(Pos(y), Not(z), "y->~z")
	s := NewSolver(p)
	if r := s.Root(); r.FixedVars != 3 || r.ResidualConstraints != 0 || r.ResidualTerms != 0 {
		t.Fatalf("root = %+v, want 3 fixed variables and an empty residual", r)
	}
	got := s.Solve(nil)
	sameSearch(t, "root fixes all", got, newRefSolver(p).solve(nil))
	if !got.SAT || got.Decisions != 0 || got.Propagated != 3 {
		t.Fatalf("res = %+v, want SAT with 0 decisions and 3 propagated", got)
	}
	if !got.Model.Get(x) || !got.Model.Get(y) || got.Model.Get(z) {
		t.Fatalf("model = %v, want x, y, ~z", got.Model)
	}
}

// TestResidualDropsRootSatisfied: a constraint the root satisfies is
// not in the residual problem, a partly satisfied one keeps its free
// terms with a lowered bound, and decisions that falsify the dropped
// constraint's other terms still decode as the oracle does.
func TestResidualDropsRootSatisfied(t *testing.T) {
	p := NewProblem()
	a, b, c, d := p.NewVar("a"), p.NewVar("b"), p.NewVar("c"), p.NewVar("d")
	p.AddClause("a", Pos(a))
	p.AddClause("a|b|c", Pos(a), Pos(b), Pos(c)) // satisfied at the root
	p.AddGE([]Term{{2, Pos(a)}, {1, Pos(b)}, {1, Pos(c)}, {1, Pos(d)}}, 3, "2a+b+c+d>=3")
	s := NewSolver(p)
	if r := s.Root(); r.FixedVars != 1 || r.ResidualConstraints != 1 || r.ResidualTerms != 3 {
		t.Fatalf("root = %+v, want 1 fixed variable and a residual of 1 constraint, 3 terms", r)
	}
	if s.bounds[0] != 1 {
		t.Fatalf("residual bound = %d, want 3 - 2 = 1", s.bounds[0])
	}
	// Deciding b and c false first falsifies both free terms of the
	// dropped clause and forces d through the residual constraint.
	br := NewPriorityBranching(map[Var]float64{b: 2, c: 1}, map[Var]bool{})
	got := s.Solve(br)
	sameSearch(t, "residual", got, newRefSolver(p).solve(br))
	if !got.SAT || got.Decisions != 2 || got.Propagated != 2 || !got.Model.Get(d) {
		t.Fatalf("res = %+v, want SAT after 2 decisions with a and d propagated", got)
	}
	if bad := p.Verify(got.Model); len(bad) != 0 {
		t.Fatalf("model violates %v", bad)
	}
}

// TestSolveRestartsFromRoot: consecutive Solve calls on one Solver with
// different branchings, the first one aborted mid-search, each search
// exactly as a fresh Solver and the oracle do: no assignment, counter,
// queue entry or cursor position leaks from one call into the next.
func TestSolveRestartsFromRoot(t *testing.T) {
	p := NewProblem()
	e, a, b, c, d := p.NewVar("e"), p.NewVar("a"), p.NewVar("b"), p.NewVar("c"), p.NewVar("d")
	p.AddClause("e", Pos(e))
	p.AddClause("e|a|b", Pos(e), Pos(a), Pos(b))
	p.AddClause("a|b", Pos(a), Pos(b))
	for _, lc := range []Lit{Pos(c), Not(c)} {
		for _, ld := range []Lit{Pos(d), Not(d)} {
			p.AddClause("b->(c,d)", Not(b), lc, ld)
		}
	}
	preferA := NewPriorityBranching(map[Var]float64{a: 1}, map[Var]bool{a: true})
	calls := []struct {
		branch       Branching
		maxConflicts int
	}{
		{nil, 1}, // aborts at its second conflict, deep in the search
		{preferA, 0},
		{nil, 0},
		{preferA, 0},
	}
	s := NewSolver(p)
	for i, call := range calls {
		s.MaxConflicts = call.maxConflicts
		got := s.Solve(call.branch)
		fresh := NewSolver(p)
		fresh.MaxConflicts = call.maxConflicts
		want := fresh.Solve(call.branch)
		ref := newRefSolver(p)
		if call.maxConflicts > 0 {
			ref.maxConflicts = call.maxConflicts
		}
		if i == 0 && !got.Aborted {
			t.Fatalf("call 0: res = %+v, want an aborted search", got)
		}
		sameSearch(t, "reused vs oracle", got, ref.solve(call.branch))
		sameSearch(t, "reused vs fresh", got, want)
		if got.Propagated != want.Propagated {
			t.Fatalf("call %d: propagated %d, fresh solver %d", i, got.Propagated, want.Propagated)
		}
	}
	if s.Root().FixedVars != 1 {
		t.Fatalf("root = %+v, want e fixed", s.Root())
	}
}
