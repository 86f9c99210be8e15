package pbsat

import (
	"cmp"
	"fmt"
	"slices"
)

// Assignment is a model: value per variable, indexed 1..NumVars.
type Assignment []bool

// Get returns the value of v.
func (a Assignment) Get(v Var) bool { return a[v-1] }

// Branching supplies the decision order of the DPLL search. It is how
// SAT-decoding injects the genotype: decisions follow the evolved
// priorities, so the first model found lies near the genotype.
type Branching interface {
	// Next returns the literal to decide next among unassigned
	// variables; ok=false means "no preference left" and lets the solver
	// fall back to the first unassigned variable (preferring false, the
	// cheaper polarity for allocation-style problems).
	Next(isAssigned func(Var) bool) (Lit, bool)
}

// PriorityBranching decides variables in descending priority with the
// stored preferred polarity. A zero PriorityBranching is empty; (re)fill
// it with SetDense to reuse its buffers across decodes.
type PriorityBranching struct {
	order []prioLit // sorted by priority desc, then variable asc
	pos   int
}

// prioLit is one decision-order entry: a packed literal and the
// priority of its variable.
type prioLit struct {
	prio float64
	lit  int32
}

// NewPriorityBranching builds a branching from per-variable priorities
// and preferred values. Variables missing from the maps are left to the
// solver's fallback.
func NewPriorityBranching(priority map[Var]float64, preferTrue map[Var]bool) *PriorityBranching {
	b := &PriorityBranching{order: make([]prioLit, 0, len(priority))}
	for v, p := range priority {
		b.order = append(b.order, prioLit{prio: p, lit: packLit(Lit{Var: v, Neg: !preferTrue[v]})})
	}
	b.sortOrder()
	return b
}

// NewDensePriorityBranching returns an empty branching with buffers
// sized for n variables, ready for SetDense.
func NewDensePriorityBranching(n int) *PriorityBranching {
	return &PriorityBranching{order: make([]prioLit, 0, n)}
}

// SetDense rebuilds the decision order in place from dense per-variable
// slices: entry i holds the priority and preferred polarity of variable
// i+1. It reuses the branching's buffers, so steady-state calls do not
// allocate. The resulting order matches NewPriorityBranching on maps
// with the same contents: priority descending, ties by variable index.
func (b *PriorityBranching) SetDense(priority []float64, preferTrue []bool) {
	b.order = b.order[:0]
	for i, p := range priority {
		b.order = append(b.order, prioLit{prio: p, lit: packLit(Lit{Var: Var(i + 1), Neg: !preferTrue[i]})})
	}
	b.sortOrder()
	b.pos = 0
}

// sortOrder establishes the deterministic decision order: priority
// descending, ties broken by ascending variable index. Variables are
// distinct, so this is a total order and the permutation is unique.
func (b *PriorityBranching) sortOrder() {
	slices.SortFunc(b.order, func(x, y prioLit) int {
		if c := cmp.Compare(y.prio, x.prio); c != 0 {
			return c
		}
		return cmp.Compare(x.lit>>1, y.lit>>1)
	})
}

// Next implements Branching.
func (b *PriorityBranching) Next(isAssigned func(Var) bool) (Lit, bool) {
	for b.pos < len(b.order) {
		l := unpackLit(b.order[b.pos].lit)
		if !isAssigned(l.Var) {
			return l, true
		}
		b.pos++
	}
	return Lit{}, false
}

// Reset rewinds the branching for a fresh Solve call.
func (b *PriorityBranching) Reset() { b.pos = 0 }

// Result reports the outcome of a Solve call.
type Result struct {
	SAT bool
	// Model is the satisfying assignment. It aliases a buffer owned by
	// the solver and is only valid until the next Solve call on the same
	// Solver; copy it to retain it longer.
	Model     Assignment
	Conflicts int
	Decisions int
	// Fallbacks counts the decisions the branching left to the solver
	// (first unassigned variable, negative polarity); they are included
	// in Decisions.
	Fallbacks  int
	Propagated int
	// Aborted is set when the conflict limit was exceeded before a
	// verdict; SAT is false in that case but unsatisfiability is NOT
	// proven.
	Aborted bool
}

// occurrence is one residual term seen from its literal: the
// constraint it belongs to and its weight. Occurrences are listed per
// packed literal, so an assignment walks exactly the terms it falsifies.
type occurrence struct {
	ci   int32
	coef int32
}

// Solver runs chronological DPLL with counter-based pseudo-Boolean unit
// propagation: each constraint's maximum achievable sum is maintained
// incrementally on assign/unassign instead of being recomputed from its
// terms on every visit. A Solver is reusable: Solve resets all search
// state, so one Solver amortizes its index structures over many calls
// (the SAT-decoding hot loop). It is not safe for concurrent use.
//
// NewSolver propagates the whole problem once at decision level 0 (the
// root). Every Solve starts from that fixpoint and searches only the
// residual problem: the constraints the root leaves unsatisfied, minus
// their root-fixed terms, with bounds lowered by the root-true weight.
type Solver struct {
	// MaxConflicts bounds the search (0 = 1,000,000).
	MaxConflicts int

	// The residual problem, in the Problem's CSR layout.
	start  []int32
	lits   []int32
	coefs  []int32
	bounds []int32

	// The root fixpoint: its assignment, how many literals it
	// propagated and whether it conflicts.
	rootAssign   []int8
	rootProp     int
	rootFixed    int
	rootConflict bool

	assign []int8 // 1=true, -1=false, 0=unassigned; index var-1
	// trail lists the variables assigned since the root, in order.
	trail []Var
	// fallback is the first-unassigned cursor: every variable below
	// index fallback is assigned. unassign rewinds it.
	fallback int

	// The occurrences of packed literal l are occs[occStart[l]:occStart[l+1]],
	// so an assignment updates exactly the counters of the terms it
	// falsifies — and wakes only constraints whose slack shrank.
	occStart []int32
	occs     []occurrence

	// maxPossible[ci] is the current Σ coef over terms whose literal is
	// not yet false; initMax is its root reset template.
	maxPossible []int64
	initMax     []int64
	maxCoef     []int32 // largest term weight, to skip no-op scans

	inQueue []bool  // constraint index -> queued for recheck
	queue   []int32 // recheck worklist

	stack    []decision // reusable decision stack
	modelBuf Assignment // backs Result.Model across calls
}

// NewSolver prepares a solver for the problem: it propagates the
// problem's constraints at the root and keeps its own copy of the
// residual problem. Constraints added to p later are not seen.
//
// Starting every Solve from the root fixpoint searches exactly as
// propagating from scratch would: after the root propagation the queue
// is empty, the search depends only on the assignment, the counters,
// the fallback cursor and the branching, and backtracking never undoes
// a root assignment. A dropped constraint's root-true weight already
// meets its bound, so its slack is at least the weight of its free
// terms: it can never force a literal or conflict.
func NewSolver(p *Problem) *Solver {
	nv := p.NumVars()
	s := &Solver{
		MaxConflicts: 1_000_000,
		start:        p.start,
		lits:         p.lits,
		coefs:        p.coefs,
		bounds:       p.bounds,
		assign:       make([]int8, nv),
		trail:        make([]Var, 0, nv),
		occStart:     make([]int32, 2*nv+1),
		queue:        make([]int32, 0, len(p.bounds)),
	}
	fill := make([]int32, 2*nv)
	s.index(fill)
	for ci := range s.bounds {
		s.inQueue[ci] = true
		s.queue = append(s.queue, int32(ci))
	}
	var res Result
	s.rootConflict = !s.propagate(&res)
	s.rootProp = res.Propagated
	s.rootFixed = len(s.trail)
	s.trail = s.trail[:0]
	s.rootAssign = s.assign
	s.assign = make([]int8, nv)
	if !s.rootConflict {
		s.residual()
		s.index(fill)
	}
	return s
}

// index builds the occurrence lists and the per-constraint counters
// over the solver's term arrays. fill is scratch of length 2·NumVars.
func (s *Solver) index(fill []int32) {
	n := len(s.bounds)
	clear(s.occStart)
	// Counting pass: occStart[l+1] holds literal l's occurrence count,
	// prefix-summed into row offsets.
	for _, l := range s.lits {
		s.occStart[l+1]++
	}
	for l := range fill {
		s.occStart[l+1] += s.occStart[l]
	}
	copy(fill, s.occStart)
	s.occs = make([]occurrence, len(s.lits))
	s.initMax = make([]int64, n)
	s.maxCoef = make([]int32, n)
	for ci := 0; ci < n; ci++ {
		for k := s.start[ci]; k < s.start[ci+1]; k++ {
			l, coef := s.lits[k], s.coefs[k]
			s.occs[fill[l]] = occurrence{ci: int32(ci), coef: coef}
			fill[l]++
			s.initMax[ci] += int64(coef)
			s.maxCoef[ci] = max(s.maxCoef[ci], coef)
		}
	}
	s.maxPossible = slices.Clone(s.initMax)
	s.inQueue = make([]bool, n)
}

// residual replaces the term arrays by the residual problem. A
// counting pass computes each constraint's residual bound (0 when the
// root satisfies it) and sizes the arrays; the fill pass keeps
// constraint and term order.
func (s *Solver) residual() {
	rbound := make([]int32, len(s.bounds))
	var nc, nt int
	for ci, bound := range s.bounds {
		var sat int64
		free := 0
		for k := s.start[ci]; k < s.start[ci+1]; k++ {
			l := s.lits[k]
			switch v := s.rootAssign[l>>1]; {
			case v == 0:
				free++
			case (v > 0) == (l&1 == 0):
				sat += int64(s.coefs[k])
			}
		}
		if sat < int64(bound) {
			rbound[ci] = bound - int32(sat)
			nc++
			nt += free
		}
	}
	start := make([]int32, 1, nc+1)
	lits := make([]int32, 0, nt)
	coefs := make([]int32, 0, nt)
	bounds := make([]int32, 0, nc)
	for ci, b := range rbound {
		if b == 0 {
			continue
		}
		for k := s.start[ci]; k < s.start[ci+1]; k++ {
			if s.rootAssign[s.lits[k]>>1] == 0 {
				lits = append(lits, s.lits[k])
				coefs = append(coefs, s.coefs[k])
			}
		}
		start = append(start, int32(len(lits)))
		bounds = append(bounds, b)
	}
	s.start, s.lits, s.coefs, s.bounds = start, lits, coefs, bounds
}

// RootStats describes the root fixpoint and the residual problem a
// Solver searches. After a root conflict Solve does not search, and the
// residual is the whole problem.
type RootStats struct {
	FixedVars           int // variables the root propagation assigns
	ResidualConstraints int
	ResidualTerms       int
}

// Root reports the solver's root fixpoint and residual problem size.
func (s *Solver) Root() RootStats {
	return RootStats{
		FixedVars:           s.rootFixed,
		ResidualConstraints: len(s.bounds),
		ResidualTerms:       len(s.lits),
	}
}

// assignLit makes packed literal l true, updates the slack counters of
// every constraint its complement belongs to, and wakes those
// constraints. Constraints where the literal became true are not
// queued: their slack is unchanged, so no new propagation or conflict
// can arise from them.
func (s *Solver) assignLit(l int32) {
	v := l >> 1
	s.assign[v] = 1 - 2*int8(l&1)
	s.trail = append(s.trail, Var(v+1))
	f := l ^ 1
	for _, o := range s.occs[s.occStart[f]:s.occStart[f+1]] {
		s.maxPossible[o.ci] -= int64(o.coef)
		if !s.inQueue[o.ci] {
			s.inQueue[o.ci] = true
			s.queue = append(s.queue, o.ci)
		}
	}
}

// unassign undoes one trail entry, restoring the slack counters and
// rewinding the fallback cursor.
func (s *Solver) unassign(v Var) {
	v--
	f := int32(v) << 1
	if s.assign[v] > 0 {
		f |= 1 // the negative literal was false
	}
	s.assign[v] = 0
	if int(v) < s.fallback {
		s.fallback = int(v)
	}
	for _, o := range s.occs[s.occStart[f]:s.occStart[f+1]] {
		s.maxPossible[o.ci] += int64(o.coef)
	}
}

// propagate runs slack-based unit propagation over the recheck
// worklist: only constraints whose slack shrank are revisited, and a
// constraint's terms are scanned only when its largest weight exceeds
// the current slack (otherwise nothing can be forced). It returns false
// on conflict; the queue is drained either way (a conflict clears it,
// since backtracking re-seeds from the flipped decision's occurrences).
func (s *Solver) propagate(res *Result) bool {
	for len(s.queue) > 0 {
		ci := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.inQueue[ci] = false
		slack := s.maxPossible[ci] - int64(s.bounds[ci])
		if slack < 0 {
			// Conflict: clear the queue; the caller backtracks and
			// re-seeds via assignLit of the flipped decision.
			for _, qi := range s.queue {
				s.inQueue[qi] = false
			}
			s.queue = s.queue[:0]
			return false
		}
		if int64(s.maxCoef[ci]) <= slack {
			continue // no term outweighs the slack; nothing to force
		}
		for k := s.start[ci]; k < s.start[ci+1]; k++ {
			if int64(s.coefs[k]) > slack && s.assign[s.lits[k]>>1] == 0 {
				s.assignLit(s.lits[k])
				res.Propagated++
			}
		}
	}
	return true
}

// decision is one entry of the chronological decision stack.
type decision struct {
	trailLen int
	lit      Lit
	flipped  bool
}

// Solve searches for a model, deciding variables in the order supplied
// by branch (nil uses plain first-unassigned/false-first). All search
// state is rewound to the root fixpoint first, so the same Solver can
// serve many Solve calls without reallocating its indexes.
func (s *Solver) Solve(branch Branching) Result {
	if pb, ok := branch.(*PriorityBranching); ok {
		pb.Reset()
	}
	res := Result{Propagated: s.rootProp}
	if s.rootConflict {
		res.Conflicts = 1
		return res
	}
	copy(s.assign, s.rootAssign)
	copy(s.maxPossible, s.initMax)
	s.trail = s.trail[:0]
	s.fallback = 0
	isAssigned := func(v Var) bool { return s.assign[v-1] != 0 }

	s.stack = s.stack[:0]
	maxConf := s.MaxConflicts
	if maxConf <= 0 {
		maxConf = 1_000_000
	}

	for {
		ok := s.propagate(&res)
		if ok {
			l, any := s.nextDecision(branch, isAssigned, &res)
			if !any {
				// All variables assigned (or none left to decide): model.
				res.SAT = true
				if s.modelBuf == nil {
					s.modelBuf = make(Assignment, len(s.assign))
				}
				for i, v := range s.assign {
					s.modelBuf[i] = v > 0
				}
				res.Model = s.modelBuf
				return res
			}
			s.stack = append(s.stack, decision{trailLen: len(s.trail), lit: l})
			s.assignLit(packLit(l))
			res.Decisions++
			continue
		}
		// Conflict: chronological backtracking.
		res.Conflicts++
		if res.Conflicts > maxConf {
			res.Aborted = true
			return res
		}
		flipped := false
		for len(s.stack) > 0 {
			top := &s.stack[len(s.stack)-1]
			// Undo trail past this decision.
			for len(s.trail) > top.trailLen {
				v := s.trail[len(s.trail)-1]
				s.trail = s.trail[:len(s.trail)-1]
				s.unassign(v)
			}
			if !top.flipped {
				top.flipped = true
				top.lit = top.lit.Negated()
				s.assignLit(packLit(top.lit))
				flipped = true
				break
			}
			s.stack = s.stack[:len(s.stack)-1]
		}
		if !flipped {
			return res // UNSAT
		}
	}
}

// nextDecision consults the branching, falling back to the first
// unassigned variable with negative polarity (counted in
// res.Fallbacks). The fallback cursor makes that lookup amortized O(1):
// every variable below it is assigned, so the scan resumes there.
func (s *Solver) nextDecision(branch Branching, isAssigned func(Var) bool, res *Result) (Lit, bool) {
	if branch != nil {
		if l, ok := branch.Next(isAssigned); ok {
			if s.assign[l.Var-1] != 0 {
				// Branching returned an assigned var despite the filter;
				// defensive fallback below.
				panic(fmt.Sprintf("pbsat: branching returned assigned variable x%d", int(l.Var)))
			}
			return l, true
		}
	}
	for s.fallback < len(s.assign) && s.assign[s.fallback] != 0 {
		s.fallback++
	}
	if s.fallback == len(s.assign) {
		return Lit{}, false
	}
	res.Fallbacks++
	return Lit{Var: Var(s.fallback + 1), Neg: true}, true
}

// Verify checks a full assignment against every constraint and returns
// the tags of violated constraints (empty means satisfied).
func (p *Problem) Verify(a Assignment) []string {
	var bad []string
	for ci, bound := range p.bounds {
		sum := 0
		for k := p.start[ci]; k < p.start[ci+1]; k++ {
			l := unpackLit(p.lits[k])
			if a.Get(l.Var) != l.Neg {
				sum += int(p.coefs[k])
			}
		}
		if sum < int(bound) {
			tag := p.tags[ci]
			if tag == "" {
				tag = fmt.Sprintf("constraint#%d", ci)
			}
			bad = append(bad, tag)
		}
	}
	return bad
}
