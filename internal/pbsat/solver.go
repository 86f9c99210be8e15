package pbsat

import (
	"fmt"
	"sort"
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
	order []Lit     // sorted by priority desc, then variable asc
	prio  []float64 // priority per order entry, co-sorted with order
	pos   int
}

// NewPriorityBranching builds a branching from per-variable priorities
// and preferred values. Variables missing from the maps are left to the
// solver's fallback.
func NewPriorityBranching(priority map[Var]float64, preferTrue map[Var]bool) *PriorityBranching {
	b := &PriorityBranching{
		order: make([]Lit, 0, len(priority)),
		prio:  make([]float64, 0, len(priority)),
	}
	for v := range priority {
		b.order = append(b.order, Lit{Var: v, Neg: !preferTrue[v]})
		b.prio = append(b.prio, priority[v])
	}
	b.sortOrder()
	return b
}

// NewDensePriorityBranching returns an empty branching with buffers
// sized for n variables, ready for SetDense.
func NewDensePriorityBranching(n int) *PriorityBranching {
	return &PriorityBranching{
		order: make([]Lit, 0, n),
		prio:  make([]float64, 0, n),
	}
}

// SetDense rebuilds the decision order in place from dense per-variable
// slices: entry i holds the priority and preferred polarity of variable
// i+1. It reuses the branching's buffers, so steady-state calls do not
// allocate. The resulting order matches NewPriorityBranching on maps
// with the same contents: priority descending, ties by variable index.
func (b *PriorityBranching) SetDense(priority []float64, preferTrue []bool) {
	b.order = b.order[:0]
	b.prio = b.prio[:0]
	for i, p := range priority {
		b.order = append(b.order, Lit{Var: Var(i + 1), Neg: !preferTrue[i]})
		b.prio = append(b.prio, p)
	}
	b.sortOrder()
	b.pos = 0
}

// sortOrder establishes the deterministic decision order: priority
// descending, ties broken by ascending variable index.
func (b *PriorityBranching) sortOrder() {
	sort.Sort((*byPriority)(b))
}

// byPriority sorts order/prio together; it aliases PriorityBranching so
// the sorter interface value never allocates per call.
type byPriority PriorityBranching

func (s *byPriority) Len() int { return len(s.order) }
func (s *byPriority) Less(i, j int) bool {
	if s.prio[i] != s.prio[j] {
		return s.prio[i] > s.prio[j]
	}
	return s.order[i].Var < s.order[j].Var
}
func (s *byPriority) Swap(i, j int) {
	s.order[i], s.order[j] = s.order[j], s.order[i]
	s.prio[i], s.prio[j] = s.prio[j], s.prio[i]
}

// Next implements Branching.
func (b *PriorityBranching) Next(isAssigned func(Var) bool) (Lit, bool) {
	for b.pos < len(b.order) {
		l := b.order[b.pos]
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

// occurrence is one (constraint, term) incidence of a variable, carrying
// everything the counter update needs: which constraint to touch, the
// term's weight, and the assignment sign under which the term's literal
// becomes false (-1 for a positive literal, +1 for a negated one).
type occurrence struct {
	ci        int32
	coef      int32
	falseWhen int8
}

// Solver runs chronological DPLL with counter-based pseudo-Boolean unit
// propagation: each constraint's maximum achievable sum is maintained
// incrementally on assign/unassign instead of being recomputed from its
// terms on every visit. A Solver is reusable: Solve resets all search
// state, so one Solver amortizes its index structures over many calls
// (the SAT-decoding hot loop). It is not safe for concurrent use.
type Solver struct {
	// MaxConflicts bounds the search (0 = 1,000,000).
	MaxConflicts int

	// The problem's flat term arrays, shared, never written.
	start  []int32
	lits   []int32
	coefs  []int32
	bounds []int32

	assign []int8 // 1=true, -1=false, 0=unassigned; index var-1
	trail  []Var
	// fallback is the first-unassigned cursor: every variable below
	// index fallback is assigned. unassign rewinds it.
	fallback int

	// The occurrences of variable index v are occs[occStart[v]:occStart[v+1]]:
	// its (constraint, coef, polarity) incidences, so an assignment
	// updates exactly the counters it affects — and wakes only
	// constraints whose slack shrank.
	occStart []int32
	occs     []occurrence

	// maxPossible[ci] is the current Σ coef over terms whose literal is
	// not yet false; initMax is its all-unassigned reset template.
	maxPossible []int64
	initMax     []int64
	maxCoef     []int32 // largest term weight, to skip no-op scans

	inQueue []bool  // constraint index -> queued for recheck
	queue   []int32 // recheck worklist

	stack    []decision // reusable decision stack
	modelBuf Assignment // backs Result.Model across calls
}

// NewSolver prepares a solver for the problem. The solver reads the
// problem's constraints as they are now; constraints added later are
// not seen.
func NewSolver(p *Problem) *Solver {
	n := p.NumConstraints()
	nv := p.NumVars()
	s := &Solver{
		MaxConflicts: 1_000_000,
		start:        p.start,
		lits:         p.lits,
		coefs:        p.coefs,
		bounds:       p.bounds,
		assign:       make([]int8, nv),
		occStart:     make([]int32, nv+1),
		occs:         make([]occurrence, len(p.lits)),
		maxPossible:  make([]int64, n),
		initMax:      make([]int64, n),
		maxCoef:      make([]int32, n),
		inQueue:      make([]bool, n),
	}
	// Counting pass: occStart[v+1] holds variable v's occurrence count,
	// prefix-summed into row offsets.
	for _, l := range s.lits {
		s.occStart[l>>1+1]++
	}
	for v := 0; v < nv; v++ {
		s.occStart[v+1] += s.occStart[v]
	}
	fill := make([]int32, nv)
	copy(fill, s.occStart[:nv])
	for ci := 0; ci < n; ci++ {
		for k := s.start[ci]; k < s.start[ci+1]; k++ {
			l, coef := s.lits[k], s.coefs[k]
			falseWhen := int8(-1)
			if l&1 != 0 {
				falseWhen = 1
			}
			s.occs[fill[l>>1]] = occurrence{ci: int32(ci), coef: coef, falseWhen: falseWhen}
			fill[l>>1]++
			s.initMax[ci] += int64(coef)
			s.maxCoef[ci] = max(s.maxCoef[ci], coef)
		}
	}
	copy(s.maxPossible, s.initMax)
	return s
}

// assignLit records the assignment, updates the slack counters of every
// constraint a falsified term belongs to, and wakes those constraints.
// Constraints where the literal became true are not queued: their slack
// is unchanged, so no new propagation or conflict can arise from them.
func (s *Solver) assignLit(l Lit) {
	val := int8(1)
	if l.Neg {
		val = -1
	}
	v := l.Var - 1
	s.assign[v] = val
	s.trail = append(s.trail, l.Var)
	for _, o := range s.occs[s.occStart[v]:s.occStart[v+1]] {
		if o.falseWhen != val {
			continue
		}
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
	val := s.assign[v]
	s.assign[v] = 0
	if int(v) < s.fallback {
		s.fallback = int(v)
	}
	for _, o := range s.occs[s.occStart[v]:s.occStart[v+1]] {
		if o.falseWhen == val {
			s.maxPossible[o.ci] += int64(o.coef)
		}
	}
}

// enqueueAll schedules every constraint for one initial check.
func (s *Solver) enqueueAll() {
	s.queue = s.queue[:0]
	for ci := range s.inQueue {
		s.inQueue[ci] = true
		s.queue = append(s.queue, int32(ci))
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
				s.assignLit(unpackLit(s.lits[k]))
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
// state is rewound first, so the same Solver can serve many Solve calls
// without reallocating its indexes.
func (s *Solver) Solve(branch Branching) Result {
	res := Result{}
	clear(s.assign)
	copy(s.maxPossible, s.initMax)
	s.trail = s.trail[:0]
	s.fallback = 0
	s.enqueueAll()
	if pb, ok := branch.(*PriorityBranching); ok {
		pb.Reset()
	}
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
			s.assignLit(l)
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
				s.assignLit(top.lit)
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
