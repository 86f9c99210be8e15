package moea

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/obs"
)

// errEmptyGenotype rejects problems whose genotype has no genes.
var errEmptyGenotype = errors.New("moea: problem has empty genotype")

// Problem is the optimization problem seen by NSGA-II: a genotype
// length and an evaluation function mapping a genotype to (minimized)
// objectives plus an optional payload.
type Problem interface {
	GenotypeLen() int
	Evaluate(genotype []float64) (Objectives, any)
}

// Options configure an NSGA-II run.
type Options struct {
	PopSize     int
	Generations int
	// CrossoverRate is the per-pair probability of uniform crossover
	// (default 0.9); MutationRate the per-gene probability of resampling
	// (default 1/len).
	CrossoverRate float64
	MutationRate  float64
	// MutationStep is the stddev-like half-width of the polynomial-ish
	// perturbation (default 0.15); with probability ½ a mutated gene is
	// resampled uniformly instead, keeping global exploration alive.
	MutationStep float64
	Seed         int64
	// Workers > 1 evaluates each generation's individuals concurrently
	// on that many goroutines. Problem.Evaluate must then be safe for
	// concurrent use. Results are deterministic: genotype generation
	// stays sequential and evaluation order does not influence it.
	Workers int
	// ArchiveEpsilon, when non-empty, thins the all-time archive by
	// ε-dominance: objective k is quantized to boxes of width
	// ArchiveEpsilon[k] (0 = no quantization for that objective) and at
	// most one representative per non-dominated box is kept. Bounds the
	// archive the way practical DSE tools do; the paper reports 176
	// Pareto implementations from 100,000 evaluations.
	ArchiveEpsilon []float64
	// OnProgress, when non-nil, receives a telemetry sample after every
	// generation, with the archive merged over all islands. It runs on
	// the optimizer goroutine; keep it cheap.
	OnProgress func(Progress)
	// Resume, when non-nil, makes Run restore the optimizer state from a
	// checkpoint instead of sampling a fresh initial population. The
	// checkpoint must match the problem and options (algorithm, genotype
	// length, population size, generation count, seed, ε-archive).
	// RunIslands resumes from IslandOptions.Resume instead.
	Resume *Checkpoint
	// OnCheckpoint, when non-nil, makes Run emit a state snapshot every
	// CheckpointEvery generations and once more when the context is
	// cancelled. A non-nil return aborts the run with that error.
	// RunIslands reports through IslandOptions.OnCheckpoint instead.
	OnCheckpoint func(*Checkpoint) error
	// CheckpointEvery is the generation period of checkpoint callbacks
	// (0 = only on cancellation). No checkpoint is taken at the final
	// generation.
	CheckpointEvery int
	// Obs, when non-nil, times each generation step (and, via the
	// problem, finer stages) on the observability tracer. Purely
	// observational: it never touches RNG state or evaluation order, and
	// a nil tracer costs one nil check per generation.
	Obs *obs.Tracer
}

func (o Options) withDefaults(genLen int) Options {
	if o.PopSize <= 0 {
		o.PopSize = 64
	}
	if o.PopSize%2 == 1 {
		o.PopSize++
	}
	if o.Generations <= 0 {
		o.Generations = 50
	}
	if o.CrossoverRate == 0 {
		o.CrossoverRate = 0.9
	}
	if o.MutationRate == 0 && genLen > 0 {
		o.MutationRate = 1.0 / float64(genLen)
	}
	if o.MutationStep == 0 {
		o.MutationStep = 0.15
	}
	return o
}

// Result carries the outcome of a run.
type Result struct {
	// Archive is the all-time non-dominated set.
	Archive []*Individual
	// FinalPopulation is the last generation.
	FinalPopulation []*Individual
	// Evaluations counts Problem.Evaluate calls.
	Evaluations int
}

// nsga2 is the stepping form of the optimizer: construction samples (or
// resumes) the initial population, step() advances one generation, and
// snapshot() captures resumable state. RunIslands steps one instance
// per island over a shared evaluation pool; Run is its one-island case.
type nsga2 struct {
	p      Problem
	opt    Options
	genLen int
	src    *prng
	rng    *rand.Rand
	pool   *evalPool

	pop, archive []*Individual
	gen          int // next generation index
	evals        int // cumulative Problem.Evaluate count (across resumes)
	runEvals     int // evaluations performed by this process
}

// newNSGA2 builds a stepping optimizer. The pool is borrowed, not
// owned: the caller creates it for the run and closes it afterwards,
// which is what hoists worker-pool construction out of the per-batch
// (per-generation) loop. opt must already carry defaults.
func newNSGA2(p Problem, opt Options, pool *evalPool) (*nsga2, error) {
	genLen := p.GenotypeLen()
	if genLen <= 0 {
		return nil, errEmptyGenotype
	}
	s := &nsga2{p: p, opt: opt, genLen: genLen, src: newPRNG(opt.Seed), pool: pool}
	s.rng = rand.New(s.src)

	if cp := opt.Resume; cp != nil {
		if err := cp.check(AlgorithmNSGA2, genLen); err != nil {
			return nil, err
		}
		if cp.PopSize != opt.PopSize {
			return nil, fmt.Errorf("moea: resume: checkpoint population size %d does not match PopSize %d", cp.PopSize, opt.PopSize)
		}
		if cp.Generations != opt.Generations {
			return nil, fmt.Errorf("moea: resume: checkpoint targets %d generations, run targets %d", cp.Generations, opt.Generations)
		}
		if cp.Seed != opt.Seed {
			return nil, fmt.Errorf("moea: resume: checkpoint seed %d does not match Seed %d", cp.Seed, opt.Seed)
		}
		if !equalEpsilon(cp.ArchiveEpsilon, opt.ArchiveEpsilon) {
			return nil, fmt.Errorf("moea: resume: checkpoint ε-archive %v does not match ArchiveEpsilon %v", cp.ArchiveEpsilon, opt.ArchiveEpsilon)
		}
		if err := s.src.setState(cp.RNG); err != nil {
			return nil, err
		}
		// Rebuild objectives and payloads by re-evaluating the stored
		// genotypes (deterministic, so the state is exact). The archive is
		// re-inserted in checkpoint order without re-filtering: its entries
		// are mutually non-dominated by construction. Rebuild evaluations
		// are not counted — Evaluations continues from the checkpoint.
		s.pop = pool.evaluate(cp.Population)
		s.archive = pool.evaluate(cp.Archive)
		s.evals = cp.Evaluations
		s.gen = cp.NextGeneration
		return s, nil
	}

	initial := make([][]float64, opt.PopSize)
	for i := range initial {
		g := make([]float64, genLen)
		for j := range g {
			g[j] = s.rng.Float64()
		}
		initial[i] = g
	}
	s.pop = s.evaluateBatch(initial)
	s.archive = updateArchiveEps(nil, s.pop, opt.ArchiveEpsilon)
	return s, nil
}

func (s *nsga2) evaluateBatch(genos [][]float64) []*Individual {
	out := s.pool.evaluate(genos)
	s.evals += len(genos)
	s.runEvals += len(genos)
	return out
}

// step advances the optimizer by one generation: tournament breeding
// (sequential, one PRNG stream), batch evaluation on the pool,
// environmental selection and the serial archive fold. The archive is
// touched only here, on the stepping goroutine, in offspring index
// order — workers never contend on it.
func (s *nsga2) step() {
	opt := s.opt
	sp := opt.Obs.Start(obs.StageGeneration)
	defer sp.End()
	// Rank parents for tournament selection.
	fronts := sortFronts(s.pop)
	for _, f := range fronts {
		assignCrowding(f)
	}
	// Breed the whole offspring batch sequentially (rng order), then
	// evaluate it, possibly in parallel.
	genos := make([][]float64, 0, opt.PopSize)
	for len(genos) < opt.PopSize {
		p1 := tournament(s.rng, s.pop)
		p2 := tournament(s.rng, s.pop)
		c1, c2 := crossover(s.rng, p1.Genotype, p2.Genotype, opt.CrossoverRate)
		mutate(s.rng, c1, opt.MutationRate, opt.MutationStep)
		mutate(s.rng, c2, opt.MutationRate, opt.MutationStep)
		genos = append(genos, c1)
		if len(genos) < opt.PopSize {
			genos = append(genos, c2)
		}
	}
	offspring := s.evaluateBatch(genos)
	// Environmental selection over parents ∪ offspring.
	union := append(append([]*Individual(nil), s.pop...), offspring...)
	fronts = sortFronts(union)
	next := make([]*Individual, 0, opt.PopSize)
	for _, f := range fronts {
		assignCrowding(f)
		if len(next)+len(f) <= opt.PopSize {
			next = append(next, f...)
			continue
		}
		// Partial front: take the most crowded-distant first.
		sortByCrowdingDesc(f)
		next = append(next, f[:opt.PopSize-len(next)]...)
		break
	}
	s.pop = next
	s.archive = updateArchiveEps(s.archive, offspring, opt.ArchiveEpsilon)
	s.gen++
}

// snapshot captures the resumable optimizer state; the run continues at
// generation s.gen.
func (s *nsga2) snapshot() *Checkpoint {
	return &Checkpoint{
		Format:         CheckpointFormat,
		Version:        CheckpointVersion,
		Algorithm:      AlgorithmNSGA2,
		Seed:           s.opt.Seed,
		GenotypeLen:    s.genLen,
		RNG:            s.src.state(),
		Evaluations:    s.evals,
		PopSize:        s.opt.PopSize,
		Generations:    s.opt.Generations,
		NextGeneration: s.gen,
		ArchiveEpsilon: s.opt.ArchiveEpsilon,
		Population:     genotypes(s.pop),
		Archive:        genotypes(s.archive),
	}
}

// injectMigrants replaces the worst individuals of pop with copies of
// the migrants (island-model migration). "Worst" is the inverse of the
// crowded-comparison order — highest rank first, lowest crowding first,
// ties broken by population index — so the replacement set is a pure
// function of (genotypes, objectives, population order): the in-process
// epoch loop and the multi-process orchestrator performing the same
// migration on deserialized state produce identical populations. At
// most half the population is replaced.
func injectMigrants(pop, migrants []*Individual) {
	k := len(migrants)
	if k > len(pop)/2 {
		k = len(pop) / 2
	}
	if k == 0 {
		return
	}
	fronts := sortFronts(pop)
	for _, f := range fronts {
		assignCrowding(f)
	}
	idx := make([]int, len(pop))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ia, ib := pop[idx[a]], pop[idx[b]]
		if ia.rank != ib.rank {
			return ia.rank > ib.rank
		}
		return ia.crowding < ib.crowding
	})
	for j := 0; j < k; j++ {
		m := migrants[j]
		pop[idx[j]] = &Individual{
			Genotype:   append([]float64(nil), m.Genotype...),
			Objectives: append(Objectives(nil), m.Objectives...),
			Payload:    m.Payload,
		}
	}
}

// tournament returns the better of two random individuals by
// (rank, crowding) — the standard crowded comparison operator.
func tournament(rng *rand.Rand, pop []*Individual) *Individual {
	a := pop[rng.Intn(len(pop))]
	b := pop[rng.Intn(len(pop))]
	if a.rank != b.rank {
		if a.rank < b.rank {
			return a
		}
		return b
	}
	if a.crowding > b.crowding {
		return a
	}
	return b
}

// crossover performs uniform crossover with the given probability;
// otherwise both children are copies.
func crossover(rng *rand.Rand, a, b []float64, rate float64) ([]float64, []float64) {
	c1 := append([]float64(nil), a...)
	c2 := append([]float64(nil), b...)
	if rng.Float64() < rate {
		for i := range c1 {
			if rng.Intn(2) == 0 {
				c1[i], c2[i] = c2[i], c1[i]
			}
		}
	}
	return c1, c2
}

// mutate perturbs genes in place: with probability rate per gene, the
// gene is either jittered by ±step (clamped to [0,1]) or resampled
// uniformly (50/50).
func mutate(rng *rand.Rand, g []float64, rate, step float64) {
	for i := range g {
		if rng.Float64() >= rate {
			continue
		}
		if rng.Intn(2) == 0 {
			g[i] = rng.Float64()
		} else {
			g[i] += (rng.Float64()*2 - 1) * step
			if g[i] < 0 {
				g[i] = 0
			}
			if g[i] > 1 {
				g[i] = 1
			}
		}
	}
}

// updateArchive merges new individuals into the all-time non-dominated
// archive incrementally: each candidate is compared against the current
// archive only (O(|batch|·|archive|) instead of re-filtering the whole
// union), dropping dominated or duplicate candidates and evicting
// archive entries the candidate dominates.
func updateArchive(archive, batch []*Individual) []*Individual {
	for _, cand := range batch {
		dominated := false
		for _, a := range archive {
			if Dominates(a.Objectives, cand.Objectives) || equalObjectives(a.Objectives, cand.Objectives) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		kept := archive[:0]
		for _, a := range archive {
			if !Dominates(cand.Objectives, a.Objectives) {
				kept = append(kept, a)
			}
		}
		archive = append(kept, cand)
	}
	return archive
}

// updateArchiveEps applies ε-dominance when eps is set: candidates and
// archive entries are compared on box coordinates, so at most one
// representative survives per non-dominated ε-box.
func updateArchiveEps(archive, batch []*Individual, eps []float64) []*Individual {
	if len(eps) == 0 {
		return updateArchive(archive, batch)
	}
	box := func(obj Objectives) Objectives {
		out := make(Objectives, len(obj))
		for k, v := range obj {
			out[k] = v
			if k < len(eps) && eps[k] > 0 {
				out[k] = epsFloor(v, eps[k])
			}
		}
		return out
	}
	for _, cand := range batch {
		cb := box(cand.Objectives)
		dominated := false
		for _, a := range archive {
			ab := box(a.Objectives)
			if Dominates(ab, cb) || equalObjectives(ab, cb) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		kept := archive[:0]
		for _, a := range archive {
			if !Dominates(cb, box(a.Objectives)) {
				kept = append(kept, a)
			}
		}
		archive = append(kept, cand)
	}
	return archive
}

// epsFloor quantizes v down to a multiple of eps, mapping non-finite
// values to themselves.
func epsFloor(v, eps float64) float64 {
	if v != v || v > 1e300 || v < -1e300 {
		return v
	}
	return eps * float64(int64(v/eps))
}

func sortByCrowdingDesc(f []*Individual) {
	for i := 1; i < len(f); i++ {
		for j := i; j > 0 && f[j].crowding > f[j-1].crowding; j-- {
			f[j], f[j-1] = f[j-1], f[j]
		}
	}
}
