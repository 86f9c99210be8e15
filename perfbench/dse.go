package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/casestudy"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/model"
	"repro/internal/moea"
	"repro/internal/objective"
)

// dseConfig is one DSE workload: a batch of identical NSGA-II campaigns
// over the full case study (15 ECUs × 36 BIST profiles). A campaign
// evaluates pop × (gens+1) implementations.
type dseConfig struct {
	sat       bool // SAT decoder (paper's method) instead of the greedy one
	pop       int
	workers   int
	gens      int
	ckptEvery int // generations between checkpoints, 0 = none
}

// spansPerLane is the most spans one traced campaign adds to each
// tracer lane: an evaluation and a decode span per evaluation on a
// worker lane (one worker may take them all), and on the optimizer's
// lane a span per generation and checkpoint and one for the run.
func (cfg dseConfig) spansPerLane() []int {
	n := make([]int, cfg.workers+1)
	for w := 0; w < cfg.workers; w++ {
		n[w] = 2 * cfg.pop * (cfg.gens + 1)
	}
	n[cfg.workers] = cfg.gens + 1
	if cfg.ckptEvery > 0 {
		n[cfg.workers] += cfg.gens / cfg.ckptEvery
	}
	return n
}

var dseConfigs = map[string]dseConfig{
	"dse-sat":    {sat: true, pop: 32, workers: 1, gens: 4},
	"dse-greedy": {pop: 128, workers: 2, gens: 30, ckptEvery: 10},
}

// dseInputs is one set-up: the specification, its decoder and explorer.
type dseInputs struct {
	spec       *model.Specification
	enc        *encode.Encoding // nil for the greedy decoder
	dec        core.Decoder
	caseBuildS float64
	encBuildS  float64
}

// buildDSE builds the case study and the decoder. For the SAT decoder
// it also creates each worker's solver state with one decode, so lazy
// per-worker set-up is not timed as exploration.
func buildDSE(cfg dseConfig) (*dseInputs, error) {
	in := &dseInputs{}
	t0 := time.Now()
	spec, err := casestudy.Build(casestudy.Options{})
	if err != nil {
		return nil, fmt.Errorf("casestudy.Build: %w", err)
	}
	in.spec, in.caseBuildS = spec, time.Since(t0).Seconds()
	if !cfg.sat {
		in.dec, err = core.NewGreedyDecoder(spec)
		return in, err
	}
	t1 := time.Now()
	enc, err := encode.Build(spec, 0)
	if err != nil {
		return nil, fmt.Errorf("encode.Build: %w", err)
	}
	in.encBuildS = time.Since(t1).Seconds()
	sat := &core.SATDecoder{Enc: enc}
	g := make([]float64, enc.GenotypeLen())
	for i := range g {
		g[i] = 0.5
	}
	for w := 0; w < cfg.workers; w++ {
		if _, err := sat.DecodeWorker(w, g); err != nil {
			return nil, fmt.Errorf("warm-up decode: %w", err)
		}
	}
	in.enc, in.dec = enc, sat
	return in, nil
}

// evalProblem is the moea.WorkerProblem the campaigns run: it forwards
// to core.Explorer.EvaluateWorker and clocks each call. Traced, it also
// records the call as a span and hands its evaluation id to the decoder
// wrapper through cur.
type evalProblem struct {
	ex     *core.Explorer
	tr     *tracer
	next   atomic.Int64
	cur    []int64     // per worker: id of the evaluation in flight
	lat    [][]float64 // per worker: latencies in ms
	failed []int       // per worker: decode failures
}

func newEvalProblem(ex *core.Explorer, workers int, tr *tracer) *evalProblem {
	return &evalProblem{ex: ex, tr: tr,
		cur: make([]int64, workers), lat: make([][]float64, workers), failed: make([]int, workers)}
}

func (p *evalProblem) GenotypeLen() int { return p.ex.GenotypeLen() }

func (p *evalProblem) Evaluate(g []float64) (moea.Objectives, any) { return p.EvaluateWorker(0, g) }

func (p *evalProblem) EvaluateWorker(w int, g []float64) (moea.Objectives, any) {
	id := p.next.Add(1) - 1
	p.cur[w] = id
	t0 := time.Now()
	obj, payload := p.ex.EvaluateWorker(w, g)
	t1 := time.Now()
	p.lat[w] = append(p.lat[w], ms(t1.Sub(t0)))
	if payload == nil { // the explorer's penalty for a decode failure
		p.failed[w]++
	}
	if p.tr != nil {
		p.tr.add(w, span{id: id, start: p.tr.at(t0), end: p.tr.at(t1), layer: lEval})
	}
	return obj, payload
}

// solverCounts sums pbsat.Result counters over decodes.
type solverCounts struct{ decodes, decisions, conflicts, propagations int64 }

// traceDecoder is the traced run's core.WorkerDecoder. It times each
// decode as a child span of the evaluation in flight on its worker. For
// the SAT workload it decodes on per-worker encode.DecoderStates, as
// core.SATDecoder.DecodeWorker does, so that each decode's pbsat.Result
// counters are visible.
type traceDecoder struct {
	inner  core.Decoder
	states []*encode.DecoderState
	counts []solverCounts
	p      *evalProblem
}

func (d *traceDecoder) GenotypeLen() int { return d.inner.GenotypeLen() }

func (d *traceDecoder) Decode(g []float64) (*model.Implementation, error) {
	return d.DecodeWorker(0, g)
}

func (d *traceDecoder) DecodeWorker(w int, g []float64) (*model.Implementation, error) {
	t0 := d.p.tr.now()
	x, err := d.decode(w, g)
	d.p.tr.add(w, span{id: d.p.cur[w], start: t0, end: d.p.tr.now(), layer: lDecode})
	return x, err
}

func (d *traceDecoder) decode(w int, g []float64) (*model.Implementation, error) {
	if d.states == nil {
		if wd, ok := d.inner.(core.WorkerDecoder); ok {
			return wd.DecodeWorker(w, g)
		}
		return d.inner.Decode(g)
	}
	x, res, err := d.states[w].Decode(g, 0)
	if res != nil {
		c := &d.counts[w]
		c.decodes++
		c.decisions += int64(res.Decisions)
		c.conflicts += int64(res.Conflicts)
		c.propagations += int64(res.Propagated)
	}
	return x, err
}

// campaignResult is one checked campaign.
type campaignResult struct {
	evals   int
	wallS   float64
	frontHV float64
	front   int
	failed  int
	lat     []float64 // per evaluation: EvaluateWorker latency, ms
	genLat  []float64 // per generation: wall time ÷ population, ms
	rt      counters  // counter deltas over moea.Run
	// Traced campaigns only: evaluation-batch boundaries come from the
	// spans; marks are the OnProgress times, start/end the moea.Run call.
	marks      []int64
	start, end int64
}

func runDSE(o options) (outcome, error) {
	cfg := dseConfigs[o.workload]
	out := outcome{metrics: map[string]float64{}}
	in, setupS, reps, setupWall, err := measureSetup(func() (*dseInputs, error) { return buildDSE(cfg) })
	if err != nil {
		return out, err
	}
	fmt.Printf("setup %d×: median %.3f s CPU, %.3f s wall (last: casestudy.Build %.3f s, encode.Build %.3f s wall)\n",
		reps, setupS, setupWall, in.caseBuildS, in.encBuildS)
	ref := hvReference(in.spec)
	ckpt := filepath.Join(o.work, "dse-checkpoint.json")

	// Campaigns repeat until the time is up, at least twice. Campaign k
	// runs NSGA-II seed j(k), derived from the run seed. An untraced run
	// repeats seed 0 once, to see that its front's hypervolume repeats,
	// then moves to a new seed per campaign so that the figures average
	// over more search trajectories. A traced run alternates an untraced
	// and a traced campaign of each seed: the pair must agree on the
	// front, and the untraced one gives the headline the tracing overhead
	// is measured against. Once the tracer could not hold another
	// campaign's spans, the remaining campaigns run untraced.
	var tr *tracer
	var td *traceDecoder
	if o.trace {
		tr = newTracer(cfg.workers+1, 1<<20)
		td = &traceDecoder{inner: in.dec, counts: make([]solverCounts, cfg.workers)}
		if in.enc != nil {
			for w := 0; w < cfg.workers; w++ {
				td.states = append(td.states, in.enc.NewDecoderState())
			}
		}
	}
	var base, traced phase
	var tracedRuns []campaignResult
	var hv, frontHV float64
	prevSeed := -1
	start := time.Now()
	for k := 0; k < 2 || time.Since(start).Seconds() < o.seconds; k++ {
		j := max(k-1, 0)
		ph, p := &base, newEvalProblem(core.NewExplorer(in.spec, in.dec), cfg.workers, nil)
		if o.trace {
			j = k / 2
			if k%2 == 1 && tr.fits(cfg.spansPerLane()) {
				ph, p = &traced, newEvalProblem(core.NewExplorer(in.spec, td), cfg.workers, tr)
				td.p = p
			}
		}
		c, err := runCampaign(cfg, p, deriveSeed(o.seed, fmt.Sprintf("%s/%d", o.workload, j)), ckpt, ref)
		ops := ledger{attempted: c.evals, failed: c.failed}
		ph.add(ops, c.genLat, c.lat, c.wallS, c.rt)
		out.ops.add(ops)
		if err != nil {
			return out, err
		}
		if j == prevSeed && c.frontHV != hv {
			return out, fmt.Errorf("front hypervolume differs between two campaigns of one seed: %v then %v", hv, c.frontHV)
		}
		hv, prevSeed = c.frontHV, j
		c.lat = nil
		if ph == &traced {
			tracedRuns = append(tracedRuns, c)
		}
		if k == 0 {
			frontHV = c.frontHV
			fmt.Printf("campaign: %d evaluations, front %d points, hypervolume %.9g\n", c.evals, c.front, c.frontHV)
		}
	}
	fmt.Printf("campaigns: %d untraced, %d traced\n", base.units, traced.units)

	if !o.trace {
		base.headline(out.metrics, "evaluation")
		out.metrics["setup_s"] = setupS
		return out, nil
	}
	m := out.metrics
	m["casestudy.build_s"] = in.caseBuildS
	m["encode.build_s"] = in.encBuildS
	m["moea.front_hv"] = frontHV
	base.headline(m, "evaluation")
	base.runtimeMetrics(m)
	var sc solverCounts
	for _, c := range td.counts {
		sc.decodes += c.decodes
		sc.decisions += c.decisions
		sc.conflicts += c.conflicts
		sc.propagations += c.propagations
	}
	if sc.decodes > 0 {
		n := float64(sc.decodes)
		m["pbsat.decisions_per_decode"] = float64(sc.decisions) / n
		m["pbsat.conflicts_per_decode"] = float64(sc.conflicts) / n
		m["pbsat.propagations_per_decode"] = float64(sc.propagations) / n
	}
	dseBreakdown(cfg, tr, tracedRuns, m)
	overhead(m, &base, &traced, "evaluations/s")
	writeTrace(tr, o.workload)
	return out, nil
}

// runCampaign runs one NSGA-II campaign and checks its output.
func runCampaign(cfg dseConfig, p *evalProblem, seed int64, ckpt string, ref moea.Objectives) (campaignResult, error) {
	var c campaignResult
	opt := moea.Options{PopSize: cfg.pop, Generations: cfg.gens, Seed: seed, Workers: cfg.workers}
	tr := p.tr
	optLane := cfg.workers
	var last time.Time
	opt.OnProgress = func(moea.Progress) {
		now := time.Now()
		// The first call ends the initial population's batch and the
		// first generation together; each later interval is one
		// generation: its evaluation batch, pool idle time included,
		// the serial step and any checkpoint before it.
		if !last.IsZero() {
			c.genLat = append(c.genLat, ms(now.Sub(last))/float64(cfg.pop))
		}
		last = now
		if tr == nil {
			return
		}
		prev := c.start
		if len(c.marks) > 0 {
			prev = c.marks[len(c.marks)-1]
		}
		c.marks = append(c.marks, tr.at(now))
		tr.add(optLane, span{id: int64(len(c.marks) - 1), start: prev, end: tr.at(now), layer: lGeneration})
	}
	if cfg.ckptEvery > 0 {
		opt.CheckpointEvery = cfg.ckptEvery
		opt.OnCheckpoint = func(cp *moea.Checkpoint) error {
			if tr == nil {
				return cp.WriteFile(ckpt)
			}
			t0 := tr.now()
			err := cp.WriteFile(ckpt)
			tr.add(optLane, span{id: int64(len(c.marks)), start: t0, end: tr.now(), layer: lCheckpoint})
			return err
		}
	}
	t0 := time.Now()
	if tr != nil {
		c.start = tr.at(t0)
	}
	rt := readCounters()
	res, err := moea.Run(context.Background(), p, opt)
	c.wallS = time.Since(t0).Seconds()
	c.rt = rt.since()
	if tr != nil {
		c.end = c.start + int64(c.wallS*1e9)
		tr.add(optLane, span{id: 0, start: c.start, end: c.end, layer: lCampaign})
	}
	for w := range p.lat {
		c.lat = append(c.lat, p.lat[w]...)
		c.failed += p.failed[w]
	}
	if err != nil {
		return c, fmt.Errorf("moea.Run: %w", err)
	}
	c.evals = res.Evaluations
	if want := cfg.pop * (cfg.gens + 1); c.evals != want || int(p.next.Load()) != want {
		return c, fmt.Errorf("campaign evaluated %d (problem saw %d), configured %d", c.evals, p.next.Load(), want)
	}
	c.frontHV, c.front, err = checkFront(res.Archive, ref)
	return c, err
}

// checkFront verifies the final front: every member is a feasible
// implementation whose recomputed objectives equal the reported ones,
// and no member dominates another. It returns the front's hypervolume.
func checkFront(archive []*moea.Individual, ref moea.Objectives) (float64, int, error) {
	if len(archive) == 0 {
		return 0, 0, errors.New("empty front")
	}
	objs := make([]moea.Objectives, len(archive))
	for i, ind := range archive {
		sol, ok := ind.Payload.(core.Solution)
		if !ok || sol.Impl == nil {
			return 0, 0, fmt.Errorf("front member %d carries no implementation", i)
		}
		if errs := sol.Impl.Check(); len(errs) > 0 {
			return 0, 0, fmt.Errorf("front member %d infeasible: %v", i, errs[0])
		}
		v := objective.Evaluate(sol.Impl)
		if v != sol.Objectives {
			return 0, 0, fmt.Errorf("front member %d: recomputed objectives %+v, reported %+v", i, v, sol.Objectives)
		}
		min := v.Minimized()
		for k := range min {
			if min[k] != ind.Objectives[k] {
				return 0, 0, fmt.Errorf("front member %d: objective %d is %v, implementation scores %v", i, k, ind.Objectives[k], min[k])
			}
		}
		objs[i] = ind.Objectives
	}
	for i := range objs {
		for j := range objs {
			if i != j && moea.Dominates(objs[i], objs[j]) {
				return 0, 0, fmt.Errorf("front member %d dominates member %d", i, j)
			}
		}
	}
	return moea.Hypervolume3D(objs, ref), len(objs), nil
}

// hvReference is a fixed hypervolume reference point just beyond the
// specification's worst case (objective.WorstCase), so every feasible
// implementation counts.
func hvReference(spec *model.Specification) moea.Objectives {
	w := objective.WorstCase(spec).Minimized()
	ref := make(moea.Objectives, len(w))
	for k, v := range w {
		ref[k] = v + 1 + 0.01*math.Abs(v)
	}
	return ref
}

// deriveSeed mixes a label into the run seed (splitmix64), so workloads
// and campaigns sharing a run seed still get unrelated inputs.
func deriveSeed(seed int64, label string) int64 {
	x := uint64(seed)
	for _, b := range []byte(label) {
		x = x*31 + uint64(b)
	}
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return int64((x ^ (x >> 31)) >> 1)
}

// dseBreakdown derives the per-layer metrics of a traced DSE phase and
// prints the self-time breakdown. Evaluation batch b of a campaign holds
// evaluation ids [b·pop, (b+1)·pop); generation g runs from the previous
// OnProgress mark (or the end of the initial batch) to its own.
func dseBreakdown(cfg dseConfig, tr *tracer, campaigns []campaignResult, m map[string]float64) {
	evals, decodes, ckpts := tr.of(lEval), tr.of(lDecode), tr.of(lCheckpoint)
	within := func(spans []span, c campaignResult) []span {
		var out []span
		for _, s := range spans {
			if s.start >= c.start && s.end <= c.end {
				out = append(out, s)
			}
		}
		return out
	}
	var wall, decodeNS, objNS, idleNS, genSelfNS, ckptNS int64
	var objMS, genSelfMS []float64
	workers := int64(cfg.workers)
	for _, c := range campaigns {
		wall += c.end - c.start
		dec := make(map[int64]span)
		for _, s := range within(decodes, c) {
			dec[s.id] = s
		}
		batches := make([]interval, cfg.gens+1)
		busy := make([]int64, cfg.gens+1)
		for b := range batches {
			batches[b] = interval{math.MaxInt64, math.MinInt64}
		}
		for _, s := range within(evals, c) {
			b := s.id / int64(cfg.pop)
			batches[b].start = min(batches[b].start, s.start)
			batches[b].end = max(batches[b].end, s.end)
			busy[b] += s.end - s.start
			d := dec[s.id]
			self := s.iv().len() - d.iv().len()
			decodeNS += d.iv().len()
			objNS += self
			objMS = append(objMS, float64(self)/1e6)
		}
		for b := range batches {
			idleNS += workers*batches[b].len() - busy[b]
		}
		cks := within(ckpts, c)
		prev := batches[0].end
		for g, mark := range c.marks {
			gen := interval{prev, mark}
			var ck int64
			for _, s := range cks {
				if s.start >= gen.start && s.end <= gen.end {
					ck += s.iv().len()
				}
			}
			self := gen.len() - batches[g+1].len() - ck
			ckptNS += ck
			genSelfNS += self
			genSelfMS = append(genSelfMS, float64(self)/1e6)
			prev = mark
		}
	}
	dms := durationsMS(decodes)
	m["core.decode_ms.p50"] = percentile(dms, 500)
	m["core.decode_ms.p99"] = percentile(dms, 990)
	m["objective.ms.p50"] = median(objMS)
	m["moea.generation_self_ms.p50"] = median(genSelfMS)
	m["moea.checkpoint_ms.p50"] = percentile(durationsMS(ckpts), 500)
	m["moea.pool_idle_share"] = float64(idleNS) / float64(idleNS+decodeNS+objNS)
	fmt.Printf("traced: %d campaigns, %d evaluations, core.decode p50 %.3f ms p99 %.3f ms of %d decodes\n",
		len(campaigns), len(evals), m["core.decode_ms.p50"], m["core.decode_ms.p99"], len(dms))
	// Worker-lane layers are shown in wall-equivalent time, lane time
	// divided by the worker count, so that the rows add up to the wall.
	m["trace.unexplained_share"] = printBreakdown(fmt.Sprintf("%d worker(s), worker time ÷ workers", cfg.workers), wall, []selfTimeRow{
		{"core.decode", decodeNS / workers},
		{"objective (evaluate self)", objNS / workers},
		{"moea.pool idle", idleNS / workers},
		{"moea.generation self", genSelfNS},
		{"moea.checkpoint", ckptNS},
	})
}
