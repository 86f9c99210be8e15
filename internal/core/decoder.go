// Package core ties the reproduction together: it couples the MOEA with
// a genotype decoder (SAT-decoding via the pseudo-Boolean encoding, or
// the fast greedy constructive decoder) and the three design objectives,
// forming the design space exploration of the paper's Fig. 2.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/encode"
	"repro/internal/model"
	"repro/internal/pbsat"
)

// Decoder turns a genotype into a feasible implementation. Decoders
// must be deterministic: the same genotype always yields the same
// implementation.
type Decoder interface {
	GenotypeLen() int
	Decode(genotype []float64) (*model.Implementation, error)
}

// WorkerDecoder is an optional Decoder extension for per-worker decode
// state. The explorer calls DecodeWorker with the evaluation pool's
// stable worker index, letting the decoder pin expensive scratch (a
// solver, branching arrays) to the worker for the whole run instead of
// checking it out of a sync.Pool per decode — a pool the GC may empty
// mid-campaign, silently re-allocating solver state on every cycle.
// DecodeWorker must return the same implementation as Decode for the
// same genotype.
type WorkerDecoder interface {
	Decoder
	DecodeWorker(worker int, genotype []float64) (*model.Implementation, error)
}

// SATDecoder is the paper's SAT-decoding: the genotype orders the
// pseudo-Boolean solver's decisions over the mapping variables and the
// solver completes them into a model of Eqs. (2a)–(2h), (3a), (3b) plus
// the functional constraints.
type SATDecoder struct {
	Enc *encode.Encoding
	// MaxConflicts bounds the per-decode search (0 = solver default).
	MaxConflicts int

	// states pools DecoderStates for callers of the plain Decode path
	// (tools, tests, ad-hoc decodes). The MOEA evaluation path goes
	// through DecodeWorker and the pinned per-worker states instead.
	states sync.Pool

	// workerStates pins one DecoderState per evaluation-pool worker
	// index. The slice is grown copy-on-write under growMu and published
	// through the atomic pointer, so the steady-state path is one atomic
	// load with no locking; unlike the sync.Pool, pinned states survive
	// GC cycles, keeping the campaign's allocation profile flat.
	workerStates atomic.Pointer[[]*encode.DecoderState]
	growMu       sync.Mutex

	// Cumulative pseudo-Boolean solver work across all decodes, for the
	// explorer's telemetry stream (SolverStatsReporter).
	conflicts    atomic.Int64
	propagations atomic.Int64
	fallbacks    atomic.Int64
}

// NewSATDecoder builds the encoding for the specification.
func NewSATDecoder(spec *model.Specification, tmax int) (*SATDecoder, error) {
	enc, err := encode.Build(spec, tmax)
	if err != nil {
		return nil, err
	}
	return &SATDecoder{Enc: enc}, nil
}

// GenotypeLen implements Decoder.
func (d *SATDecoder) GenotypeLen() int { return d.Enc.GenotypeLen() }

// Decode implements Decoder. It is safe for concurrent use: each
// concurrent caller checks a DecoderState out of the pool for the
// duration of the decode.
func (d *SATDecoder) Decode(genotype []float64) (*model.Implementation, error) {
	st, _ := d.states.Get().(*encode.DecoderState)
	if st == nil {
		// Lazy so that struct-literal construction (without NewSATDecoder)
		// still gets pooling.
		st = d.Enc.NewDecoderState()
	}
	x, res, err := st.Decode(genotype, d.MaxConflicts)
	d.states.Put(st)
	d.count(res)
	if err != nil {
		return nil, fmt.Errorf("core: SAT decode: %w", err)
	}
	return x, nil
}

// DecodeWorker implements WorkerDecoder: it decodes on the DecoderState
// pinned to the worker index. Each worker index is driven by exactly
// one pool goroutine at a time, so the state needs no per-decode
// locking. Decoding is deterministic per genotype regardless of which
// state performs it, so the result is identical to Decode's.
func (d *SATDecoder) DecodeWorker(worker int, genotype []float64) (*model.Implementation, error) {
	st := d.workerState(worker)
	x, res, err := st.Decode(genotype, d.MaxConflicts)
	d.count(res)
	if err != nil {
		return nil, fmt.Errorf("core: SAT decode: %w", err)
	}
	return x, nil
}

// workerState returns the DecoderState pinned to the worker index,
// growing the pinned slice on first sight of a new index. The grow path
// copies under growMu and republishes, never mutating a published
// slice, so concurrent readers of other indices are unaffected.
func (d *SATDecoder) workerState(worker int) *encode.DecoderState {
	if sp := d.workerStates.Load(); sp != nil && worker < len(*sp) && (*sp)[worker] != nil {
		return (*sp)[worker]
	}
	d.growMu.Lock()
	defer d.growMu.Unlock()
	var cur []*encode.DecoderState
	if sp := d.workerStates.Load(); sp != nil {
		cur = *sp
	}
	if worker < len(cur) && cur[worker] != nil {
		return cur[worker]
	}
	n := len(cur)
	if worker >= n {
		n = worker + 1
	}
	next := make([]*encode.DecoderState, n)
	copy(next, cur)
	next[worker] = d.Enc.NewDecoderState()
	d.workerStates.Store(&next)
	return next[worker]
}

// count adds one decode's solver work to the cumulative counters; res
// is nil when the decode failed before the search.
func (d *SATDecoder) count(res *pbsat.Result) {
	if res != nil {
		d.conflicts.Add(int64(res.Conflicts))
		d.propagations.Add(int64(res.Propagated))
		d.fallbacks.Add(int64(res.Fallbacks))
	}
}

// SolverStats implements SolverStatsReporter: the cumulative conflict,
// propagation and fallback-decision counts over every decode performed
// so far.
func (d *SATDecoder) SolverStats() (conflicts, propagations, fallbacks int64) {
	return d.conflicts.Load(), d.propagations.Load(), d.fallbacks.Load()
}
