package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/casestudy"
	"repro/internal/core"
	"repro/internal/fleet"
)

func ascending(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestTailOfPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, permille int
		value       float64
	}{
		{1000, 990, 990}, // exactly ten samples beyond p99
		{999, 980, 980},  // nine beyond p99, so p98
		{320, 950, 304},  // six beyond p98, sixteen beyond p95
		{25, 500, 13},    // not even p75 has ten beyond
		{15, 500, 8},     // fewer than twenty samples: median
	} {
		got := tailOf(ascending(tc.n))
		if got.Permille != tc.permille || got.Value != tc.value || got.N != tc.n {
			t.Errorf("n=%d: got %+v, want p%d = %v of %d", tc.n, got, tc.permille/10, tc.value, tc.n)
		}
		if beyond := tc.n - int(got.Value); tc.n >= 20 && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported tail", tc.n, beyond)
		}
	}
	if s := tailOf(ascending(320)).String(); s != "p95 of 320 samples" {
		t.Errorf("tail reads %q", s)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 = %v", m)
	}
	if p := percentile(ascending(100), 1000); p != 100 {
		t.Errorf("p100 = %v", p)
	}
	if p := percentile(nil, 500); p != 0 {
		t.Errorf("percentile of nothing = %v", p)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{10, 30}, {20, 50}, {40, 60}, // overlap each other: [10, 60) counts once
		{90, 120},  // sticks out of the parent: only [90, 100)
		{-10, 5},   // starts before the parent: only [0, 5)
		{200, 300}, // outside the parent
	}
	if got := coveredWithin(parent, children); got != 65 {
		t.Fatalf("covered %d, want 65", got)
	}
	parts := attribute(parent, [][]interval{children})
	if parts[0] != 65 || parts[1] != 35 {
		t.Fatalf("attribute = %v, want [65 35]", parts)
	}
}

func TestAttributeCreditsOverlapToEarlierLayer(t *testing.T) {
	parent := interval{0, 100}
	fsyncs := []interval{{10, 40}}
	snapshots := []interval{{30, 70}, {35, 45}}
	parts := attribute(parent, [][]interval{fsyncs, snapshots})
	want := []int64{30, 30, 40} // fsync [10,40), snapshot [40,70), self
	for i := range want {
		if parts[i] != want[i] {
			t.Fatalf("attribute = %v, want %v", parts, want)
		}
	}
	var sum int64
	for _, p := range parts {
		sum += p
	}
	if sum != parent.len() {
		t.Fatalf("parts sum to %d, parent lasts %d", sum, parent.len())
	}
}

func TestCheckMetric(t *testing.T) {
	for _, name := range []string{"latency_p50_ms", "core.decode_ms.p99", "durable.snapshot_ms.max", "9lives", "a-b", strings.Repeat("x", 64)} {
		if err := checkMetric(name, "ms"); err != nil {
			t.Errorf("%q rejected: %v", name, err)
		}
	}
	for _, name := range []string{"", "_x", ".x", "a b", "a/b", "naïve", strings.Repeat("x", 65)} {
		if checkMetric(name, "ms") == nil {
			t.Errorf("%q accepted", name)
		}
	}
	for _, unit := range []string{"1/s", "%", "count", "MB", "us", "share"} {
		if err := checkMetric("x", unit); err != nil {
			t.Errorf("unit %q rejected: %v", unit, err)
		}
	}
	for _, unit := range []string{"", "m s", "µs", strings.Repeat("s", 17)} {
		if checkMetric("x", unit) == nil {
			t.Errorf("unit %q accepted", unit)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if err := checkMetric(d.name, d.unit); err != nil {
			t.Error(err)
		}
		if seen[d.name] {
			t.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
	}
}

func TestFailedShareDenominator(t *testing.T) {
	var l ledger
	if l.failedShare() != 0 {
		t.Fatal("nothing attempted must read 0")
	}
	l.add(ledger{attempted: 150, failed: 3, retransmits: 40})
	l.add(ledger{attempted: 50, retransmits: 10})
	if got := l.failedShare(); got != 3.0/200 {
		t.Fatalf("failed share %v, want 3/200: retransmits are neither operations nor failures", got)
	}
}

// Every delivery of this population arrives CRC-corrupted first. The
// server rejects each corrupted copy and accepts the retransmission, so
// every session commits: retransmits are counted, failures are not.
func TestRetransmitsAreNotFailures(t *testing.T) {
	cfg := fleetConfig{vehicles: 6, ecus: 2, sessionsPerECU: 2, failProb: 0.5, maxEntries: 32, corruptProb: 1}
	pop, err := genPopulation(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	r, err := fleetRound(cfg, pop, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.ops.attempted != 24 || r.ops.failed != 0 || r.ops.retransmits != pop.corrupt || pop.corrupt == 0 {
		t.Fatalf("ledger %+v with %d corrupted deliveries", r.ops, pop.corrupt)
	}
	if r.ops.failedShare() != 0 {
		t.Fatalf("failed share %v", r.ops.failedShare())
	}
}

func TestSummaryCheckCatchesMismatch(t *testing.T) {
	cfg := fleetConfig{vehicles: 4, ecus: 3, sessionsPerECU: 1, failProb: 0.5, maxEntries: 8}
	pop, err := genPopulation(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := fleet.New(fleet.Config{})
	for k := range pop.lanes {
		if res := send(srv, pop.lanes[k], nil, k, 0); res.err != nil {
			t.Fatal(res.err)
		}
	}
	if err := checkSummary(srv.Summary(), pop.want); err != nil {
		t.Fatal(err)
	}
	want := pop.want
	want.FailingStreams++
	if checkSummary(srv.Summary(), want) == nil {
		t.Fatal("a wrong failing-stream count passed the check")
	}
}

func TestDurableRoundRecoversIdenticalSummary(t *testing.T) {
	cfg := fleetConfig{durable: true, vehicles: 20, ecus: 4, sessionsPerECU: 2, failProb: 0.1, maxEntries: 8}
	pop, err := genPopulation(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(senders, 1<<16)
	r, err := fleetRound(cfg, pop, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Fewer commits than the snapshot cadence: recovery replays them all.
	if r.replayed != pop.sessions || r.snapshots != 0 {
		t.Fatalf("recovery replayed %d of %d sessions after %d snapshots", r.replayed, pop.sessions, r.snapshots)
	}
	if len(tr.of(lCommit)) != pop.sessions || tr.bytesWritten() == 0 {
		t.Fatalf("traced %d commits for %d sessions, %d bytes", len(tr.of(lCommit)), pop.sessions, tr.bytesWritten())
	}
	// Every WAL fsync waits the fixed delay.
	fsyncs := durationsMS(tr.of(lFsync))
	if len(fsyncs) == 0 || fsyncs[0] < ms(syncDelay) {
		t.Fatalf("traced fsyncs %v ms, want at least one, each at least %v ms", fsyncs, ms(syncDelay))
	}
}

func TestCampaignIsCheckedAndRepeatable(t *testing.T) {
	spec, err := casestudy.Small(3, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dseConfig{pop: 8, workers: 2, gens: 3, ckptEvery: 2}
	ckpt := filepath.Join(t.TempDir(), "ckpt.json")
	ref := hvReference(spec)
	run := func(tr *tracer) campaignResult {
		var d core.Decoder = dec
		td := &traceDecoder{inner: dec}
		if tr != nil {
			d = td
		}
		p := newEvalProblem(core.NewExplorer(spec, d), cfg.workers, tr)
		td.p = p
		c, err := runCampaign(cfg, p, 42, ckpt, ref)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a := run(nil)
	tr := newTracer(cfg.workers+1, 1<<10)
	b := run(tr)
	if a.evals != 32 || a.frontHV <= 0 || a.frontHV != b.frontHV {
		t.Fatalf("campaigns: %d evaluations, hypervolume %v then %v (traced)", a.evals, a.frontHV, b.frontHV)
	}
	if len(a.genLat) != cfg.gens-1 || len(b.genLat) != cfg.gens-1 {
		t.Fatalf("generation latencies %v and %v, want %d each", a.genLat, b.genLat, cfg.gens-1)
	}
	for k, n := range cfg.spansPerLane() {
		if len(tr.lanes[k]) > n {
			t.Fatalf("lane %d holds %d spans, spansPerLane allows %d", k, len(tr.lanes[k]), n)
		}
	}
	m := map[string]float64{}
	dseBreakdown(cfg, tr, []campaignResult{b}, m)
	if m["core.decode_ms.p50"] <= 0 || len(tr.of(lCheckpoint)) != 1 || len(tr.of(lDecode)) != 32 {
		t.Fatalf("traced %d decodes, %d checkpoints, metrics %v", len(tr.of(lDecode)), len(tr.of(lCheckpoint)), m)
	}
}
