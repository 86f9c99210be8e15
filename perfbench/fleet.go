package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/durable"
	"repro/internal/fleet"
	"repro/internal/gateway"
	"repro/internal/stumps"
)

// fleetConfig is one fleet workload: a seeded vehicle population whose
// sessions two closed-loop senders push through Server.IngestChunk, one
// pass of the population per round, each round into a fresh server.
type fleetConfig struct {
	durable        bool // WAL-durable store, killed and reopened after each round
	vehicles       int
	ecus           int
	sessionsPerECU int
	failProb       float64 // share of sessions that carry fail data
	maxEntries     int     // fail entries per failing session, 1..maxEntries
	corruptProb    float64 // share of deliveries sent CRC-corrupted first
}

var fleetConfigs = map[string]fleetConfig{
	// 48,000 sessions per round: more than the 8 × 4096 record rings
	// hold, so eviction runs. Up to 32 entries make records of up to 10
	// chunks.
	"fleet-ram": {vehicles: 3000, ecus: 8, sessionsPerECU: 2, failProb: 0.5, maxEntries: 32, corruptProb: 0.01},
	// 20,000 sessions per round: fits the rings and spans four snapshot
	// cycles of 4096 commits. Records are 1–3 chunks. The store runs on
	// syncDelayFS.
	"fleet-durable": {durable: true, vehicles: 1250, ecus: 8, sessionsPerECU: 2, failProb: 0.1, maxEntries: 8},
}

// syncDelay is what every fsync of the fleet-durable store costs: about
// the median fsync latency of the filesystem on the machine the
// benchmark was tuned on (README.md). A real disk's fsync latency drifts from minute to minute
// on a shared machine; a fixed delay keeps the cost, so that group
// commit batches and per-fsync work shows in the latency, without the
// drift.
const syncDelay = 150 * time.Microsecond

// syncDelayFS is durable.MemFS whose file and directory syncs first
// block the calling thread in nanosleep(2) for syncDelay, as a disk's
// fsync blocks it. time.Sleep would round up to the runtime's timer
// resolution (about a millisecond on Linux); the kernel adds its timer
// slack (about 50 µs) to the nanosleep.
type syncDelayFS struct{ *durable.MemFS }

func newSyncDelayFS() syncDelayFS { return syncDelayFS{durable.NewMemFS()} }

func (f syncDelayFS) Create(name string) (durable.File, error) {
	file, err := f.MemFS.Create(name)
	if err != nil {
		return nil, err
	}
	return syncDelayFile{file}, nil
}

func (f syncDelayFS) OpenAppend(name string) (durable.File, error) {
	file, err := f.MemFS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return syncDelayFile{file}, nil
}

func (f syncDelayFS) SyncDir(dir string) error {
	blockSync()
	return f.MemFS.SyncDir(dir)
}

type syncDelayFile struct{ durable.File }

func (f syncDelayFile) Sync() error {
	blockSync()
	return f.File.Sync()
}

func blockSync() {
	ts := syscall.NsecToTimespec(int64(syncDelay))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// senders is the number of closed-loop senders, one goroutine each.
const senders = 2

// delivery is one chunk as a sender hands it to the server. bad, when
// set, is a CRC-corrupted copy delivered first; the server must reject
// it with gateway.ErrChunkCRC and accept the retransmitted chunk.
type delivery struct {
	chunk gateway.Chunk
	bad   *gateway.Chunk
}

type session struct {
	vehicle, ecu string
	deliveries   []delivery
}

// population is the generated sender side of one round, with the ledger
// of what the server's Summary must report after ingesting it.
type population struct {
	lanes      [senders][]session
	deliveries [senders]int // IngestChunk calls per round, corrupted ones included
	sessions   int
	corrupt    int
	want       fleet.Summary
}

// recorder is a gateway.Channel that acknowledges every chunk and keeps
// it, capturing a session's wire chunks.
type recorder struct{ chunks []gateway.Chunk }

func (r *recorder) Deliver(c gateway.Chunk) (bool, float64) {
	r.chunks = append(r.chunks, c)
	return true, 0
}

// genPopulation builds every session through the public gateway API
// (gateway.NewSession marshals, chunks and checksums the record) and
// computes the expected Summary from its own ledger.
func genPopulation(cfg fleetConfig, seed int64) (*population, error) {
	rng := rand.New(rand.NewSource(seed))
	probe := fleet.New(fleet.Config{})
	perShard := make([]int, probe.NumShards())
	pop := &population{}
	want := &pop.want
	want.FailingECUs = map[string]int{}
	for v := 0; v < cfg.vehicles; v++ {
		vehicle := fmt.Sprintf("veh%05d", v)
		lane := v % senders
		vehicleFailing := false
		for e := 0; e < cfg.ecus; e++ {
			ecu := fmt.Sprintf("ecu%02d", e)
			failing := false
			for n := 1; n <= cfg.sessionsPerECU; n++ {
				fd := stumps.FailData{Windows: 64}
				if rng.Float64() < cfg.failProb {
					for k := 1 + rng.Intn(cfg.maxEntries); k > 0; k-- {
						got := rng.Uint64()
						fd.Entries = append(fd.Entries, stumps.FailEntry{Window: rng.Intn(64), Got: got, Want: got ^ 1})
					}
				}
				sess, err := gateway.NewSession(ecu, uint32(n), fd, gateway.SessionConfig{})
				if err != nil {
					return nil, err
				}
				rec := &recorder{}
				if out := sess.Run(rec); !out.Delivered {
					return nil, fmt.Errorf("recording session %s/%s %d failed", vehicle, ecu, n)
				}
				s := session{vehicle: vehicle, ecu: ecu}
				for _, c := range rec.chunks {
					d := delivery{chunk: c}
					if rng.Float64() < cfg.corruptProb {
						bad := c
						bad.Data = append([]byte(nil), c.Data...)
						bad.Data[0] ^= 0xFF
						d.bad = &bad
						pop.corrupt++
						pop.deliveries[lane]++
					}
					s.deliveries = append(s.deliveries, d)
				}
				pop.lanes[lane] = append(pop.lanes[lane], s)
				pop.deliveries[lane] += len(s.deliveries)
				pop.sessions++
				perShard[probe.ShardOf(vehicle)]++
				failing = !fd.Pass()
			}
			want.Streams++
			if failing {
				want.FailingStreams++
				want.FailingECUs[ecu]++
				vehicleFailing = true
			}
		}
		want.Vehicles++
		if vehicleFailing {
			want.FailingVehicles++
		}
	}
	want.Chunks = uint64(pop.deliveries[0] + pop.deliveries[1])
	want.ChunkErrors = uint64(pop.corrupt)
	want.SessionsOpened = uint64(pop.sessions)
	want.SessionsCompleted = uint64(pop.sessions)
	for _, n := range perShard {
		want.RecordsStored += min(n, 4096) // fleet.Config default PerShardRecords
	}
	return pop, nil
}

// checkSummary compares the server's Summary with the ledger.
func checkSummary(got, want fleet.Summary) error {
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("summary %+v, ledger %+v", got, want)
	}
	return nil
}

// laneResult is what one sender saw in one round.
type laneResult struct {
	ops ledger
	lat []float64 // session latencies, ms
	end time.Time
	err error
}

// send runs one closed-loop sender: each chunk goes out only after the
// previous IngestChunk returned. A session's latency runs from its first
// IngestChunk call to the return of the call that completes it.
func send(srv *fleet.Server, sessions []session, tr *tracer, lane int, idBase int64) laneResult {
	res := laneResult{lat: make([]float64, 0, len(sessions))}
	for i := range sessions {
		s := &sessions[i]
		id := idBase + int64(i)
		last := len(s.deliveries) - 1
		t0 := time.Now()
		var err error
		for j, d := range s.deliveries {
			if d.bad != nil {
				if err = ingest(srv, s, *d.bad, tr, lane, id, lChunk); !errors.Is(err, gateway.ErrChunkCRC) {
					err = fmt.Errorf("corrupted chunk %d of %s/%s: got %v, want a CRC error", j, s.vehicle, s.ecu, err)
					break
				}
				res.ops.retransmits++
			}
			l := lChunk
			if j == last {
				l = lCommit
			}
			if err = ingest(srv, s, d.chunk, tr, lane, id, l); err != nil {
				err = fmt.Errorf("chunk %d of %s/%s: %w", j, s.vehicle, s.ecu, err)
				break
			}
		}
		res.lat = append(res.lat, msSince(t0))
		res.ops.attempted++
		if err != nil {
			res.ops.failed++
			if res.err == nil {
				res.err = err
			}
		}
	}
	res.end = time.Now()
	return res
}

func ingest(srv *fleet.Server, s *session, c gateway.Chunk, tr *tracer, lane int, id int64, l layer) error {
	if tr == nil {
		return srv.IngestChunk(s.vehicle, s.ecu, c)
	}
	t0 := tr.now()
	err := srv.IngestChunk(s.vehicle, s.ecu, c)
	tr.add(lane, span{id: id, start: t0, end: tr.now(), layer: l})
	return err
}

// roundResult is one checked round.
type roundResult struct {
	wallS     float64
	rt        counters // counter deltas over the senders' run
	laneNS    int64    // Σ over senders of (sender end − round start)
	ops       ledger
	lat       []float64
	evicted   int
	rejected  int
	recoverS  float64
	replayed  int
	appends   uint64
	syncs     uint64
	snapshots uint64
}

// fleetRound ingests the population into a fresh server and checks the
// result. For the durable workload it then kills the store, reopens the
// store and checks the recovered summary is byte-identical.
func fleetRound(cfg fleetConfig, pop *population, tr *tracer, round int) (roundResult, error) {
	var r roundResult
	srv := fleet.New(fleet.Config{})
	dc := fleet.DurableConfig{Dir: "data"}
	var store syncDelayFS
	if cfg.durable {
		store = newSyncDelayFS()
		dc.FS = store
		if tr != nil {
			dc.FS = &traceFS{FS: store, tr: tr}
		}
		if _, err := srv.OpenDurable(dc); err != nil {
			return r, fmt.Errorf("OpenDurable: %w", err)
		}
	}
	var lanes [senders]laneResult
	var wg sync.WaitGroup
	rt := readCounters()
	start := time.Now()
	for k := 0; k < senders; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			lanes[k] = send(srv, pop.lanes[k], tr, k, int64(round*pop.sessions+k*len(pop.lanes[0])))
		}(k)
	}
	wg.Wait()
	r.wallS = time.Since(start).Seconds()
	r.rt = rt.since()
	var err error
	for _, l := range lanes {
		r.ops.add(l.ops)
		r.lat = append(r.lat, l.lat...)
		r.laneNS += int64(l.end.Sub(start))
		if err == nil {
			err = l.err
		}
	}
	if err != nil {
		srv.KillDurable()
		return r, err
	}
	st := srv.Stats()
	r.evicted = int(st.SessionsCompleted) - st.RecordsStored
	r.rejected = int(st.SessionsRejected)
	if err := checkSummary(srv.Summary(), pop.want); err != nil {
		srv.KillDurable()
		return r, err
	}
	if !cfg.durable {
		return r, nil
	}
	ds := srv.DurableStats()
	r.appends, r.syncs, r.snapshots = ds.Appends, ds.Syncs, ds.Snapshots
	live, err := srv.SummaryJSON()
	srv.KillDurable()
	if err != nil {
		return r, err
	}
	// Unsynced bytes do not survive a crash; keep a seeded part of them.
	store.Crash(uint64(round) + 1)
	runtime.GC()
	t0 := time.Now()
	back := fleet.New(fleet.Config{})
	rec, err := back.OpenDurable(fleet.DurableConfig{Dir: dc.Dir, FS: store})
	r.recoverS = time.Since(t0).Seconds()
	if err != nil {
		return r, fmt.Errorf("reopen killed data dir: %w", err)
	}
	defer back.KillDurable()
	if tr != nil {
		tr.addShared(span{id: int64(round), start: tr.at(t0), end: tr.at(t0) + int64(r.recoverS*1e9), layer: lRecover})
	}
	r.replayed = rec.Entries
	recovered, err := back.SummaryJSON()
	if err != nil {
		return r, err
	}
	if !bytes.Equal(live, recovered) {
		return r, fmt.Errorf("recovered summary differs from the live one before the kill:\n%s\n%s", live, recovered)
	}
	return r, nil
}

func runFleet(o options) (outcome, error) {
	cfg := fleetConfigs[o.workload]
	out := outcome{metrics: map[string]float64{}}
	seed := deriveSeed(o.seed, o.workload)
	pop, setupS, reps, setupWall, err := measureSetup(func() (*population, error) {
		pop, err := genPopulation(cfg, seed)
		if err != nil || !cfg.durable {
			return pop, err
		}
		// Opening a store on an empty filesystem is part of set-up.
		srv := fleet.New(fleet.Config{})
		if _, err := srv.OpenDurable(fleet.DurableConfig{Dir: "data", FS: newSyncDelayFS()}); err != nil {
			return nil, err
		}
		srv.KillDurable()
		return pop, nil
	})
	if err != nil {
		return out, err
	}
	fmt.Printf("setup %d×: median %.3f s CPU, %.3f s wall; %d sessions per round, %d deliveries, %d CRC-corrupted first\n",
		reps, setupS, setupWall, pop.sessions, pop.deliveries[0]+pop.deliveries[1], pop.corrupt)

	// Rounds repeat until the time is up, at least twice. A traced run
	// alternates untraced and traced rounds; once the tracer could not
	// hold another round's spans, the remaining rounds run untraced.
	var tr *tracer
	if o.trace {
		tr = newTracer(senders, 1<<20)
	}
	var base, traced phase
	var tracedRounds, rounds []roundResult
	start := time.Now()
	for i := 0; i < 2 || time.Since(start).Seconds() < o.seconds; i++ {
		ph, rt := &base, (*tracer)(nil)
		if o.trace && i%2 == 1 && tr.fits(pop.deliveries[:]) {
			ph, rt = &traced, tr
		}
		r, err := fleetRound(cfg, pop, rt, i)
		ph.add(r.ops, r.lat, r.lat, r.wallS, r.rt)
		out.ops.add(r.ops)
		if err != nil {
			return out, err
		}
		r.lat = nil // keep the live heap, and so GC work, flat across the run
		rounds = append(rounds, r)
		if ph == &traced {
			tracedRounds = append(tracedRounds, r)
		}
	}
	fmt.Printf("rounds: %d untraced, %d traced\n", base.units, traced.units)
	m := out.metrics
	var recoverS, replayed []float64
	for _, r := range rounds {
		recoverS = append(recoverS, r.recoverS)
		replayed = append(replayed, float64(r.replayed))
	}
	if cfg.durable {
		m["durable.recover_s"] = median(recoverS)
		m["durable.replay_entries"] = median(replayed)
		fmt.Printf("recover: median %.4f s over %d kills, replaying a median %.0f WAL entries above the snapshot\n",
			m["durable.recover_s"], len(recoverS), m["durable.replay_entries"])
	}

	if !o.trace {
		base.headline(m, "session")
		m["setup_s"] = setupS
		return out, nil
	}
	base.headline(m, "session")
	base.runtimeMetrics(m)
	fleetBreakdown(cfg, tr, tracedRounds, m)
	overhead(m, &base, &traced, "sessions/s")
	writeTrace(tr, o.workload)
	return out, nil
}

// fleetBreakdown derives the per-layer metrics of a traced fleet phase
// and prints the self-time breakdown in sender-lane time: each sender's
// wall time splits into IngestChunk self time, time an IngestChunk call
// spent while a WAL fsync or a snapshot file write ran, and the rest.
func fleetBreakdown(cfg fleetConfig, tr *tracer, rounds []roundResult, m map[string]float64) {
	chunks, commits := tr.of(lChunk), tr.of(lCommit)
	fsyncs, snaps := tr.of(lFsync), tr.of(lSnapshot)
	var laneNS int64
	var sessions, evicted, rejected, retrans, snapshots int
	var appends, syncs uint64
	for _, r := range rounds {
		laneNS += r.laneNS
		sessions += r.ops.attempted
		evicted += r.evicted
		rejected += r.rejected
		retrans += r.ops.retransmits
		snapshots += int(r.snapshots)
		appends += r.appends
		syncs += r.syncs
	}
	n := float64(len(rounds))
	cms, mms := durationsMS(chunks), durationsMS(commits)
	m["fleet.chunk_us.p50"] = 1000 * percentile(cms, 500)
	m["fleet.chunk_us.p99"] = 1000 * percentile(cms, 990)
	m["fleet.commit_us.p50"] = 1000 * percentile(mms, 500)
	m["fleet.commit_us.p99"] = 1000 * percentile(mms, 990)
	m["fleet.retransmits"] = float64(retrans) / n
	m["fleet.backpressure_rejects"] = float64(rejected) / n
	m["fleet.records_evicted"] = float64(evicted) / n
	if cfg.durable {
		fms, sms := durationsMS(fsyncs), durationsMS(snaps)
		m["durable.fsync_ms.p50"] = percentile(fms, 500)
		m["durable.fsync_ms.p99"] = percentile(fms, 990)
		m["durable.snapshot_ms.p50"] = percentile(sms, 500)
		m["durable.snapshot_ms.max"] = percentile(sms, 1000)
		m["durable.snapshots"] = float64(snapshots) / n
		m["durable.sessions_per_fsync"] = float64(appends) / float64(syncs)
		m["durable.bytes_per_session"] = float64(tr.bytesWritten()) / float64(sessions)
		fmt.Printf("durable: %d fsyncs (p50 %.3f ms, p99 %.3f ms), %.2f sessions/fsync, %d snapshots (p50 %.2f ms, max %.2f ms)\n",
			len(fms), m["durable.fsync_ms.p50"], m["durable.fsync_ms.p99"], m["durable.sessions_per_fsync"],
			len(sms), m["durable.snapshot_ms.p50"], m["durable.snapshot_ms.max"])
	}
	children := [][]span{sortByStart(fsyncs), sortByStart(snaps)}
	var chunkSelf, commitSelf, fsyncWait, snapWait int64
	for _, group := range []struct {
		spans []span
		self  *int64
	}{{chunks, &chunkSelf}, {commits, &commitSelf}} {
		for _, s := range group.spans {
			parts := attribute(s.iv(), [][]interval{overlapping(children[0], s.iv()), overlapping(children[1], s.iv())})
			fsyncWait += parts[0]
			snapWait += parts[1]
			*group.self += parts[2]
		}
	}
	fmt.Printf("traced: %d rounds, %d sessions, fleet.chunk p50 %.2f us p99 %.2f us of %d, fleet.commit p50 %.2f us p99 %.2f us of %d\n",
		len(rounds), sessions, m["fleet.chunk_us.p50"], m["fleet.chunk_us.p99"], len(cms),
		m["fleet.commit_us.p50"], m["fleet.commit_us.p99"], len(mms))
	m["trace.unexplained_share"] = printBreakdown(fmt.Sprintf("%d senders, sender-lane time", senders), laneNS, []selfTimeRow{
		{"fleet.chunk self", chunkSelf},
		{"fleet.commit self", commitSelf},
		{"durable.fsync (waited)", fsyncWait},
		{"durable.snapshot (waited)", snapWait},
	})
}

func sortByStart(spans []span) []span {
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	return s
}

// overlapping returns the intervals of sorted (by start) spans that
// overlap iv. Spans longer than a second are not expected; the search
// window looks back that far.
func overlapping(sorted []span, iv interval) []interval {
	lo := sort.Search(len(sorted), func(i int) bool { return sorted[i].start >= iv.start-int64(time.Second) })
	var out []interval
	for i := lo; i < len(sorted) && sorted[i].start < iv.end; i++ {
		if sorted[i].end > iv.start {
			out = append(out, sorted[i].iv())
		}
	}
	return out
}

// traceFS wraps the store's filesystem: it times fsyncs of WAL segments
// and snapshot writes (create of the temp file to its rename), and
// counts the bytes written.
type traceFS struct {
	durable.FS
	tr *tracer

	mu      sync.Mutex
	pending map[string]int64 // snapshot temp file → create time
	fsyncs  int64
	snaps   int64
}

func (f *traceFS) Create(name string) (durable.File, error) {
	t0 := f.tr.now()
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(filepath.Base(name), "snap-") {
		f.mu.Lock()
		if f.pending == nil {
			f.pending = map[string]int64{}
		}
		f.pending[name] = t0
		f.mu.Unlock()
	}
	return &traceFile{File: file, fs: f, wal: strings.HasPrefix(filepath.Base(name), "wal-")}, nil
}

func (f *traceFS) OpenAppend(name string) (durable.File, error) {
	file, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &traceFile{File: file, fs: f, wal: strings.HasPrefix(filepath.Base(name), "wal-")}, nil
}

func (f *traceFS) Rename(oldname, newname string) error {
	err := f.FS.Rename(oldname, newname)
	f.mu.Lock()
	t0, ok := f.pending[oldname]
	delete(f.pending, oldname)
	if ok {
		f.snaps++
	}
	id := f.snaps
	f.mu.Unlock()
	if ok {
		f.tr.addShared(span{id: id, start: t0, end: f.tr.now(), layer: lSnapshot})
	}
	return err
}

// traceFile counts written bytes and times Sync on WAL segments.
type traceFile struct {
	durable.File
	fs  *traceFS
	wal bool
}

func (f *traceFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.tr.addBytes(n)
	return n, err
}

func (f *traceFile) Sync() error {
	if !f.wal {
		return f.File.Sync()
	}
	t0 := f.fs.tr.now()
	err := f.File.Sync()
	f.fs.mu.Lock()
	f.fs.fsyncs++
	id := f.fs.fsyncs
	f.fs.mu.Unlock()
	f.fs.tr.addShared(span{id: id, start: t0, end: f.fs.tr.now(), layer: lFsync})
	return err
}
