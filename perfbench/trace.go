package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// layer names a span's kind after the repository module it times.
type layer uint8

const (
	lEval       layer = iota // core.Explorer.EvaluateWorker: decode + objectives
	lDecode                  // core.Decoder.DecodeWorker
	lGeneration              // one NSGA-II generation, OnProgress to OnProgress
	lCheckpoint              // moea.Checkpoint.WriteFile
	lCampaign                // one moea.Run
	lChunk                   // fleet.Server.IngestChunk, session not completed
	lCommit                  // fleet.Server.IngestChunk completing a session
	lFsync                   // durable.File.Sync on a WAL segment
	lSnapshot                // durable snapshot file, create to rename
	lRecover                 // fleet.Server.OpenDurable on a killed data dir
	numLayers
)

var layerNames = [numLayers]string{
	"moea.evaluate", "core.decode", "moea.generation", "moea.checkpoint", "moea.run",
	"fleet.chunk", "fleet.commit", "durable.fsync", "durable.snapshot", "durable.recover",
}

// span is one timed call. id identifies the evaluation or session the
// call belongs to (for fsync and snapshot spans, their own sequence
// number); times are nanoseconds since the tracer's epoch.
type span struct {
	id         int64
	start, end int64
	layer      layer
	lane       int16 // -1 for spans recorded off the lanes
}

func (s span) iv() interval { return interval{s.start, s.end} }

// tracer keeps spans in memory. Each lane is appended to by one
// goroutine at a time (an evaluation worker, the optimizer, a sender);
// spans from other goroutines go to the mutex-guarded shared list. A
// lane holds at most limit spans; callers check fits before a unit of
// work so that no span of a traced unit is dropped.
type tracer struct {
	epoch time.Time
	limit int
	lanes [][]span

	mu      sync.Mutex
	shared  []span
	dropped int

	written atomic.Int64 // bytes written through a traced filesystem
}

func newTracer(lanes, limit int) *tracer {
	return &tracer{epoch: time.Now(), limit: limit, lanes: make([][]span, lanes)}
}

// now is the current time in nanoseconds since the epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts a wall-clock reading to nanoseconds since the epoch.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

func (t *tracer) add(lane int, s span) {
	if len(t.lanes[lane]) >= t.limit {
		return
	}
	s.lane = int16(lane)
	t.lanes[lane] = append(t.lanes[lane], s)
}

// fits reports whether every lane can take the given number of further
// spans.
func (t *tracer) fits(spans []int) bool {
	for k, n := range spans {
		if len(t.lanes[k])+n > t.limit {
			return false
		}
	}
	return true
}

func (t *tracer) addBytes(n int) { t.written.Add(int64(n)) }

func (t *tracer) bytesWritten() int64 { return t.written.Load() }

func (t *tracer) addShared(s span) {
	s.lane = -1
	t.mu.Lock()
	if len(t.shared) < t.limit {
		t.shared = append(t.shared, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// of returns every recorded span of layer l, lanes first, then shared.
// Call only once the goroutines that record have stopped.
func (t *tracer) of(l layer) []span {
	var out []span
	for _, lane := range t.lanes {
		for _, s := range lane {
			if s.layer == l {
				out = append(out, s)
			}
		}
	}
	for _, s := range t.shared {
		if s.layer == l {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) count() int {
	n := len(t.shared)
	for _, lane := range t.lanes {
		n += len(lane)
	}
	return n
}

// write stores every span as gzip-compressed JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	bw := bufio.NewWriter(zw)
	emit := func(s span) {
		fmt.Fprintf(bw, "{\"id\":%d,\"layer\":%q,\"lane\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.id, layerNames[s.layer], s.lane, s.start, s.end)
	}
	for _, lane := range t.lanes {
		for _, s := range lane {
			emit(s)
		}
	}
	for _, s := range t.shared {
		emit(s)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}

// durationsMS returns the spans' durations in milliseconds, sorted.
func durationsMS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.end-s.start) / 1e6
	}
	return sortedCopy(out)
}

// selfTimeRow is one line of a traced run's breakdown.
type selfTimeRow struct {
	name string
	ns   int64
}

// printBreakdown prints each layer's self time as a share of the traced
// wall time, then the unexplained remainder, and returns the remainder's
// share. wallNS is the traced wall time in the unit the rows use (lane
// time for concurrent lanes).
func printBreakdown(title string, wallNS int64, rows []selfTimeRow) float64 {
	fmt.Printf("trace breakdown (%s), traced wall %.3f s\n", title, float64(wallNS)/1e9)
	var sum int64
	for _, r := range rows {
		sum += r.ns
		fmt.Printf("  %-34s %10.3f s  %6.2f%%\n", r.name, float64(r.ns)/1e9, 100*float64(r.ns)/float64(wallNS))
	}
	rest := wallNS - sum
	fmt.Printf("  %-34s %10.3f s  %6.2f%%\n", "unexplained", float64(rest)/1e9, 100*float64(rest)/float64(wallNS))
	return float64(rest) / float64(wallNS)
}

// writeTrace writes the spans next to the build and says where.
func writeTrace(tr *tracer, workload string) {
	path := fmt.Sprintf(".bench_build/trace-%s.jsonl.gz", workload)
	if err := tr.write(path); err != nil {
		fmt.Printf("trace not written: %v\n", err)
		return
	}
	fmt.Printf("trace %d spans written to %s (%d dropped)\n", tr.count(), path, tr.dropped)
}
