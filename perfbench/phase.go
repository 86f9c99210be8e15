package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
	"unsafe"
)

// phase accumulates the units of one kind, untraced or traced, that a
// run measured. A unit is one DSE campaign or one fleet round.
type phase struct {
	units int
	ops   ledger
	rates []float64 // per unit: completed operations per second
	cpus  []float64 // per unit: process CPU time per operation, us
	p50s  []float64 // per unit: median latency, ms
	tails []tail    // per unit: tail operation latency, ms
	wallS float64
	sum   counters // counter deltas over the units' timed regions
}

// add records one unit: its operations, the latency samples in ms its
// median latency and its tail latency are taken from, its wall time and
// the counter deltas over its timed region.
func (ph *phase) add(ops ledger, p50Lat, tailLat []float64, wallS float64, d counters) {
	ph.units++
	ph.ops.add(ops)
	ph.p50s = append(ph.p50s, percentile(sortedCopy(p50Lat), 500))
	ph.tails = append(ph.tails, tailOf(sortedCopy(tailLat)))
	ph.rates = append(ph.rates, float64(ops.attempted-ops.failed)/wallS)
	ph.cpus = append(ph.cpus, 1e6*d.cpu/float64(ops.attempted))
	ph.wallS += wallS
	ph.sum.allocBytes += d.allocBytes
	ph.sum.allocs += d.allocs
	ph.sum.gcCPU += d.gcCPU
	ph.sum.cpu += d.cpu
}

// throughput is the median over units of completed operations per second.
func (ph *phase) throughput() float64 { return median(ph.rates) }

// headline sets the end-to-end metrics: medians over units of each
// unit's process CPU time per operation and median latency.
// It also sets and prints the wall-clock throughput and the tail latency,
// which the traced run reports. Every unit has the same operation count,
// so every unit's tail is taken at the same percentile.
func (ph *phase) headline(m map[string]float64, op string) {
	tails := make([]float64, len(ph.tails))
	for i, t := range ph.tails {
		tails[i] = t.Value
	}
	r := sortedCopy(ph.rates)
	m["cpu_us_per_op"] = median(ph.cpus)
	m["latency_p50_ms"] = median(ph.p50s)
	m["throughput_per_s"] = median(ph.rates)
	m["latency_tail_ms"] = median(tails)
	fmt.Printf("throughput over %d units: min %.6g, median %.6g, max %.6g %ss/s\n", ph.units, r[0], median(r), r[len(r)-1], op)
	fmt.Printf("latency: median %.6g ms, %s tail %.6g ms (medians over units of each unit's median and %s)\n",
		m["latency_p50_ms"], op, m["latency_tail_ms"], ph.tails[0])
}

// runtimeMetrics sets the Go runtime per-operation metrics. The GC CPU
// estimate advances when a collection completes, so its share is taken
// over all units together against GOMAXPROCS × their wall time.
func (ph *phase) runtimeMetrics(m map[string]float64) {
	n := float64(ph.ops.attempted)
	m["go.alloc_bytes_per_op"] = ph.sum.allocBytes / n
	m["go.allocs_per_op"] = ph.sum.allocs / n
	m["go.gc_cpu_share"] = ph.sum.gcCPU / (ph.wallS * float64(runtime.GOMAXPROCS(0)))
}

// overhead sets trace.overhead_share: how far the traced units'
// throughput falls below the untraced units'.
func overhead(m map[string]float64, base, traced *phase, unit string) {
	m["trace.overhead_share"] = 1 - traced.throughput()/base.throughput()
	fmt.Printf("trace.overhead_share %.4f (traced %.6g vs untraced %.6g %s, medians of %d and %d units)\n",
		m["trace.overhead_share"], traced.throughput(), base.throughput(), unit, traced.units, base.units)
}

// counters are process counters sampled around a timed region: Go heap
// bytes and objects allocated, GC CPU seconds (the runtime's estimate,
// which advances when a collection completes) and process CPU seconds.
type counters struct{ allocBytes, allocs, gcCPU, cpu float64 }

func readCounters() counters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return counters{
		allocBytes: float64(s[0].Value.Uint64()),
		allocs:     float64(s[1].Value.Uint64()),
		gcCPU:      s[2].Value.Float64(),
		cpu:        processCPU().Seconds(),
	}
}

// since returns the counter deltas from c to now.
func (c counters) since() counters {
	n := readCounters()
	return counters{n.allocBytes - c.allocBytes, n.allocs - c.allocs, n.gcCPU - c.gcCPU, n.cpu - c.cpu}
}

// processCPU is the CPU time all threads of the process have run,
// CLOCK_PROCESS_CPUTIME_ID. The kernel does not count time the
// hypervisor took the CPU away (steal), so on a shared machine it moves
// with the work done, not with the neighbours' load.
func processCPU() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 2 /* CLOCK_PROCESS_CPUTIME_ID */, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// measureSetup runs build at least three times and until a second of
// CPU time has been spent (at most 100 times). It returns the last
// build's result and the median CPU time of one build in seconds, with
// the repetition count and the median wall time. Each build starts after
// a collection that has freed the previous one.
func measureSetup[T any](build func() (T, error)) (T, float64, int, float64, error) {
	var last T
	var cpus, walls []float64
	var total time.Duration
	for len(cpus) < 3 || (total < time.Second && len(cpus) < 100) {
		var zero T
		last = zero
		runtime.GC()
		c0, t0 := processCPU(), time.Now()
		v, err := build()
		if err != nil {
			return last, 0, 0, 0, err
		}
		d := processCPU() - c0
		walls = append(walls, time.Since(t0).Seconds())
		last, total, cpus = v, total+d, append(cpus, d.Seconds())
	}
	return last, median(cpus), len(cpus), median(walls), nil
}
