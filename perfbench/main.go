// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the DSE (genotype → decode → objectives →
// NSGA-II) or the fleet ingest service, checks every output, and prints
// each metric with its unit. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": 320, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation beyond the benchmark's own clocks around each
// operation and each unit of work. With -trace 1 the run wraps the
// public interfaces of each layer, keeps spans in memory, and reports
// the per-layer metrics instead. See
// README.md in this directory for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload dse-sat --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported on every
// workload. An operation is one evaluation (dse-*) or one session
// (fleet-*). The wall-clock throughput and tail latency are printed by
// every run but reported by the traced run: on a shared machine they
// move with the neighbours' load (see README.md).
var endToEnd = []metricDef{
	{"cpu_us_per_op", "us"},
	{"latency_p50_ms", "ms"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, led by the untraced units'
// wall-clock throughput and tail latency. Every workload reports all of
// them; a layer the workload does not execute reads 0.
var perLayer = []metricDef{
	{"throughput_per_s", "1/s"},
	{"latency_tail_ms", "ms"},
	{"pbsat.decisions_per_decode", "count"},
	{"pbsat.conflicts_per_decode", "count"},
	{"pbsat.propagations_per_decode", "count"},
	{"core.decode_ms.p50", "ms"},
	{"core.decode_ms.p99", "ms"},
	{"objective.ms.p50", "ms"},
	{"moea.generation_self_ms.p50", "ms"},
	{"moea.pool_idle_share", "share"},
	{"moea.checkpoint_ms.p50", "ms"},
	{"moea.front_hv", "volume"},
	{"encode.build_s", "s"},
	{"casestudy.build_s", "s"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.allocs_per_op", "count"},
	{"go.gc_cpu_share", "share"},
	{"fleet.chunk_us.p50", "us"},
	{"fleet.chunk_us.p99", "us"},
	{"fleet.commit_us.p50", "us"},
	{"fleet.commit_us.p99", "us"},
	{"fleet.retransmits", "count"},
	{"fleet.backpressure_rejects", "count"},
	{"fleet.records_evicted", "count"},
	{"durable.fsync_ms.p50", "ms"},
	{"durable.fsync_ms.p99", "ms"},
	{"durable.sessions_per_fsync", "count"},
	{"durable.bytes_per_session", "B"},
	{"durable.snapshot_ms.p50", "ms"},
	{"durable.snapshot_ms.max", "ms"},
	{"durable.snapshots", "count"},
	{"durable.replay_entries", "count"},
	{"durable.recover_s", "s"},
	{"env.fsync_ms.p50", "ms"},
	{"env.fsync_ms.p99", "ms"},
	{"trace.overhead_share", "share"},
	{"trace.unexplained_share", "share"},
}

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// work is a private scratch directory under .bench_build for DSE
	// checkpoints and the fsync probe.
	work string
}

// outcome is what a workload hands back to main: the operation ledger
// and the metric values by name. The error a workload returns with it is
// a failed output check or a failed operation.
type outcome struct {
	ops     ledger
	metrics map[string]float64
}

var workloads = map[string]func(options) (outcome, error){
	"dse-sat":       runDSE,
	"dse-greedy":    runDSE,
	"fleet-ram":     runFleet,
	"fleet-durable": runFleet,
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: dse-sat, dse-greedy, fleet-ram, fleet-durable")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run, 0 the end-to-end metrics")
	flag.Parse()
	o.trace = traceFlag == 1
	run, ok := workloads[o.workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload dse-sat|dse-greedy|fleet-ram|fleet-durable, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fatal(err)
	}
	o.work = work
	code := report(o, run)
	os.RemoveAll(work)
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// report runs the workload, prints the machine context, every metric
// with its unit, and the result line. It returns the exit code.
func report(o options, run func(options) (outcome, error)) int {
	ctx, probe := machineContext(o.work)
	ctxJSON, _ := json.Marshal(ctx)
	fmt.Printf("context %s\n", ctxJSON)
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", o.workload, o.seed, o.seconds, o.trace)

	out, runErr := run(o)
	defs := endToEnd
	if o.trace {
		defs = perLayer
		out.metrics["env.fsync_ms.p50"] = probe[0]
		out.metrics["env.fsync_ms.p99"] = probe[1]
	} else {
		out.metrics["max_rss_mb"] = maxRSSMB()
	}
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: runErr == nil, Attempted: out.ops.attempted, Failed: out.ops.failed, Metrics: map[string]jsonMetric{}}
	if runErr == nil && out.ops.failed > 0 {
		runErr = fmt.Errorf("%d of %d operations failed", out.ops.failed, out.ops.attempted)
		res.Correct = false
	}
	for _, d := range defs {
		if err := checkMetric(d.name, d.unit); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		v, ok := out.metrics[d.name]
		if !ok && !o.trace && runErr == nil {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not measure %s\n", o.workload, d.name)
			return 1
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s is %v\n", d.name, v)
			return 1
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		fmt.Printf("metric %-30s %14.6g %s\n", d.name, v, d.unit)
	}
	fmt.Printf("ops attempted %d failed %d failed_share %g retransmits %d\n",
		out.ops.attempted, out.ops.failed, out.ops.failedShare(), out.ops.retransmits)
	if runErr != nil {
		fmt.Printf("CHECK FAILED: %v\n", runErr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if runErr != nil {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// machineContext describes the machine a result was measured on,
// including an fsync latency probe on the filesystem that holds dir.
func machineContext(dir string) (map[string]any, [2]float64) {
	p50, p99, n := fsyncProbe(dir)
	return map[string]any{
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"go_version":       runtime.Version(),
		"cpu_model":        cpuModel(),
		"env_fsync_ms_p50": p50,
		"env_fsync_ms_p99": p99,
		"env_fsync_n":      n,
	}, [2]float64{p50, p99}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsyncProbe appends 4 KiB blocks to a file in dir and fsyncs after
// each, up to 1000 times or half a second, and returns the median and
// p99 fsync latency in milliseconds with the sample count.
func fsyncProbe(dir string) (p50, p99 float64, n int) {
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return 0, 0, 0
	}
	defer f.Close()
	block := make([]byte, 4096)
	var lat []float64
	deadline := time.Now().Add(500 * time.Millisecond)
	for len(lat) < 1000 && time.Now().Before(deadline) {
		if _, err := f.Write(block); err != nil {
			break
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			break
		}
		lat = append(lat, msSince(t0))
	}
	sort.Float64s(lat)
	return percentile(lat, 500), percentile(lat, 990), len(lat)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
