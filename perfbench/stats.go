package main

import (
	"fmt"
	"regexp"
	"sort"
)

// tailLadder lists the percentiles, in tenths of a percent, that a tail
// latency may be reported at, highest first. p99 is the target; a lower
// rung is used only when fewer than minBeyond samples lie beyond p99.
var tailLadder = []int{990, 980, 950, 900, 750, 500}

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile for it to mean more than one or two outliers.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of the permille
// percentile pm in n sorted samples.
func rank(pm, n int) int {
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank permille percentile pm of sorted.
// It returns 0 for an empty sample.
func percentile(sorted []float64, pm int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(pm, len(sorted))-1]
}

// tail is a tail latency: the value at percentile Permille of N samples.
type tail struct {
	Permille int
	Value    float64
	N        int
}

func (t tail) String() string {
	return fmt.Sprintf("p%g of %d samples", float64(t.Permille)/10, t.N)
}

// tailOf picks the highest ladder percentile that has at least minBeyond
// samples beyond it. With too few samples for any rung it falls back to
// the median.
func tailOf(sorted []float64) tail {
	n := len(sorted)
	for _, pm := range tailLadder {
		if n-rank(pm, n) >= minBeyond {
			return tail{Permille: pm, Value: percentile(sorted, pm), N: n}
		}
	}
	return tail{Permille: 500, Value: percentile(sorted, 500), N: n}
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// interval is a half-open time interval in nanoseconds.
type interval struct{ start, end int64 }

func (iv interval) len() int64 { return iv.end - iv.start }

// coveredWithin returns how much of parent the union of ivs covers.
// Overlapping intervals count once; parts outside parent do not count.
func coveredWithin(parent interval, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start < parent.start {
			iv.start = parent.start
		}
		if iv.end > parent.end {
			iv.end = parent.end
		}
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.start <= cur.end:
			if iv.end > cur.end {
				cur.end = iv.end
			}
		default:
			total += cur.len()
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.len()
	}
	return total
}

// attribute splits parent's duration among child layers given in
// priority order: layer k is credited with the part of parent that its
// intervals cover and no earlier layer's do. The last value is the
// parent's self time, the part no child covers. The values sum to
// parent.len().
func attribute(parent interval, layers [][]interval) []int64 {
	out := make([]int64, len(layers)+1)
	var union []interval
	var prev int64
	for k, ivs := range layers {
		union = append(union, ivs...)
		c := coveredWithin(parent, union)
		out[k] = c - prev
		prev = c
	}
	out[len(layers)] = parent.len() - prev
	return out
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkMetric rejects a metric name or unit the result format forbids.
func checkMetric(name, unit string) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("bad metric name %q", name)
	}
	if !metricUnit.MatchString(unit) {
		return fmt.Errorf("bad unit %q for metric %s", unit, name)
	}
	return nil
}

// ledger counts operations attempted and failed. An operation is one
// evaluation (DSE) or one session (fleet). Retransmits of deliberately
// corrupted chunks are recorded apart: they are injected traffic, not
// failures, and they are not operations.
type ledger struct {
	attempted   int
	failed      int
	retransmits int
}

func (l *ledger) add(o ledger) {
	l.attempted += o.attempted
	l.failed += o.failed
	l.retransmits += o.retransmits
}

// failedShare is failed over attempted operations, 0 when nothing was
// attempted.
func (l ledger) failedShare() float64 {
	if l.attempted == 0 {
		return 0
	}
	return float64(l.failed) / float64(l.attempted)
}
