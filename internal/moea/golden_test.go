package moea

import (
	"context"
	"hash/fnv"
	"math"
	"reflect"
	"testing"
)

// archiveHash is an FNV-1a digest of an archive's genotypes and
// objective vectors, in archive order, followed by the evaluation count.
// Any change to breeding, selection, archive folding, migration or the
// stepping schedule that reaches the front changes it.
func archiveHash(archive []*Individual, evals int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, ind := range archive {
		for _, g := range ind.Genotype {
			put(math.Float64bits(g))
		}
		for _, o := range ind.Objectives {
			put(math.Float64bits(o))
		}
	}
	put(uint64(evals))
	return h.Sum64()
}

// Golden values of the NSGA-II driver on zdt1. They were recorded before
// the single-population run moved onto the island engine and must not
// change with the driver.
const (
	goldenRunHash     = 0x64894ea5ac8a791a
	goldenRunEvals    = 16 + 16*10
	goldenIslandsHash = 0x2cd25fa3f5245a9d
	goldenIslandEvals = 3 * (16 + 16*14)
)

// TestGoldenDriverPin pins what the NSGA-II driver exposes: the
// generations at which Run checkpoints, the number of progress
// callbacks, the run's front, a 3-island campaign's merged front, and
// the front of a run resumed from each of its checkpoints.
func TestGoldenDriverPin(t *testing.T) {
	p := zdt1{n: 8}
	opt := Options{PopSize: 16, Generations: 10, Seed: 17, Workers: 2, CheckpointEvery: 3}
	var cps []*Checkpoint
	progress := 0
	opt.OnCheckpoint = func(cp *Checkpoint) error { cps = append(cps, cp); return nil }
	opt.OnProgress = func(Progress) { progress++ }
	res, err := Run(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	var at []int
	for _, cp := range cps {
		at = append(at, cp.NextGeneration)
	}
	if want := []int{3, 6, 9}; !reflect.DeepEqual(at, want) {
		t.Fatalf("checkpoints at generations %v, want %v", at, want)
	}
	if progress != 10 {
		t.Fatalf("OnProgress called %d times, want 10", progress)
	}
	if res.Evaluations != goldenRunEvals {
		t.Fatalf("run evaluations %d, want %d", res.Evaluations, goldenRunEvals)
	}
	if h := archiveHash(res.Archive, res.Evaluations); h != goldenRunHash {
		t.Fatalf("run archive hash %#x, want %#x", h, uint64(goldenRunHash))
	}

	for _, cp := range cps {
		ropt := Options{PopSize: 16, Generations: 10, Seed: 17, Workers: 3, Resume: cp}
		got, err := Run(context.Background(), p, ropt)
		if err != nil {
			t.Fatalf("resume at generation %d: %v", cp.NextGeneration, err)
		}
		if h := archiveHash(got.Archive, got.Evaluations); h != goldenRunHash {
			t.Fatalf("resume at generation %d: archive hash %#x, want %#x", cp.NextGeneration, h, uint64(goldenRunHash))
		}
	}

	iopt := IslandOptions{Islands: 3, MigrateEvery: 4}
	isl, err := RunIslands(context.Background(), p, Options{PopSize: 16, Generations: 14, Seed: 17, Workers: 2}, iopt)
	if err != nil {
		t.Fatal(err)
	}
	if isl.Evaluations != goldenIslandEvals {
		t.Fatalf("island evaluations %d, want %d", isl.Evaluations, goldenIslandEvals)
	}
	if h := archiveHash(isl.Archive, isl.Evaluations); h != goldenIslandsHash {
		t.Fatalf("island archive hash %#x, want %#x", h, uint64(goldenIslandsHash))
	}
}
