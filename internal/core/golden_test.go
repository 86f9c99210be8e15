package core

import (
	"context"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/moea"
)

// objectiveHash is an FNV-1a digest of a sequence of objective vectors
// followed by an evaluation count.
func objectiveHash(objs []moea.Objectives, evals int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, o := range objs {
		for _, v := range o {
			put(math.Float64bits(v))
		}
	}
	put(uint64(evals))
	return h.Sum64()
}

func solutionsHash(res *Result) uint64 {
	objs := make([]moea.Objectives, len(res.Solutions))
	for i, s := range res.Solutions {
		objs[i] = moea.Objectives{s.Objectives.CostTotal, s.Objectives.TestQuality, s.Objectives.ShutOffMS}
	}
	return objectiveHash(objs, res.Evaluations)
}

func archiveHash(res *moea.Result) uint64 {
	objs := make([]moea.Objectives, len(res.Archive))
	for i, ind := range res.Archive {
		objs[i] = ind.Objectives
	}
	return objectiveHash(objs, res.Evaluations)
}

// Golden fronts of the explorer on the reduced case study with the
// greedy decoder. They were recorded before the single-population run
// moved onto the island engine and must not change with the driver.
const (
	goldenClassicHash = 0x50c3f7c775fd2521
	goldenArchiveHash = 0x895a7438d55fc099
	goldenIslandsHash = 0x3b7759dcc87cc03c
)

// TestGoldenExplorerFronts pins the classic exploration's front, the
// optimizer archive of the same campaign, the archive of a run resumed
// from each of its checkpoints, and a 3-island campaign's merged archive.
func TestGoldenExplorerFronts(t *testing.T) {
	spec := smallSpec(t)
	gd, err := NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := moea.Options{PopSize: 16, Generations: 9, Seed: 23, Workers: 2}
	classic, err := NewExplorer(spec, gd).Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if h := solutionsHash(classic); h != goldenClassicHash {
		t.Fatalf("classic front hash %#x, want %#x", h, uint64(goldenClassicHash))
	}

	var cps []*moea.Checkpoint
	copt := opt
	copt.CheckpointEvery = 4
	copt.OnCheckpoint = func(cp *moea.Checkpoint) error { cps = append(cps, cp); return nil }
	full, err := moea.Run(context.Background(), NewExplorer(spec, gd), copt)
	if err != nil {
		t.Fatal(err)
	}
	if h := archiveHash(full); h != goldenArchiveHash {
		t.Fatalf("archive hash %#x, want %#x", h, uint64(goldenArchiveHash))
	}
	if len(cps) != 2 {
		t.Fatalf("%d checkpoints, want 2", len(cps))
	}
	for _, cp := range cps {
		ropt := opt
		ropt.Resume = cp
		got, err := moea.Run(context.Background(), NewExplorer(spec, gd), ropt)
		if err != nil {
			t.Fatal(err)
		}
		if h := archiveHash(got); h != goldenArchiveHash {
			t.Fatalf("resumed at generation %d: archive hash %#x, want %#x", cp.NextGeneration, h, uint64(goldenArchiveHash))
		}
	}

	isl, err := moea.RunIslands(context.Background(), NewExplorer(spec, gd), opt,
		moea.IslandOptions{Islands: 3, MigrateEvery: 4, Migrants: 2})
	if err != nil {
		t.Fatal(err)
	}
	if h := archiveHash(isl); h != goldenIslandsHash {
		t.Fatalf("3-island archive hash %#x, want %#x", h, uint64(goldenIslandsHash))
	}
}
