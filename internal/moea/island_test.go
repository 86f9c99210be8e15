package moea

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func archivesEqual(t *testing.T, a, b []*Individual, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: archive size %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if !equalObjectives(a[i].Objectives, b[i].Objectives) {
			t.Fatalf("%s: archive[%d] = %v vs %v", label, i, a[i].Objectives, b[i].Objectives)
		}
		for j := range a[i].Genotype {
			if a[i].Genotype[j] != b[i].Genotype[j] {
				t.Fatalf("%s: archive[%d] genotype differs at gene %d", label, i, j)
			}
		}
	}
}

// TestIslandsSingleIslandMatchesPlainRun: a 1-island campaign is the
// plain optimizer run under a different driver — same seed stream, same
// generation schedule — so the fronts must be bit-identical.
func TestIslandsSingleIslandMatchesPlainRun(t *testing.T) {
	p := zdt1{n: 10}
	opt := Options{PopSize: 24, Generations: 25, Seed: 9}
	plain, err := Run(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	isl, err := RunIslands(context.Background(), p, opt, IslandOptions{Islands: 1, MigrateEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	archivesEqual(t, plain.Archive, isl.Archive, "islands=1 vs plain")
	if plain.Evaluations != isl.Evaluations {
		t.Fatalf("evaluations %d vs %d", plain.Evaluations, isl.Evaluations)
	}
}

// TestIslandsDeterministicAcrossWorkers is the island acceptance gate:
// for a fixed (seed, islands, migration) tuple the merged front must be
// bit-identical at every worker count.
func TestIslandsDeterministicAcrossWorkers(t *testing.T) {
	p := zdt1{n: 10}
	iopt := IslandOptions{Islands: 3, MigrateEvery: 5, Migrants: 3}
	var ref *Result
	for _, w := range []int{1, 2, 4, 8} {
		opt := Options{PopSize: 16, Generations: 20, Seed: 5, Workers: w}
		res, err := RunIslands(context.Background(), p, opt, iopt)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		archivesEqual(t, ref.Archive, res.Archive, "worker sweep")
		if ref.Evaluations != res.Evaluations {
			t.Fatalf("workers=%d: evaluations %d, want %d", w, res.Evaluations, ref.Evaluations)
		}
	}
}

// TestIslandsMigrationChangesSearch: migration must actually couple the
// islands — disabling it (by pushing the epoch past the budget) must
// yield a different search trajectory than migrating every 5
// generations for at least one island count/seed combination.
func TestIslandsMigrationChangesSearch(t *testing.T) {
	p := zdt1{n: 10}
	opt := Options{PopSize: 16, Generations: 30, Seed: 3}
	with, err := RunIslands(context.Background(), p, opt, IslandOptions{Islands: 4, MigrateEvery: 5, Migrants: 4})
	if err != nil {
		t.Fatal(err)
	}
	without, err := RunIslands(context.Background(), p, opt, IslandOptions{Islands: 4, MigrateEvery: 30, Migrants: 4})
	if err != nil {
		t.Fatal(err)
	}
	same := len(with.Archive) == len(without.Archive)
	if same {
		for i := range with.Archive {
			if !equalObjectives(with.Archive[i].Objectives, without.Archive[i].Objectives) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("migration had no effect on the merged front")
	}
}

// TestIslandCheckpointResume: resuming a campaign from any emitted
// island checkpoint, mid-epoch or just after a migration, must
// reproduce the uninterrupted merged front bit for bit, including
// across a worker-count change.
func TestIslandCheckpointResume(t *testing.T) {
	p := zdt1{n: 10}
	iopt := IslandOptions{Islands: 3, MigrateEvery: 5, Migrants: 2}
	opt := Options{PopSize: 16, Generations: 20, Seed: 11, Workers: 2, CheckpointEvery: 3}

	full, err := RunIslands(context.Background(), p, opt, iopt)
	if err != nil {
		t.Fatal(err)
	}

	var cps []*IslandCheckpoint
	capture := iopt
	capture.OnCheckpoint = func(cp *IslandCheckpoint) error { cps = append(cps, cp); return nil }
	if _, err := RunIslands(context.Background(), p, opt, capture); err != nil {
		t.Fatal(err)
	}
	if len(cps) == 0 {
		t.Fatal("no island checkpoints emitted")
	}

	path := filepath.Join(t.TempDir(), "island-cp.json")
	for i, cp := range cps {
		if err := cp.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadIslandCheckpointFile(path)
		if err != nil {
			t.Fatal(err)
		}
		resumeOpt := opt
		resumeOpt.Workers = 4 // resume on a different worker count
		resumeIopt := iopt
		resumeIopt.Resume = loaded
		res, err := RunIslands(context.Background(), p, resumeOpt, resumeIopt)
		if err != nil {
			t.Fatalf("resume from checkpoint %d: %v", i, err)
		}
		archivesEqual(t, full.Archive, res.Archive, "resumed campaign")
		if res.Evaluations != full.Evaluations {
			t.Fatalf("resume from checkpoint %d: evaluations %d, want %d", i, res.Evaluations, full.Evaluations)
		}
	}
}

// TestIslandCancellationCheckpointResume: a cancelled campaign emits a
// final checkpoint; resuming it completes to the uninterrupted front.
func TestIslandCancellationCheckpointResume(t *testing.T) {
	p := zdt1{n: 10}
	iopt := IslandOptions{Islands: 2, MigrateEvery: 4, Migrants: 2}
	opt := Options{PopSize: 16, Generations: 12, Seed: 7}

	full, err := RunIslands(context.Background(), p, opt, iopt)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	evals := 0
	counting := countingProblem{p: p, evals: &evals, cancelAt: 6 * 16, cancel: cancel}
	var final *IslandCheckpoint
	cancelIopt := iopt
	cancelIopt.OnCheckpoint = func(cp *IslandCheckpoint) error { final = cp; return nil }
	_, err = RunIslands(ctx, counting, opt, cancelIopt)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if final == nil {
		t.Fatal("no final checkpoint on cancellation")
	}

	resumeIopt := iopt
	resumeIopt.Resume = final
	res, err := RunIslands(context.Background(), p, opt, resumeIopt)
	if err != nil {
		t.Fatal(err)
	}
	archivesEqual(t, full.Archive, res.Archive, "resume after cancellation")
}

// countingProblem cancels its context after a fixed number of
// evaluations, forcing a mid-epoch stop.
type countingProblem struct {
	p        Problem
	evals    *int
	cancelAt int
	cancel   context.CancelFunc
}

func (c countingProblem) GenotypeLen() int { return c.p.GenotypeLen() }

func (c countingProblem) Evaluate(g []float64) (Objectives, any) {
	*c.evals++
	if *c.evals == c.cancelAt {
		c.cancel()
	}
	return c.p.Evaluate(g)
}

func TestIslandSeedDerivation(t *testing.T) {
	if IslandSeed(42, 0) != 42 {
		t.Fatal("island 0 must keep the campaign seed")
	}
	seen := map[int64]bool{}
	for i := 0; i < 16; i++ {
		s := IslandSeed(42, i)
		if seen[s] {
			t.Fatalf("island seed collision at island %d", i)
		}
		seen[s] = true
	}
}

func TestSelectMigrantsSpansFront(t *testing.T) {
	var archive []*Individual
	for i := 0; i < 9; i++ {
		archive = append(archive, &Individual{Objectives: Objectives{float64(i), float64(8 - i)}})
	}
	m := selectMigrants(archive, 3)
	if len(m) != 3 {
		t.Fatalf("got %d migrants, want 3", len(m))
	}
	if m[0].Objectives[0] != 0 || m[1].Objectives[0] != 4 || m[2].Objectives[0] != 8 {
		t.Fatalf("migrants not evenly spaced: %v %v %v", m[0].Objectives, m[1].Objectives, m[2].Objectives)
	}
	if got := selectMigrants(archive, 1); len(got) != 1 || got[0].Objectives[0] != 0 {
		t.Fatalf("k=1 migrant = %v", got)
	}
	if got := selectMigrants(archive, 100); len(got) != len(archive) {
		t.Fatalf("k>len returned %d", len(got))
	}
	if got := selectMigrants(nil, 3); got != nil {
		t.Fatalf("empty archive returned %v", got)
	}
}

// TestIslandResumeValidation: topology mismatches are rejected instead
// of silently producing a different campaign.
func TestIslandResumeValidation(t *testing.T) {
	p := zdt1{n: 10}
	iopt := IslandOptions{Islands: 2, MigrateEvery: 4, Migrants: 2}
	opt := Options{PopSize: 16, Generations: 12, Seed: 7, CheckpointEvery: 4}
	var cp *IslandCheckpoint
	capture := iopt
	capture.OnCheckpoint = func(c *IslandCheckpoint) error { cp = c; return nil }
	if _, err := RunIslands(context.Background(), p, opt, capture); err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no checkpoint captured")
	}
	bad := []struct {
		name string
		opt  Options
		iopt IslandOptions
	}{
		{"islands", opt, IslandOptions{Islands: 3, MigrateEvery: 4, Migrants: 2}},
		{"migrate-every", opt, IslandOptions{Islands: 2, MigrateEvery: 5, Migrants: 2}},
		{"migrants", opt, IslandOptions{Islands: 2, MigrateEvery: 4, Migrants: 3}},
		{"seed", Options{PopSize: 16, Generations: 12, Seed: 8}, iopt},
	}
	for _, tc := range bad {
		ro := tc.iopt
		ro.Resume = cp
		if _, err := RunIslands(context.Background(), p, tc.opt, ro); err == nil {
			t.Fatalf("%s mismatch accepted", tc.name)
		}
	}
}

// TestIslandsProgressPerGeneration: a multi-island campaign reports
// once per generation with summed evaluation counts, and the last
// sample carries the final merged archive.
func TestIslandsProgressPerGeneration(t *testing.T) {
	p := zdt1{n: 10}
	var samples []Progress
	var last []*Individual
	opt := Options{PopSize: 16, Generations: 10, Seed: 4, Workers: 2,
		OnProgress: func(pr Progress) {
			samples = append(samples, pr)
			last = append(last[:0], pr.Archive...)
		}}
	res, err := RunIslands(context.Background(), p, opt, IslandOptions{Islands: 3, MigrateEvery: 4, Migrants: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 10 {
		t.Fatalf("got %d progress samples, want 10", len(samples))
	}
	for i, s := range samples {
		if s.Generation != i || s.Generations != 10 {
			t.Fatalf("sample %d: generation %d/%d", i, s.Generation, s.Generations)
		}
		if want := 3 * (16 + 16*(i+1)); s.Evaluations != want || s.RunEvaluations != want {
			t.Fatalf("sample %d: evaluations %d/%d, want %d", i, s.Evaluations, s.RunEvaluations, want)
		}
	}
	archivesEqual(t, res.Archive, last, "last progress archive vs result")
}

// TestIslandCheckpointCadence: checkpoints follow CheckpointEvery, not
// the migration period, never fire at the final generation, and catch
// every island at the same generation.
func TestIslandCheckpointCadence(t *testing.T) {
	p := zdt1{n: 10}
	var at []int
	iopt := IslandOptions{Islands: 3, MigrateEvery: 4, Migrants: 2,
		OnCheckpoint: func(cp *IslandCheckpoint) error {
			for _, st := range cp.States[1:] {
				if st.NextGeneration != cp.States[0].NextGeneration {
					t.Fatalf("islands at generations %d and %d in one checkpoint", cp.States[0].NextGeneration, st.NextGeneration)
				}
			}
			at = append(at, cp.States[0].NextGeneration)
			return nil
		}}
	opt := Options{PopSize: 16, Generations: 12, Seed: 4, CheckpointEvery: 3}
	if _, err := RunIslands(context.Background(), p, opt, iopt); err != nil {
		t.Fatal(err)
	}
	if want := []int{3, 6, 9}; !reflect.DeepEqual(at, want) {
		t.Fatalf("checkpoints at generations %v, want %v", at, want)
	}
}

// TestIslandResumeMixedGenerations: a checkpoint whose islands stand at
// different generations within one epoch, as the island-by-island
// driver of earlier versions wrote on cancellation, resumes to the
// uninterrupted front.
func TestIslandResumeMixedGenerations(t *testing.T) {
	p := zdt1{n: 10}
	iopt := IslandOptions{Islands: 2, MigrateEvery: 5, Migrants: 2}
	opt := Options{PopSize: 16, Generations: 15, Seed: 8, CheckpointEvery: 5}
	var at5 *IslandCheckpoint
	capture := iopt
	capture.OnCheckpoint = func(cp *IslandCheckpoint) error {
		if at5 == nil {
			at5 = cp
		}
		return nil
	}
	full, err := RunIslands(context.Background(), p, opt, capture)
	if err != nil {
		t.Fatal(err)
	}

	dopt, diopt := opt.withDefaults(p.GenotypeLen()), iopt.withDefaults()
	pool := newEvalPool(p, 1)
	defer pool.close()
	states, err := buildIslandStates(p, dopt, at5, 0, 2, pool)
	if err != nil {
		t.Fatal(err)
	}
	states[0].step()
	states[0].step()
	mixed := snapshotIslands(states, dopt, diopt)
	if mixed.States[0].NextGeneration != 7 || mixed.States[1].NextGeneration != 5 {
		t.Fatalf("mixed checkpoint at generations %d/%d, want 7/5", mixed.States[0].NextGeneration, mixed.States[1].NextGeneration)
	}

	resume := iopt
	resume.Resume = mixed
	res, err := RunIslands(context.Background(), p, opt, resume)
	if err != nil {
		t.Fatal(err)
	}
	archivesEqual(t, full.Archive, res.Archive, "resume from mixed generations")
	if res.Evaluations != full.Evaluations {
		t.Fatalf("evaluations %d, want %d", res.Evaluations, full.Evaluations)
	}
}

// TestReadIslandCheckpointFileRetiredFormat: a checkpoint of the retired
// single-population NSGA-II driver is refused as no longer resumable,
// not as corrupt; a random-search checkpoint is not an island file.
func TestReadIslandCheckpointFileRetiredFormat(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "nsga2.json")
	cp := &Checkpoint{Format: CheckpointFormat, Version: CheckpointVersion, Algorithm: AlgorithmNSGA2,
		Seed: 1, GenotypeLen: 2, RNG: [4]uint64{1, 2, 3, 4}, PopSize: 4, Generations: 3, NextGeneration: 1}
	if err := cp.WriteFile(old); err != nil {
		t.Fatal(err)
	}
	_, err := ReadIslandCheckpointFile(old)
	if err == nil || errors.Is(err, ErrCheckpointCorrupt) ||
		!strings.Contains(err.Error(), CheckpointFormat) || !strings.Contains(err.Error(), "no longer resumable") {
		t.Fatalf("retired nsga2 checkpoint: err = %v", err)
	}

	random := filepath.Join(dir, "random.json")
	cp.Algorithm = AlgorithmRandom
	if err := cp.WriteFile(random); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIslandCheckpointFile(random); err == nil || !strings.Contains(err.Error(), "random-search checkpoint") {
		t.Fatalf("random-search checkpoint: err = %v", err)
	}
}
