package moea

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestShardRangePartition: the shard partition must cover every island
// exactly once, contiguously, with shard sizes differing by at most one
// — for every (islands, procs) combination the orchestrator can form.
func TestShardRangePartition(t *testing.T) {
	for islands := 1; islands <= 9; islands++ {
		for procs := 1; procs <= islands; procs++ {
			next, min, max := 0, islands, 0
			for k := 0; k < procs; k++ {
				first, count := ShardRange(islands, procs, k)
				if first != next {
					t.Fatalf("islands=%d procs=%d shard %d starts at %d, want %d", islands, procs, k, first, next)
				}
				next = first + count
				if count < min {
					min = count
				}
				if count > max {
					max = count
				}
			}
			if next != islands {
				t.Fatalf("islands=%d procs=%d: shards cover %d islands", islands, procs, next)
			}
			if max-min > 1 {
				t.Fatalf("islands=%d procs=%d: shard sizes range %d..%d", islands, procs, min, max)
			}
		}
	}
}

// stepEpochSharded runs one migration epoch the way the orchestrator
// does: procs EpochStep calls over the shard partition, each shard
// JSON-round-tripped (modelling the file hop between processes), then
// MergeShards. opt.Workers may differ per call — it must not matter.
func stepEpochSharded(t *testing.T, p Problem, opt Options, iopt IslandOptions, cur *IslandCheckpoint, procs int) (*IslandCheckpoint, bool) {
	t.Helper()
	if procs > iopt.Islands {
		procs = iopt.Islands
	}
	shards := make([]*IslandShard, procs)
	for k := 0; k < procs; k++ {
		first, count := ShardRange(iopt.Islands, procs, k)
		sh, err := EpochStep(context.Background(), p, opt, iopt, cur, first, count)
		if err != nil {
			t.Fatalf("epoch step %d/%d: %v", k, procs, err)
		}
		data, err := json.Marshal(sh)
		if err != nil {
			t.Fatal(err)
		}
		rt := &IslandShard{}
		if err := json.Unmarshal(data, rt); err != nil {
			t.Fatal(err)
		}
		shards[k] = rt
	}
	merged, done, err := MergeShards(shards, iopt)
	if err != nil {
		t.Fatalf("merge at procs=%d: %v", procs, err)
	}
	return merged, done
}

// TestShardedCampaignMatchesInProcess is the process-sharding
// acceptance gate: stepping the campaign epoch by epoch through
// EpochStep + MergeShards — with the process count AND the worker count
// changing every epoch — must reproduce the in-process RunIslands
// checkpoint trajectory byte for byte, and the final merged front plus
// evaluation count exactly.
func TestShardedCampaignMatchesInProcess(t *testing.T) {
	p := zdt1{n: 10}
	opt := Options{PopSize: 16, Generations: 20, Seed: 5, Workers: 2, CheckpointEvery: 5}
	iopt := IslandOptions{Islands: 3, MigrateEvery: 5, Migrants: 3}

	full, err := RunIslands(context.Background(), p, opt, iopt)
	if err != nil {
		t.Fatal(err)
	}
	var cps [][]byte
	capture := iopt
	capture.OnCheckpoint = func(cp *IslandCheckpoint) error {
		data, err := json.Marshal(cp)
		if err != nil {
			return err
		}
		cps = append(cps, data)
		return nil
	}
	if _, err := RunIslands(context.Background(), p, opt, capture); err != nil {
		t.Fatal(err)
	}
	if len(cps) == 0 {
		t.Fatal("no in-process checkpoints captured")
	}

	procsSeq := []int{1, 2, 3, 4}
	workerSeq := []int{4, 1, 8, 2}
	var cur *IslandCheckpoint
	merges := 0
	for epoch := 0; ; epoch++ {
		o := opt
		o.Workers = workerSeq[epoch%len(workerSeq)]
		merged, done := stepEpochSharded(t, p, o, iopt, cur, procsSeq[epoch%len(procsSeq)])
		cur = merged
		if done {
			break
		}
		// Every non-final merge corresponds to one in-process
		// post-migration checkpoint; they must be byte-identical.
		if merges >= len(cps) {
			t.Fatalf("sharded run produced more epochs than in-process (%d checkpoints)", len(cps))
		}
		data, err := json.Marshal(merged)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, cps[merges]) {
			t.Fatalf("epoch %d: merged checkpoint differs from in-process checkpoint", epoch)
		}
		merges++
	}
	if merges != len(cps) {
		t.Fatalf("sharded run merged %d non-final epochs, in-process emitted %d checkpoints", merges, len(cps))
	}

	if !CampaignDone(cur) {
		t.Fatal("final merged checkpoint not complete")
	}
	res, err := MergeIslandCheckpoint(context.Background(), p, opt, iopt, cur)
	if err != nil {
		t.Fatal(err)
	}
	archivesEqual(t, full.Archive, res.Archive, "sharded campaign front")
	if res.Evaluations != full.Evaluations {
		t.Fatalf("evaluations %d, want %d", res.Evaluations, full.Evaluations)
	}
}

// TestShardedResumeFromInProcessCheckpoint: the two drivers share one
// checkpoint format in both directions — a campaign started in-process
// can be finished sharded (and the front stays identical).
func TestShardedResumeFromInProcessCheckpoint(t *testing.T) {
	p := zdt1{n: 10}
	opt := Options{PopSize: 16, Generations: 20, Seed: 11, Workers: 2, CheckpointEvery: 3}
	iopt := IslandOptions{Islands: 3, MigrateEvery: 5, Migrants: 2}

	full, err := RunIslands(context.Background(), p, opt, iopt)
	if err != nil {
		t.Fatal(err)
	}
	var first *IslandCheckpoint
	capture := iopt
	capture.OnCheckpoint = func(cp *IslandCheckpoint) error {
		if first == nil {
			first = cp
		}
		return nil
	}
	if _, err := RunIslands(context.Background(), p, opt, capture); err != nil {
		t.Fatal(err)
	}
	if first == nil {
		t.Fatal("no checkpoint captured")
	}

	cur := first
	for {
		merged, done := stepEpochSharded(t, p, opt, iopt, cur, 2)
		cur = merged
		if done {
			break
		}
	}
	res, err := MergeIslandCheckpoint(context.Background(), p, opt, iopt, cur)
	if err != nil {
		t.Fatal(err)
	}
	archivesEqual(t, full.Archive, res.Archive, "in-process start, sharded finish")
	if res.Evaluations != full.Evaluations {
		t.Fatalf("evaluations %d, want %d", res.Evaluations, full.Evaluations)
	}
}

// TestEpochStepErrors: invalid shard ranges, topology mismatches and
// stepping a finished campaign are rejected with errors, not silently
// mangled state.
func TestEpochStepErrors(t *testing.T) {
	p := zdt1{n: 10}
	opt := Options{PopSize: 8, Generations: 4, Seed: 1}
	iopt := IslandOptions{Islands: 2, MigrateEvery: 2, Migrants: 1}

	for _, tc := range []struct{ first, count int }{
		{-1, 1}, {0, 0}, {0, 3}, {2, 1},
	} {
		if _, err := EpochStep(context.Background(), p, opt, iopt, nil, tc.first, tc.count); err == nil {
			t.Fatalf("range [%d,%d) accepted", tc.first, tc.first+tc.count)
		}
	}

	// Drive the campaign to completion, then ask for one more epoch.
	var cur *IslandCheckpoint
	for {
		merged, done := stepEpochSharded(t, p, opt, iopt, cur, 2)
		cur = merged
		if done {
			break
		}
	}
	if _, err := EpochStep(context.Background(), p, opt, iopt, cur, 0, 1); err == nil || !strings.Contains(err.Error(), "complete") {
		t.Fatalf("stepping a complete campaign: err = %v", err)
	}

	// Checkpoint topology must match the requesting campaign.
	bad := iopt
	bad.Islands = 3
	if _, err := EpochStep(context.Background(), p, opt, bad, cur, 0, 1); err == nil {
		t.Fatal("topology mismatch accepted")
	}

	// Cancellation aborts without emitting a shard.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EpochStep(ctx, p, opt, iopt, nil, 0, 1); err != context.Canceled {
		t.Fatalf("cancelled epoch step: err = %v, want context.Canceled", err)
	}
}

// TestMergeShardsErrors: incomplete, inconsistent or stale shard sets
// must be rejected — in particular a shard left over from an earlier
// epoch (the mid-epoch-kill recovery hazard).
func TestMergeShardsErrors(t *testing.T) {
	p := zdt1{n: 10}
	opt := Options{PopSize: 8, Generations: 8, Seed: 3}
	iopt := IslandOptions{Islands: 2, MigrateEvery: 2, Migrants: 1}

	step := func(cur *IslandCheckpoint, k int, seed int64) *IslandShard {
		o := opt
		o.Seed = seed
		first, count := ShardRange(iopt.Islands, 2, k)
		sh, err := EpochStep(context.Background(), p, o, iopt, cur, first, count)
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}

	// Epoch 0 shards, merged; then epoch 1 shards.
	e0s0, e0s1 := step(nil, 0, 3), step(nil, 1, 3)
	merged, done, err := MergeShards([]*IslandShard{e0s0, e0s1}, iopt)
	if err != nil || done {
		t.Fatalf("epoch 0 merge: done=%v err=%v", done, err)
	}
	e1s0, e1s1 := step(merged, 0, 3), step(merged, 1, 3)

	cases := []struct {
		name   string
		shards []*IslandShard
		iopt   IslandOptions
		want   string
	}{
		{"empty", nil, iopt, "no shards"},
		{"nil shard", []*IslandShard{e1s0, nil}, iopt, "missing shard"},
		{"stale epoch", []*IslandShard{e0s0, e1s1}, iopt, "stale shard"},
		{"duplicate coverage", []*IslandShard{e1s0, e1s0}, iopt, "cover"},
		{"partial coverage", []*IslandShard{e1s1}, iopt, "cover"},
		{"seed mismatch", []*IslandShard{e1s0, step(nil, 1, 4)}, iopt, "seed"},
		{"topology mismatch", []*IslandShard{e1s0, e1s1}, IslandOptions{Islands: 2, MigrateEvery: 3, Migrants: 1}, "topology"},
	}
	for _, tc := range cases {
		if _, _, err := MergeShards(tc.shards, tc.iopt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}

	// The untouched epoch-1 set still merges (the error paths above must
	// not have mutated the shards).
	if _, _, err := MergeShards([]*IslandShard{e1s1, e1s0}, iopt); err != nil {
		t.Fatalf("epoch 1 merge after error cases: %v", err)
	}
}

// TestReadIslandCheckpointFileErrors: corrupt or foreign checkpoint
// files fail loudly with a diagnostic naming the problem.
func TestReadIslandCheckpointFileErrors(t *testing.T) {
	p := zdt1{n: 10}
	opt := Options{PopSize: 8, Generations: 8, Seed: 2, CheckpointEvery: 4}
	iopt := IslandOptions{Islands: 2, MigrateEvery: 4, Migrants: 1}
	var cp *IslandCheckpoint
	capture := iopt
	capture.OnCheckpoint = func(c *IslandCheckpoint) error { cp = c; return nil }
	if _, err := RunIslands(context.Background(), p, opt, capture); err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no checkpoint captured")
	}
	valid, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(f func(c *IslandCheckpoint)) []byte {
		c := &IslandCheckpoint{}
		if err := json.Unmarshal(valid, c); err != nil {
			t.Fatal(err)
		}
		f(c)
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"wrong format", mutate(func(c *IslandCheckpoint) { c.Format = CheckpointFormat }), "not an island checkpoint"},
		{"wrong version", mutate(func(c *IslandCheckpoint) { c.Version = 99 }), "unsupported version"},
		{"truncated json", valid[:len(valid)/2], "unexpected end of JSON"},
		{"not json", []byte("generation 12 of 40\n"), "invalid character"},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-")+".json")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadIslandCheckpointFile(path); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if _, err := ReadIslandCheckpointFile(filepath.Join(dir, "does-not-exist.json")); err == nil {
		t.Fatal("missing file accepted")
	}

	// check() catches an island-count/states mismatch that survives the
	// file-level validation.
	c := &IslandCheckpoint{}
	if err := json.Unmarshal(valid, c); err != nil {
		t.Fatal(err)
	}
	c.States = c.States[:1]
	if err := c.check(opt, iopt); err == nil || !strings.Contains(err.Error(), "states") {
		t.Fatalf("states/islands mismatch: err = %v", err)
	}
}

// TestReadIslandShardFileErrors mirrors the checkpoint error paths for
// the worker shard format the orchestrator merges.
func TestReadIslandShardFileErrors(t *testing.T) {
	p := zdt1{n: 10}
	opt := Options{PopSize: 8, Generations: 8, Seed: 2}
	iopt := IslandOptions{Islands: 2, MigrateEvery: 4, Migrants: 1}
	sh, err := EpochStep(context.Background(), p, opt, iopt, nil, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := json.Marshal(sh)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(s *IslandShard)) []byte {
		s := &IslandShard{}
		if err := json.Unmarshal(valid, s); err != nil {
			t.Fatal(err)
		}
		f(s)
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"wrong format", mutate(func(s *IslandShard) { s.Format = IslandCheckpointFormat }), "not an island shard"},
		{"wrong version", mutate(func(s *IslandShard) { s.Version = 7 }), "unsupported island shard version"},
		{"range outside campaign", mutate(func(s *IslandShard) { s.First = 1 }), "outside campaign"},
		{"objective misalignment", mutate(func(s *IslandShard) { s.PopObjectives[0] = s.PopObjectives[0][:1] }), "population objectives"},
		{"boundary mismatch", mutate(func(s *IslandShard) { s.Boundary++ }), "shard boundary"},
		{"truncated json", valid[:len(valid)-1], "unexpected end of JSON"},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-")+".json")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadIslandShardFile(path); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// FuzzIslandCheckpointRoundTrip: any JSON that decodes into an island
// checkpoint must re-encode stably (marshal → unmarshal → marshal is a
// fixed point). Byte-stable serialization is what makes "the checkpoint
// trajectory is byte-identical" a meaningful cross-process contract.
func FuzzIslandCheckpointRoundTrip(f *testing.F) {
	seed := &IslandCheckpoint{
		Format:  IslandCheckpointFormat,
		Version: IslandCheckpointVersion,
		Seed:    5, Islands: 1, MigrateEvery: 5, Migrants: 2,
		States: []*Checkpoint{{
			Format: CheckpointFormat, Version: CheckpointVersion, Algorithm: "nsga2",
			Seed: 5, GenotypeLen: 2, RNG: [4]uint64{1, 2, 3, 4}, Evaluations: 40,
			PopSize: 4, Generations: 10, NextGeneration: 5,
			Population: [][]float64{{0.25, 0.5}, {0.1, 1e-9}},
			Archive:    [][]float64{{0.125, 1}},
		}},
	}
	data, err := json.Marshal(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(fmt.Sprintf(`{"format":%q,"version":1,"states":[null]}`, IslandCheckpointFormat)))
	f.Add([]byte(`{"seed":-1,"islands":1000000}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp := &IslandCheckpoint{}
		if err := json.Unmarshal(data, cp); err != nil {
			return // not a checkpoint; nothing to round-trip
		}
		out, err := json.Marshal(cp)
		if err != nil {
			t.Fatalf("marshal decoded checkpoint: %v", err)
		}
		cp2 := &IslandCheckpoint{}
		if err := json.Unmarshal(out, cp2); err != nil {
			t.Fatalf("re-decode own encoding: %v", err)
		}
		out2, err := json.Marshal(cp2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("round trip unstable:\n%s\n%s", out, out2)
		}
	})
}
