package moea

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/obs"
)

// ErrCheckpointCorrupt marks a checkpoint or shard file that exists
// but cannot be trusted — unparseable JSON, wrong format or version,
// or internally inconsistent state. Callers distinguish it (errors.Is)
// from a merely missing file: missing means start fresh, corrupt means
// stop and name the file rather than silently discarding progress.
var ErrCheckpointCorrupt = errors.New("checkpoint corrupt")

// Island checkpoint file format identifiers. The file embeds one
// standard Checkpoint per island, so every island's state is
// individually resumable with the existing machinery. Every NSGA-II run
// checkpoints in this format; a one-island file is the classic run.
const (
	IslandCheckpointFormat  = "eedse-dse-island-checkpoint"
	IslandCheckpointVersion = 1
)

// IslandOptions configure an island-model NSGA-II campaign: N
// independent populations advancing in lock step, one generation each
// per round, exchanging archive representatives on a fixed ring every
// MigrateEvery generations, and merging their archives deterministically
// at the end. The remaining run services (OnProgress, CheckpointEvery)
// live in Options.
type IslandOptions struct {
	// Islands is the number of independent populations (minimum 1). Each
	// island runs the base Options with a seed derived from (Seed,
	// island); island 0 uses the base seed unchanged, so a 1-island
	// campaign reproduces the plain Run front bit for bit.
	Islands int
	// MigrateEvery is the epoch length in generations between migrations
	// (default 10). Migration happens at every epoch boundary except the
	// final one.
	MigrateEvery int
	// Migrants is the number of archive representatives each island sends
	// to its ring successor per migration (default 4, capped at half the
	// receiving population).
	Migrants int
	// Resume restores the whole campaign from an island checkpoint. The
	// topology (islands, epoch length, migrant count) and every embedded
	// island state must match the options.
	Resume *IslandCheckpoint
	// OnCheckpoint, when non-nil, receives a campaign snapshot every
	// Options.CheckpointEvery generations (after that generation's
	// migration, never at the final generation) and once more when the
	// context is cancelled. A non-nil return aborts the run with that
	// error.
	OnCheckpoint func(*IslandCheckpoint) error
}

func (io IslandOptions) withDefaults() IslandOptions {
	if io.Islands < 1 {
		io.Islands = 1
	}
	if io.MigrateEvery <= 0 {
		io.MigrateEvery = 10
	}
	if io.Migrants <= 0 {
		io.Migrants = 4
	}
	return io
}

// IslandCheckpoint is a complete snapshot of an island campaign at a
// generation boundary. States holds each island's standard optimizer
// checkpoint in island order; a snapshot taken at a migration barrier
// stores the post-migration populations, so resuming proceeds straight
// into the next epoch without re-migrating. Snapshots the driver takes
// have every island at the same generation; files from the older
// island-by-island driver may not, and resume just as exactly.
type IslandCheckpoint struct {
	Format  string `json:"format"`
	Version int    `json:"version"`

	Seed         int64 `json:"seed"`
	Islands      int   `json:"islands"`
	MigrateEvery int   `json:"migrate_every"`
	Migrants     int   `json:"migrants"`

	States []*Checkpoint `json:"states"`
}

// check validates an island checkpoint against the campaign resuming it.
func (cp *IslandCheckpoint) check(opt Options, iopt IslandOptions) error {
	if cp.Format != IslandCheckpointFormat {
		return fmt.Errorf("moea: resume: not an island checkpoint file (format %q)", cp.Format)
	}
	if cp.Version != IslandCheckpointVersion {
		return fmt.Errorf("moea: resume: unsupported island checkpoint version %d (want %d)", cp.Version, IslandCheckpointVersion)
	}
	if cp.Islands != iopt.Islands {
		return fmt.Errorf("moea: resume: checkpoint has %d islands, run uses -islands %d", cp.Islands, iopt.Islands)
	}
	if cp.MigrateEvery != iopt.MigrateEvery {
		return fmt.Errorf("moea: resume: checkpoint migrates every %d generations, run every %d", cp.MigrateEvery, iopt.MigrateEvery)
	}
	if cp.Migrants != iopt.Migrants {
		return fmt.Errorf("moea: resume: checkpoint migrates %d individuals, run %d", cp.Migrants, iopt.Migrants)
	}
	if cp.Seed != opt.Seed {
		return fmt.Errorf("moea: resume: checkpoint seed %d does not match Seed %d", cp.Seed, opt.Seed)
	}
	if len(cp.States) != cp.Islands {
		return fmt.Errorf("moea: resume: corrupt island checkpoint: %d states for %d islands", len(cp.States), cp.Islands)
	}
	return nil
}

// WriteFile atomically writes the island checkpoint (see
// Checkpoint.WriteFile for the durability contract).
func (cp *IslandCheckpoint) WriteFile(path string) error {
	data, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("moea: island checkpoint: %w", err)
	}
	return writeFileAtomic(path, data)
}

// ReadIslandCheckpointFile loads an island checkpoint written by
// WriteFile. A single-population NSGA-II checkpoint (CheckpointFormat,
// algorithm nsga2) from before every NSGA-II run became an island
// campaign is refused with an error that says so; it is not reported as
// corrupt.
func ReadIslandCheckpointFile(path string) (*IslandCheckpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("moea: island checkpoint: %w", err)
	}
	cp := &IslandCheckpoint{}
	if err := json.Unmarshal(data, cp); err != nil {
		return nil, fmt.Errorf("moea: island checkpoint %s: %w: %v", path, ErrCheckpointCorrupt, err)
	}
	if cp.Format == CheckpointFormat {
		var single struct {
			Algorithm string `json:"algorithm"`
		}
		_ = json.Unmarshal(data, &single) // data parsed above; an absent tag stays ""
		switch single.Algorithm {
		case AlgorithmNSGA2:
			return nil, fmt.Errorf("moea: checkpoint %s: format %q of the retired single-population NSGA-II driver is no longer resumable; NSGA-II now checkpoints as %q, so restart the run",
				path, CheckpointFormat, IslandCheckpointFormat)
		case AlgorithmRandom:
			return nil, fmt.Errorf("moea: checkpoint %s is a random-search checkpoint, not an NSGA-II island checkpoint", path)
		}
	}
	if cp.Format != IslandCheckpointFormat {
		return nil, fmt.Errorf("moea: island checkpoint %s: %w: not an island checkpoint file (format %q)", path, ErrCheckpointCorrupt, cp.Format)
	}
	if cp.Version != IslandCheckpointVersion {
		return nil, fmt.Errorf("moea: island checkpoint %s: %w: unsupported version %d (want %d)", path, ErrCheckpointCorrupt, cp.Version, IslandCheckpointVersion)
	}
	return cp, nil
}

// IslandSeed derives island i's PRNG seed from the campaign seed.
// Island 0 keeps the campaign seed, so a 1-island campaign is
// bit-identical to the plain run; the rest get decorrelated streams
// through a splitmix64 step.
func IslandSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	z := uint64(seed) + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// selectMigrants picks k representatives from an archive: the archive
// is ordered lexicographically by objective vector and sampled at
// evenly spaced positions, so the migrant set spans the front instead
// of clustering at one corner, and is a pure function of the archive
// contents (worker-count independent).
func selectMigrants(archive []*Individual, k int) []*Individual {
	if len(archive) == 0 || k <= 0 {
		return nil
	}
	sorted := append([]*Individual(nil), archive...)
	sort.SliceStable(sorted, func(a, b int) bool {
		oa, ob := sorted[a].Objectives, sorted[b].Objectives
		for i := range oa {
			if i >= len(ob) {
				break
			}
			if oa[i] != ob[i] {
				return oa[i] < ob[i]
			}
		}
		return len(oa) < len(ob)
	})
	if k >= len(sorted) {
		return sorted
	}
	if k == 1 {
		return sorted[:1]
	}
	out := make([]*Individual, 0, k)
	for j := 0; j < k; j++ {
		// Evenly spaced indices over [0, len-1], endpoints included;
		// strictly increasing because len(sorted) > k.
		out = append(out, sorted[j*(len(sorted)-1)/(k-1)])
	}
	return out
}

// migrateRing performs one synchronous ring migration over per-island
// population/archive slices: every island's migrant set is selected
// first (selectMigrants over its archive), then island i's migrants are
// injected into ring successor i+1 (injectMigrants worst-replacement),
// so the exchange is simultaneous and ring order cannot influence what
// is sent. Populations are mutated in place. The function is a pure
// transformation of (genotypes, objectives, order) — the in-process
// epoch loop and the orchestrator's central merge of worker shards call
// exactly this code, which is what keeps the multi-process campaign
// byte-identical to the in-process one.
func migrateRing(pops, archives [][]*Individual, migrants int) {
	n := len(pops)
	if n <= 1 {
		return
	}
	sel := make([][]*Individual, n)
	for i := range archives {
		sel[i] = selectMigrants(archives[i], migrants)
	}
	for i := range pops {
		injectMigrants(pops[i], sel[(i-1+n)%n])
	}
}

// mergeIslandArchives folds the island archives into one global
// non-dominated set. The fold visits islands in index order and each
// archive in its deterministic insertion order, so the merged front is
// a pure function of the per-island archives — independent of worker
// count and of which process hosted which island.
func mergeIslandArchives(states []*nsga2, eps []float64) []*Individual {
	if len(states) == 1 {
		// Folding one archive into an empty one reproduces it entry for
		// entry: its members are already mutually non-dominated.
		return states[0].archive
	}
	var merged []*Individual
	for _, s := range states {
		merged = updateArchiveEps(merged, s.archive, eps)
	}
	return merged
}

// buildIslandStates constructs the stepping optimizers for the
// contiguous island subset [first, first+count): each island runs the
// base options with its derived seed (IslandSeed) and no per-island
// callbacks — the campaign reports and checkpoints at the island level
// only. When resume is non-nil, island i restores from resume.States[i]
// (re-evaluating the stored genotypes exactly). opt must already carry
// defaults. Both the in-process campaign driver (RunIslands) and the
// process-sharded epoch step (EpochStep) build their islands here, so
// the two paths cannot drift apart.
func buildIslandStates(p Problem, opt Options, resume *IslandCheckpoint, first, count int, pool *evalPool) ([]*nsga2, error) {
	states := make([]*nsga2, count)
	for j := range states {
		i := first + j
		o := opt
		o.Seed = IslandSeed(opt.Seed, i)
		o.Resume = nil
		if resume != nil {
			o.Resume = resume.States[i]
		}
		s, err := newNSGA2(p, o, pool)
		if err != nil {
			return nil, fmt.Errorf("moea: island %d: %w", i, err)
		}
		states[j] = s
	}
	return states, nil
}

// snapshotIslands captures a full campaign checkpoint from in-memory
// island states (states must cover every island, in island order).
func snapshotIslands(states []*nsga2, opt Options, iopt IslandOptions) *IslandCheckpoint {
	cp := &IslandCheckpoint{
		Format:       IslandCheckpointFormat,
		Version:      IslandCheckpointVersion,
		Seed:         opt.Seed,
		Islands:      iopt.Islands,
		MigrateEvery: iopt.MigrateEvery,
		Migrants:     iopt.Migrants,
		States:       make([]*Checkpoint, len(states)),
	}
	for i, s := range states {
		cp.States[i] = s.snapshot()
	}
	return cp
}

// islandResult folds the island states into the campaign Result: merged
// archive (island order), summed evaluation counts, concatenated final
// populations.
func islandResult(states []*nsga2, eps []float64) *Result {
	res := &Result{Archive: mergeIslandArchives(states, eps)}
	for _, s := range states {
		res.Evaluations += s.evals
		res.FinalPopulation = append(res.FinalPopulation, s.pop...)
	}
	return res
}

// RunIslands executes an island-model NSGA-II campaign: iopt.Islands
// independent populations, each running the base Options with a derived
// seed. The driver steps every island one generation per round; islands
// are independent between migrations and evaluation is a pure function
// of the genotype, so the stepping order cannot change a front. After
// each round it
//  1. migrates, if the round ends an epoch of iopt.MigrateEvery
//     generations (not after the final generation): each island sends
//     Migrants archive representatives to its ring successor, which
//     replace the successor's worst individuals;
//  2. calls opt.OnProgress with the archive merged over all islands;
//  3. checkpoints through iopt.OnCheckpoint every opt.CheckpointEvery
//     generations, never at the final generation.
//
// All islands share one evaluation worker pool (opt.Workers goroutines
// total), so a campaign saturates the machine regardless of how
// generations distribute across islands.
//
// Determinism: for a fixed (Seed, Islands, MigrateEvery, Migrants)
// tuple the merged front is bit-identical at any worker count.
// Migration snapshots every island's migrant set before any injection,
// so ring order cannot leak into results.
//
// Cancellation is honored between rounds: the campaign stops, emits a
// final island checkpoint through iopt.OnCheckpoint (if set), and
// returns the partial merged Result with ctx.Err(). Resuming from any
// emitted checkpoint continues to a byte-identical merged front. No
// goroutines outlive the call.
func RunIslands(ctx context.Context, p Problem, opt Options, iopt IslandOptions) (*Result, error) {
	genLen := p.GenotypeLen()
	if genLen <= 0 {
		return nil, errEmptyGenotype
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults(genLen)
	iopt = iopt.withDefaults()
	if iopt.Resume != nil {
		if err := iopt.Resume.check(opt, iopt); err != nil {
			return nil, err
		}
	}

	pool := newEvalPool(p, opt.Workers)
	defer pool.close()

	states, err := buildIslandStates(p, opt, iopt.Resume, 0, iopt.Islands, pool)
	if err != nil {
		return nil, err
	}

	checkpoint := func() error {
		if iopt.OnCheckpoint == nil {
			return nil
		}
		return iopt.OnCheckpoint(snapshotIslands(states, opt, iopt))
	}
	result := func() *Result { return islandResult(states, opt.ArchiveEpsilon) }
	start := time.Now()

	// A resumed campaign may start with islands at different generations
	// (see IslandCheckpoint); a round then steps only the islands at the
	// least-advanced generation gen, so after it every island stands at
	// gen+1 or beyond and the uninterrupted schedule is reproduced.
	gen := opt.Generations
	for _, s := range states {
		gen = min(gen, s.gen)
	}
	for ; gen < opt.Generations; gen++ {
		if ctx.Err() != nil {
			if err := checkpoint(); err != nil {
				return result(), err
			}
			return result(), ctx.Err()
		}
		for _, s := range states {
			if s.gen == gen {
				s.step()
			}
		}
		done := gen + 1
		if done%iopt.MigrateEvery == 0 && done < opt.Generations && len(states) > 1 {
			sp := opt.Obs.Start(obs.StageMigration)
			pops := make([][]*Individual, len(states))
			archives := make([][]*Individual, len(states))
			for i, s := range states {
				pops[i], archives[i] = s.pop, s.archive
			}
			migrateRing(pops, archives, iopt.Migrants)
			sp.End()
		}
		if opt.OnProgress != nil {
			evals, runEvals := 0, 0
			for _, s := range states {
				evals += s.evals
				runEvals += s.runEvals
			}
			opt.OnProgress(Progress{
				Generation:     gen,
				Generations:    opt.Generations,
				Evaluations:    evals,
				RunEvaluations: runEvals,
				Archive:        mergeIslandArchives(states, opt.ArchiveEpsilon),
				Elapsed:        time.Since(start),
			})
		}
		if opt.CheckpointEvery > 0 && done%opt.CheckpointEvery == 0 && done < opt.Generations {
			if err := checkpoint(); err != nil {
				return result(), err
			}
		}
	}
	return result(), nil
}

// Run executes single-population NSGA-II: the one-island campaign of
// RunIslands. Options.Resume and Options.OnCheckpoint carry the single
// island's own Checkpoint, unwrapped from the island checkpoint the
// driver takes.
func Run(ctx context.Context, p Problem, opt Options) (*Result, error) {
	iopt := IslandOptions{Islands: 1}.withDefaults()
	if cp := opt.Resume; cp != nil {
		iopt.Resume = &IslandCheckpoint{
			Format:       IslandCheckpointFormat,
			Version:      IslandCheckpointVersion,
			Seed:         cp.Seed,
			Islands:      1,
			MigrateEvery: iopt.MigrateEvery,
			Migrants:     iopt.Migrants,
			States:       []*Checkpoint{cp},
		}
	}
	if onCheckpoint := opt.OnCheckpoint; onCheckpoint != nil {
		iopt.OnCheckpoint = func(cp *IslandCheckpoint) error { return onCheckpoint(cp.States[0]) }
	}
	return RunIslands(ctx, p, opt, iopt)
}
