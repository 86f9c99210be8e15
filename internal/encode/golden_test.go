package encode

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/casestudy"
	"repro/internal/pbsat"
)

// goldenSearch is one decode's search trace: the pbsat.Result counters
// and an FNV-1a hash of the model.
type goldenSearch struct {
	decisions, conflicts, fallbacks, propagated int
	model                                       uint64
}

// goldenSearches pins the SAT-decoding search on the case study at two
// profiles per ECU for the 20 genotypes of goldenGenotypes. The table
// was recorded before the solver paid for the root fixpoint once and
// searched a residual problem; a solver change that keeps the search
// must leave every field, Propagated included, unchanged.
var goldenSearches = []goldenSearch{
	{333, 113, 271, 6759, 0x8b59cbf651c1570d},
	{324, 103, 257, 6585, 0x251340c8c17142e9},
	{321, 107, 259, 6652, 0xc5a24e2d30d5c413},
	{316, 105, 252, 6632, 0xc7d0c0acfa1316ed},
	{341, 107, 274, 6618, 0x878caea798ebdc3},
	{346, 115, 277, 6785, 0x2fb6f76fd2535e13},
	{342, 117, 281, 6842, 0xb1efbf7d96f3bf25},
	{314, 101, 247, 6564, 0x132bf54fc96d3f59},
	{325, 103, 259, 6588, 0xb838fc5ec7088b51},
	{315, 105, 253, 6639, 0x3f751cb95cf0d1b5},
	{330, 113, 261, 6754, 0x69cdaaa7709e490f},
	{324, 105, 263, 6634, 0x8f582b87f8978f55},
	{327, 99, 254, 6504, 0x1bd48e812760ca25},
	{313, 107, 251, 6678, 0xcadf91225b2a0feb},
	{327, 107, 262, 6658, 0xfdffcdef548c5f81},
	{309, 97, 240, 6501, 0xab7e411e6016bc6d},
	{315, 105, 253, 6611, 0x34bbfc57b90b5be5},
	{330, 111, 260, 6725, 0x41ee411cbfe7a5f5},
	{324, 107, 257, 6649, 0xa12b6bbb8f41a695},
	{327, 107, 256, 6654, 0xe1e36461cf895ac7},
}

// goldenGenotypes returns the pinned genotypes: uniform random genes,
// drawn from one seeded stream.
func goldenGenotypes(n, genes int) [][]float64 {
	rng := rand.New(rand.NewSource(2014))
	gs := make([][]float64, n)
	for i := range gs {
		gs[i] = make([]float64, genes)
		for j := range gs[i] {
			gs[i][j] = rng.Float64()
		}
	}
	return gs
}

func modelHash(a pbsat.Assignment) uint64 {
	h := fnv.New64a()
	buf := make([]byte, len(a))
	for i, v := range a {
		if v {
			buf[i] = 1
		}
	}
	h.Write(buf)
	return h.Sum64()
}

// TestGoldenSearchPin decodes the pinned genotypes on one DecoderState
// and compares each search against goldenSearches.
func TestGoldenSearchPin(t *testing.T) {
	if testing.Short() {
		t.Skip("case-study PB encoding")
	}
	spec, err := casestudy.Build(casestudy.Options{ProfilesPerECU: 2})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := e.NewDecoderState()
	for i, g := range goldenGenotypes(20, e.GenotypeLen()) {
		_, res, err := st.Decode(g, 0)
		if err != nil {
			t.Fatalf("genotype %d: %v", i, err)
		}
		got := goldenSearch{res.Decisions, res.Conflicts, res.Fallbacks, res.Propagated, modelHash(res.Model)}
		if i >= len(goldenSearches) {
			t.Errorf("genotype %d: no pinned search; got {%d, %d, %d, %d, %#x}",
				i, got.decisions, got.conflicts, got.fallbacks, got.propagated, got.model)
			continue
		}
		if want := goldenSearches[i]; got != want {
			t.Errorf("genotype %d: search %s, pinned %s", i, got, want)
		}
	}
}

func (g goldenSearch) String() string {
	return fmt.Sprintf("(decisions %d, conflicts %d, fallbacks %d, propagated %d, model %#x)",
		g.decisions, g.conflicts, g.fallbacks, g.propagated, g.model)
}
