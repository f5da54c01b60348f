package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/textproc"
)

// TestComponentKeyGolden pins the content key of every component of a
// seeded candidate graph. The keys address memoized fusion results, so a
// faster keying must hash exactly the same bytes: a changed key would not
// change any result, but it would silently miss every result cached under
// the old scheme. The graph mixes singleton pairs, multi-term pairs and
// components of up to a hundred pairs; structurally equal components share
// a key, so the digest covers the distinct keys in sorted order.
func TestComponentKeyGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	zipf := rand.NewZipf(rng, 1.1, 4, 3000)
	texts := make([]string, 900)
	for i := range texts {
		var b strings.Builder
		e := rng.Intn(300)
		fmt.Fprintf(&b, "ent%d mod%d ", e, e)
		for k := 1 + rng.Intn(4); k > 0; k-- {
			fmt.Fprintf(&b, "w%d ", zipf.Uint64())
		}
		texts[i] = b.String()
	}
	c := textproc.BuildCorpus(texts, textproc.CorpusOptions{Tokenize: textproc.DefaultTokenizeOptions(), MaxDFRatio: 0.05})
	g, err := index.BuildGraph(c, nil, index.BatchOptions{MinSharedTerms: 2})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(0)
	run := NewRun(context.Background(), RunOptions{Workers: 1})
	_, stats, err := DeltaFuse(run, g, c.NumRecords(), core.DefaultOptions(), cache)
	if err != nil {
		t.Fatal(err)
	}
	largest := 0
	for _, e := range cache.comps {
		largest = max(largest, len(e.res.P))
	}
	t.Logf("%d pairs, %d components, %d distinct keys, largest component %d pairs",
		g.NumPairs(), stats.Components, len(cache.comps), largest)
	if stats.Components < 100 || len(cache.comps) < 20 || largest < 50 {
		t.Fatalf("graph too simple: %d components, %d distinct keys, largest %d pairs",
			stats.Components, len(cache.comps), largest)
	}
	keys := make([]string, 0, len(cache.comps))
	for k := range cache.comps {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
	}
	const want = "2e085226b9c24e62635046ce6c5f6821c570663a42c6498caca5c4006e7de2c8"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("component key digest = %s, want %s", got, want)
	}
}

// TestPartitionMatchesDeltaFuse pins core's FusionRun.Partition, the
// component count the benchmark harness reports, to the Out of DeltaFuse's
// partition stage: both count the connected components of the candidate
// graph over the records in at least one pair. It runs on the full Product
// replica and on a corpus whose records share no term, so no pair exists.
func TestPartitionMatchesDeltaFuse(t *testing.T) {
	product := dataset.GenProduct(dataset.GenConfig{Seed: 1, Scale: 1})
	for _, tc := range []struct {
		name    string
		texts   []string
		sources []int
	}{
		{"product", product.Texts(), product.Sources()},
		{"no-pairs", []string{"alpha beta", "gamma delta", "epsilon zeta"}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := textproc.BuildCorpus(tc.texts, textproc.CorpusOptions{Tokenize: textproc.DefaultTokenizeOptions(), MaxDFRatio: 0.12})
			g, err := index.BuildGraph(c, tc.sources, index.BatchOptions{
				CrossSourceOnly: len(tc.sources) > 0,
				MinSharedTerms:  2,
				MinJaccard:      0.2,
			})
			if err != nil {
				t.Fatal(err)
			}
			opts := core.DefaultOptions()
			run := NewRun(context.Background(), RunOptions{Workers: 1})
			if _, _, err := DeltaFuse(run, g, c.NumRecords(), opts, NewCache(0)); err != nil {
				t.Fatal(err)
			}
			st := run.Trace().Find(StagePartition)
			if st == nil {
				t.Fatal("DeltaFuse recorded no partition stage")
			}
			got := core.NewFusionRun(g, c.NumRecords(), opts).Partition()
			if got != st.Out {
				t.Fatalf("Partition() = %d, DeltaFuse partition stage Out = %d (%d pairs)", got, st.Out, g.NumPairs())
			}
			if tc.name == "product" && got < 100 {
				t.Fatalf("product replica split into only %d components over %d pairs", got, g.NumPairs())
			}
			if tc.name == "no-pairs" && (g.NumPairs() != 0 || got != 0) {
				t.Fatalf("no-pairs corpus: %d pairs, %d components; want 0/0", g.NumPairs(), got)
			}
		})
	}
}
