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
