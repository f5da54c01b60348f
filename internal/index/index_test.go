package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/textproc"
)

// liveRecord is the test's shadow model of the collection: the plain
// key->record map the Index must stay equivalent to.
type liveRecord struct {
	text   string
	source int
}

// batchView builds the oracle Graph from the shadow model the way the batch
// pipeline would: records in ascending external-ID order through
// textproc.BuildCorpus and the serial reference enumeration.
func batchView(t *testing.T, model map[string]liveRecord, cfg Config) (*Graph, []string, []int) {
	t.Helper()
	ids := make([]string, 0, len(model))
	for id := range model {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	texts := make([]string, len(ids))
	sources := make([]int, len(ids))
	for i, id := range ids {
		texts[i] = model[id].text
		sources[i] = model[id].source
	}
	c := textproc.BuildCorpus(texts, cfg.Corpus)
	g := referenceBuild(c, sources, cfg.Block)
	return g, ids, sources
}

// TestIncrementalMatchesBatch drives random upsert/delete/replace sequences
// against a mutable Index and, after every small batch of mutations, checks
// that Materialize reproduces the from-scratch batch build bit for bit —
// candidate graph, ID order and sources. Configurations exercise the MaxDFRatio
// threshold shifting with the corpus size, the MaxTermRecords cap, the
// Jaccard floor and cross-source filtering; the bulk-band subtest runs a
// long load through a tight band and checks the Deltas as well.
func TestIncrementalMatchesBatch(t *testing.T) {
	type scenario struct {
		name string
		cfg  Config
	}
	base := textproc.DefaultTokenizeOptions()
	scenarios := []scenario{
		{"plain", Config{
			Corpus: textproc.CorpusOptions{Tokenize: base},
			Block:  BatchOptions{MinSharedTerms: 1},
		}},
		{"ratio-threshold", Config{
			Corpus: textproc.CorpusOptions{Tokenize: base, MaxDFRatio: 0.25, MinDF: 1},
			Block:  BatchOptions{MinSharedTerms: 2, MinJaccard: 0.2},
		}},
		{"cross-source-capped", Config{
			Corpus: textproc.CorpusOptions{Tokenize: base, MaxDFRatio: 0.5},
			Block:  BatchOptions{CrossSourceOnly: true, MaxTermRecords: 8, MinSharedTerms: 1, MinJaccard: 0.1},
		}},
		{"stopworded", Config{
			Corpus: textproc.CorpusOptions{Tokenize: base, Stopwords: []string{"w1", "w2", "w3"}},
			Block:  BatchOptions{MinSharedTerms: 1},
		}},
	}
	for si, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + si)))
			ix := New(sc.cfg)
			model := make(map[string]liveRecord)
			vocab := 14 + rng.Intn(20)
			randomText := func() string {
				k := 2 + rng.Intn(7)
				s := ""
				for i := 0; i < k; i++ {
					if i > 0 {
						s += " "
					}
					s += fmt.Sprintf("w%d", rng.Intn(vocab))
				}
				return s
			}
			ops := 0
			for step := 0; step < 60; step++ {
				// A small burst of mutations, then a full equivalence check.
				burst := 1 + rng.Intn(4)
				for b := 0; b < burst; b++ {
					ops++
					switch {
					case len(model) > 4 && rng.Intn(4) == 0: // delete
						ids := make([]string, 0, len(model))
						for id := range model {
							ids = append(ids, id)
						}
						sort.Strings(ids)
						id := ids[rng.Intn(len(ids))]
						delete(model, id)
						if _, ok := ix.Delete(id); !ok {
							t.Fatalf("step %d: delete %q reported missing", step, id)
						}
					case len(model) > 2 && rng.Intn(3) == 0: // replace
						ids := make([]string, 0, len(model))
						for id := range model {
							ids = append(ids, id)
						}
						sort.Strings(ids)
						id := ids[rng.Intn(len(ids))]
						rec := liveRecord{text: randomText(), source: rng.Intn(2)}
						model[id] = rec
						ix.Upsert(id, rec.text, rec.source)
					default: // insert
						id := fmt.Sprintf("r%04d", rng.Intn(400))
						rec := liveRecord{text: randomText(), source: rng.Intn(2)}
						model[id] = rec
						ix.Upsert(id, rec.text, rec.source)
					}
				}
				if ix.Len() != len(model) {
					t.Fatalf("step %d: live count %d, model has %d", step, ix.Len(), len(model))
				}
				v := ix.Materialize()
				wantG, wantIDs, wantSrc := batchView(t, model, sc.cfg)
				if !reflect.DeepEqual(wantIDs, v.IDs) {
					t.Fatalf("step %d: id order mismatch:\nwant %v\ngot  %v", step, wantIDs, v.IDs)
				}
				if !reflect.DeepEqual(wantSrc, v.Sources) {
					t.Fatalf("step %d: sources mismatch", step)
				}
				requireGraphsEqual(t, wantG, v.Graph)
			}
			if ops < 60 {
				t.Fatalf("scenario exercised only %d mutations", ops)
			}
		})
	}
	t.Run("bulk-band", testBulkBand)
	t.Run("rebuild", testRebuildRederive)
}

// testRebuildRederive checks Materialize across pair-table rebuilds: a
// "common" term carried by most records crosses its MaxTermRecords cap in
// both directions, so the eligibility flip touches more records than the
// incremental patch takes and the index rebuilds the table. The next
// Materialize must derive every pair afresh, and the ones after it go
// back to patching; all must equal the batch build (BuildGraph, pinned to
// the serial reference by TestBuildGraphMatchesReference).
func testRebuildRederive(t *testing.T) {
	cfg := Config{
		Corpus: textproc.CorpusOptions{Tokenize: textproc.DefaultTokenizeOptions()},
		Block:  BatchOptions{MinSharedTerms: 2, MaxTermRecords: 1100},
	}
	rng := rand.New(rand.NewSource(41))
	text := func() string {
		s := ""
		if rng.Intn(20) != 0 {
			s = "common "
		}
		for k := 3 + rng.Intn(4); k > 0; k-- {
			s += fmt.Sprintf("w%d ", rng.Intn(300))
		}
		return s
	}
	ix := New(cfg)
	model := make(map[string]liveRecord)
	var live []string
	rebuilds, checks, next := 0, 0, 0
	check := func(step int) {
		v := ix.Materialize()
		ids := make([]string, 0, len(model))
		for id := range model {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		texts := make([]string, len(ids))
		sources := make([]int, len(ids))
		for i, id := range ids {
			texts[i], sources[i] = model[id].text, model[id].source
		}
		want, err := BuildGraph(textproc.BuildCorpus(texts, cfg.Corpus), sources, cfg.Block)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ids, v.IDs) || !reflect.DeepEqual(sources, v.Sources) {
			t.Fatalf("step %d: id order or sources mismatch", step)
		}
		requireGraphsEqual(t, want, v.Graph)
		checks++
	}
	mutate := func(insert bool) {
		var d Delta
		if insert || len(live) < 8 {
			id := fmt.Sprintf("r%05d", next)
			next++
			live = append(live, id)
			rec := liveRecord{text: text(), source: rng.Intn(2)}
			model[id] = rec
			d = ix.Upsert(id, rec.text, rec.source)
		} else if rng.Intn(3) == 0 {
			k := rng.Intn(len(live))
			rec := liveRecord{text: text(), source: rng.Intn(2)}
			model[live[k]] = rec
			d = ix.Upsert(live[k], rec.text, rec.source)
		} else {
			k := rng.Intn(len(live))
			id := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			delete(model, id)
			d, _ = ix.Delete(id)
		}
		if d.Rebuilt {
			rebuilds++
		}
	}
	step := 0
	for ; step < 1300; step++ {
		mutate(true)
		if step%100 == 99 {
			check(step)
		}
	}
	for ; step < 1800; step++ {
		mutate(false)
		if step%25 == 24 {
			check(step)
		}
	}
	t.Logf("%d rebuilds, %d checks", rebuilds, checks)
	if rebuilds < 2 {
		t.Fatalf("scenario too weak: %d rebuilds", rebuilds)
	}
}

// pairSet returns a graph's candidate pairs as external-ID pairs (smaller
// ID first).
func pairSet(g *Graph, ids []string) map[[2]string]bool {
	set := make(map[[2]string]bool, len(g.Pairs))
	for _, p := range g.Pairs {
		set[orderedPair([2]string{ids[p.I], ids[p.J]})] = true
	}
	return set
}

func orderedPair(p [2]string) [2]string {
	if p[0] > p[1] {
		p[0], p[1] = p[1], p[0]
	}
	return p
}

// testBulkBand is TestIncrementalMatchesBatch at bulk-load scale with a
// tight MaxDFRatio over a small vocabulary: thousands of inserts move the
// frequency band hundreds of times with many terms sitting inside it, and a
// delete-heavy tail shrinks the corpus back across it. Every checkEvery
// mutations the index must materialize the batch build bit for bit, and the
// Deltas reported since the previous check, applied in order to the
// previous batch graph's pair set, must produce exactly the new one: each
// added pair absent before, each removed pair present. A window that
// contains a pair-table rebuild reports no pair lists and is skipped.
func testBulkBand(t *testing.T) {
	cfg := Config{
		Corpus: textproc.CorpusOptions{Tokenize: textproc.DefaultTokenizeOptions(), MaxDFRatio: 0.05, MinDF: 1},
		Block:  BatchOptions{MinSharedTerms: 2, MinJaccard: 0.1},
	}
	const checkEvery = 100
	rng := rand.New(rand.NewSource(2024))
	text := func() string {
		s := ""
		for k := 3 + rng.Intn(4); k > 0; k-- {
			// Ninety equally likely words at 4.5 words a record: every
			// document frequency hovers around the 5% band.
			s += fmt.Sprintf("w%d ", rng.Intn(90))
		}
		return s
	}
	ix := New(cfg)
	model := make(map[string]liveRecord)
	var live []string
	want := map[[2]string]bool{}
	valid := true
	var checked, bandMoves, bandTerms int
	mutate := func(insertBias int) {
		maxBefore := ix.maxKeptDF()
		var d Delta
		switch r := rng.Intn(8); {
		case r < insertBias || len(live) < 8:
			id := fmt.Sprintf("r%05d", rng.Intn(100000))
			if _, ok := model[id]; !ok {
				live = append(live, id)
			}
			rec := liveRecord{text: text()}
			model[id] = rec
			d = ix.Upsert(id, rec.text, rec.source)
		case r < insertBias+2:
			k := rng.Intn(len(live))
			rec := liveRecord{text: text()}
			model[live[k]] = rec
			d = ix.Upsert(live[k], rec.text, rec.source)
		default:
			k := rng.Intn(len(live))
			id := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			delete(model, id)
			d, _ = ix.Delete(id)
		}
		if maxAfter := ix.maxKeptDF(); maxAfter != maxBefore {
			bandMoves++
			lo, hi := min(maxBefore, maxAfter), max(maxBefore, maxAfter)
			for _, f := range ix.df {
				if f > lo && f <= hi {
					bandTerms++
				}
			}
		}
		if d.Rebuilt {
			valid = false
		}
		if !valid {
			return
		}
		for _, p := range d.RemovedPairs {
			p = orderedPair(p)
			if !want[p] {
				t.Fatalf("Delta removed pair %v that was not a candidate", p)
			}
			delete(want, p)
		}
		for _, p := range d.AddedPairs {
			p = orderedPair(p)
			if want[p] {
				t.Fatalf("Delta added pair %v that was already a candidate", p)
			}
			want[p] = true
		}
	}
	check := func(step int) {
		v := ix.Materialize()
		wantG, wantIDs, wantSrc := batchView(t, model, cfg)
		if !reflect.DeepEqual(wantIDs, v.IDs) {
			t.Fatalf("step %d: id order mismatch", step)
		}
		if !reflect.DeepEqual(wantSrc, v.Sources) {
			t.Fatalf("step %d: sources mismatch", step)
		}
		requireGraphsEqual(t, wantG, v.Graph)
		batch := pairSet(wantG, wantIDs)
		if valid {
			if !reflect.DeepEqual(want, batch) {
				t.Fatalf("step %d: Deltas since the last check compose to %d pairs, batch graph has %d",
					step, len(want), len(batch))
			}
			checked++
		}
		want, valid = batch, true
	}
	// Load (five inserts, two revisions and one delete per eight mutations
	// on average), then shrink (one insert, two revisions, five deletes).
	step := 0
	for ; step < 4000; step++ {
		mutate(5)
		if step%checkEvery == checkEvery-1 {
			check(step)
		}
	}
	for ; step < 5200; step++ {
		mutate(1)
		if step%checkEvery == checkEvery-1 {
			check(step)
		}
	}
	t.Logf("%d band moves over %d in-band terms; %d of %d windows verified by Delta composition",
		bandMoves, bandTerms, checked, step/checkEvery)
	if bandMoves < 150 || bandTerms < 500 || checked < step/checkEvery/2 {
		t.Fatalf("scenario too weak: %d band moves, %d in-band terms, %d verified windows",
			bandMoves, bandTerms, checked)
	}
}

// TestIndexDeltaReportsPairs pins the Delta bookkeeping on a hand-built
// example: two records that come to share two terms become a candidate pair,
// and deleting one endpoint removes it.
func TestIndexDeltaReportsPairs(t *testing.T) {
	cfg := Config{
		Corpus: textproc.CorpusOptions{Tokenize: textproc.DefaultTokenizeOptions()},
		Block:  BatchOptions{MinSharedTerms: 2},
	}
	ix := New(cfg)
	ix.Upsert("a", "alpha beta gamma", 0)
	d := ix.Upsert("b", "alpha beta delta", 1)
	if len(d.AddedPairs) != 1 || d.AddedPairs[0] != [2]string{"a", "b"} {
		t.Fatalf("expected pair {a b} added, got %+v", d)
	}
	d = ix.Upsert("b", "epsilon zeta", 1)
	if len(d.RemovedPairs) != 1 || d.RemovedPairs[0] != [2]string{"a", "b"} {
		t.Fatalf("expected pair {a b} removed on replace, got %+v", d)
	}
	d = ix.Upsert("b", "alpha beta", 1)
	if len(d.AddedPairs) != 1 {
		t.Fatalf("expected pair re-added, got %+v", d)
	}
	d, ok := ix.Delete("a")
	if !ok || len(d.RemovedPairs) != 1 || d.RemovedPairs[0] != [2]string{"a", "b"} {
		t.Fatalf("expected delete to remove pair {a b}, got %+v ok=%v", d, ok)
	}
	if ix.Len() != 1 {
		t.Fatalf("expected 1 live record, got %d", ix.Len())
	}
	// The survivor table must now be empty.
	v := ix.Materialize()
	if v.Graph.NumPairs() != 0 {
		t.Fatalf("expected empty candidate set, got %d pairs", v.Graph.NumPairs())
	}
}

// TestIndexTouchedPositions checks that Materialize reports and then drains
// the touched-record positions.
func TestIndexTouchedPositions(t *testing.T) {
	cfg := Config{
		Corpus: textproc.CorpusOptions{Tokenize: textproc.DefaultTokenizeOptions()},
		Block:  BatchOptions{MinSharedTerms: 1},
	}
	ix := New(cfg)
	ix.Upsert("a", "alpha beta", 0)
	ix.Upsert("b", "alpha beta", 0)
	ix.Upsert("c", "omega psi", 0)
	v := ix.Materialize()
	if len(v.Touched) != 3 {
		t.Fatalf("initial build should touch all records, got %v", v.Touched)
	}
	// No mutations: nothing touched.
	v = ix.Materialize()
	if len(v.Touched) != 0 {
		t.Fatalf("expected no touched records, got %v", v.Touched)
	}
	// Mutating c touches only c (it shares no terms with a/b).
	ix.Upsert("c", "omega chi", 0)
	v = ix.Materialize()
	if len(v.Touched) != 1 || v.IDs[v.Touched[0]] != "c" {
		t.Fatalf("expected only c touched, got %v", v.Touched)
	}
}
