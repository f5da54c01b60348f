package er

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/blocking"
	"repro/internal/eval"
)

// historyModel is the shadow state of a collection under a long mutation
// history: the live records by ID, plus the deleted IDs a re-insert
// restores at their last text. Every ID starts with prefix, so models with
// distinct prefixes can drive one collection side by side.
type historyModel struct {
	rng     *rand.Rand
	prefix  string
	live    map[string]Record
	deleted map[string]Record
	ids     []string // every ID ever used, in first-use order
	rev     int
}

func newHistoryModel(seed int64, prefix string) *historyModel {
	return &historyModel{
		rng:     rand.New(rand.NewSource(seed)),
		prefix:  prefix,
		live:    make(map[string]Record),
		deleted: make(map[string]Record),
	}
}

// record draws a record of one of 60 entities: two entity tokens and four
// background words from a 40-word vocabulary, so entities overlap and
// background terms sit near the frequency bands.
func (m *historyModel) record(entity int) Record {
	text := fmt.Sprintf("entity%d model%d", entity, entity)
	for w := 0; w < 4; w++ {
		text += fmt.Sprintf(" w%d", m.rng.Intn(40))
	}
	return Record{Text: text, Source: m.rng.Intn(2), Entity: fmt.Sprintf("e%d", entity)}
}

// pick returns a uniformly drawn key of set, in a reproducible order.
func (m *historyModel) pick(set map[string]Record) string {
	keys := make([]string, 0, len(set))
	for id := range set {
		keys = append(keys, id)
	}
	sort.Strings(keys)
	return keys[m.rng.Intn(len(keys))]
}

// step applies one seeded mutation to c and the model: an insert of a
// fresh or reused ID, a text revision (a fresh token appended), a relabel
// (new entity and source, same text), a delete, or a re-insert of a
// deleted ID at its last text.
func (m *historyModel) step(c *Collection) {
	switch r := m.rng.Intn(20); {
	case r < 4 || len(m.live) < 20:
		id := fmt.Sprintf("%s%03d", m.prefix, m.rng.Intn(300))
		if _, ok := m.live[id]; !ok {
			m.ids = append(m.ids, id)
		}
		delete(m.deleted, id)
		rec := m.record(m.rng.Intn(60))
		m.live[id] = rec
		c.Upsert(id, rec)
	case r < 11:
		id := m.pick(m.live)
		rec := m.live[id]
		m.rev++
		rec.Text += fmt.Sprintf(" rev%d", m.rev)
		m.live[id] = rec
		c.Upsert(id, rec)
	case r < 13:
		id := m.pick(m.live)
		rec := m.live[id]
		rec.Entity = fmt.Sprintf("e%d", m.rng.Intn(60))
		rec.Source = m.rng.Intn(2)
		m.live[id] = rec
		c.Upsert(id, rec)
	case r < 17 || len(m.deleted) == 0:
		id := m.pick(m.live)
		m.deleted[id] = m.live[id]
		delete(m.live, id)
		if _, ok := c.Delete(id); !ok {
			panic("delete of a live record reported missing")
		}
	default:
		id := m.pick(m.deleted)
		m.live[id] = m.deleted[id]
		delete(m.deleted, id)
		c.Upsert(id, m.live[id])
	}
}

// freshCollection returns a new collection holding the models' live
// records.
func freshCollection(t *testing.T, opts Options, models ...*historyModel) *Collection {
	t.Helper()
	c, err := NewCollection(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range models {
		for _, id := range m.ids {
			if rec, ok := m.live[id]; ok {
				c.Upsert(id, rec)
			}
		}
	}
	return c
}

// TestCollectionLongHistoryMatchesFresh is the long-history oracle of the
// warm resolve path: 2000 seeded mutations over 300 IDs (inserts,
// revisions, relabels, deletes, re-inserts), a resolve every 25, and every
// 4th resolve bit-identical to a fresh collection over the live records —
// IDs, probabilities, matches, clusters and evaluation. Everything a warm
// resolve carries across calls (the index's pair states and record order,
// the component cache, the label counts and per-position entity labels)
// must never show in a result. The configurations move the frequency band
// (MaxDFRatio), flip terms across a MaxTermRecords cap, and restrict pairs
// to cross-source ones, each at 1, 2 and 4 workers, and once more in the
// concurrent mode of concurrentHistory.
func TestCollectionLongHistoryMatchesFresh(t *testing.T) {
	configs := []struct {
		name string
		tune func(*Options)
	}{
		{"default", func(*Options) {}},
		{"tight-band", func(o *Options) { o.MaxDFRatio = 0.1; o.MinJaccard = 0.1 }},
		{"term-cap", func(o *Options) { o.MaxTermRecords = 12; o.MaxDFRatio = 0 }},
		{"cross-source", func(o *Options) { o.CrossSourceOnly = true; o.MinJaccard = 0.1 }},
	}
	const mutations, resolveEvery, compareEvery = 2000, 25, 4
	for ci, cfg := range configs {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", cfg.name, workers), func(t *testing.T) {
				opts := DefaultOptions()
				opts.Workers = workers
				cfg.tune(&opts)
				m := newHistoryModel(int64(100+ci), "r")
				c, err := NewCollection(opts)
				if err != nil {
					t.Fatal(err)
				}
				var compared, fused, evaluated int
				for step := 1; step <= mutations; step++ {
					m.step(c)
					if step%resolveEvery != 0 {
						continue
					}
					got, err := c.Resolve()
					if err != nil {
						t.Fatalf("step %d: resolve: %v", step, err)
					}
					fused += got.Delta.ComponentsFused
					if (step/resolveEvery)%compareEvery != 0 {
						continue
					}
					want, err := freshCollection(t, opts, m).Resolve()
					if err != nil {
						t.Fatalf("step %d: fresh resolve: %v", step, err)
					}
					requireResultsEqual(t, want, got)
					compared++
					if got.Evaluation != nil {
						evaluated++
					}
				}
				t.Logf("%d fresh comparisons (%d evaluated), %d components re-fused", compared, evaluated, fused)
				if compared != mutations/resolveEvery/compareEvery || evaluated != compared || fused == 0 {
					t.Fatalf("history too weak: %d comparisons, %d evaluated, %d re-fused", compared, evaluated, fused)
				}
			})
		}
		t.Run(cfg.name+"/concurrent", func(t *testing.T) {
			opts := DefaultOptions()
			opts.Workers = 2
			cfg.tune(&opts)
			concurrentHistory(t, opts, int64(100+ci))
		})
	}
}

// concurrentHistory is the concurrent mode of the long-history oracle: two
// writers, each replaying its own seeded history over a disjoint ID range,
// mutate one collection while a third goroutine resolves it in a loop.
// Each round ends at a quiesce point — writers done, resolver stopped —
// where a resolve must be bit-identical to a fresh collection over both
// histories' live records. Run it under -race.
func concurrentHistory(t *testing.T, opts Options, seed int64) {
	const rounds, stepsPerRound = 4, 250
	c, err := NewCollection(opts)
	if err != nil {
		t.Fatal(err)
	}
	models := []*historyModel{newHistoryModel(seed, "a"), newHistoryModel(seed+1000, "b")}
	var resolves, fused int
	for round := 1; round <= rounds; round++ {
		var writers sync.WaitGroup
		for _, m := range models {
			writers.Add(1)
			go func(m *historyModel) {
				defer writers.Done()
				for i := 0; i < stepsPerRound; i++ {
					m.step(c)
				}
			}(m)
		}
		stop := make(chan struct{})
		type outcome struct {
			n   int
			err error
		}
		done := make(chan outcome)
		go func() {
			n, err := resolveUntil(c, stop)
			done <- outcome{n, err}
		}()
		writers.Wait()
		close(stop)
		out := <-done
		if out.err != nil {
			t.Fatalf("round %d: concurrent resolve: %v", round, out.err)
		}
		resolves += out.n

		got, err := c.Resolve()
		if err != nil {
			t.Fatalf("round %d: resolve: %v", round, err)
		}
		want, err := freshCollection(t, opts, models...).Resolve()
		if err != nil {
			t.Fatalf("round %d: fresh resolve: %v", round, err)
		}
		requireResultsEqual(t, want, got)
		if got.Evaluation == nil {
			t.Fatalf("round %d: fully labeled collection reported no evaluation", round)
		}
		fused += got.Delta.ComponentsFused
	}
	t.Logf("%d concurrent resolves, %d components re-fused at quiesce", resolves, fused)
	if fused == 0 {
		t.Fatal("history too weak: no component re-fused at a quiesce point")
	}
}

// resolveUntil resolves c in a loop until stop closes and reports how many
// resolves ran, or the first error. A mid-history resolve sees some
// interleaving of the writers, so only its shape is checked: every match
// and cluster must index the resolve's own IDs.
func resolveUntil(c *Collection, stop <-chan struct{}) (int, error) {
	for n := 1; ; n++ {
		res, err := c.Resolve()
		switch {
		case errors.Is(err, ErrNoRecords):
		case err != nil:
			return n, err
		default:
			for _, mt := range res.Matches {
				if mt.I >= len(res.IDs) || mt.J >= len(res.IDs) {
					return n, fmt.Errorf("match (%d,%d) outside the %d resolved IDs", mt.I, mt.J, len(res.IDs))
				}
			}
			for _, cl := range res.Clusters {
				for _, r := range cl {
					if r >= len(res.IDs) {
						return n, fmt.Errorf("cluster member %d outside the %d resolved IDs", r, len(res.IDs))
					}
				}
			}
		}
		select {
		case <-stop:
			return n, nil
		default:
		}
	}
}

// fullTruth is the historical ground-truth derivation the collection's
// label counts replace: every same-entity pair of positions in ids (only
// cross-source ones under cross), or nil when a record is unlabeled.
func fullTruth(ids []string, live map[string]Record, cross bool) map[uint64]bool {
	byEntity := make(map[string][]int32)
	for pos, id := range ids {
		rec := live[id]
		if rec.Entity == "" {
			return nil
		}
		byEntity[rec.Entity] = append(byEntity[rec.Entity], int32(pos))
	}
	truth := make(map[uint64]bool)
	for _, recs := range byEntity {
		for a := 0; a < len(recs); a++ {
			for b := a + 1; b < len(recs); b++ {
				i, j := recs[a], recs[b]
				if cross && live[ids[i]].Source == live[ids[j]].Source {
					continue
				}
				truth[blocking.Key(i, j)] = true
			}
		}
	}
	return truth
}

// TestCollectionEvaluationMatchesFullTruth pins the incremental
// evaluation against the full truth map it replaced: after relabels,
// deletes and re-inserts, with and without CrossSourceOnly, the
// collection's Evaluation must equal eval.EvaluatePairs over the resolve's
// matches and the fully re-derived truth — and must be absent whenever a
// record is unlabeled.
func TestCollectionEvaluationMatchesFullTruth(t *testing.T) {
	for _, cross := range []bool{false, true} {
		t.Run(fmt.Sprintf("cross=%v", cross), func(t *testing.T) {
			opts := DefaultOptions()
			opts.CrossSourceOnly = cross
			opts.MinJaccard = 0.1
			m := newHistoryModel(7, "r")
			c, err := NewCollection(opts)
			if err != nil {
				t.Fatal(err)
			}
			var scored, unlabeled int
			for step := 1; step <= 600; step++ {
				m.step(c)
				// Now and then strip one record's label, and restore it
				// a few mutations later.
				if step%40 == 10 {
					id := m.pick(m.live)
					rec := m.live[id]
					rec.Entity = ""
					m.live[id] = rec
					c.Upsert(id, rec)
				}
				if step%40 == 20 {
					for _, id := range m.ids {
						if rec, ok := m.live[id]; ok && rec.Entity == "" {
							rec.Entity = "e0"
							m.live[id] = rec
							c.Upsert(id, rec)
						}
					}
				}
				if step%10 != 0 {
					continue
				}
				res, err := c.Resolve()
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				truth := fullTruth(res.IDs, m.live, cross)
				if truth == nil {
					if res.Evaluation != nil {
						t.Fatalf("step %d: partially labeled collection reported %+v", step, *res.Evaluation)
					}
					unlabeled++
					continue
				}
				if res.Evaluation == nil {
					t.Fatalf("step %d: fully labeled collection reported no evaluation", step)
				}
				pairs := make([]blocking.Pair, len(res.Matches))
				predicted := make([]bool, len(res.Matches))
				for k, mt := range res.Matches {
					pairs[k] = blocking.Pair{I: int32(mt.I), J: int32(mt.J)}
					predicted[k] = true
				}
				want := fromPRF(eval.EvaluatePairs(pairs, predicted, truth, len(truth)))
				if *res.Evaluation != want {
					t.Fatalf("step %d: evaluation %+v, full truth gives %+v", step, *res.Evaluation, want)
				}
				scored++
			}
			if scored < 40 || unlabeled < 10 {
				t.Fatalf("history too weak: %d scored resolves, %d unlabeled", scored, unlabeled)
			}
		})
	}
}
