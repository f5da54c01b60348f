package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	er "repro"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/index"
)

// liveSet tracks the records a mutation sequence leaves live, with their
// current texts, so a fresh collection can be loaded with the same state.
type liveSet map[int]string

// allLive is the corpus as first loaded: every record at its original text.
func allLive(c *corpus) liveSet {
	s := make(liveSet, c.len())
	for i, text := range c.texts {
		s[i] = text
	}
	return s
}

func (s liveSet) apply(m mutation) {
	if m.delete {
		delete(s, m.idx)
	} else {
		s[m.idx] = m.text
	}
}

// loadCollection upserts the live records, in record order, into a new
// er.Collection and cold-resolves it.
func loadCollection(c *corpus, live liveSet) (*er.Collection, *er.Result, error) {
	col, err := er.NewCollection(er.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < c.len(); i++ {
		if text, ok := live[i]; ok {
			col.Upsert(recID(i), er.Record{Text: text, Entity: c.entities[i]})
		}
	}
	res, err := col.Resolve()
	if err != nil {
		return nil, nil, fmt.Errorf("cold resolve: %w", err)
	}
	return col, res, nil
}

// streamSetup generates the corpus, bulk-loads it through Upsert and
// cold-resolves it, returning the set-up's duration in seconds.
func streamSetup(cfg config) (*corpus, *er.Collection, float64, error) {
	runtime.GC()
	start := time.Now()
	c := genCorpus(cfg.seed, cfg.records)
	col, _, err := loadCollection(c, allLive(c))
	if err != nil {
		return nil, nil, 0, err
	}
	return c, col, time.Since(start).Seconds(), nil
}

func applyToCollection(col *er.Collection, c *corpus, m mutation) {
	if m.delete {
		col.Delete(recID(m.idx))
	} else {
		col.Upsert(recID(m.idx), er.Record{Text: m.text, Entity: c.entities[m.idx]})
	}
}

// checkRefresh counts one refresh: it must resolve every live record and
// evaluate them.
func checkRefresh(o *outcome, res *er.Result, err error, live int) bool {
	if err != nil {
		return o.check(false, "refresh: %v", err)
	}
	return o.check(len(res.IDs) == live && res.Evaluation != nil,
		"refresh resolved %d records (want %d), evaluation present %v", len(res.IDs), live, res.Evaluation != nil)
}

// runStream times two set-ups: the initial bulk load, and after the
// mutation trace a fresh collection loaded with the records then live,
// whose resolve must equal the warm collection's bit for bit.
func runStream(cfg config) (*outcome, error) {
	c, col, first, err := streamSetup(cfg)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	runtime.GC()

	m := newMutator(c, cfg.seed)
	live := allLive(c)
	var refreshes, resolves, cpu sample
	var res *er.Result
	start := time.Now()
	for len(refreshes) < cfg.minOps || time.Since(start) < cfg.seconds {
		cpu0 := cpuTime()
		t0 := time.Now()
		for k := 0; k < cfg.batch; k++ {
			mu := m.next()
			applyToCollection(col, c, mu)
			live.apply(mu)
		}
		t1 := time.Now()
		r, err := col.Resolve()
		t2 := time.Now()
		if !checkRefresh(o, r, err, len(live)) {
			continue
		}
		res = r
		cpu.add(cpuTime() - cpu0)
		refreshes.add(t2.Sub(t0))
		resolves.add(t2.Sub(t1))
	}
	if res == nil {
		return o, nil
	}
	f1 := res.Evaluation.F1
	o.check(f1 >= minF1, "stream: final f1 %.6f below %.2f", f1, minF1)

	warm := resultHash(res.IDs, res.Probabilities, res.Clusters)
	col, res = nil, nil
	runtime.GC()
	t0 := time.Now()
	_, fresh, err := loadCollection(c, live)
	second := time.Since(t0).Seconds()
	if err != nil {
		o.check(false, "fresh collection: %v", err)
	} else {
		got := resultHash(fresh.IDs, fresh.Probabilities, fresh.Clusters)
		o.check(got == warm, "warm collection output %s differs from a fresh load's %s", warm, got)
	}
	setup := []float64{first, second}
	o.set("setup_s", median(setup), "s", len(setup),
		"bulk-load through Collection.Upsert + cold resolve: the initial load and the verifying reload")
	o.set("op_cpu_ms", median(cpu), "ms", len(cpu), "median process CPU time (user + system) per refresh")
	o.timing("op_p50_ms", refreshes, fmt.Sprintf("refresh: apply %d mutations + Collection.Resolve (refresh_p50_ms)", cfg.batch))
	o.timing("resolve_p50_ms", resolves, "Collection.Resolve alone")
	o.set("f1", f1, "ratio", 1, "pairwise F1 of the last refresh")
	return o, nil
}

// tracedIndex is the Collection's resolve path rebuilt from the index and
// engine layers: index.Index for the records, Materialize, DeltaFuse with
// a private component cache, Cluster and Evaluate.
type tracedIndex struct {
	ix       *index.Index
	cache    *engine.Cache
	fusion   core.Options
	entities map[string]string
}

func newTracedIndex() *tracedIndex {
	l := defaultLayers()
	return &tracedIndex{
		ix:       index.New(index.Config{Corpus: l.corpus, Block: l.block}),
		cache:    engine.NewCache(0),
		fusion:   l.fusion,
		entities: make(map[string]string),
	}
}

// refreshStats is what one traced refresh did.
type refreshStats struct {
	hash                                string
	f1                                  float64
	upserts, deletes, rebuilds          int
	components, componentsFused, reused int
}

// apply runs one mutation as a span under op; it reports whether the index
// rebuilt its pair table.
func (t *tracedIndex) apply(op *openSpan, c *corpus, m mutation, st *refreshStats) {
	id := recID(m.idx)
	var d index.Delta
	if m.delete {
		op.timed("index.Delete", func() { d, _ = t.ix.Delete(id) })
		delete(t.entities, id)
		st.deletes++
	} else {
		op.timed("index.Upsert", func() { d = t.ix.Upsert(id, m.text, 0) })
		t.entities[id] = c.entities[m.idx]
		st.upserts++
	}
	if d.Rebuilt {
		st.rebuilds++
	}
}

// resolve is Collection.ResolveContext call by call.
func (t *tracedIndex) resolve(op *openSpan) (st refreshStats, err error) {
	run := engine.NewRun(context.Background(), engine.RunOptions{Workers: t.fusion.Workers})
	var v *index.View
	op.timed("index.Materialize", func() { v = t.ix.Materialize() })
	var out *core.FusionResult
	var ds engine.DeltaStats
	op.timed("engine.DeltaFuse", func() { out, ds, err = engine.DeltaFuse(run, v.Graph, len(v.IDs), t.fusion, t.cache) })
	if err != nil {
		return st, err
	}
	var clusters [][]int
	op.timed("engine.Cluster", func() { clusters, err = engine.Cluster(run, len(v.IDs), v.Graph.Pairs, out.Matches) })
	if err != nil {
		return st, err
	}
	var truth map[uint64]bool
	op.timed("dataset.TrueMatches", func() { truth = t.truth(v) })
	op.timed("engine.Evaluate", func() {
		prf, eerr := engine.Evaluate(run, v.Graph.Pairs, out.Matches, truth, len(truth))
		st.f1, err = prf.F1, eerr
	})
	st.hash = resultHash(v.IDs, out.P, clusters)
	st.components, st.componentsFused, st.reused = ds.Components, ds.ComponentsFused, ds.ComponentsReused
	return st, err
}

// truth derives the ground-truth pairs over the view's record order, as the
// collection does for its evaluation.
func (t *tracedIndex) truth(v *index.View) map[uint64]bool {
	byEntity := make(map[string][]int32)
	for pos, id := range v.IDs {
		e := t.entities[id]
		byEntity[e] = append(byEntity[e], int32(pos))
	}
	truth := make(map[uint64]bool)
	for _, recs := range byEntity {
		for a := 0; a < len(recs); a++ {
			for b := a + 1; b < len(recs); b++ {
				truth[blocking.Key(recs[a], recs[b])] = true
			}
		}
	}
	return truth
}

// traceStream loads the corpus twice, into a public collection and a traced
// index (timing every load upsert per quarter), then alternates each
// mutation batch between the two: the public refresh untraced, the traced
// one call by call. Every traced refresh must reproduce the public one bit
// for bit.
func traceStream(cfg config, tr *tracer) (*outcome, error) {
	c, col, _, err := streamSetup(cfg)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	t := newTracedIndex()
	n := c.len()
	for q := 0; q < 4; q++ {
		lo, hi := q*n/4, (q+1)*n/4
		qs := tr.start(fmt.Sprintf("index.load.q%d", q+1), 0, 0)
		var total time.Duration
		for i := lo; i < hi; i++ {
			s := time.Now()
			t.ix.Upsert(recID(i), c.texts[i], 0)
			total += time.Since(s)
			t.entities[recID(i)] = c.entities[i]
		}
		qs.end()
		if hi > lo {
			o.set(fmt.Sprintf("index.load_upsert_us.q%d", q+1), float64(total.Microseconds())/float64(hi-lo), "us", hi-lo,
				fmt.Sprintf("mean Index.Upsert in quarter %d of the bulk load", q+1))
		}
	}
	cold := tr.start("cold", 0, 0)
	_, err = t.resolve(cold)
	cold.end()
	if err != nil {
		return nil, fmt.Errorf("traced cold resolve: %w", err)
	}
	runtime.GC()

	m := newMutator(c, cfg.seed)
	live := allLive(c)
	var untraced, traced, alloc, gcs sample
	var sum refreshStats
	var last float64
	start := time.Now()
	for len(traced) < cfg.minOps || time.Since(start) < cfg.seconds {
		batch := make([]mutation, cfg.batch)
		for k := range batch {
			batch[k] = m.next()
			live.apply(batch[k])
		}
		t0 := time.Now()
		for _, mu := range batch {
			applyToCollection(col, c, mu)
		}
		pub, err := col.Resolve()
		if !checkRefresh(o, pub, err, len(live)) {
			continue
		}
		untraced.add(time.Since(t0))

		var st refreshStats
		a, gc := memDelta(func() {
			op := tr.start("op", 0, 0)
			for _, mu := range batch {
				t.apply(op, c, mu, &st)
			}
			var rs refreshStats
			rs, err = t.resolve(op)
			rs.upserts, rs.deletes, rs.rebuilds = st.upserts, st.deletes, st.rebuilds
			st = rs
			traced.add(op.end())
		})
		if err != nil {
			o.check(false, "traced refresh: %v", err)
			continue
		}
		alloc, gcs = append(alloc, a), append(gcs, float64(gc))
		want := resultHash(pub.IDs, pub.Probabilities, pub.Clusters)
		o.check(st.hash == want && st.f1 == pub.Evaluation.F1,
			"traced refresh output %s (f1 %v) differs from the public path's %s (f1 %v)", st.hash, st.f1, want, pub.Evaluation.F1)
		sum.upserts += st.upserts
		sum.deletes += st.deletes
		sum.rebuilds += st.rebuilds
		sum.components += st.components
		sum.componentsFused += st.componentsFused
		sum.reused += st.reused
		last = st.f1
	}
	if len(traced) == 0 {
		return o, nil
	}
	o.check(last >= minF1, "stream: final f1 %.6f below %.2f", last, minF1)
	k := len(traced)
	agg := aggregate(opSpans(tr.snapshot(), "op"))
	perCall := func(span string) float64 {
		if ls := agg[span]; ls != nil && ls.calls > 0 {
			return float64(ls.self.Microseconds()) / float64(ls.calls)
		}
		return 0
	}
	o.set("index.upsert_us", perCall("index.Upsert"), "us", sum.upserts, "mean steady-state Index.Upsert")
	o.set("index.delete_us", perCall("index.Delete"), "us", sum.deletes, "mean steady-state Index.Delete")
	o.set("index.rebuilds", float64(sum.rebuilds), "count", sum.upserts+sum.deletes, "mutations that rebuilt the pair table (Delta.Rebuilt)")
	o.set("index.materialize_ms", selfMsPer(agg, "index.Materialize", k), "ms", k, "Index.Materialize per refresh")
	o.set("engine.deltafuse_ms", selfMsPer(agg, "engine.DeltaFuse", k), "ms", k, "engine.DeltaFuse per refresh")
	o.set("engine.cluster_ms", selfMsPer(agg, "engine.Cluster", k), "ms", k, "engine.Cluster per refresh")
	o.set("engine.evaluate_ms", selfMsPer(agg, "engine.Evaluate", k), "ms", k, "engine.Evaluate per refresh")
	o.set("dataset.truth_ms", selfMsPer(agg, "dataset.TrueMatches", k), "ms", k, "ground-truth pairs per refresh")
	o.set("engine.components_fused", float64(sum.componentsFused)/float64(k), "count", k, "components re-fused per refresh")
	if sum.components > 0 {
		o.set("engine.component_reuse_ratio", float64(sum.reused)/float64(sum.components), "ratio", k,
			"components served from the cache ÷ components")
	}
	setOverhead(o, untraced, traced, alloc, gcs)
	return o, nil
}
