package er

import (
	"context"
	"slices"
	"sort"

	"repro/internal/blocking"
	"repro/internal/engine"
	"repro/internal/index"
)

// CollectionDelta reports what one mutation changed in a collection's
// candidate pair set. Pair endpoints are external record IDs.
type CollectionDelta struct {
	// AddedPairs and RemovedPairs list the candidate pairs the mutation
	// created and destroyed.
	AddedPairs, RemovedPairs [][2]string
	// Touched lists the external IDs whose candidate rows were recomputed.
	Touched []string
	// Rebuilt reports that the mutation's blast radius made an incremental
	// update more expensive than starting over (a frequency threshold
	// crossed on a high-df term), so the pair table was rebuilt instead;
	// the per-pair lists are empty in that case.
	Rebuilt bool
}

// DeltaStats is the work split of one delta-scoped resolve (see
// Collection.ResolveContext): how many candidate-graph components the run
// saw, how many it served from the component cache, and how many it
// actually re-fused.
type DeltaStats struct {
	Components                        int
	ComponentsReused, ComponentsFused int
	PairsReused, PairsFused           int
}

// Collection is a mutable keyed record set that resolves incrementally.
// Upsert and Delete maintain an inverted index and the blocking survivor
// set in time proportional to the mutation's blast radius, and
// ResolveContext re-fuses only the connected components the mutations
// touched, merging every unchanged component's memoized result — the
// streaming counterpart to the batch Resolve.
//
// Resolution semantics are per-component: each connected component of the
// candidate graph runs the full ITER ⇄ CliqueRank loop on its own local
// graph (own seeded RNG, own convergence test, own term weights). The
// result is a pure function of the collection state and options —
// deterministic and independent of mutation order or resolve history — but
// it is not bit-identical to the batch Resolve, whose ITER couples
// components through a global convergence test and RNG sequence.
//
// A Collection is not safe for concurrent use; callers serialize access.
type Collection struct {
	opts  Options
	ix    *index.Index
	cache *engine.Cache

	// Ground truth, kept current by Upsert and Delete so a resolve never
	// recounts it: each labeled record's label, the records per entity and
	// per entity×source, and from those the number of same-entity record
	// pairs (samePairs) and of those within one source (sameSourcePairs).
	labels                     map[string]recordLabel
	perEntity                  map[string]int
	perEntitySource            map[recordLabel]int
	samePairs, sameSourcePairs int

	// Entities by record position for the ID order of the last evaluated
	// resolve (lastIDs, a private copy), and the IDs upserted or deleted
	// since: the next evaluation patches posEntity at those IDs instead of
	// looking every record's label up. lastIDs is nil when there is
	// nothing to patch.
	lastIDs   []string
	posEntity []string
	changed   map[string]struct{}
}

// recordLabel is a labeled record's ground-truth entity and its source.
type recordLabel struct {
	entity string
	source int
}

// NewCollection returns an empty collection under the given options
// (validated as in ResolveContext). Candidate generation follows
// Options.CrossSourceOnly, MaxTermRecords, MinSharedTerms and MinJaccard;
// MaxCandidatePairs is ignored — the incremental pair table has no
// degradation path. When Options.Snapshots is set its cache memoizes the
// per-component fusion results (shared across collections); otherwise the
// collection keeps a private cache, so delta-scoped reuse works either way.
func NewCollection(opts Options) (*Collection, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	cache := opts.Snapshots.engineCache()
	if cache == nil {
		cache = engine.NewCache(0)
	}
	return &Collection{
		opts: opts,
		ix: index.New(index.Config{
			Corpus: opts.corpusOptions(),
			Block: index.BatchOptions{
				CrossSourceOnly: opts.CrossSourceOnly,
				MaxTermRecords:  opts.MaxTermRecords,
				MinJaccard:      opts.MinJaccard,
				MinSharedTerms:  opts.MinSharedTerms,
				Workers:         opts.Workers,
			},
		}),
		cache:           cache,
		labels:          make(map[string]recordLabel),
		perEntity:       make(map[string]int),
		perEntitySource: make(map[recordLabel]int),
		changed:         make(map[string]struct{}),
	}, nil
}

// Len returns the number of live records.
func (c *Collection) Len() int { return c.ix.Len() }

// Upsert inserts or replaces the record stored under id and returns what
// the mutation changed in the candidate pair set.
func (c *Collection) Upsert(id string, rec Record) CollectionDelta {
	c.unlabel(id)
	if rec.Entity != "" {
		l := recordLabel{entity: rec.Entity, source: rec.Source}
		c.samePairs += c.perEntity[l.entity]
		c.perEntity[l.entity]++
		c.sameSourcePairs += c.perEntitySource[l]
		c.perEntitySource[l]++
		c.labels[id] = l
	}
	c.noteChanged(id)
	return fromIndexDelta(c.ix.Upsert(id, rec.Text, rec.Source))
}

// Delete removes the record stored under id, reporting whether it existed.
func (c *Collection) Delete(id string) (CollectionDelta, bool) {
	d, ok := c.ix.Delete(id)
	if ok {
		c.unlabel(id)
		c.noteChanged(id)
	}
	return fromIndexDelta(d), ok
}

// unlabel drops id's ground-truth label, if it has one, from the counts.
func (c *Collection) unlabel(id string) {
	l, ok := c.labels[id]
	if !ok {
		return
	}
	delete(c.labels, id)
	entity := c.perEntity[l.entity] - 1
	if entity == 0 {
		delete(c.perEntity, l.entity)
	} else {
		c.perEntity[l.entity] = entity
	}
	c.samePairs -= entity
	same := c.perEntitySource[l] - 1
	if same == 0 {
		delete(c.perEntitySource, l)
	} else {
		c.perEntitySource[l] = same
	}
	c.sameSourcePairs -= same
}

// noteChanged queues id for the next evaluation's posEntity patch, or
// drops the patch state once the queue outgrows a small share of the
// records, where a full lookup is about as cheap.
func (c *Collection) noteChanged(id string) {
	if c.lastIDs == nil {
		return
	}
	c.changed[id] = struct{}{}
	if len(c.changed) > max(64, len(c.lastIDs)/16) {
		c.lastIDs = nil
		clear(c.changed)
	}
}

// entitiesAt returns the entity label at every position of ids, the
// ascending live IDs of this resolve ("" for an unlabeled record). With
// the previous evaluation's array at hand it is patched: the IDs changed
// since are dropped from their old positions and looked up at their new
// ones, and every other record keeps its label and relative order — a
// flat pass, not a map lookup per record.
func (c *Collection) entitiesAt(ids []string) []string {
	ents := make([]string, len(ids))
	if c.lastIDs == nil {
		for pos, id := range ids {
			ents[pos] = c.labels[id].entity
		}
	} else {
		var drop, add []int
		for id := range c.changed {
			if pos, ok := slices.BinarySearch(c.lastIDs, id); ok {
				drop = append(drop, pos)
			}
			if pos, ok := slices.BinarySearch(ids, id); ok {
				add = append(add, pos)
			}
		}
		sort.Ints(drop)
		sort.Ints(add)
		old := 0
		for pos := range ents {
			if len(add) > 0 && add[0] == pos {
				ents[pos] = c.labels[ids[pos]].entity
				add = add[1:]
				continue
			}
			for len(drop) > 0 && drop[0] == old {
				drop = drop[1:]
				old++
			}
			ents[pos] = c.posEntity[old]
			old++
		}
	}
	c.lastIDs = append(c.lastIDs[:0], ids...)
	c.posEntity = ents
	clear(c.changed)
	return ents
}

func fromIndexDelta(d index.Delta) CollectionDelta {
	return CollectionDelta{
		AddedPairs:   d.AddedPairs,
		RemovedPairs: d.RemovedPairs,
		Touched:      d.Touched,
		Rebuilt:      d.Rebuilt,
	}
}

// Resolve is ResolveContext with a background context.
func (c *Collection) Resolve() (*Result, error) {
	return c.ResolveContext(context.Background())
}

// ResolveContext resolves the collection's current state: it materializes
// the candidate graph from the index (bit-identical to a batch build over
// the live records in ascending external-ID order), partitions the
// candidate graph into connected components, and fuses each component —
// reusing every component whose content key already has a memoized result,
// so a resolve after a small mutation re-fuses only what the mutation
// touched. Record positions in the Result (Matches, Clusters) index
// Result.IDs, the ascending external-ID order of this resolve. Evaluation
// is populated when every record carries an entity label. The Options
// budgets and cancellation behave as in the package-level ResolveContext.
func (c *Collection) ResolveContext(ctx context.Context) (res *Result, err error) {
	defer recoverToError(&err)
	if c.ix.Len() == 0 {
		return nil, ErrNoRecords
	}
	ctx, cancel := c.opts.withWallClock(ctx)
	defer cancel()
	run := engine.NewRun(ctx, engine.RunOptions{Workers: c.opts.Workers})

	var v *index.View
	if err := run.Stage(engine.StageMaterialize, func(st *engine.StageTrace) error {
		v = c.ix.Materialize()
		st.In, st.InUnit = len(v.IDs), "records"
		st.Out, st.OutUnit = v.Graph.NumPairs(), "pairs"
		return nil
	}); err != nil {
		return nil, wrapRunErr(ctx, err)
	}

	out, stats, err := engine.DeltaFuse(run, v.Graph, len(v.IDs), c.opts.coreOptions(), c.cache)
	if err != nil {
		return nil, wrapRunErr(ctx, err)
	}
	clusters, err := engine.Cluster(run, len(v.IDs), v.Graph.Pairs, out.Matches)
	if err != nil {
		return nil, wrapRunErr(ctx, err)
	}
	res = &Result{
		Probabilities:  out.P,
		Clusters:       clusters,
		GraphNodes:     out.Nodes,
		GraphEdges:     out.Edges,
		Converged:      out.Converged,
		NumericRepairs: out.NumericRepairs,
		IDs:            v.IDs,
		Delta: &DeltaStats{
			Components:       stats.Components,
			ComponentsReused: stats.ComponentsReused,
			ComponentsFused:  stats.ComponentsFused,
			PairsReused:      stats.PairsReused,
			PairsFused:       stats.PairsFused,
		},
	}
	for k, matched := range out.Matches {
		if !matched {
			continue
		}
		pr := v.Graph.Pairs[k]
		res.Matches = append(res.Matches, Match{I: int(pr.I), J: int(pr.J), Probability: out.P[k]})
	}
	if truth, totalTrue, ok := c.truthFor(v); ok {
		prf, err := engine.Evaluate(run, v.Graph.Pairs, out.Matches, truth, totalTrue)
		if err != nil {
			return nil, wrapRunErr(ctx, err)
		}
		m := fromPRF(prf)
		res.Evaluation = &m
	}
	trace := run.Trace()
	res.Trace = fromEngineTrace(trace)
	if st := trace.Find(engine.StageDeltaFuse); st != nil {
		res.Elapsed = st.Wall
	}
	return res, nil
}

// truthFor returns the ground truth Evaluate needs over the materialized
// record order, following the batch convention: every record must be
// labeled, and under CrossSourceOnly only cross-source pairs count. The
// count of true pairs comes from the label counts; the map holds only the
// candidate pairs whose endpoints share a label, the only pairs Evaluate
// looks up.
func (c *Collection) truthFor(v *index.View) (truth map[uint64]bool, totalTrue int, ok bool) {
	if len(c.labels) != len(v.IDs) {
		c.lastIDs = nil
		clear(c.changed)
		return nil, 0, false
	}
	cross := c.opts.CrossSourceOnly
	totalTrue = c.samePairs
	if cross {
		totalTrue -= c.sameSourcePairs
	}
	ents := c.entitiesAt(v.IDs)
	truth = make(map[uint64]bool)
	for _, p := range v.Graph.Pairs {
		if ents[p.I] == ents[p.J] && (!cross || v.Sources[p.I] != v.Sources[p.J]) {
			truth[blocking.Key(p.I, p.J)] = true
		}
	}
	return truth, totalTrue, true
}
