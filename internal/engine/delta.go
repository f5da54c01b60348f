package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/graph"
)

// StageDeltaFuse is the component-scoped fusion stage of the delta
// resolver: per connected component of the candidate graph, fuse or reuse.
const StageDeltaFuse = "deltafuse"

// DeltaStats is the work split of one delta-scoped resolve: how many
// candidate-graph components the run saw, how many it served from the
// component cache, and how many it actually fused (with their pair counts).
type DeltaStats struct {
	// Components is the number of connected components in the candidate
	// graph (components have at least one pair; isolated records are not
	// counted — they have nothing to fuse).
	Components int
	// ComponentsReused and ComponentsFused split Components into cache hits
	// and actual fusion runs.
	ComponentsReused, ComponentsFused int
	// PairsReused and PairsFused are the candidate pairs covered by each
	// side of the split.
	PairsReused, PairsFused int
}

// partition is the component decomposition of a candidate graph plus the
// global→local renumbering arrays, in flat CSR layout: component ci's
// records are records[recPtr[ci]:recPtr[ci+1]] (ascending), its pairs are
// pairs[pairPtr[ci]:pairPtr[ci+1]] (ascending pair ID, which is local pair
// order) and byKey over the same range holds them in pair-key order.
// Record and pair membership is unique, so one flat array per dimension
// serves every component at once — the delta path's hot loops stay
// map-free and allocate nothing per component.
type partition struct {
	recPtr, records []int32
	pairPtr, pairs  []int32
	byKey           []int32
	// recLocal / pairLocal give a record's / pair's local index within its
	// component (-1 for records in no pair).
	recLocal  []int32
	pairLocal []int32
}

// numComps returns the number of components.
func (p *partition) numComps() int { return len(p.recPtr) - 1 }

// compRecords / compPairs / compByKey return component ci's slices.
func (p *partition) compRecords(ci int) []int32 { return p.records[p.recPtr[ci]:p.recPtr[ci+1]] }
func (p *partition) compPairs(ci int) []int32   { return p.pairs[p.pairPtr[ci]:p.pairPtr[ci+1]] }
func (p *partition) compByKey(ci int) []int32   { return p.byKey[p.pairPtr[ci]:p.pairPtr[ci+1]] }

// partitionCandidates splits the candidate graph into connected components
// over its pairs. Records in no pair are excluded, components are numbered
// by smallest record ID, and per-component record/pair lists keep global
// order.
func partitionCandidates(g *blocking.Graph, numRecords int) *partition {
	uf := graph.NewUnionFind(numRecords)
	inPair := make([]bool, numRecords)
	for _, pr := range g.Pairs {
		uf.Union(int(pr.I), int(pr.J))
		inPair[pr.I] = true
		inPair[pr.J] = true
	}
	np := g.NumPairs()
	compOf := make([]int32, numRecords)
	for r := range compOf {
		compOf[r] = -1
	}
	var recPtr []int32
	for r := 0; r < numRecords; r++ {
		if !inPair[r] {
			continue
		}
		root := uf.Find(r)
		if compOf[root] < 0 {
			compOf[root] = int32(len(recPtr))
			recPtr = append(recPtr, 0)
		}
		compOf[r] = compOf[root]
	}
	nc := len(recPtr)
	part := &partition{
		recPtr:    append(recPtr, 0),
		records:   make([]int32, 0, numRecords),
		pairPtr:   make([]int32, nc+1),
		pairs:     make([]int32, np),
		byKey:     make([]int32, np),
		recLocal:  make([]int32, numRecords),
		pairLocal: make([]int32, np),
	}
	// Counting sorts by component. Records and pairs are visited in
	// ascending global order, so each component's ranges come out
	// ascending; a third pass over the pairs in key order fills byKey.
	for r := 0; r < numRecords; r++ {
		if ci := compOf[r]; ci >= 0 {
			part.recPtr[ci+1]++
		}
	}
	for _, pr := range g.Pairs {
		part.pairPtr[compOf[pr.I]+1]++
	}
	for ci := 0; ci < nc; ci++ {
		part.recPtr[ci+1] += part.recPtr[ci]
		part.pairPtr[ci+1] += part.pairPtr[ci]
	}
	part.records = part.records[:part.recPtr[nc]]
	fill := make([]int32, nc)
	copy(fill, part.recPtr[:nc])
	for r := 0; r < numRecords; r++ {
		ci := compOf[r]
		if ci < 0 {
			part.recLocal[r] = -1
			continue
		}
		part.recLocal[r] = fill[ci] - part.recPtr[ci]
		part.records[fill[ci]] = int32(r)
		fill[ci]++
	}
	copy(fill, part.pairPtr[:nc])
	for pid, pr := range g.Pairs {
		ci := compOf[pr.I]
		part.pairLocal[pid] = fill[ci] - part.pairPtr[ci]
		part.pairs[fill[ci]] = int32(pid)
		fill[ci]++
	}
	copy(fill, part.pairPtr[:nc])
	for _, pid := range pairsByKey(g, numRecords) {
		ci := compOf[g.Pairs[pid].I]
		part.byKey[fill[ci]] = pid
		fill[ci]++
	}
	return part
}

// pairsByKey returns the graph's pair IDs in ascending pair-key order
// (smaller record, then larger): two stable counting sorts, by the larger
// endpoint and then by the smaller.
func pairsByKey(g *blocking.Graph, numRecords int) []int32 {
	np := g.NumPairs()
	cnt := make([]int32, numRecords+1)
	tmp := make([]int32, np)
	out := make([]int32, np)
	for _, pr := range g.Pairs {
		cnt[pr.J+1]++
	}
	for r := 0; r < numRecords; r++ {
		cnt[r+1] += cnt[r]
	}
	for pid, pr := range g.Pairs {
		tmp[cnt[pr.J]] = int32(pid)
		cnt[pr.J]++
	}
	clear(cnt)
	for _, pr := range g.Pairs {
		cnt[pr.I+1]++
	}
	for r := 0; r < numRecords; r++ {
		cnt[r+1] += cnt[r]
	}
	for _, pid := range tmp {
		i := g.Pairs[pid].I
		out[cnt[i]] = pid
		cnt[i]++
	}
	return out
}

// compTerms is one component's term–pair structure: its distinct global
// terms ascending, and per local term (by position in terms) the local
// pairs touching it in pair-key order, as refs[ptr[lt]:ptr[lt+1]].
type compTerms struct {
	terms, ptr, refs []int32
	// termLocal is an all -1 scratch over the global terms, restored
	// before localTerms returns.
	termLocal []int32
}

// localTerms fills ct with component ci's term structure by walking the
// component's own pairs through the pair→term transpose — work
// proportional to the component, however many other components share its
// terms.
func (ct *compTerms) localTerms(g *blocking.Graph, part *partition, ci int) {
	byKey := part.compByKey(ci)
	ct.terms = ct.terms[:0]
	nrefs := 0
	//lint:ignore guardloop bounded by one component's pair-term lists; DeltaFuse polls the checkpoint per component
	for _, pid := range byKey {
		for _, t := range g.PairTerms[g.PairTermPtr[pid]:g.PairTermPtr[pid+1]] {
			if ct.termLocal[t] < 0 {
				ct.termLocal[t] = 0
				ct.terms = append(ct.terms, t)
			}
			nrefs++
		}
	}
	slices.Sort(ct.terms)
	nt := len(ct.terms)
	ct.ptr = slices.Grow(ct.ptr[:0], nt+1)[:nt+1]
	clear(ct.ptr)
	for lt, t := range ct.terms {
		ct.termLocal[t] = int32(lt)
	}
	for _, pid := range byKey {
		for _, t := range g.PairTerms[g.PairTermPtr[pid]:g.PairTermPtr[pid+1]] {
			ct.ptr[ct.termLocal[t]+1]++
		}
	}
	for lt := 0; lt < nt; lt++ {
		ct.ptr[lt+1] += ct.ptr[lt]
	}
	// Fill with ptr[lt] as the cursor of term lt, then shift the cursors
	// (now each term's end) back into starts.
	ct.refs = slices.Grow(ct.refs[:0], nrefs)[:nrefs]
	for _, pid := range byKey {
		lp := part.pairLocal[pid]
		for _, t := range g.PairTerms[g.PairTermPtr[pid]:g.PairTermPtr[pid+1]] {
			lt := ct.termLocal[t]
			ct.refs[ct.ptr[lt]] = lp
			ct.ptr[lt]++
		}
	}
	copy(ct.ptr[1:], ct.ptr[:nt])
	ct.ptr[0] = 0
	for _, t := range ct.terms {
		ct.termLocal[t] = -1
	}
}

// componentKey derives the content key of one component's fusion result: a
// hash over the fusion options and the component's localized structure —
// local pair endpoints plus each touching term's local pair list (in pair-
// key order), in ascending global term order but without global term
// identities. Fusion reads nothing but this topology (ITER and CliqueRank
// are pure functions of the term–pair and record–record structure), so
// components with equal keys — across mutations, collections, even within
// one corpus — have bit-identical local results.
// The structure bytes are assembled into the caller's reusable scratch and
// hashed in one shot: a digest allocation plus a 4-byte h.Write per int32
// is measurable when a warm 100k resolve keys ~20k components. The raw
// 32-byte digest serves as the map key directly — the key never leaves the
// cache, so it needs no printable encoding.
func componentKey(sig []byte, g *blocking.Graph, part *partition, ci int, ct *compTerms, scratch []byte) (string, []byte) {
	buf := append(scratch[:0], sig...)
	put := func(v int32) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	pairs := part.compPairs(ci)
	put(int32(len(part.compRecords(ci))))
	put(int32(len(pairs)))
	for _, pid := range pairs {
		pr := g.Pairs[pid]
		put(part.recLocal[pr.I])
		put(part.recLocal[pr.J])
	}
	put(int32(len(ct.terms)))
	//lint:ignore guardloop bounded by one component's term-pair lists; DeltaFuse polls the checkpoint per component
	for lt := range ct.terms {
		put(-1) // term separator
		for _, lp := range ct.refs[ct.ptr[lt]:ct.ptr[lt+1]] {
			put(lp)
		}
	}
	sum := sha256.Sum256(buf)
	return string(sum[:]), buf
}

// localizeComponent builds the component's local candidate graph: records
// and pairs renumbered densely (preserving global order, so local key order
// matches global key order), terms restricted to the component in ascending
// global order. Only cache misses pay for this — hits are keyed without
// materializing the graph.
func localizeComponent(g *blocking.Graph, part *partition, ci int, ct *compTerms) *blocking.Graph {
	pairs := part.compPairs(ci)
	lg := &blocking.Graph{
		NumRecords: len(part.compRecords(ci)),
		NumTerms:   len(ct.terms),
		Pairs:      make([]blocking.Pair, len(pairs)),
		Index:      make(map[uint64]int32, len(pairs)),
		TermPairs:  make([][]int32, len(ct.terms)),
	}
	for k, pid := range pairs {
		pr := g.Pairs[pid]
		li, lj := part.recLocal[pr.I], part.recLocal[pr.J]
		lg.Pairs[k] = blocking.Pair{I: li, J: lj}
		lg.Index[blocking.Key(li, lj)] = int32(k)
	}
	refs := slices.Clone(ct.refs)
	for lt := range ct.terms {
		lg.TermPairs[lt] = refs[ct.ptr[lt]:ct.ptr[lt+1]:ct.ptr[lt+1]]
	}
	lg.BuildPairIndex()
	return lg
}

// fusionOptsSig serializes every core option that influences fusion output
// — the same field set FusionKey hashes. Workers, Check, Clock, Progress
// and Scratch are excluded: output is bit-identical across all of them.
func fusionOptsSig(o core.Options) string {
	return fmt.Sprintf("fuse=%g,%d,%g,%d,%g,%d,%d,%t,%d,%t,%t,%t,%d",
		o.Alpha, o.Steps, o.Eta, o.FusionIterations,
		o.ITERTol, o.ITERMaxIters, int(o.Normalization),
		o.UseRSS, o.RSSWalks,
		o.DisableBonus, o.DisableMask, o.DisableDenominator,
		o.Seed)
}

// DeltaFuse is the delta-scoped alternative to Fuse: it partitions the
// candidate graph into connected components, fuses each component on its
// own localized graph, and memoizes the per-component results in the cache
// under content keys — so a resolve after a small mutation re-fuses only
// the components the mutation touched and serves every other component from
// cache.
//
// The semantics are per-component fusion: each component runs the full
// ITER ⇄ record-graph ⇄ CliqueRank loop on its local graph (own seeded RNG,
// own convergence test, own term weights for the terms it touches). This is
// deterministic and mutation-order independent — the result is a pure
// function of the collection state and options — but it is not the same
// function as the global Fuse, whose ITER couples components through the
// global convergence test and RNG sequence. Callers that need the global
// semantics use Fuse.
//
// The result's P/Matches/Nodes/Edges/Converged/NumericRepairs are
// populated; X, S and the ITER traces are per-component artifacts and stay
// nil.
func DeltaFuse(r *Run, g *blocking.Graph, numRecords int, opts core.Options, cache *Cache) (*core.FusionResult, DeltaStats, error) {
	opts.Check = r.check
	opts.Workers = r.workers
	opts.Scratch = &r.scratch
	if opts.Clock == nil {
		opts.Clock = r.clk
	}

	var part *partition
	if err := r.Stage(StagePartition, func(st *StageTrace) error {
		part = partitionCandidates(g, numRecords)
		st.In, st.InUnit = g.NumPairs(), "pairs"
		st.Out, st.OutUnit = part.numComps(), "components"
		return nil
	}); err != nil {
		return nil, DeltaStats{}, err
	}

	sig := []byte(fusionOptsSig(opts))
	res := &core.FusionResult{
		Converged: true,
		P:         make([]float64, g.NumPairs()),
		Matches:   make([]bool, g.NumPairs()),
		Nodes:     numRecords,
	}
	nc := part.numComps()
	stats := DeltaStats{Components: nc}
	ct := &compTerms{termLocal: make([]int32, g.NumTerms)}
	for t := range ct.termLocal {
		ct.termLocal[t] = -1
	}
	var keyScratch []byte
	err := r.Stage(StageDeltaFuse, func(st *StageTrace) error {
		st.In, st.InUnit = nc, "components"
		st.OutUnit = "matches"
		for ci := 0; ci < nc; ci++ {
			if err := r.check.Err(); err != nil {
				return err
			}
			pairs := part.compPairs(ci)
			ct.localTerms(g, part, ci)
			var key string
			key, keyScratch = componentKey(sig, g, part, ci, ct, keyScratch)
			cr, ok := cache.Component(key)
			if !ok {
				lg := localizeComponent(g, part, ci, ct)
				f := core.NewFusionRun(lg, lg.NumRecords, opts)
				for f.Next() {
					if _, err := f.StepITER(); err != nil {
						return err
					}
					f.StepGraph()
					if err := f.StepRank(); err != nil {
						return err
					}
				}
				lres := f.Finish()
				cr = &ComponentResult{
					P:              append([]float64(nil), lres.P...),
					Converged:      lres.Converged,
					NumericRepairs: lres.NumericRepairs,
					Edges:          lres.Edges,
				}
				cache.AddComponent(key, cr)
				stats.ComponentsFused++
				stats.PairsFused += len(pairs)
			} else {
				stats.ComponentsReused++
				stats.PairsReused += len(pairs)
			}
			for k, pid := range pairs {
				p := cr.P[k]
				res.P[pid] = p
				if p >= opts.Eta {
					res.Matches[pid] = true
					st.Out++
				}
			}
			res.Converged = res.Converged && cr.Converged
			res.NumericRepairs += cr.NumericRepairs
			res.Edges += cr.Edges
		}
		st.ComponentsFused = stats.ComponentsFused
		st.ComponentsReused = stats.ComponentsReused
		st.PairsFused = stats.PairsFused
		st.PairsReused = stats.PairsReused
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	return res, stats, nil
}
