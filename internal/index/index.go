package index

import (
	"slices"
	"strings"

	"repro/internal/textproc"
)

// Config parameterizes a mutable Index. The corpus options must match the
// pipeline's (tokenizer, MaxDFRatio, MinDF, stopwords) for Materialize to
// reproduce textproc.BuildCorpus bit for bit; the block options carry the
// candidate filters. Block.Check and Block.Workers apply to the full
// pair-table rebuild fallback; single-record mutations are delta-sized and
// run inline.
type Config struct {
	Corpus textproc.CorpusOptions
	Block  BatchOptions
}

// Delta reports what one mutation changed in the candidate pair set. Pair
// endpoints are external record IDs. When the mutation's blast radius made
// an incremental update more expensive than starting over (a frequency
// threshold crossed on a high-df term), the index rebuilds the pair table
// instead and reports only Rebuilt — the per-pair lists would be the whole
// corpus.
type Delta struct {
	// AddedPairs lists candidate pairs the mutation created.
	AddedPairs [][2]string
	// RemovedPairs lists candidate pairs the mutation destroyed.
	RemovedPairs [][2]string
	// Touched lists the external IDs whose candidate rows were recomputed.
	Touched []string
	// Rebuilt reports that the pair table was rebuilt from scratch instead
	// of patched (AddedPairs/RemovedPairs are nil in that case).
	Rebuilt bool
}

// View is one materialized snapshot of the index: the candidate Graph
// bit-identical to what BuildGraph would produce over
// textproc.BuildCorpus of the live records in ascending external-ID order,
// plus the position-aligned bookkeeping a resolver needs. The corpus
// itself is not assembled: no resolver reads it, and building it was most
// of a warm refresh.
type View struct {
	Graph   *Graph
	Sources []int
	// IDs maps record position to external ID (ascending).
	IDs []string
	// Touched lists the positions whose candidate rows changed since the
	// previous Materialize (advisory: the delta-scoped resolver's
	// correctness rests on per-component content keys, not on this set).
	Touched []int
}

// Index is a mutable inverted index over a keyed record collection that
// maintains the blocking survivor set incrementally: Upsert and Delete
// re-derive only the candidate rows their blast radius can have changed —
// the mutated record, plus every record holding a term whose eligibility
// flipped (document-frequency thresholds move with df and with the corpus
// size). Materialize then assembles a Graph bit-identical to a
// from-scratch batch build, re-deriving only the pairs next to records
// touched since the previous call.
//
// Not safe for concurrent use; callers serialize access.
type Index struct {
	cfg  Config
	stop map[string]struct{}

	// Interned vocabulary. Term IDs (iids) are stable across mutations;
	// lexicographic order is maintained lazily in sorted/rankOf.
	surfaces []string
	vocab    map[string]int32
	df       []int32
	stopped  []bool
	postings [][]int32 // iid -> sorted live rids
	// Document-frequency buckets over the non-stopword terms with df >= 1:
	// dfBucket[f] holds the iids whose df is f (in no particular order) and
	// bucketPos[iid] is the iid's slot there. postingAdd/postingRemove move
	// a term between buckets in O(1), so a frequency-band move visits only
	// the terms inside the band instead of the whole vocabulary.
	dfBucket   [][]int32
	bucketPos  []int32
	vocabDirty bool
	sortedIIDs []int32 // iids in lexicographic surface order
	rankOf     []int32 // iid -> position in sortedIIDs

	// Records. Handles (rids) are stable; deleted rids go on the free list.
	extID   []string // rid -> external id ("" when free)
	byID    map[string]int32
	terms   [][]int32 // rid -> sorted unique iids
	sources []int32
	docLen  []int32 // rid -> count of corpus-kept terms
	freeRid []int32
	live    int

	// Survivor pair table: every candidate pair that passes the blocking
	// filters under the current corpus state, keyed by record handles.
	pairs map[uint64]int32 // Key(ridA, ridB) -> shared eligible-term count
	adj   [][]int32        // rid -> partner rids; staleness resolved against pairs

	// Mutation scratch, owned by the index and reused across calls so a
	// mutation allocates only what it returns or retains. cnt and marked
	// are indexed by rid and grow with the handle space in allocRid
	// (amortized append, never a per-mutation resize); both are all-zero
	// between uses.
	cnt      []int32
	marked   []bool
	toks     []string // the upserted text's tokens
	flips    []termFlip
	affected []int32
	row      []int32     // one candidate row's partner rids
	removed  [][2]string // a deleted record's pairs, reported after the row patches

	// Cached ascending-external-ID record order for Materialize. Inserted
	// handles queue in orderNew and deletes set orderDirty; the next
	// Materialize patches the order (ensureOrder).
	order      []int32
	orderNew   []int32
	orderDirty bool

	// Dense vocabulary numbering for Materialize: denseOf maps an iid to
	// its rank among the corpus-kept terms (-1 when not kept), numTerms
	// counts them. Valid while no mutation interned a new surface or
	// flipped a term's kept status; document frequencies may change
	// freely. Cleared conservatively: a spurious rebuild costs one O(V)
	// pass, a missed one would corrupt the batch-equivalence promise.
	denseValid bool
	denseOf    []int32
	numTerms   int

	// Carried pair derivation (see derivePairs): every candidate pair with
	// its eligible shared terms, current for every pair whose endpoints
	// were not touched since the previous Materialize.
	pairStates []pairState
	mat        materializeScratch

	// Records whose candidate rows changed since the last Materialize:
	// touchedList holds each such handle once, touchedMark flags it. A
	// freed handle stays listed; Materialize skips it unless reused.
	touchedMark []bool
	touchedList []int32
}

// New returns an empty index.
func New(cfg Config) *Index {
	stop := make(map[string]struct{}, len(cfg.Corpus.Stopwords))
	for _, w := range cfg.Corpus.Stopwords {
		stop[strings.ToLower(w)] = struct{}{}
	}
	return &Index{
		cfg:   cfg,
		stop:  stop,
		vocab: make(map[string]int32),
		byID:  make(map[string]int32),
		pairs: make(map[uint64]int32),
	}
}

// Len returns the number of live records.
func (ix *Index) Len() int { return ix.live }

// maxKeptDF returns the frequent-term threshold for the current corpus
// size — the exact formula of textproc.BuildCorpus.
func (ix *Index) maxKeptDF() int32 { return ix.maxKeptDFAt(ix.live) }

// keptAt reports whether a term with document frequency f survives the
// corpus filters (frequency band + stopword list) at threshold maxDF.
func (ix *Index) keptAt(iid, f, maxDF int32) bool {
	return f >= 1 && f >= int32(ix.cfg.Corpus.MinDF) && f <= maxDF && !ix.stopped[iid]
}

// eligAt reports whether a term with document frequency f participates in
// candidate enumeration at threshold maxDF (corpus-kept, df >= 2, under
// the MaxTermRecords cap).
func (ix *Index) eligAt(iid, f, maxDF int32) bool {
	if !ix.keptAt(iid, f, maxDF) || f < 2 {
		return false
	}
	return ix.cfg.Block.MaxTermRecords <= 0 || f <= int32(ix.cfg.Block.MaxTermRecords)
}

// intern returns the stable term ID for a surface form.
func (ix *Index) intern(surface string) int32 {
	if iid, ok := ix.vocab[surface]; ok {
		return iid
	}
	iid := int32(len(ix.surfaces))
	ix.vocab[surface] = iid
	ix.surfaces = append(ix.surfaces, surface)
	ix.df = append(ix.df, 0)
	_, banned := ix.stop[surface]
	ix.stopped = append(ix.stopped, banned)
	ix.postings = append(ix.postings, nil)
	ix.bucketPos = append(ix.bucketPos, 0)
	ix.vocabDirty = true
	ix.denseValid = false
	return iid
}

// minSharedFloor returns the clamped MinSharedTerms filter.
func (ix *Index) minSharedFloor() int32 {
	m := int32(ix.cfg.Block.MinSharedTerms)
	if m < 1 {
		m = 1
	}
	return m
}

// Upsert inserts or replaces the record with the given external ID and
// returns what changed in the candidate pair set.
func (ix *Index) Upsert(id, text string, source int) Delta {
	ix.toks = textproc.AppendTokens(ix.toks[:0], text, ix.cfg.Corpus.Tokenize)
	terms := make([]int32, len(ix.toks))
	for i, tk := range ix.toks {
		terms[i] = ix.intern(tk)
	}
	slices.Sort(terms)
	terms = slices.Compact(terms)

	rid, exists := ix.byID[id]
	var oldTerms []int32
	nBefore := ix.live
	if exists {
		oldTerms = ix.terms[rid]
	} else {
		rid = ix.allocRid(id)
		ix.live++
		ix.orderNew = append(ix.orderNew, rid)
	}
	return ix.applyMutation(rid, id, oldTerms, terms, int32(source), ix.maxKeptDFAt(nBefore), true)
}

// Delete removes the record with the given external ID, reporting whether
// it existed and what its removal changed in the candidate pair set.
func (ix *Index) Delete(id string) (Delta, bool) {
	rid, ok := ix.byID[id]
	if !ok {
		return Delta{}, false
	}
	maxBefore := ix.maxKeptDF()
	oldTerms := ix.terms[rid]
	ix.live--
	ix.orderDirty = true
	d := ix.applyMutation(rid, id, oldTerms, nil, 0, maxBefore, false)
	ix.releaseRid(rid, id)
	return d, true
}

// maxKeptDFAt is maxKeptDF for an explicit corpus size.
func (ix *Index) maxKeptDFAt(n int) int32 {
	if ix.cfg.Corpus.MaxDFRatio <= 0 {
		return int32(n + 1)
	}
	m := int32(ix.cfg.Corpus.MaxDFRatio * float64(n))
	if m < 2 {
		m = 2
	}
	return m
}

// termFlip records a term's pre-mutation corpus-kept and block-eligible
// status, to be compared with its status after the mutation.
type termFlip struct {
	iid          int32
	wasKept, was bool
}

// flipOf captures term t's current status under threshold maxDF.
func (ix *Index) flipOf(t, maxDF int32) termFlip {
	f := ix.df[t]
	return termFlip{iid: t, wasKept: ix.keptAt(t, f, maxDF), was: ix.eligAt(t, f, maxDF)}
}

// applyMutation performs the shared structural update for Upsert/Delete:
// swap the record's terms, adjust document frequencies and postings, find
// every term whose eligibility flipped (df moved, or the frequency
// thresholds moved with the corpus size), patch docLens, and re-derive the
// candidate rows of the affected records. keep reports whether the record
// remains live (upsert) or is being removed (delete).
func (ix *Index) applyMutation(rid int32, id string, oldTerms, newTerms []int32, source, maxBefore int32, keep bool) Delta {
	maxAfter := ix.maxKeptDF()

	// Terms whose df changes: the symmetric difference of the old and new
	// sorted term sets. Record each one's pre-mutation state, then move
	// its posting.
	flips := ix.flips[:0]
	i, j := 0, 0
	for i < len(oldTerms) || j < len(newTerms) {
		switch {
		case j == len(newTerms) || (i < len(oldTerms) && oldTerms[i] < newTerms[j]):
			flips = append(flips, ix.flipOf(oldTerms[i], maxBefore))
			ix.postingRemove(oldTerms[i], rid)
			i++
		case i == len(oldTerms) || newTerms[j] < oldTerms[i]:
			flips = append(flips, ix.flipOf(newTerms[j], maxBefore))
			ix.postingAdd(newTerms[j], rid)
			j++
		default:
			i++
			j++
		}
	}

	// Threshold shift: when the kept band moved with the corpus size, any
	// term whose df sits between the old and new thresholds flips. The df
	// buckets hand over exactly those terms; the band moves by at most one
	// df per mutation at ratios below 1. With no ratio cap the threshold
	// n+1 moves on every mutation but exceeds every possible df, so no term
	// can flip and the scan is skipped.
	if maxBefore != maxAfter && ix.cfg.Corpus.MaxDFRatio > 0 {
		diff := flips
		//lint:ignore guardloop bounded by the terms inside a one-df band, then (below) by one record's term flips × capped posting lists; a single-record mutation never approaches batch scale
		for f := min(maxBefore, maxAfter) + 1; f <= max(maxBefore, maxAfter) && int(f) < len(ix.dfBucket); f++ {
			for _, t := range ix.dfBucket[f] {
				if !slices.ContainsFunc(diff, func(fl termFlip) bool { return fl.iid == t }) {
					flips = append(flips, ix.flipOf(t, maxBefore))
				}
			}
		}
	}
	ix.flips = flips

	// Swap the record body.
	ix.terms[rid] = newTerms
	ix.sources[rid] = source

	// Diff each candidate term's eligibility, patch docLens for kept
	// flips, and collect the affected records (deduplicated through
	// marked, which is cleared again before the rows are recomputed).
	affected := ix.affected[:0]
	for _, fl := range flips {
		f := ix.df[fl.iid]
		isKept := ix.keptAt(fl.iid, f, maxAfter)
		isElig := ix.eligAt(fl.iid, f, maxAfter)
		if isKept != fl.wasKept {
			d := int32(1)
			if !isKept {
				d = -1
			}
			for _, q := range ix.postings[fl.iid] {
				ix.docLen[q] += d
			}
			ix.denseValid = false
		}
		if isKept != fl.wasKept || isElig != fl.was {
			for _, q := range ix.postings[fl.iid] {
				if !ix.marked[q] {
					ix.marked[q] = true
					affected = append(affected, q)
				}
			}
		}
	}
	// The mutated record's own docLen is recomputed outright, and its row
	// is always re-derived. A term leaving rid changes no other record's
	// docLen, and a deleted record sits in no posting list any more.
	if keep {
		ix.docLen[rid] = ix.countKept(newTerms, maxAfter)
		if !ix.marked[rid] {
			affected = append(affected, rid)
		}
	}
	for _, q := range affected {
		ix.marked[q] = false
	}
	// Deterministic processing order (ascending rid) so the Delta's pair
	// lists are reproducible; the resulting table state is order-free.
	slices.Sort(affected)
	ix.affected = affected

	if !keep {
		// Removal: drop every pair involving rid directly. They are
		// reported after the patched rows' changes.
		removed := ix.removed[:0]
		for _, p := range ix.adj[rid] {
			key := Key(rid, p)
			if _, ok := ix.pairs[key]; ok {
				delete(ix.pairs, key)
				removed = append(removed, [2]string{id, ix.extID[p]})
				ix.touch(p)
			}
		}
		ix.removed = removed
		ix.adj[rid] = nil
		ix.touch(rid)
		d := ix.recomputeRows(affected, maxAfter)
		d.RemovedPairs = append(d.RemovedPairs, removed...)
		d.Touched = append(d.Touched, id)
		return d
	}

	ix.touch(rid)
	return ix.recomputeRows(affected, maxAfter)
}

// recomputeRows re-derives the candidate rows of the affected records (in
// the given order), patching the pair table in place, or falls back to a
// full rebuild when the affected set is a large fraction of the corpus.
func (ix *Index) recomputeRows(rids []int32, maxDF int32) Delta {
	if len(rids) == 0 {
		return Delta{}
	}
	if len(rids) > ix.rebuildThreshold() {
		ix.rebuildPairs(maxDF)
		return Delta{Rebuilt: true}
	}
	d := Delta{Touched: make([]string, 0, len(rids))}
	for _, r := range rids {
		ix.touch(r)
		d.Touched = append(d.Touched, ix.extID[r])
		ix.recomputeRow(r, maxDF, &d)
	}
	return d
}

// rebuildThreshold is the affected-set size above which patching rows one
// by one loses to rebuilding the pair table outright.
func (ix *Index) rebuildThreshold() int {
	t := ix.live / 8
	if t < 1024 {
		t = 1024
	}
	return t
}

// recomputeRow re-derives every candidate pair involving record r, diffs
// it against the stored table and appends the pairs it created and
// destroyed to d.
func (ix *Index) recomputeRow(r int32, maxDF int32, d *Delta) {
	cnt, marked := ix.cnt, ix.marked
	minShared := ix.minSharedFloor()
	cross := ix.cfg.Block.CrossSourceOnly

	touched := ix.row[:0]
	//lint:ignore guardloop bounded by one record's eligible terms × MaxTermRecords-capped posting lists; large affected sets take the rebuildPairs path, which polls
	for _, t := range ix.terms[r] {
		if !ix.eligAt(t, ix.df[t], maxDF) {
			continue
		}
		for _, q := range ix.postings[t] {
			if q == r {
				continue
			}
			if cross && ix.sources[q] == ix.sources[r] {
				continue
			}
			if cnt[q] == 0 {
				touched = append(touched, q)
			}
			cnt[q]++
		}
	}
	dlr := ix.docLen[r]
	for _, q := range touched {
		s := cnt[q]
		cnt[q] = 0
		if s < minShared {
			continue
		}
		if ix.cfg.Block.MinJaccard > 0 {
			union := int(dlr) + int(ix.docLen[q]) - int(s)
			if union <= 0 || float64(s)/float64(union) < ix.cfg.Block.MinJaccard {
				continue
			}
		}
		key := Key(r, q)
		if _, ok := ix.pairs[key]; !ok {
			// Stale tombstones from earlier removals may linger in either
			// adjacency; re-adding without the membership check would
			// duplicate entries that then survive compaction forever.
			if !slices.Contains(ix.adj[r], q) {
				ix.adj[r] = append(ix.adj[r], q)
			}
			if !slices.Contains(ix.adj[q], r) {
				ix.adj[q] = append(ix.adj[q], r)
			}
			d.AddedPairs = append(d.AddedPairs, ix.pairIDs(r, q))
			ix.touch(q)
		}
		ix.pairs[key] = s
		marked[q] = true
	}
	// Drop stored pairs the fresh row no longer produces, compacting the
	// adjacency as we go.
	keepAdj := ix.adj[r][:0]
	for _, p := range ix.adj[r] {
		key := Key(r, p)
		if _, ok := ix.pairs[key]; !ok {
			continue // stale entry from an earlier removal
		}
		if marked[p] {
			keepAdj = append(keepAdj, p)
			continue
		}
		delete(ix.pairs, key)
		d.RemovedPairs = append(d.RemovedPairs, ix.pairIDs(r, p))
		ix.touch(p)
	}
	ix.adj[r] = keepAdj
	for _, q := range touched {
		marked[q] = false
	}
	ix.row = touched
}

// touch records that r's candidate row changed since the last Materialize.
func (ix *Index) touch(r int32) {
	if !ix.touchedMark[r] {
		ix.touchedMark[r] = true
		ix.touchedList = append(ix.touchedList, r)
	}
}

// pairIDs returns a pair's external IDs in (smaller rid, larger rid) order.
func (ix *Index) pairIDs(a, b int32) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{ix.extID[a], ix.extID[b]}
}

// rebuildPairs recomputes the whole survivor table from the live records —
// the fallback when a mutation's blast radius approaches the corpus.
func (ix *Index) rebuildPairs(maxDF int32) {
	clear(ix.pairs)
	for r := range ix.adj {
		ix.adj[r] = ix.adj[r][:0]
	}
	cnt := ix.cnt
	minShared := ix.minSharedFloor()
	cross := ix.cfg.Block.CrossSourceOnly
	// The rebuild runs to completion even under cancellation: a mutation
	// must leave a coherent table, and the work is bounded by the live
	// corpus. Resolve-level callers observe cancellation through their own
	// checkpoints.
	//lint:ignore guardloop bounded single-corpus rebuild; a partial table would corrupt the incremental invariant
	for r := range ix.terms {
		ri := int32(r)
		if ix.extID[r] == "" {
			continue
		}
		ix.touch(ri)
		touched := ix.row[:0]
		for _, t := range ix.terms[r] {
			if !ix.eligAt(t, ix.df[t], maxDF) {
				continue
			}
			for _, q := range ix.postings[t] {
				if q <= ri {
					continue
				}
				if cross && ix.sources[q] == ix.sources[ri] {
					continue
				}
				if cnt[q] == 0 {
					touched = append(touched, q)
				}
				cnt[q]++
			}
		}
		dlr := ix.docLen[r]
		for _, q := range touched {
			s := cnt[q]
			cnt[q] = 0
			if s < minShared {
				continue
			}
			if ix.cfg.Block.MinJaccard > 0 {
				union := int(dlr) + int(ix.docLen[q]) - int(s)
				if union <= 0 || float64(s)/float64(union) < ix.cfg.Block.MinJaccard {
					continue
				}
			}
			ix.pairs[Key(ri, q)] = s
			ix.adj[ri] = append(ix.adj[ri], q)
			ix.adj[q] = append(ix.adj[q], ri)
		}
		ix.row = touched
	}
}

// countKept counts the corpus-kept terms of a term set.
func (ix *Index) countKept(terms []int32, maxDF int32) int32 {
	var n int32
	for _, t := range terms {
		if ix.keptAt(t, ix.df[t], maxDF) {
			n++
		}
	}
	return n
}

// allocRid assigns a record handle for a new external ID.
func (ix *Index) allocRid(id string) int32 {
	var rid int32
	if n := len(ix.freeRid); n > 0 {
		rid = ix.freeRid[n-1]
		ix.freeRid = ix.freeRid[:n-1]
	} else {
		rid = int32(len(ix.extID))
		ix.extID = append(ix.extID, "")
		ix.terms = append(ix.terms, nil)
		ix.sources = append(ix.sources, 0)
		ix.docLen = append(ix.docLen, 0)
		ix.adj = append(ix.adj, nil)
		ix.cnt = append(ix.cnt, 0)
		ix.marked = append(ix.marked, false)
		ix.touchedMark = append(ix.touchedMark, false)
	}
	ix.extID[rid] = id
	ix.byID[id] = rid
	return rid
}

// releaseRid frees a record handle after deletion.
func (ix *Index) releaseRid(rid int32, id string) {
	ix.extID[rid] = ""
	ix.terms[rid] = nil
	ix.docLen[rid] = 0
	ix.adj[rid] = nil
	delete(ix.byID, id)
	ix.freeRid = append(ix.freeRid, rid)
}

// postingAdd inserts rid into a term's posting list (kept sorted) and
// bumps its df. Records loaded in handle order land past the tail, so the
// common case is a plain append.
func (ix *Index) postingAdd(t, rid int32) {
	p := ix.postings[t]
	if n := len(p); n == 0 || p[n-1] < rid {
		p = append(p, rid)
	} else {
		i, _ := slices.BinarySearch(p, rid)
		p = slices.Insert(p, i, rid)
	}
	ix.postings[t] = p
	ix.setDF(t, ix.df[t]+1)
}

// postingRemove deletes rid from a term's posting list and drops its df.
func (ix *Index) postingRemove(t, rid int32) {
	p := ix.postings[t]
	if i, ok := slices.BinarySearch(p, rid); ok {
		ix.postings[t] = slices.Delete(p, i, i+1)
		ix.setDF(t, ix.df[t]-1)
	}
}

// setDF sets term t's document frequency to f and moves the term to its
// new df bucket (swap-remove from the old one). Stopwords never enter the
// kept band, so they stay out of the buckets.
func (ix *Index) setDF(t, f int32) {
	old := ix.df[t]
	ix.df[t] = f
	if ix.stopped[t] {
		return
	}
	if old > 0 {
		b := ix.dfBucket[old]
		pos, last := ix.bucketPos[t], b[len(b)-1]
		b[pos] = last
		ix.bucketPos[last] = pos
		ix.dfBucket[old] = b[:len(b)-1]
	}
	if f > 0 {
		for int(f) >= len(ix.dfBucket) {
			ix.dfBucket = append(ix.dfBucket, nil)
		}
		ix.bucketPos[t] = int32(len(ix.dfBucket[f]))
		ix.dfBucket[f] = append(ix.dfBucket[f], t)
	}
}
