package index

import (
	"slices"
	"strings"
)

// pairState is one candidate pair's carried derivation: its record handles
// (a < b) and the eligible terms the two records share, in lexicographic
// vocabulary order. terms[0] is the pair's first eligible shared term, the
// one under which the batch enumeration assigns it a pair-node ID.
type pairState struct {
	a, b  int32
	terms []int32
}

// materializeScratch is Materialize's reusable working memory. Every
// slice is rewritten before it is read, so nothing leaks across calls.
type materializeScratch struct {
	posOf         []int32 // rid -> record position
	lo, hi        []int32 // pair state -> endpoint positions, lo < hi
	first, idOf   []int32 // pair state -> dense first term / pair-node ID
	byKey, byTerm []int32 // pair states in key order / pair-node order
	cnt           []int32 // counting-sort buckets
}

// resize returns s with length n, reallocating only when it lacks the
// capacity. The contents are unspecified.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n, n+n/4)
	}
	return s[:n]
}

// placeSorted folds fresh, sorted by name, into base, sorted by name, and
// returns the merged slice (base's backing array, grown if needed). Each
// fresh element is placed by binary search from the largest down, so k
// fresh elements cost O(k log n) name comparisons plus one pass of
// integer moves — not the n comparisons of a linear merge. Names must be
// unique across both slices.
func placeSorted(base, fresh []int32, name func(int32) string) []int32 {
	hi := len(base)
	out := slices.Grow(base, len(fresh))[:hi+len(fresh)]
	// The base elements above fresh[j]'s slot move up by the j+1 fresh
	// elements at or below it.
	for j := len(fresh) - 1; j >= 0; j-- {
		at, _ := slices.BinarySearchFunc(out[:hi], name(fresh[j]), func(e int32, s string) int {
			return strings.Compare(name(e), s)
		})
		copy(out[at+j+1:hi+j+1], out[at:hi])
		out[at+j] = fresh[j]
		hi = at
	}
	return out
}

// ensureSorted maintains the lexicographic vocabulary order. Surfaces are
// interned append-only (a deleted record's terms keep their slot with
// DF 0), so ix.sortedIIDs always covers exactly the first len(sortedIIDs)
// intern IDs: only the surfaces interned since the last call need sorting
// and placing, so a handful of new terms costs O(new log V) comparisons
// plus an O(V) integer pass to renumber the ranks.
func (ix *Index) ensureSorted() {
	if !ix.vocabDirty && len(ix.sortedIIDs) == len(ix.surfaces) {
		return
	}
	surface := func(iid int32) string { return ix.surfaces[iid] }
	fresh := make([]int32, len(ix.surfaces)-len(ix.sortedIIDs))
	for i := range fresh {
		fresh[i] = int32(len(ix.sortedIIDs) + i)
	}
	slices.SortFunc(fresh, func(a, b int32) int {
		return strings.Compare(ix.surfaces[a], ix.surfaces[b])
	})
	ix.sortedIIDs = placeSorted(ix.sortedIIDs, fresh, surface)
	ix.rankOf = resize(ix.rankOf, len(ix.surfaces))
	for pos, iid := range ix.sortedIIDs {
		ix.rankOf[iid] = int32(pos)
	}
	ix.vocabDirty = false
}

// ensureOrder brings the ascending-external-ID record order up to date:
// deleted handles are filtered out and the handles inserted since the
// last call are sorted among themselves and placed (placeSorted), so a
// refresh of k inserts costs O(k log n) comparisons instead of a full
// string sort. A reused handle counts as inserted: it is dropped from its
// old slot and placed again by its new ID.
func (ix *Index) ensureOrder() {
	if !ix.orderDirty && len(ix.orderNew) == 0 {
		return
	}
	extID := func(rid int32) string { return ix.extID[rid] }
	marked := ix.marked
	fresh := ix.orderNew[:0]
	for _, r := range ix.orderNew {
		if ix.extID[r] != "" && !marked[r] {
			marked[r] = true
			fresh = append(fresh, r)
		}
	}
	slices.SortFunc(fresh, func(a, b int32) int {
		return strings.Compare(ix.extID[a], ix.extID[b])
	})
	order := ix.order[:0]
	for _, r := range ix.order {
		if ix.extID[r] != "" && !marked[r] {
			order = append(order, r)
		}
	}
	ix.order = placeSorted(order, fresh, extID)
	for _, r := range fresh {
		marked[r] = false
	}
	ix.orderNew = fresh[:0]
	ix.orderDirty = false
}

// ensureDense numbers the corpus-kept terms densely in lexicographic order
// — textproc.BuildCorpus's term IDs — unless no kept status changed since
// the last numbering.
func (ix *Index) ensureDense(maxDF int32) {
	if ix.denseValid {
		return
	}
	denseOf := resize(ix.denseOf, len(ix.surfaces))
	nt := int32(0)
	for _, iid := range ix.sortedIIDs {
		if ix.keptAt(iid, ix.df[iid], maxDF) {
			denseOf[iid] = nt
			nt++
		} else {
			denseOf[iid] = -1
		}
	}
	ix.denseOf, ix.numTerms = denseOf, int(nt)
	ix.denseValid = true
}

// appendShared appends the eligible terms records a and b share to dst, in
// lexicographic vocabulary order.
func (ix *Index) appendShared(dst []int32, a, b, maxDF int32) []int32 {
	ta, tb := ix.terms[a], ix.terms[b]
	start := len(dst)
	x, y := 0, 0
	for x < len(ta) && y < len(tb) {
		switch {
		case ta[x] < tb[y]:
			x++
		case ta[x] > tb[y]:
			y++
		default:
			if t := ta[x]; ix.eligAt(t, ix.df[t], maxDF) {
				dst = append(dst, t)
			}
			x++
			y++
		}
	}
	// Term handles are in intern order; a pair shares a few terms, so an
	// insertion sort by vocabulary rank is the cheapest reorder.
	s := dst[start:]
	//lint:ignore guardloop bounded by the few terms one pair shares
	for i := 1; i < len(s); i++ {
		v := s[i]
		rv := ix.rankOf[v]
		j := i - 1
		for j >= 0 && ix.rankOf[s[j]] > rv {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
	return dst
}

// derivePairs brings the carried pair states up to date. A pair's
// eligible shared terms can have changed only if one of its endpoints was
// touched: every mutation touches the records whose rows it recomputed,
// the partners of every pair it created or destroyed, and every holder of
// a term whose eligibility flipped, and a pair-table rebuild touches every
// record. So the pairs next to touched records are dropped and re-derived
// from the touched rows, and every other pair keeps its state. Before the
// first call every record is touched, so that call derives them all.
func (ix *Index) derivePairs(maxDF int32) {
	touched := ix.touchedMark
	states := ix.pairStates[:0]
	for _, s := range ix.pairStates {
		if !touched[s.a] && !touched[s.b] {
			states = append(states, s)
		}
	}
	// A pair with both endpoints touched is derived once, from its smaller
	// handle. The adjacency may hold stale partners; the pair table decides.
	var buf []int32
	//lint:ignore guardloop bounded by the touched records' candidate rows: the mutations' blast radius, or after a rebuild the already-filtered pair table
	for _, r := range ix.touchedList {
		if ix.extID[r] == "" {
			continue
		}
		for _, p := range ix.adj[r] {
			if touched[p] && p < r {
				continue
			}
			key := Key(r, p)
			if _, ok := ix.pairs[key]; !ok {
				continue
			}
			a, b := int32(key>>32), int32(key&0xffffffff)
			start := len(buf)
			buf = ix.appendShared(buf, a, b, maxDF)
			states = append(states, pairState{a: a, b: b, terms: buf[start:len(buf):len(buf)]})
		}
	}
	ix.pairStates = states
}

// countingSort stably orders the elements of src by key[e] ∈ [0, len(cnt)-1)
// into dst, using cnt as bucket scratch.
func countingSort(dst, src, key, cnt []int32) {
	clear(cnt)
	for _, e := range src {
		cnt[key[e]+1]++
	}
	for b := 1; b < len(cnt); b++ {
		cnt[b] += cnt[b-1]
	}
	for _, e := range src {
		dst[cnt[key[e]]] = e
		cnt[key[e]]++
	}
}

// Materialize assembles the candidate Graph over the live records in
// ascending external-ID order — bit-identical to BuildGraph over
// textproc.BuildCorpus of the same records — and drains the touched-record
// set accumulated since the previous call.
//
// A warm call re-derives only the pairs next to touched records (see
// derivePairs); the rest is flat O(records + pairs + terms) work with no
// comparison sort: pair-node IDs follow (first eligible shared term, pair
// key), which three stable counting sorts produce — by larger endpoint
// position, by smaller endpoint position, then by dense first term — and
// TermPairs is laid out by a counting sort over the key order.
func (ix *Index) Materialize() *View {
	ix.ensureSorted()
	ix.ensureOrder()
	maxDF := ix.maxKeptDF()
	ix.ensureDense(maxDF)
	n, nt := len(ix.order), ix.numTerms
	m := &ix.mat

	m.posOf = resize(m.posOf, len(ix.extID))
	ids := make([]string, n)
	sources := make([]int, n)
	for pos, rid := range ix.order {
		m.posOf[rid] = int32(pos)
		ids[pos] = ix.extID[rid]
		sources[pos] = int(ix.sources[rid])
	}
	touched := make([]int, 0, len(ix.touchedList))
	for _, r := range ix.touchedList {
		if ix.extID[r] != "" {
			touched = append(touched, int(m.posOf[r]))
		}
	}
	slices.Sort(touched)

	ix.derivePairs(maxDF)
	for _, r := range ix.touchedList {
		ix.touchedMark[r] = false
	}
	ix.touchedList = ix.touchedList[:0]

	g := ix.assemble(n, nt)
	return &View{Graph: g, Sources: sources, IDs: ids, Touched: touched}
}

// assemble lays the carried pair states out as a Graph over n records and
// nt dense terms.
func (ix *Index) assemble(n, nt int) *Graph {
	states, m := ix.pairStates, &ix.mat
	np := len(states)
	m.lo, m.hi = resize(m.lo, np), resize(m.hi, np)
	m.first, m.idOf = resize(m.first, np), resize(m.idOf, np)
	m.byKey, m.byTerm = resize(m.byKey, np), resize(m.byTerm, np)
	m.cnt = resize(m.cnt, max(n, nt)+1)
	total := 0
	for e, s := range states {
		pa, pb := m.posOf[s.a], m.posOf[s.b]
		m.lo[e], m.hi[e] = min(pa, pb), max(pa, pb)
		m.first[e] = ix.denseOf[s.terms[0]]
		m.byTerm[e] = int32(e)
		total += len(s.terms)
	}
	// Key order (smaller position, then larger) by two stable passes, then
	// pair-node order by a stable pass over the first term.
	countingSort(m.byKey, m.byTerm, m.hi, m.cnt[:n+1])
	countingSort(m.byTerm, m.byKey, m.lo, m.cnt[:n+1])
	m.byKey, m.byTerm = m.byTerm, m.byKey
	countingSort(m.byTerm, m.byKey, m.first, m.cnt[:nt+1])

	g := &Graph{
		NumRecords:  n,
		NumTerms:    nt,
		Pairs:       make([]Pair, np),
		Index:       make(map[uint64]int32, np),
		TermPairs:   make([][]int32, nt),
		PairTermPtr: make([]int32, np+1),
		PairTerms:   make([]int32, total),
	}
	// Pair nodes with their ascending dense terms: vocabulary rank order is
	// dense order, so each carried term list maps over as is.
	off := int32(0)
	//lint:ignore guardloop output-sized layout of the already-derived pairs; no candidate enumeration happens here
	for id, e := range m.byTerm {
		lo, hi := m.lo[e], m.hi[e]
		g.Pairs[id] = Pair{I: lo, J: hi}
		g.Index[Key(lo, hi)] = int32(id)
		m.idOf[e] = int32(id)
		for _, t := range states[e].terms {
			g.PairTerms[off] = ix.denseOf[t]
			off++
		}
		g.PairTermPtr[id+1] = off
	}
	// TermPairs: each term's pairs in key order, by a counting sort of the
	// (term, pair) references emitted in key order into one backing array.
	cnt := m.cnt[:nt+1]
	clear(cnt)
	for _, t := range g.PairTerms {
		cnt[t+1]++
	}
	for t := 1; t <= nt; t++ {
		cnt[t] += cnt[t-1]
	}
	backing := make([]int32, total)
	for _, e := range m.byKey {
		id := m.idOf[e]
		for _, t := range g.PairTerms[g.PairTermPtr[id]:g.PairTermPtr[id+1]] {
			backing[cnt[t]] = id
			cnt[t]++
		}
	}
	start := int32(0)
	for t := 0; t < nt; t++ {
		if end := cnt[t]; end > start {
			g.TermPairs[t] = backing[start:end:end]
			start = end
		}
	}
	return g
}
