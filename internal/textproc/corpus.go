package textproc

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/guard"
	"repro/internal/parallel"
)

// Corpus is the tokenized view of a record collection. Term identifiers are
// dense indexes in [0, NumTerms), record token lists are sorted, de-duplicated
// term-ID sets. All downstream graph models (bipartite term/pair graph,
// record graph, term co-occurrence graph) are built from a Corpus.
type Corpus struct {
	// Terms maps term ID to surface form.
	Terms []string
	// Index maps surface form to term ID.
	Index map[string]int
	// Docs holds, per record, the sorted set of term IDs it contains.
	Docs [][]int32
	// Seqs holds, per record, the original token-ID sequence (with
	// duplicates, in order). Needed by the term co-occurrence graph of the
	// TextRank/TW-IDF baseline, which slides a window over the sequence.
	Seqs [][]int32
	// DF holds the document frequency of each term.
	DF []int
}

// NumRecords returns the number of records in the corpus.
func (c *Corpus) NumRecords() int { return len(c.Docs) }

// NumTerms returns the number of distinct terms in the corpus.
func (c *Corpus) NumTerms() int { return len(c.Terms) }

// CorpusOptions controls corpus construction.
type CorpusOptions struct {
	Tokenize TokenizeOptions
	// MaxDFRatio removes terms occurring in more than this fraction of
	// records ("remove the terms that are very frequent", §VII-A).
	// Zero or negative disables the filter.
	MaxDFRatio float64
	// MinDF removes terms occurring in fewer than MinDF records. Terms with
	// document frequency 1 connect no record pair and carry no signal for
	// entity resolution; the default of 0 keeps them (they are simply
	// isolated nodes in the bipartite graph).
	MinDF int
	// Stopwords are removed regardless of frequency — for domain knowledge
	// the df filter cannot see (e.g. "inc", "llc" in company data).
	Stopwords []string
	// Check, when non-nil, is polled once per chunk of records, so a
	// canceled run stops tokenizing promptly; BuildCorpus then returns nil
	// and the caller reads the cause from Check.Err().
	Check *guard.Checkpoint
	// Workers bounds the goroutines the builder fans out across; zero
	// selects GOMAXPROCS. Like Check, it changes only wall-clock time,
	// never the Corpus, so neither field is part of a snapshot key.
	Workers int
}

// DefaultCorpusOptions mirrors the paper's pre-processing: tokenize and
// remove very frequent terms.
func DefaultCorpusOptions() CorpusOptions {
	return CorpusOptions{
		Tokenize:   DefaultTokenizeOptions(),
		MaxDFRatio: 0.15,
	}
}

// corpusChunkRecords is the number of records one builder task tokenizes.
// It is a constant, so chunk boundaries depend only on the record count;
// the Corpus does not depend on them at all (see BuildCorpus).
const corpusChunkRecords = 8192

// BuildCorpus tokenizes every text and assembles the corpus, applying the
// frequent-term filter. Term IDs are assigned in lexicographic order so that
// corpus construction is deterministic regardless of input order of equal
// texts.
//
// The build runs in three stages over fixed-size chunks of records:
//
//  1. Tokenize, in parallel: each chunk interns its tokens into a
//     chunk-local vocabulary, counts chunk-local document frequencies and
//     stores the token IDs in one flat buffer.
//  2. Merge, serially in ascending chunk order: sum the document
//     frequencies per surface form, apply the filters and assign the
//     lexicographic term IDs.
//  3. Emit, in parallel: remap each chunk's IDs and slice every record's
//     Seqs and Docs entries out of one backing array per chunk.
//
// Every term ID and frequency is a function of the surface forms alone, so
// the Corpus is identical for every worker count and chunking. When
// opts.Check reports cancellation the build stops at the next chunk and
// BuildCorpus returns nil.
func BuildCorpus(texts []string, opts CorpusOptions) *Corpus {
	n := len(texts)
	chunks := make([]corpusChunk, (n+corpusChunkRecords-1)/corpusChunkRecords)
	parallel.ForGrain(opts.Workers, n, corpusChunkRecords, func(lo, hi int) {
		chunks[lo/corpusChunkRecords].tokenize(texts[lo:hi], opts.Tokenize, opts.Check)
	})
	if opts.Check.Err() != nil {
		return nil
	}
	c, toDense := mergeChunks(chunks, n, opts)
	if c == nil {
		return nil
	}
	parallel.ForGrain(opts.Workers, n, corpusChunkRecords, func(lo, hi int) {
		chunks[lo/corpusChunkRecords].emit(c.Docs[lo:hi], c.Seqs[lo:hi], toDense, opts.Check)
	})
	if opts.Check.Err() != nil {
		return nil
	}
	return c
}

// corpusChunk is one chunk's tokenization: its local vocabulary with
// chunk-local document frequencies, and the local ID of every token.
type corpusChunk struct {
	// terms maps local ID to surface form, in first-occurrence order.
	terms []string
	// df counts the chunk's records containing each local term.
	df []int32
	// ids holds every token's local ID; record r of the chunk owns
	// ids[offs[r]:offs[r+1]].
	ids  []int32
	offs []int32
	// global maps local ID to merge ID (see mergeChunks).
	global []int32
}

// tokenize scans the chunk's texts. The vocabulary map lives only for the
// duration of the call: keeping every chunk's map alive until the merge
// inflates the build's peak memory (DESIGN.md §9.1). Document frequency is
// counted through a last-seen-record stamp per term, so no per-record set
// is built.
func (ch *corpusChunk) tokenize(texts []string, opts TokenizeOptions, check *guard.Checkpoint) {
	if check.Err() != nil {
		return
	}
	size := 0
	for _, t := range texts {
		size += len(t)
	}
	// Buffers are sized from the chunk's byte count (a token and its
	// separator take a few bytes, distinct terms somewhat more), so they
	// rarely grow.
	vocab := make(map[string]int32, size/16)
	ch.ids = make([]int32, 0, size/5)
	ch.offs = make([]int32, len(texts)+1)
	ch.terms = make([]string, 0, size/8)
	ch.df = make([]int32, 0, size/8)
	seen := make([]int32, 0, size/8) // 1 + the last chunk record containing each term
	for r, txt := range texts {
		stamp := int32(r + 1)
		s := newScanner(txt, opts)
		for tok, ok := s.next(); ok; tok, ok = s.next() {
			id, known := vocab[tok]
			if !known {
				id = int32(len(ch.terms))
				vocab[tok] = id
				ch.terms = append(ch.terms, tok)
				ch.df = append(ch.df, 0)
				seen = append(seen, 0)
			}
			if seen[id] != stamp {
				seen[id] = stamp
				ch.df[id]++
			}
			ch.ids = append(ch.ids, id)
		}
		ch.offs[r+1] = int32(len(ch.ids))
	}
}

// mergeChunks folds the chunk vocabularies in ascending chunk order into
// global document frequencies, applies the corpus filters and assigns the
// lexicographic term IDs. It returns the Corpus with Terms, Index and DF
// filled in (Docs and Seqs allocated, not yet populated) and toDense, which
// maps a merge ID to its term ID, or -1 for a filtered term. It returns a
// nil Corpus when check reports cancellation.
func mergeChunks(chunks []corpusChunk, n int, opts CorpusOptions) (*Corpus, []int32) {
	// The merge map becomes Corpus.Index: its values are merge IDs until
	// the term IDs are known, then rewritten in place.
	index := make(map[string]int)
	var surfaces []string
	var df []int
	for ci := range chunks {
		if opts.Check.Err() != nil {
			return nil, nil
		}
		ch := &chunks[ci]
		ch.global = make([]int32, len(ch.terms))
		for l, t := range ch.terms {
			g, ok := index[t]
			if !ok {
				g = len(surfaces)
				index[t] = g
				surfaces = append(surfaces, t)
				df = append(df, 0)
			}
			df[g] += int(ch.df[l])
			ch.global[l] = int32(g)
		}
		ch.terms, ch.df = nil, nil
	}

	stop := make(map[string]struct{}, len(opts.Stopwords))
	for _, w := range opts.Stopwords {
		stop[strings.ToLower(w)] = struct{}{}
	}
	maxDF := n + 1
	if opts.MaxDFRatio > 0 {
		maxDF = int(opts.MaxDFRatio * float64(n))
		if maxDF < 2 {
			maxDF = 2 // never filter so hard that nothing can match
		}
	}
	kept := make([]string, 0, len(surfaces))
	toDense := make([]int32, len(surfaces))
	for g, t := range surfaces {
		toDense[g] = -1
		if f := df[g]; f > maxDF || f < opts.MinDF {
			delete(index, t)
			continue
		}
		if _, banned := stop[t]; banned {
			delete(index, t)
			continue
		}
		kept = append(kept, t)
	}
	slices.Sort(kept)

	c := &Corpus{
		Terms: kept,
		Index: index,
		Docs:  make([][]int32, n),
		Seqs:  make([][]int32, n),
		DF:    make([]int, len(kept)),
	}
	for id, t := range kept {
		g := index[t]
		toDense[g] = int32(id)
		c.DF[id] = df[g]
		index[t] = id
	}
	return c, toDense
}

// emit writes the chunk's records into docs and seqs (the chunk's slices of
// Corpus.Docs and Corpus.Seqs). Both are cut from one backing array with
// full slice expressions, so no record can append into its neighbor.
func (ch *corpusChunk) emit(docs, seqs [][]int32, toDense []int32, check *guard.Checkpoint) {
	if check.Err() != nil {
		return
	}
	dense := ch.global
	for l, g := range dense {
		dense[l] = toDense[g]
	}
	kept := 0
	for _, l := range ch.ids {
		if dense[l] >= 0 {
			kept++
		}
	}
	// Seqs fill back[:kept]; each record's sorted unique set is at most
	// its sequence, so Docs fit in back[kept:].
	back := make([]int32, 2*kept)
	seqAt, docAt := 0, kept
	for r := range seqs {
		start := seqAt
		for _, l := range ch.ids[ch.offs[r]:ch.offs[r+1]] {
			if id := dense[l]; id >= 0 {
				back[seqAt] = id
				seqAt++
			}
		}
		seqs[r] = back[start:seqAt:seqAt]
		doc := append(back[docAt:docAt], seqs[r]...)
		slices.Sort(doc)
		doc = slices.Compact(doc)
		docs[r] = doc[:len(doc):len(doc)]
		docAt += len(doc)
	}
	ch.ids, ch.offs, ch.global = nil, nil, nil
}

// SharedTerms returns the sorted intersection of the term sets of records i
// and j. Both inputs are sorted, so this is a linear merge.
func (c *Corpus) SharedTerms(i, j int) []int32 {
	return IntersectSorted(c.Docs[i], c.Docs[j])
}

// IntersectSorted intersects two ascending int32 slices.
func IntersectSorted(a, b []int32) []int32 {
	var out []int32
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case a[x] < b[y]:
			x++
		case a[x] > b[y]:
			y++
		default:
			out = append(out, a[x])
			x++
			y++
		}
	}
	return out
}

// IntersectCount counts, without allocating, the size of the intersection of
// two ascending int32 slices.
func IntersectCount(a, b []int32) int {
	n := 0
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case a[x] < b[y]:
			x++
		case a[x] > b[y]:
			y++
		default:
			n++
			x++
			y++
		}
	}
	return n
}

// Validate performs internal consistency checks and returns an error
// describing the first violation found. It is used by tests and by the
// dataset loaders to fail fast on malformed input.
func (c *Corpus) Validate() error {
	if len(c.Terms) != len(c.DF) {
		return fmt.Errorf("textproc: %d terms but %d df entries", len(c.Terms), len(c.DF))
	}
	if len(c.Docs) != len(c.Seqs) {
		return fmt.Errorf("textproc: %d docs but %d seqs", len(c.Docs), len(c.Seqs))
	}
	//lint:ignore guardloop one linear pass over an already-built corpus; no unbounded work
	for i, doc := range c.Docs {
		for k, id := range doc {
			if id < 0 || int(id) >= len(c.Terms) {
				return fmt.Errorf("textproc: doc %d contains out-of-range term %d", i, id)
			}
			if k > 0 && doc[k-1] >= id {
				return fmt.Errorf("textproc: doc %d term set not strictly ascending", i)
			}
		}
	}
	df := make([]int, len(c.Terms))
	for _, doc := range c.Docs {
		for _, id := range doc {
			df[id]++
		}
	}
	for t, f := range df {
		if f != c.DF[t] {
			return fmt.Errorf("textproc: term %q df mismatch: stored %d, actual %d", c.Terms[t], c.DF[t], f)
		}
	}
	return nil
}
