package textproc

import (
	"sort"
	"strings"
	"unicode"
)

// The serial tokenizer and corpus builder the chunked builder replaced,
// kept verbatim as the oracle of the equivalence tests: the production
// path must produce exactly these tokens and exactly this Corpus.

// referenceTokenize is the historical Tokenize: lowercase the whole text,
// then cut it at every rune that is not a letter or a digit.
func referenceTokenize(text string, opts TokenizeOptions) []string {
	if opts.Lowercase {
		text = strings.ToLower(text)
	}
	var tokens []string
	start := -1
	flush := func(end int) {
		if start < 0 {
			return
		}
		tok := text[start:end]
		start = -1
		if len([]rune(tok)) < opts.MinLen {
			return
		}
		if !opts.KeepDigits && referenceAllDigits(tok) {
			return
		}
		tokens = append(tokens, tok)
	}
	for i, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		flush(i)
	}
	flush(len(text))
	return tokens
}

func referenceAllDigits(s string) bool {
	for _, r := range s {
		if !unicode.IsDigit(r) {
			return false
		}
	}
	return len(s) > 0
}

// referenceBuildCorpus is the historical serial BuildCorpus: a global df
// map, one term set and one sort per record.
func referenceBuildCorpus(texts []string, opts CorpusOptions) *Corpus {
	n := len(texts)
	tokenized := make([][]string, n)
	df := make(map[string]int)
	for i, txt := range texts {
		toks := referenceTokenize(txt, opts.Tokenize)
		tokenized[i] = toks
		for _, t := range UniqueTokens(toks) {
			df[t]++
		}
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
	minDF := opts.MinDF

	kept := make([]string, 0, len(df))
	for t, f := range df {
		if f > maxDF || f < minDF {
			continue
		}
		if _, banned := stop[t]; banned {
			continue
		}
		kept = append(kept, t)
	}
	sort.Strings(kept)

	c := &Corpus{
		Terms: kept,
		Index: make(map[string]int, len(kept)),
		Docs:  make([][]int32, n),
		Seqs:  make([][]int32, n),
		DF:    make([]int, len(kept)),
	}
	for id, t := range kept {
		c.Index[t] = id
	}
	for i, toks := range tokenized {
		seq := make([]int32, 0, len(toks))
		set := make(map[int32]struct{}, len(toks))
		for _, t := range toks {
			id, ok := c.Index[t]
			if !ok {
				continue
			}
			seq = append(seq, int32(id))
			set[int32(id)] = struct{}{}
		}
		doc := make([]int32, 0, len(set))
		for id := range set {
			doc = append(doc, id)
		}
		sort.Slice(doc, func(a, b int) bool { return doc[a] < doc[b] })
		c.Docs[i] = doc
		c.Seqs[i] = seq
	}
	for _, doc := range c.Docs {
		for _, id := range doc {
			c.DF[id]++
		}
	}
	return c
}
