package textproc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/guard"
)

// randomTexts generates n record texts over a small Zipf-ish vocabulary
// mixing case, non-ASCII letters and digits, numeric and one-letter
// fragments, plus empty and separator-only records.
func randomTexts(rng *rand.Rand, n int) []string {
	words := []string{
		"sony", "Sony", "SONY", "turntable", "pslx350h", "PSLX350H", "caffè", "CAFFÈ",
		"北京", "naïve", "straße", "İstanbul", "\u212Aelvin", "123", "2125551234", "٣٤٥",
		"x", "a1", "inc", "LLC", "ǅungla", "x²", "1999", "q",
	}
	seps := []string{" ", ", ", "-", " & ", "/", "  ", "\t", "·"}
	texts := make([]string, n)
	for i := range texts {
		switch rng.Intn(20) {
		case 0:
			continue // empty record
		case 1:
			texts[i] = " --- ,,, !!! " // no tokens at all
			continue
		}
		var sb strings.Builder
		for k := rng.Intn(12); k >= 0; k-- {
			if rng.Intn(4) == 0 {
				fmt.Fprintf(&sb, "w%d", rng.Intn(3*n+1)) // mostly unique codes
			} else {
				sb.WriteString(words[rng.Intn(1+rng.Intn(len(words)))])
			}
			sb.WriteString(seps[rng.Intn(len(seps))])
		}
		texts[i] = sb.String()
	}
	return texts
}

// TestBuildCorpusMatchesReference is the chunked builder's oracle: at every
// worker count its Corpus must be reflect.DeepEqual to the historical
// serial builder's — Terms, Index, Docs, Seqs and DF, nil-ness included —
// across option sets and record counts below one chunk, at exactly one
// chunk and spanning chunk boundaries.
func TestBuildCorpusMatchesReference(t *testing.T) {
	optionSets := map[string]CorpusOptions{
		"default": DefaultCorpusOptions(),
		"no-filter": {
			Tokenize: TokenizeOptions{MinLen: 1, KeepDigits: true},
		},
		"tight-df": {
			Tokenize:   TokenizeOptions{Lowercase: true, MinLen: 3},
			MaxDFRatio: 0.01,
			MinDF:      2,
		},
		"stopwords": {
			Tokenize:   DefaultTokenizeOptions(),
			MaxDFRatio: 0.3,
			MinDF:      1,
			Stopwords:  []string{"INC", "llc", "Sony", "absent"},
		},
	}
	sizes := []int{0, 1, 37, corpusChunkRecords, 2*corpusChunkRecords + 17}
	rng := rand.New(rand.NewSource(12))
	for _, n := range sizes {
		texts := randomTexts(rng, n)
		for name, opts := range optionSets {
			want := referenceBuildCorpus(texts, opts)
			for _, w := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("n=%d/%s/workers=%d", n, name, w), func(t *testing.T) {
					o := opts
					o.Workers = w
					got := BuildCorpus(texts, o)
					if err := got.Validate(); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Terms, want.Terms) {
						t.Fatalf("Terms differ: %d vs %d terms", len(got.Terms), len(want.Terms))
					}
					if !reflect.DeepEqual(got.Index, want.Index) {
						t.Fatal("Index differs")
					}
					if !reflect.DeepEqual(got.DF, want.DF) {
						t.Fatal("DF differs")
					}
					if !reflect.DeepEqual(got.Seqs, want.Seqs) {
						t.Fatal("Seqs differ")
					}
					if !reflect.DeepEqual(got.Docs, want.Docs) {
						t.Fatal("Docs differ")
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatal("Corpus differs")
					}
				})
			}
		}
	}
}

// TestBuildCorpusRecordsDoNotAlias pins the full slice expressions: a
// record's Docs and Seqs entries share one backing array per chunk, so
// appending to one record must never overwrite its neighbor.
func TestBuildCorpusRecordsDoNotAlias(t *testing.T) {
	c := BuildCorpus([]string{"aa bb aa", "cc dd", "ee"}, CorpusOptions{Tokenize: DefaultTokenizeOptions()})
	before := fmt.Sprint(c.Docs, c.Seqs)
	for i := range c.Docs {
		if cap(c.Docs[i]) != len(c.Docs[i]) || cap(c.Seqs[i]) != len(c.Seqs[i]) {
			t.Fatalf("record %d: capacity leaks past its entries", i)
		}
		_ = append(c.Docs[i], 99)
		_ = append(c.Seqs[i], 99)
	}
	if after := fmt.Sprint(c.Docs, c.Seqs); after != before {
		t.Fatalf("appending to one record changed another: %s -> %s", before, after)
	}
}

// TestBuildCorpusCanceled requires a build under a canceled checkpoint to
// report the cancellation by returning nil rather than a partial Corpus.
func TestBuildCorpusCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	check := guard.FromContext(ctx)
	texts := randomTexts(rand.New(rand.NewSource(3)), 3*corpusChunkRecords)
	opts := DefaultCorpusOptions()
	opts.Check = check
	if c := BuildCorpus(texts, opts); c != nil {
		t.Fatalf("canceled build returned a corpus with %d terms", c.NumTerms())
	}
	if err := check.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("check.Err() = %v, want context.Canceled", err)
	}
}
