package textproc

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	tests := []struct {
		name string
		in   string
		opts TokenizeOptions
		want []string
	}{
		{
			name: "default splits on punctuation and lowercases",
			in:   "Sony PSLX350H, Turntable!",
			opts: DefaultTokenizeOptions(),
			want: []string{"sony", "pslx350h", "turntable"},
		},
		{
			name: "keeps digit tokens",
			in:   "call 2125551234 now",
			opts: DefaultTokenizeOptions(),
			want: []string{"call", "2125551234", "now"},
		},
		{
			name: "drops digit tokens when disabled",
			in:   "call 2125551234 now",
			opts: TokenizeOptions{Lowercase: true, MinLen: 2},
			want: []string{"call", "now"},
		},
		{
			name: "min length filter",
			in:   "a bc d ef",
			opts: TokenizeOptions{Lowercase: true, MinLen: 2, KeepDigits: true},
			want: []string{"bc", "ef"},
		},
		{
			name: "empty input",
			in:   "",
			opts: DefaultTokenizeOptions(),
			want: nil,
		},
		{
			name: "only punctuation",
			in:   "--- ,,, !!!",
			opts: DefaultTokenizeOptions(),
			want: nil,
		},
		{
			name: "preserves case when not lowering",
			in:   "Sony TV",
			opts: TokenizeOptions{MinLen: 2, KeepDigits: true},
			want: []string{"Sony", "TV"},
		},
		{
			name: "unicode letters survive",
			in:   "café naïve",
			opts: DefaultTokenizeOptions(),
			want: []string{"café", "naïve"},
		},
		{
			name: "min length counts runes, not bytes",
			in:   "北京 café ab 東京都",
			opts: TokenizeOptions{Lowercase: true, MinLen: 3, KeepDigits: true},
			want: []string{"café", "東京都"},
		},
		{
			name: "non-ASCII digits are digits",
			in:   "٣٤٥ ４２ abc٣",
			opts: TokenizeOptions{Lowercase: true, MinLen: 1},
			want: []string{"abc٣"},
		},
		{
			name: "case folding can shorten a token",
			in:   "\u0130STANBUL \u212Aelvin", // dotted capital I and the Kelvin sign
			opts: DefaultTokenizeOptions(),
			want: []string{"istanbul", "kelvin"},
		},
		{
			name: "trailing token flushed",
			in:   "abc def",
			opts: DefaultTokenizeOptions(),
			want: []string{"abc", "def"},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := Tokenize(tc.in, tc.opts)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Tokenize(%q) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

func TestTokenizeNeverPanicsAndTokensAreClean(t *testing.T) {
	f := func(s string) bool {
		toks := Tokenize(s, DefaultTokenizeOptions())
		for _, tok := range toks {
			if len(tok) == 0 {
				return false
			}
			if strings.ContainsAny(tok, " ,.!-") {
				return false
			}
			if tok != strings.ToLower(tok) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUniqueTokens(t *testing.T) {
	got := UniqueTokens([]string{"a", "b", "a", "c", "b"})
	want := []string{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("UniqueTokens = %v, want %v", got, want)
	}
	if got := UniqueTokens(nil); len(got) != 0 {
		t.Errorf("UniqueTokens(nil) = %v, want empty", got)
	}
}

func TestBuildCorpus(t *testing.T) {
	texts := []string{
		"sony turntable pslx350h",
		"sony turntable deluxe",
		"pioneer receiver vsx",
	}
	c := BuildCorpus(texts, CorpusOptions{Tokenize: DefaultTokenizeOptions()})
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumRecords() != 3 {
		t.Fatalf("NumRecords = %d, want 3", c.NumRecords())
	}
	id, ok := c.Index["sony"]
	if !ok {
		t.Fatal("term sony missing")
	}
	if c.DF[id] != 2 {
		t.Errorf("df(sony) = %d, want 2", c.DF[id])
	}
	shared := c.SharedTerms(0, 1)
	if len(shared) != 2 {
		t.Errorf("records 0,1 share %d terms, want 2 (sony, turntable)", len(shared))
	}
	if n := IntersectCount(c.Docs[0], c.Docs[2]); n != 0 {
		t.Errorf("records 0,2 share %d terms, want 0", n)
	}
}

func TestBuildCorpusFrequentTermFilter(t *testing.T) {
	// "common" appears in all 10 records and must be filtered at ratio 0.5.
	texts := make([]string, 10)
	for i := range texts {
		texts[i] = "common unique" + string(rune('a'+i))
	}
	c := BuildCorpus(texts, CorpusOptions{
		Tokenize:   DefaultTokenizeOptions(),
		MaxDFRatio: 0.5,
	})
	if _, ok := c.Index["common"]; ok {
		t.Error("frequent term 'common' should have been removed")
	}
	if c.NumTerms() != 10 {
		t.Errorf("NumTerms = %d, want 10 unique tokens", c.NumTerms())
	}
}

func TestBuildCorpusMinDF(t *testing.T) {
	texts := []string{"aa bb", "aa cc"}
	c := BuildCorpus(texts, CorpusOptions{
		Tokenize: DefaultTokenizeOptions(),
		MinDF:    2,
	})
	if c.NumTerms() != 1 {
		t.Fatalf("NumTerms = %d, want 1 (only 'aa' has df>=2)", c.NumTerms())
	}
	if c.Terms[0] != "aa" {
		t.Errorf("kept term = %q, want aa", c.Terms[0])
	}
}

func TestBuildCorpusDeterminism(t *testing.T) {
	texts := []string{"zebra apple", "apple mango", "mango zebra kiwi"}
	a := BuildCorpus(texts, DefaultCorpusOptions())
	b := BuildCorpus(texts, DefaultCorpusOptions())
	if !reflect.DeepEqual(a, b) {
		t.Error("BuildCorpus is not deterministic")
	}
	if !sort.StringsAreSorted(a.Terms) {
		t.Error("terms are not assigned in sorted order")
	}
}

func TestIntersectSortedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		a := randomSortedSet(rng, 30, 50)
		b := randomSortedSet(rng, 30, 50)
		got := IntersectSorted(a, b)
		want := naiveIntersect(a, b)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("IntersectSorted(%v,%v) = %v, want %v", a, b, got, want)
		}
		if IntersectCount(a, b) != len(want) {
			t.Fatalf("IntersectCount mismatch for %v,%v", a, b)
		}
	}
}

func randomSortedSet(rng *rand.Rand, maxLen, maxVal int) []int32 {
	n := rng.Intn(maxLen)
	set := make(map[int32]struct{})
	for i := 0; i < n; i++ {
		set[int32(rng.Intn(maxVal))] = struct{}{}
	}
	out := make([]int32, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func naiveIntersect(a, b []int32) []int32 {
	var out []int32
	for _, x := range a {
		for _, y := range b {
			if x == y {
				out = append(out, x)
			}
		}
	}
	return out
}

func TestValidateCatchesCorruption(t *testing.T) {
	c := BuildCorpus([]string{"aa bb", "bb cc"}, DefaultCorpusOptions())
	c.DF[0]++
	if err := c.Validate(); err == nil {
		t.Error("Validate should catch df corruption")
	}
}

func TestBuildCorpusStopwords(t *testing.T) {
	c := BuildCorpus(
		[]string{"acme inc widgets", "acme llc gadgets"},
		CorpusOptions{
			Tokenize:  DefaultTokenizeOptions(),
			Stopwords: []string{"INC", "llc"},
		},
	)
	if _, ok := c.Index["inc"]; ok {
		t.Error("stopword inc survived (case-insensitive match expected)")
	}
	if _, ok := c.Index["llc"]; ok {
		t.Error("stopword llc survived")
	}
	if _, ok := c.Index["acme"]; !ok {
		t.Error("non-stopword removed")
	}
}
