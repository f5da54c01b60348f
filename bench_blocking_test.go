package er

// Corpus-build and blocking-layer benchmarks at retrieval scale. Internal
// (package er) so they can reach the same corpus options the resolve path
// derives, keeping the measured work identical to what a real resolve
// performs.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/blocking"
	"repro/internal/textproc"
)

// BenchmarkBlocking100k measures batch candidate generation on a
// 100000-record synthetic corpus across worker counts. The corpus is
// tokenized once outside the timer, so the samples isolate the blocking
// scan: per-shard counting-sort enumeration over the inverted index plus
// graph assembly. The output is bit-identical at every worker count
// (TestBuildGraphMatchesReference), so the workers=N samples are directly
// comparable; erbenchjson derives speedup_vs_1_worker from them and
// serial_speedup_vs_baseline against the pre-refactor single-pass scan
// committed in results/bench_baseline_seed.txt. Skipped under -short:
// the 100k corpus setup alone is seconds-scale.
func BenchmarkBlocking100k(b *testing.B) {
	if testing.Short() {
		b.Skip("100k corpus setup is seconds-scale; skipped under -short")
	}
	d := SyntheticDataset(SyntheticConfig{
		Records:       100000,
		DuplicateRate: 0.3,
		VocabSize:     50000,
	})
	opts := DefaultOptions()
	c := textproc.BuildCorpus(d.ds.Texts(), opts.corpusOptions())
	bopts := blocking.Options{
		CrossSourceOnly: d.ds.NumSources > 1,
		MaxTermRecords:  opts.MaxTermRecords,
		MinSharedTerms:  opts.MinSharedTerms,
		MinJaccard:      opts.MinJaccard,
	}
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			bopts.Workers = w
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := blocking.Build(c, d.ds.Sources(), bopts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// corpusSink keeps the benchmarked build observable to the compiler.
var corpusSink *textproc.Corpus

// BenchmarkBuildCorpus100k measures the tokenize stage — the chunked
// corpus builder of internal/textproc — on the same 100000-record
// synthetic corpus across worker counts. The Corpus is identical at every
// worker count (TestBuildCorpusMatchesReference), so the workers=N samples
// are directly comparable. Skipped under -short: the 100k corpus setup is
// seconds-scale.
func BenchmarkBuildCorpus100k(b *testing.B) {
	if testing.Short() {
		b.Skip("100k corpus setup is seconds-scale; skipped under -short")
	}
	d := SyntheticDataset(SyntheticConfig{
		Records:       100000,
		DuplicateRate: 0.3,
		VocabSize:     50000,
	})
	texts := d.ds.Texts()
	copts := DefaultOptions().corpusOptions()
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			copts.Workers = w
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				corpusSink = textproc.BuildCorpus(texts, copts)
			}
		})
	}
}

// BenchmarkCollectionBulkLoad100k measures the streaming bulk load: the
// same 100000-record synthetic corpus upserted one record at a time into an
// empty Collection, the path every erserve snapshot restore and the
// stream-100k benchmark setup take. Besides ns/op (one whole load) it
// reports the mean Upsert time of each quarter of the load as
// upsert_us_q1..q4: a load that costs each upsert its blast radius keeps
// the quarters level, while any per-upsert work that grows with the
// corpus makes them climb. Skipped under -short: one load is
// seconds-scale.
func BenchmarkCollectionBulkLoad100k(b *testing.B) {
	if testing.Short() {
		b.Skip("100k bulk load is seconds-scale; skipped under -short")
	}
	d := SyntheticDataset(SyntheticConfig{
		Records:       100000,
		DuplicateRate: 0.3,
		VocabSize:     50000,
	})
	n := d.NumRecords()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("r%06d", i)
	}
	opts := DefaultOptions()
	var quarter [4]time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col, err := NewCollection(opts)
		if err != nil {
			b.Fatal(err)
		}
		for q := range quarter {
			start := time.Now()
			for r := q * n / 4; r < (q+1)*n/4; r++ {
				col.Upsert(ids[r], Record{Text: d.Text(r)})
			}
			quarter[q] += time.Since(start)
		}
	}
	for q, wall := range quarter {
		b.ReportMetric(float64(wall.Microseconds())/float64(b.N*(n/4)), fmt.Sprintf("upsert_us_q%d", q+1))
	}
}

// BenchmarkCollectionRefresh100k measures the warm delta path: the same
// 100000-record synthetic corpus, loaded into a Collection with its
// entity labels and cold-resolved outside the timer; each iteration then
// applies 50 seeded mutations (half text revisions that append a fresh
// token, a quarter deletions, a quarter re-insertions of the most recently
// deleted record at its original text) and resolves. Besides ns/op (one
// refresh) it reports from Result.Trace the mean materialize stage wall as
// materialize_ms and the mean engine.DeltaFuse wall (its partition and
// deltafuse stages) as deltafuse_ms. Skipped under -short: the load and
// cold resolve are seconds-scale.
func BenchmarkCollectionRefresh100k(b *testing.B) {
	if testing.Short() {
		b.Skip("100k load and cold resolve are seconds-scale; skipped under -short")
	}
	d := SyntheticDataset(SyntheticConfig{
		Records:       100000,
		DuplicateRate: 0.3,
		VocabSize:     50000,
	})
	n := d.NumRecords()
	ids := make([]string, n)
	recs := make([]Record, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("r%06d", i)
		recs[i] = Record{Text: d.Text(i), Entity: fmt.Sprint(d.ds.Records[i].EntityID)}
	}
	col, err := NewCollection(DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	for i, id := range ids {
		col.Upsert(id, recs[i])
	}
	if _, err := col.Resolve(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	live := make([]int, n)
	for i := range live {
		live[i] = i
	}
	var deleted []int
	rev := 0
	mutate := func() {
		switch r := rng.Intn(4); {
		case r < 2 || (r == 3 && len(deleted) == 0):
			i := live[rng.Intn(len(live))]
			rev++
			col.Upsert(ids[i], Record{Text: fmt.Sprintf("%s rev%d", recs[i].Text, rev), Entity: recs[i].Entity})
		case r == 2:
			k := rng.Intn(len(live))
			i := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			deleted = append(deleted, i)
			col.Delete(ids[i])
		default:
			i := deleted[len(deleted)-1]
			deleted = deleted[:len(deleted)-1]
			live = append(live, i)
			col.Upsert(ids[i], recs[i])
		}
	}
	var materialize, deltafuse time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for k := 0; k < 50; k++ {
			mutate()
		}
		res, err := col.Resolve()
		if err != nil {
			b.Fatal(err)
		}
		if st := res.Trace.Find("materialize"); st != nil {
			materialize += st.Wall
		}
		for _, stage := range []string{"partition", "deltafuse"} {
			if st := res.Trace.Find(stage); st != nil {
				deltafuse += st.Wall
			}
		}
	}
	b.ReportMetric(float64(materialize.Microseconds())/1e3/float64(b.N), "materialize_ms")
	b.ReportMetric(float64(deltafuse.Microseconds())/1e3/float64(b.N), "deltafuse_ms")
}
