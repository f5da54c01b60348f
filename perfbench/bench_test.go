package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n     int
		p, v  float64
		found bool
	}{
		{n: 39},                            // p75 leaves 9 beyond: no tail
		{n: 40, p: 75, v: 30, found: true}, // rank 30, 10 beyond
		{n: 99, p: 75, v: 75, found: true}, // p90 leaves 9 beyond
		{n: 100, p: 90, v: 90, found: true},
		{n: 999, p: 90, v: 900, found: true}, // p99 leaves 9 beyond
		{n: 1000, p: 99, v: 990, found: true},
	} {
		p, v, ok := tail(seq(tc.n))
		if ok != tc.found || (ok && (p != tc.p || v != tc.v)) {
			t.Errorf("tail(1..%d) = p%g %g %v, want p%g %g %v", tc.n, p, v, ok, tc.p, tc.v, tc.found)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g, want 2.5", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 40); p != 2 {
		t.Errorf("p40 of 1..5 = %g, want 2 (nearest rank)", p)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "op", Start: ms(0), End: ms(100)},
		// Two overlapping children cover [10, 50); a third covers [60, 70).
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(30), End: ms(50)},
		{ID: 4, Parent: 1, Name: "c", Start: ms(60), End: ms(70)},
		// A grandchild counts against its parent only.
		{ID: 5, Parent: 2, Name: "d", Start: ms(15), End: ms(25)},
		// A child running past its parent's end is clipped.
		{ID: 6, Parent: 4, Name: "e", Start: ms(65), End: ms(90)},
	}
	want := map[int64]time.Duration{1: ms(50), 2: ms(20), 3: ms(20), 4: ms(5), 5: ms(10), 6: ms(25)}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	agg := aggregate(spans)
	if got := selfMsPer(agg, "op", 2); got != 25 {
		t.Errorf("op self ms per op = %g, want 25", got)
	}
}

func TestTracerLinksChildren(t *testing.T) {
	tr := newTracer()
	op := tr.start("op", 0, 0)
	op.timed("child", func() {})
	op.end()
	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	child, root := spans[0], spans[1]
	if root.Op != root.ID || child.Op != root.ID || child.Parent != root.ID {
		t.Errorf("child %+v not linked to root %+v", child, root)
	}
	if got := opSpans(spans, "op"); len(got) != 2 {
		t.Errorf("opSpans kept %d spans, want 2", len(got))
	}
}

func TestSameSeedSameWorkload(t *testing.T) {
	a, b := genCorpus(7, 500), genCorpus(7, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds generated different corpora")
	}
	if reflect.DeepEqual(a, genCorpus(8, 500)) {
		t.Fatal("different seeds generated the same corpus")
	}
	ma, mb := newMutator(a, 7), newMutator(b, 7)
	for i := 0; i < 2000; i++ {
		if x, y := ma.next(), mb.next(); x != y {
			t.Fatalf("mutation %d differs: %+v vs %+v", i, x, y)
		}
	}
	pa, pb := newPutStream(7, 1, 2, 500), newPutStream(7, 1, 2, 500)
	for i := 0; i < 1000; i++ {
		ia, ra := pa.next()
		ib, rb := pb.next()
		if ia != ib || ra != rb || ia%2 != 1 {
			t.Fatalf("put %d: (%d,%d) vs (%d,%d); writer 1 of 2 owns odd records", i, ia, ra, ib, rb)
		}
	}
}

func TestMutationMix(t *testing.T) {
	m := newMutator(genCorpus(3, 1000), 3)
	var revisions, deletes, reinserts int
	for i := 0; i < 8000; i++ {
		mu := m.next()
		switch {
		case mu.delete:
			deletes++
		case strings.Contains(mu.text, " rev"):
			revisions++
		default:
			reinserts++
		}
	}
	if revisions < 3600 || deletes < 1600 || reinserts < 1600 {
		t.Errorf("mix %d revisions / %d deletes / %d re-inserts, want about 4000/2000/2000", revisions, deletes, reinserts)
	}
}

// TestSmoke runs every workload, untraced and traced, at a tiny scale with
// every check on.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads() {
		cfg := w.defaults
		cfg.seed, cfg.seconds, cfg.workDir = 5, 200*time.Millisecond, t.TempDir()
		cfg.minOps = 3
		switch {
		case cfg.clients > 0:
			cfg.records, cfg.resolveEvery = 400, 25
		default:
			cfg.records = 3000
		}
		t.Run(w.name, func(t *testing.T) {
			out, err := w.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			out.set("peak_rss_mb", peakRSSMB(), "MB", 1, "")
			assertResult(t, out, endToEnd, false)
			out, err = w.trace(cfg, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			assertResult(t, out, perLayer, true)
		})
	}
}

func assertResult(t *testing.T, out *outcome, table []metricSpec, traced bool) {
	t.Helper()
	res, err := out.result(table, traced)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, out.failures)
	}
	if len(res.Metrics) != len(table) {
		t.Errorf("reported %d metrics, want %d", len(res.Metrics), len(table))
	}
	if !traced {
		for name, v := range res.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s = %g; end-to-end metrics must be positive", name, v.Value)
			}
		}
	}
	var buf bytes.Buffer
	out.print(&buf, table)
	if !strings.Contains(buf.String(), "error_rate") {
		t.Error("printout lacks the error rate")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric tables
// the binary reports in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the binary reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, binary %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is unknown to the binary", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads()) {
		t.Errorf("BENCHMARK.json lists %d workloads, the binary runs %d", len(spec.Workloads), len(workloads()))
	}
}
