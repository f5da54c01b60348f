package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	er "repro"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/textproc"
)

// batchF1 is the pairwise F1 of batch-100k per seed, recorded when the
// benchmark was defined. Resolution is deterministic, so a lower F1 on one
// of these seeds is a wrong output; other seeds and scales are held to
// minF1.
var batchF1 = map[int64]float64{
	1: 0.9920297307404637, 2: 0.9911921802596362, 3: 0.9920521511154151,
	4: 0.9915853644184486, 5: 0.9916436538392569, 6: 0.9924248633080047,
	7: 0.9917637843867936, 8: 0.99159425765017, 9: 0.9925245747248219,
	10: 0.9916002176844995,
}

// minF1 is the quality floor every workload's final resolve must reach.
const minF1 = 0.95

// batchSetup generates the corpus and writes it as CSV, cfg.setups times,
// returning the CSV path and each set-up's duration in seconds.
func batchSetup(cfg config) (string, []float64, error) {
	path := filepath.Join(cfg.workDir, "batch.csv")
	var setup []float64
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		d := genDataset(cfg.seed, cfg.records)
		f, err := os.Create(path)
		if err != nil {
			return "", nil, err
		}
		err = dataset.WriteCSV(f, d)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return "", nil, fmt.Errorf("writing corpus: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	return path, setup, nil
}

// batchResult is what one CSV → clusters op produced.
type batchResult struct {
	hash string
	f1   float64
}

// batchOp is the public path: er.LoadCSVFile + er.ResolveContext.
func batchOp(path string) (out batchResult, load, resolve time.Duration, err error) {
	start := time.Now()
	d, err := er.LoadCSVFile(path)
	if err != nil {
		return out, 0, 0, err
	}
	load = time.Since(start)
	res, err := er.ResolveContext(context.Background(), d, er.DefaultOptions())
	resolve = time.Since(start) - load
	if err != nil {
		return out, load, resolve, err
	}
	if res.Evaluation == nil {
		return out, load, resolve, fmt.Errorf("no evaluation on a labeled corpus")
	}
	return batchResult{hash: resultHash(nil, res.Probabilities, res.Clusters), f1: res.Evaluation.F1}, load, resolve, nil
}

// checkBatch counts one op: it must match the first op's output bit for
// bit and reach the recorded quality.
func checkBatch(o *outcome, cfg config, got, first batchResult) {
	o.check(got.hash == first.hash && got.f1 >= f1Floor(cfg),
		"batch: output %s (first op %s), f1 %.6f (floor %.6f)", got.hash, first.hash, got.f1, f1Floor(cfg))
}

func f1Floor(cfg config) float64 {
	if want, ok := batchF1[cfg.seed]; ok && cfg.records == 100000 {
		return want - 1e-9
	}
	return minF1
}

func runBatch(cfg config) (*outcome, error) {
	path, setup, err := batchSetup(cfg)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	o.set("setup_s", median(setup), "s", len(setup), "generate the corpus and write it as CSV")
	runtime.GC()

	var ops, resolves, cpu sample
	var first batchResult
	start := time.Now()
	for len(ops) < cfg.minOps || time.Since(start) < cfg.seconds {
		cpu0 := cpuTime()
		got, load, resolve, err := batchOp(path)
		if err != nil {
			o.check(false, "batch op: %v", err)
			continue
		}
		cpu.add(cpuTime() - cpu0)
		ops.add(load + resolve)
		resolves.add(resolve)
		if len(ops) == 1 {
			first = got
		}
		checkBatch(o, cfg, got, first)
	}
	if len(ops) == 0 {
		return o, nil
	}
	o.set("op_cpu_ms", median(cpu), "ms", len(cpu), "median process CPU time (user + system) per CSV → clusters op")
	o.timing("op_p50_ms", ops, "CSV → clusters: er.LoadCSVFile + er.ResolveContext (resolve_s)")
	o.timing("resolve_p50_ms", resolves, "er.ResolveContext alone")
	o.set("f1", first.f1, "ratio", 1, "pairwise F1 against the generator's entity labels")
	return o, nil
}

// batchLayers is the batch path rebuilt from the layers' own functions,
// with the settings er.DefaultOptions selects.
type batchLayers struct {
	corpus textproc.CorpusOptions
	block  index.BatchOptions
	fusion core.Options
}

func defaultLayers() batchLayers {
	o := er.DefaultOptions()
	c := core.DefaultOptions()
	c.Alpha, c.Steps, c.Eta, c.FusionIterations = o.Alpha, o.Steps, o.Eta, o.FusionIterations
	c.UseRSS, c.RSSWalks = o.UseRSS, o.RSSWalks
	c.Seed, c.Workers, c.ShardComponents = o.Seed, o.Workers, !o.DisableSharding
	return batchLayers{
		corpus: textproc.CorpusOptions{
			Tokenize:   textproc.DefaultTokenizeOptions(),
			MaxDFRatio: o.MaxDFRatio,
			Stopwords:  o.Stopwords,
		},
		block: index.BatchOptions{
			MaxTermRecords: o.MaxTermRecords,
			MinJaccard:     o.MinJaccard,
			MinSharedTerms: o.MinSharedTerms,
			Workers:        o.Workers,
		},
		fusion: c,
	}
}

// tracedBatch is one traced op's output and counts.
type tracedBatch struct {
	batchResult
	terms, pairs, components, sweeps int
	graph                            *index.Graph
	numRecords                       int
}

// tracedBatchOp runs the CSV → clusters op call by call, each call in its
// own span under one op span.
func tracedBatchOp(tr *tracer, path string, l batchLayers) (out tracedBatch, opDur time.Duration, err error) {
	op := tr.start("op", 0, 0)
	defer func() { opDur = op.end() }()

	var d *dataset.Dataset
	op.timed("dataset.LoadCSV", func() {
		var f *os.File
		if f, err = os.Open(path); err != nil {
			return
		}
		defer f.Close()
		d, err = dataset.LoadCSV(f, path)
	})
	if err != nil {
		return out, 0, err
	}
	texts, sources := d.Texts(), d.Sources()
	block := l.block
	block.CrossSourceOnly = d.NumSources > 1
	op.timed("engine.Key", func() {
		_ = engine.Key(texts, sources, l.corpus, blocking.Options{
			CrossSourceOnly: block.CrossSourceOnly,
			MaxTermRecords:  block.MaxTermRecords,
			MinSharedTerms:  block.MinSharedTerms,
			MinJaccard:      block.MinJaccard,
		}, 0)
	})
	var c *textproc.Corpus
	op.timed("textproc.BuildCorpus", func() { c = textproc.BuildCorpus(texts, l.corpus) })
	var g *index.Graph
	op.timed("index.BuildGraph", func() { g, err = index.BuildGraph(c, sources, block) })
	if err != nil {
		return out, 0, err
	}
	var truth map[uint64]bool
	op.timed("dataset.TrueMatches", func() { truth = d.TrueMatches() })

	run := engine.NewRun(context.Background(), engine.RunOptions{Workers: l.fusion.Workers})
	fo := l.fusion
	fo.Scratch = &core.Scratch{}
	f := core.NewFusionRun(g, d.NumRecords(), fo)
	op.timed("core.Partition", func() { out.components = f.Partition() })
	for f.Next() {
		var n int
		op.timed("core.StepITER", func() { n, err = f.StepITER() })
		if err != nil {
			return out, 0, err
		}
		out.sweeps += n
		op.timed("core.StepShardedRank", func() { _, err = f.StepShardedRank() })
		if err != nil {
			return out, 0, err
		}
	}
	var fr *core.FusionResult
	op.timed("core.Finish", func() { fr = f.Finish() })
	var clusters [][]int
	op.timed("engine.Cluster", func() { clusters, err = engine.Cluster(run, d.NumRecords(), g.Pairs, fr.Matches) })
	if err != nil {
		return out, 0, err
	}
	var f1 float64
	op.timed("engine.Evaluate", func() {
		prf, eerr := engine.Evaluate(run, g.Pairs, fr.Matches, truth, len(truth))
		f1, err = prf.F1, eerr
	})
	if err != nil {
		return out, 0, err
	}
	out.batchResult = batchResult{hash: resultHash(nil, fr.P, clusters), f1: f1}
	out.terms, out.pairs, out.graph, out.numRecords = c.NumTerms(), g.NumPairs(), g, d.NumRecords()
	return out, 0, nil
}

// memDelta measures allocation and GC cycles around fn.
func memDelta(fn func()) (allocMB float64, gcs uint32) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20), after.NumGC - before.NumGC
}

// traceBatch alternates public ops and traced ops: the difference of their
// medians is the tracing overhead, and every traced op must reproduce the
// public op's output bit for bit.
func traceBatch(cfg config, tr *tracer) (*outcome, error) {
	cfg.setups = 1
	path, _, err := batchSetup(cfg)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	l := defaultLayers()
	runtime.GC()

	var untraced, traced, alloc, gcs sample
	var first batchResult
	var last tracedBatch
	start := time.Now()
	for len(traced) < cfg.minOps || time.Since(start) < cfg.seconds {
		pub, load, resolve, err := batchOp(path)
		if err != nil {
			o.check(false, "batch op: %v", err)
			continue
		}
		untraced.add(load + resolve)
		if len(untraced) == 1 {
			first = pub
		}
		checkBatch(o, cfg, pub, first)

		var got tracedBatch
		var dur time.Duration
		a, n := memDelta(func() { got, dur, err = tracedBatchOp(tr, path, l) })
		if err != nil {
			o.check(false, "traced batch op: %v", err)
			continue
		}
		traced.add(dur)
		alloc, gcs = append(alloc, a), append(gcs, float64(n))
		o.check(got.hash == pub.hash && got.f1 == pub.f1,
			"traced batch output %s (f1 %v) differs from the public path's %s (f1 %v)", got.hash, got.f1, pub.hash, pub.f1)
		last = got
	}
	if len(traced) == 0 {
		return o, nil
	}
	n := len(traced)
	agg := aggregate(tr.snapshot())
	for _, m := range []struct{ metric, span string }{
		{"dataset.load_csv_ms", "dataset.LoadCSV"},
		{"dataset.truth_ms", "dataset.TrueMatches"},
		{"engine.key_ms", "engine.Key"},
		{"textproc.build_corpus_ms", "textproc.BuildCorpus"},
		{"index.build_graph_ms", "index.BuildGraph"},
		{"core.partition_ms", "core.Partition"},
		{"core.iter_ms", "core.StepITER"},
		{"core.rank_ms", "core.StepShardedRank"},
		{"core.finish_ms", "core.Finish"},
		{"engine.cluster_ms", "engine.Cluster"},
		{"engine.evaluate_ms", "engine.Evaluate"},
	} {
		o.set(m.metric, selfMsPer(agg, m.span, n), "ms", n, "self time per op of "+m.span)
	}
	o.set("textproc.terms", float64(last.terms), "count", 1, "terms kept by textproc.BuildCorpus")
	o.set("index.pairs", float64(last.pairs), "count", 1, "candidate pairs from index.BuildGraph")
	o.set("core.components", float64(last.components), "count", 1, "components from FusionRun.Partition")
	o.set("core.largest_component_pairs", float64(largestComponentPairs(last.graph, last.numRecords)), "count", 1,
		"candidate pairs in the largest component")
	o.set("core.iter_sweeps", float64(last.sweeps), "count", 1, "ITER inner sweeps over all rounds of one op")
	setOverhead(o, untraced, traced, alloc, gcs)
	return o, nil
}

// setOverhead records the runtime cost of a traced op and the tracing
// overhead: the traced op's median minus the public op's.
func setOverhead(o *outcome, untraced, traced, alloc, gcs sample) {
	o.set("runtime.alloc_mb_per_op", mean(alloc), "MB/op", len(alloc), "bytes allocated per traced op")
	o.set("runtime.gc_cycles_per_op", mean(gcs), "1/op", len(gcs), "GC cycles per traced op")
	o.set("trace.untraced_op_ms", median(untraced), "ms", len(untraced), "median public op, interleaved with the traced ones")
	o.set("trace.traced_op_ms", median(traced), "ms", len(traced), "median traced op")
	o.set("trace.overhead_ms", median(traced)-median(untraced), "ms", len(traced), "traced minus untraced median")
}

// largestComponentPairs counts the candidate pairs of the largest connected
// component of the candidate graph.
func largestComponentPairs(g *index.Graph, n int) int {
	if g == nil {
		return 0
	}
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, p := range g.Pairs {
		if a, b := find(p.I), find(p.J); a != b {
			parent[a] = b
		}
	}
	count := make(map[int32]int)
	best := 0
	for _, p := range g.Pairs {
		r := find(p.I)
		count[r]++
		best = max(best, count[r])
	}
	return best
}

// resultHash fingerprints a resolve's output bit for bit: record IDs (when
// positions map to external IDs), every pair probability and the clusters.
func resultHash(ids []string, p []float64, clusters [][]int) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(ids)))
	for _, id := range ids {
		put(uint64(len(id)))
		h.Write([]byte(id))
	}
	put(uint64(len(p)))
	for _, v := range p {
		put(math.Float64bits(v))
	}
	put(uint64(len(clusters)))
	for _, c := range clusters {
		put(uint64(len(c)))
		for _, r := range c {
			put(uint64(r))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
