// Command perfbench is the repository's end-to-end benchmark. It generates
// each workload from a seed, drives it through the public surfaces (CSV
// load + batch resolve, the streaming er.Collection, an in-process erserve
// server driven by the retrying client), checks the outputs, and prints
// every metric by name and unit. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run rebuilds the same work from each layer's functions,
// times every call from this package, checks that its output is
// bit-identical to the public path's, and reports per-layer metrics and the
// tracing overhead.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload batch-100k --seed 1 --seconds 10 --trace 0
//
// Spans and a result record with the environment (GOMAXPROCS, CPU, Go
// version, commit) go to .bench_build/perfbench/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one run's parameters. The workload table supplies the
// full-scale defaults; tests shrink them.
type config struct {
	seed    int64
	seconds time.Duration
	workDir string
	// records is the corpus size; setups the number of timed set-ups whose
	// median is setup_s; minOps the operations measured even when the
	// time is up.
	records, setups, minOps int
	// batch is the stream workload's mutations per refresh.
	batch int
	// clients, putRate and resolveEvery shape the serve workload's load:
	// clients-1 writers offering putRate puts per second between them, and
	// one client resolving the collection every resolveEvery puts.
	clients, resolveEvery int
	putRate               float64
}

type workload struct {
	name     string
	defaults config
	run      func(cfg config) (*outcome, error)
	trace    func(cfg config, tr *tracer) (*outcome, error)
}

func workloads() []workload {
	clients := runtime.GOMAXPROCS(0)
	return []workload{
		{
			name:     "batch-100k",
			defaults: config{records: 100000, setups: 3, minOps: 3},
			run:      runBatch, trace: traceBatch,
		},
		{
			name:     "stream-100k",
			defaults: config{records: 100000, minOps: 5, batch: 50},
			run:      runStream, trace: traceStream,
		},
		{
			name:     "serve-20k",
			defaults: config{records: 20000, setups: 2, clients: max(clients, 2), putRate: 400, resolveEvery: 200},
			run:      runServe, trace: traceServe,
		},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: batch-100k, stream-100k or serve-20k")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and result records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (batch-100k, stream-100k, serve-20k), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	workDir := filepath.Join(*outDir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(workDir)

	cfg := w.defaults
	cfg.seed, cfg.seconds, cfg.workDir = *seed, time.Duration(*seconds*float64(time.Second)), workDir
	traced := *traceFlag == 1
	env := environment(root, w.name, *seed, *seconds, traced)
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *traceFlag)
	envJSON, _ := json.Marshal(env) // plain struct; cannot fail
	fmt.Fprintf(stdout, "env %s\n", envJSON)

	host := sampleHost()
	var out *outcome
	var tr *tracer
	stem := fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *traceFlag)
	if traced {
		tr = newTracer()
		out, err = w.trace(cfg, tr)
	} else {
		out, err = w.run(cfg)
		if out != nil {
			out.set("peak_rss_mb", peakRSSMB(), "MB", 1, "peak resident set of the whole run")
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if tr != nil {
		if err := tr.writeFile(filepath.Join(*outDir, "spans-"+stem+".jsonl.gz")); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	table := endToEnd
	if traced {
		table = perLayer
	}
	res, err := out.result(table, traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	out.print(stdout, table)
	noise := host.until(sampleHost())
	fmt.Fprintf(stdout, "host cpu_steal=%.2f%% cpu_pressure=%.2f%% io_pressure=%.2f%% (machine-wide, over the run)\n",
		noise.StealPct, noise.CPUPressurePct, noise.IOPressurePct)
	rec := struct {
		Env      envRecord            `json:"env"`
		Host     hostNoise            `json:"host"`
		Result   result               `json:"result"`
		Details  []metric             `json:"details"`
		Samples  map[string][]float64 `json:"samples,omitempty"`
		Failures []string             `json:"failures,omitempty"`
	}{env, noise, res, out.metrics, out.samples, out.failures}
	if b, err := json.MarshalIndent(rec, "", "  "); err == nil {
		err = os.WriteFile(filepath.Join(*outDir, "result-"+stem+".json"), b, 0o644)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: writing result record: %v\n", err)
		}
	}
	last, _ := json.Marshal(res) // maps of plain values; cannot fail
	fmt.Fprintf(stdout, "%s\n", last)
	if !res.Correct {
		return 1
	}
	return 0
}

// metricSpec is one metric a run must report.
type metricSpec struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json order.
// Every workload reports each; op is the workload's unit of work that ends
// in clusters: a CSV → clusters resolve, a stream refresh, an HTTP
// collection resolve under the serve workload's write load.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"f1", "ratio"},
}

// perLayer lists the metrics of a traced run. A layer the workload does not
// exercise reports 0.
var perLayer = []metricSpec{
	{"dataset.load_csv_ms", "ms"},
	{"dataset.truth_ms", "ms"},
	{"textproc.build_corpus_ms", "ms"},
	{"textproc.terms", "count"},
	{"index.build_graph_ms", "ms"},
	{"index.pairs", "count"},
	{"index.load_upsert_us.q1", "us"},
	{"index.load_upsert_us.q2", "us"},
	{"index.load_upsert_us.q3", "us"},
	{"index.load_upsert_us.q4", "us"},
	{"index.upsert_us", "us"},
	{"index.delete_us", "us"},
	{"index.rebuilds", "count"},
	{"index.materialize_ms", "ms"},
	{"engine.key_ms", "ms"},
	{"core.partition_ms", "ms"},
	{"core.components", "count"},
	{"core.largest_component_pairs", "count"},
	{"core.iter_ms", "ms"},
	{"core.iter_sweeps", "count"},
	{"core.rank_ms", "ms"},
	{"core.finish_ms", "ms"},
	{"engine.cluster_ms", "ms"},
	{"engine.evaluate_ms", "ms"},
	{"engine.deltafuse_ms", "ms"},
	{"engine.components_fused", "count"},
	{"engine.component_reuse_ratio", "ratio"},
	{"serve.put_handler_ms", "ms"},
	{"serve.resolve_handler_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.resolver_rebuilds", "count"},
	{"serve.evictions_per_put", "1/put"},
	{"wal.fsyncs_per_put", "1/put"},
	{"wal.fsync_ms_p50", "ms"},
	{"wal.fsync_ms_p99", "ms"},
	{"wal.bytes_per_put", "B/put"},
	{"wal.appends_per_put", "1/put"},
	{"client.attempts_per_put", "1/put"},
	{"runtime.alloc_mb_per_op", "MB/op"},
	{"runtime.gc_cycles_per_op", "1/op"},
	{"trace.untraced_op_ms", "ms"},
	{"trace.traced_op_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// metric is one measured value. N is the sample count behind it; Note
// says what it is on this workload.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Note  string  `json:"note,omitempty"`
}

// outcome is what a workload run measured and checked. Every operation,
// and every verification at the end of a run, counts as one attempt; a
// failed call or a wrong output counts it as failed.
type outcome struct {
	attempted, failed int
	failures          []string
	metrics           []metric
	// samples keeps each timing's raw values for the result record.
	samples map[string][]float64
}

// check counts one attempt, failed unless ok.
func (o *outcome) check(ok bool, format string, args ...any) bool {
	o.attempted++
	if !ok {
		o.failed++
		if len(o.failures) < 20 {
			o.failures = append(o.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// set records a metric, replacing an earlier value of the same name.
func (o *outcome) set(name string, value float64, unit string, n int, note string) {
	for i := range o.metrics {
		if o.metrics[i].Name == name {
			o.metrics[i] = metric{name, value, unit, n, note}
			return
		}
	}
	o.metrics = append(o.metrics, metric{name, value, unit, n, note})
}

// timing records a latency sample under name as its median, plus a
// name_tail entry at the highest percentile with at least ten samples
// beyond it, when the sample is large enough for one.
func (o *outcome) timing(name string, s []float64, note string) {
	if o.samples == nil {
		o.samples = make(map[string][]float64)
	}
	o.samples[name] = s
	o.set(name, median(s), "ms", len(s), "median; "+note)
	if p, v, ok := tail(s); ok {
		o.set(strings.TrimSuffix(name, "_p50_ms")+"_tail_ms", v, "ms", len(s),
			fmt.Sprintf("p%g (≥%d samples beyond); %s", p, minBeyond, note))
	}
}

func (o *outcome) value(name string) (metric, bool) {
	for _, m := range o.metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result assembles the final line from the metrics the table requires.
// With zeroFill (a traced run) a layer the workload did not exercise
// reports 0; otherwise every metric must be measured and finite.
func (o *outcome) result(table []metricSpec, zeroFill bool) (result, error) {
	r := result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]resultValue, len(table)),
	}
	var missing []string
	for _, spec := range table {
		m, ok := o.value(spec.name)
		switch {
		case ok && m.Unit != spec.unit:
			return r, fmt.Errorf("metric %s measured in %s, declared in %s", spec.name, m.Unit, spec.unit)
		case ok && !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0):
			r.Metrics[spec.name] = resultValue{m.Value, spec.unit}
		case zeroFill:
			r.Metrics[spec.name] = resultValue{0, spec.unit}
		default:
			missing = append(missing, spec.name)
		}
	}
	if len(missing) > 0 {
		return r, errors.New("end-to-end metrics not measured: " + strings.Join(missing, ", "))
	}
	if r.Attempted == 0 {
		r.Attempted = 1
		r.Failed = 1
	}
	return r, nil
}

// print writes one line per metric: the table's metrics first, then the
// workload's other measurements, then the error rate.
func (o *outcome) print(w io.Writer, table []metricSpec) {
	inTable := make(map[string]bool, len(table))
	for _, spec := range table {
		inTable[spec.name] = true
	}
	var rest []metric
	for _, m := range o.metrics {
		if !inTable[m.Name] {
			rest = append(rest, m)
		}
	}
	sort.SliceStable(rest, func(a, b int) bool { return rest[a].Name < rest[b].Name })
	line := func(m metric) {
		fmt.Fprintf(w, "  %-30s %14.6g %-6s n=%-6d %s\n", m.Name, m.Value, m.Unit, m.N, m.Note)
	}
	for _, spec := range table {
		if m, ok := o.value(spec.name); ok {
			line(m)
		} else {
			line(metric{Name: spec.name, Unit: spec.unit, Note: "not exercised by this workload"})
		}
	}
	for _, m := range rest {
		line(m)
	}
	rate := 0.0
	if o.attempted > 0 {
		rate = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "  %-30s %14.6g %-6s n=%-6d failed ÷ attempted\n", "error_rate", rate, "ratio", o.attempted)
	for _, f := range o.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}
