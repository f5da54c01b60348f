// Command erbenchjson turns `go test -bench` output into the repository's
// benchmark-regression baseline BENCH_core.json.
//
// Usage:
//
//	go test ./internal/core/ -run xxx -bench Product -benchmem | \
//	    erbenchjson -baseline results/bench_baseline_seed.txt > BENCH_core.json
//
// It reads benchmark lines from stdin, groups the workers=N sub-benchmarks
// of each kernel, computes each fan-out's speedup against the same binary's
// workers=1 run, and — when -baseline points at a committed seed
// measurement — the serial speedup against the pre-optimization code.
// Custom `<value> stage-<name>-ms` metrics (emitted by the root package's
// BenchmarkResolveStages from the engine's stage trace) are folded into
// each sample's stage_ms map, giving the baseline a per-stage wall-clock
// breakdown; any other custom metric (such as the per-quarter upsert_us_qN
// of BenchmarkCollectionBulkLoad100k) lands in the sample's metrics map
// under its unit. The JSON is the trajectory future PRs regress against:
// scripts/bench.sh regenerates it and CI uploads it as an artifact.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches `BenchmarkName[/sub...][-P]  iters  X ns/op [<value> <unit>...]`;
// a trailing `/workers=N` path segment becomes the fan-out dimension.
var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(.*)`)

// metric matches each `<value> <unit>` pair after ns/op: B/op and
// allocs/op from -benchmem, and the custom metrics benchmarks report, in
// whatever order the testing package prints them.
var metric = regexp.MustCompile(`([\d.]+(?:[eE][+-]?\d+)?) (\S+)`)

type sample struct {
	NsOp     float64 `json:"ns_op"`
	BytesOp  float64 `json:"bytes_op,omitempty"`
	AllocsOp float64 `json:"allocs_op,omitempty"`
	// SpeedupVs1Worker is ns/op(workers=1) / ns/op(this), from the same
	// binary and run.
	SpeedupVs1Worker float64 `json:"speedup_vs_1_worker,omitempty"`
	// StageMs maps pipeline stage names to their wall-clock milliseconds,
	// from the stage-<name>-ms metrics of BenchmarkResolveStages.
	StageMs map[string]float64 `json:"stage_ms,omitempty"`
	// Metrics holds every other custom metric by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type kernel struct {
	// Workers maps the fan-out ("1", "2", ...; "serial" for benchmarks
	// without a workers dimension) to its measurement.
	Workers map[string]*sample `json:"workers"`
	// BaselineNsOp is the committed seed (pre-optimization) serial
	// measurement, when the baseline file has this benchmark.
	BaselineNsOp float64 `json:"baseline_ns_op,omitempty"`
	// SerialSpeedupVsBaseline is BaselineNsOp / ns/op(workers=1).
	SerialSpeedupVsBaseline float64 `json:"serial_speedup_vs_baseline,omitempty"`
	BaselineAllocsOp        float64 `json:"baseline_allocs_op,omitempty"`
	BaselineBytesOp         float64 `json:"baseline_bytes_op,omitempty"`
}

type report struct {
	// Note documents how to regenerate and read this file.
	Note    string             `json:"note"`
	CPU     string             `json:"cpu,omitempty"`
	Kernels map[string]*kernel `json:"kernels"`
}

func parse(lines *bufio.Scanner, rep *report) error {
	for lines.Scan() {
		line := lines.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			rep.CPU = strings.TrimSpace(cpu)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name, workers := m[1], "serial"
		if base, w, ok := strings.Cut(name, "/workers="); ok {
			name, workers = base, w
		}
		k := rep.Kernels[name]
		if k == nil {
			k = &kernel{Workers: map[string]*sample{}}
			rep.Kernels[name] = k
		}
		s := &sample{}
		s.NsOp, _ = strconv.ParseFloat(m[2], 64)
		for _, mm := range metric.FindAllStringSubmatch(m[3], -1) {
			v, err := strconv.ParseFloat(mm[1], 64)
			if err != nil {
				continue
			}
			unit := mm[2]
			switch stage, isStage := strings.CutPrefix(unit, "stage-"); {
			case unit == "B/op":
				s.BytesOp = v
			case unit == "allocs/op":
				s.AllocsOp = v
			case isStage && strings.HasSuffix(stage, "-ms"):
				if s.StageMs == nil {
					s.StageMs = map[string]float64{}
				}
				s.StageMs[strings.TrimSuffix(stage, "-ms")] = v
			default:
				if s.Metrics == nil {
					s.Metrics = map[string]float64{}
				}
				s.Metrics[unit] = v
			}
		}
		k.Workers[workers] = s
	}
	return lines.Err()
}

func main() {
	baseline := flag.String("baseline", "", "committed seed benchmark output to compute serial speedups against")
	flag.Parse()

	rep := &report{
		Note: "Regenerate with scripts/bench.sh. speedup_vs_1_worker compares each fan-out " +
			"to the same binary's serial run; serial_speedup_vs_baseline compares the serial run " +
			"to the committed pre-optimization seed in results/bench_baseline_seed.txt. " +
			"All worker counts produce bit-identical scores (see internal/core determinism tests).",
		Kernels: map[string]*kernel{},
	}
	if err := parse(bufio.NewScanner(os.Stdin), rep); err != nil {
		fmt.Fprintln(os.Stderr, "erbenchjson: read stdin:", err)
		os.Exit(1)
	}
	if len(rep.Kernels) == 0 {
		fmt.Fprintln(os.Stderr, "erbenchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	for _, k := range rep.Kernels {
		one := k.Workers["1"]
		if one == nil {
			one = k.Workers["serial"]
		}
		if one == nil {
			continue
		}
		for _, s := range k.Workers {
			if s.NsOp > 0 {
				s.SpeedupVs1Worker = round2(one.NsOp / s.NsOp)
			}
		}
	}

	if *baseline != "" {
		f, err := os.Open(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "erbenchjson:", err)
			os.Exit(1)
		}
		base := &report{Kernels: map[string]*kernel{}}
		err = parse(bufio.NewScanner(f), base)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "erbenchjson: read baseline:", err)
			os.Exit(1)
		}
		for name, bk := range base.Kernels {
			k := rep.Kernels[name]
			if k == nil {
				continue
			}
			bs := bk.Workers["serial"]
			if bs == nil {
				bs = bk.Workers["1"]
			}
			one := k.Workers["1"]
			if one == nil {
				one = k.Workers["serial"]
			}
			if bs == nil || one == nil {
				continue
			}
			k.BaselineNsOp = bs.NsOp
			k.BaselineBytesOp = bs.BytesOp
			k.BaselineAllocsOp = bs.AllocsOp
			if one.NsOp > 0 {
				k.SerialSpeedupVsBaseline = round2(bs.NsOp / one.NsOp)
			}
		}
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "erbenchjson:", err)
		os.Exit(1)
	}
	os.Stdout.Write(append(out, '\n'))

	// A human-readable digest on stderr so bench.sh runs read at a glance.
	names := make([]string, 0, len(rep.Kernels))
	for name := range rep.Kernels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		k := rep.Kernels[name]
		var parts []string
		workers := make([]string, 0, len(k.Workers))
		for w := range k.Workers {
			workers = append(workers, w)
		}
		sort.Strings(workers)
		for _, w := range workers {
			s := k.Workers[w]
			parts = append(parts, fmt.Sprintf("w=%s %.0fns (%.2fx)", w, s.NsOp, s.SpeedupVs1Worker))
		}
		if k.SerialSpeedupVsBaseline > 0 {
			parts = append(parts, fmt.Sprintf("serial vs seed %.2fx", k.SerialSpeedupVsBaseline))
		}
		fmt.Fprintf(os.Stderr, "%-20s %s\n", name, strings.Join(parts, "  "))
	}
}

func round2(v float64) float64 {
	return float64(int(v*100+0.5)) / 100
}
