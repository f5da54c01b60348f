package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envRecord identifies where and on what a result was taken. Results with
// different GOMAXPROCS are not comparable.
type envRecord struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	// Commit is the git commit of the checkout, or "" when it is not a git
	// repository; SourceSHA256 identifies the source tree either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func environment(root, workload string, seed int64, seconds float64, trace bool) envRecord {
	return envRecord{
		Workload:     workload,
		Seed:         seed,
		Seconds:      seconds,
		Trace:        trace,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		Commit:       gitCommit(root),
		SourceSHA256: sourceHash(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit reads HEAD without running git: a detached hash, or the ref it
// names, loose or packed.
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return ""
	}
	h := strings.TrimSpace(string(head))
	ref, isRef := strings.CutPrefix(h, "ref: ")
	if !isRef {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return ""
}

// sourceHash hashes every Go source and module file under root, skipping
// hidden directories (the git store, build outputs), so a checkout without
// git history is still identified.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".mod", ".sum":
		default:
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(rel)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB, or,
// where /proc is unavailable, the memory the Go runtime obtained from the
// OS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range bytes.Split(b, []byte("\n")) {
			rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
			if !ok {
				continue
			}
			fields := strings.Fields(string(rest))
			if len(fields) == 2 && fields[1] == "kB" {
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// hostSample is a reading of machine-wide contention counters: CPU steal
// ticks out of all ticks, and the stall totals (µs) of the CPU and IO
// pressure files. Zero where the kernel does not expose them.
type hostSample struct {
	at                time.Time
	steal, ticks      uint64
	cpuStall, ioStall uint64
}

func sampleHost() hostSample {
	h := hostSample{at: time.Now()}
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(b), "\n")
		if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
			for i, v := range f[1:9] {
				n, _ := strconv.ParseUint(v, 10, 64)
				h.ticks += n
				if i == 7 {
					h.steal = n
				}
			}
		}
	}
	h.cpuStall = pressureTotal("/proc/pressure/cpu")
	h.ioStall = pressureTotal("/proc/pressure/io")
	return h
}

func pressureTotal(path string) uint64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, "total="); ok {
			n, _ := strconv.ParseUint(v, 10, 64)
			return n
		}
	}
	return 0
}

// hostNoise is the machine-wide contention over a run, in percent of its
// wall time (steal: of all CPU ticks). The pressure stalls include the
// process's own threads waiting for a CPU. It helps explain outlying runs;
// it is not a metric.
type hostNoise struct {
	StealPct       float64 `json:"cpu_steal_pct"`
	CPUPressurePct float64 `json:"cpu_pressure_pct"`
	IOPressurePct  float64 `json:"io_pressure_pct"`
}

func (a hostSample) until(b hostSample) hostNoise {
	var n hostNoise
	if dt := b.ticks - a.ticks; dt > 0 {
		n.StealPct = 100 * float64(b.steal-a.steal) / float64(dt)
	}
	if wall := b.at.Sub(a.at).Microseconds(); wall > 0 {
		n.CPUPressurePct = 100 * float64(b.cpuStall-a.cpuStall) / float64(wall)
		n.IOPressurePct = 100 * float64(b.ioStall-a.ioStall) / float64(wall)
	}
	return n
}

// cpuTime is the CPU time (user + system) the process has used so far.
// Unlike wall time it excludes time the machine's hypervisor gave to other
// guests (steal).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
