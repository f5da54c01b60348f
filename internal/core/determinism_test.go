package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// workerCounts are the settings the determinism suite compares: serial, a
// small fixed fan-out, and whatever the machine gives. The product-scale
// graph has thousands of pairs, so every loop spans many scheduler chunks.
func workerCounts() []int {
	counts := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 2 && g != 4 {
		counts = append(counts, g)
	}
	return counts
}

func bitsEqual(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s[%d]: %v (%#x) != %v (%#x)", label, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestITERBitIdenticalAcrossWorkers asserts the full ITER output — term
// weights, pair similarities, and the per-iteration convergence series — is
// bit-identical for every worker count, for both normalization schemes.
func TestITERBitIdenticalAcrossWorkers(t *testing.T) {
	_, g := productScaleGraph(t)
	p := onesP(g)
	for _, norm := range []Normalization{NormBounded, NormL2} {
		opts := DefaultOptions()
		opts.Normalization = norm
		opts.Workers = 1
		want := RunITER(g, p, opts, rand.New(rand.NewSource(3)))
		for _, w := range workerCounts()[1:] {
			opts.Workers = w
			got := RunITER(g, p, opts, rand.New(rand.NewSource(3)))
			bitsEqual(t, norm.String()+" X", want.X, got.X)
			bitsEqual(t, norm.String()+" S", want.S, got.S)
			bitsEqual(t, norm.String()+" Updates", want.Updates, got.Updates)
			if got.Iterations != want.Iterations || got.Converged != want.Converged {
				t.Fatalf("workers=%d: iterations %d/%v != %d/%v",
					w, got.Iterations, got.Converged, want.Iterations, want.Converged)
			}
		}
	}
}

// TestITERGatherMatchesScatter asserts the parallel pair→term-CSR gather is
// bit-identical to the legacy serial term-major scatter, which runs when a
// hand-assembled graph has no transposed layout.
func TestITERGatherMatchesScatter(t *testing.T) {
	_, g := productScaleGraph(t)
	p := onesP(g)
	opts := DefaultOptions()
	opts.Workers = 2
	withCSR := RunITER(g, p, opts, rand.New(rand.NewSource(5)))
	gc := *g
	gc.PairTermPtr, gc.PairTerms = nil, nil
	serial := RunITER(&gc, p, opts, rand.New(rand.NewSource(5)))
	bitsEqual(t, "X", serial.X, withCSR.X)
	bitsEqual(t, "S", serial.S, withCSR.S)
}

// TestCliqueRankBitIdenticalAcrossWorkers covers the masked power chain and
// the quadrature bonus row pass.
func TestCliqueRankBitIdenticalAcrossWorkers(t *testing.T) {
	_, g := productScaleGraph(t)
	opts := DefaultOptions()
	iter := RunITER(g, onesP(g), opts, rand.New(rand.NewSource(1)))
	rg := BuildRecordGraph(g, iter.S, g.NumRecords)
	opts.Workers = 1
	want := CliqueRank(rg, opts)
	for _, w := range workerCounts()[1:] {
		opts.Workers = w
		bitsEqual(t, "p", want, CliqueRank(rg, opts))
	}
}

// TestRSSBitIdenticalAcrossWorkers covers the per-edge seeded sampler.
func TestRSSBitIdenticalAcrossWorkers(t *testing.T) {
	_, g := productScaleGraph(t)
	opts := DefaultOptions()
	opts.RSSWalks = 4
	opts.Steps = 5
	iter := RunITER(g, onesP(g), opts, rand.New(rand.NewSource(1)))
	rg := BuildRecordGraph(g, iter.S, g.NumRecords)
	opts.Workers = 1
	want := RSS(rg, opts)
	for _, w := range workerCounts()[1:] {
		opts.Workers = w
		bitsEqual(t, "p", want, RSS(rg, opts))
	}
}

// TestFusionBitIdenticalAcrossWorkers asserts the end-to-end reinforcement
// loop — with its buffer reuse, arena recycling, and in-place p rewrites —
// produces bit-identical similarities, probabilities and match decisions
// for every worker count.
func TestFusionBitIdenticalAcrossWorkers(t *testing.T) {
	_, g := productScaleGraph(t)
	opts := DefaultOptions()
	opts.FusionIterations = 3
	opts.Workers = 1
	want, err := RunFusion(g, g.NumRecords, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts()[1:] {
		opts.Workers = w
		got, err := RunFusion(g, g.NumRecords, opts)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "X", want.X, got.X)
		bitsEqual(t, "S", want.S, got.S)
		bitsEqual(t, "P", want.P, got.P)
		for i := range want.Matches {
			if want.Matches[i] != got.Matches[i] {
				t.Fatalf("workers=%d: match[%d] %v != %v", w, i, got.Matches[i], want.Matches[i])
			}
		}
	}
}

// TestFusionReuseMatchesSingleShot asserts the scratch/arena path RunFusion
// takes is bit-identical to composing the exported single-shot kernels by
// hand — the reuse must be invisible.
func TestFusionReuseMatchesSingleShot(t *testing.T) {
	_, g := productScaleGraph(t)
	opts := DefaultOptions()
	opts.FusionIterations = 2
	opts.Workers = 2
	res, err := RunFusion(g, g.NumRecords, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	p := onesP(g)
	var iter *ITERResult
	for it := 0; it < 2; it++ {
		iter = RunITER(g, p, opts, rng)
		rg := BuildRecordGraph(g, iter.S, g.NumRecords)
		p = CliqueRank(rg, opts)
	}
	bitsEqual(t, "S", iter.S, res.S)
	bitsEqual(t, "P", p, res.P)
}
