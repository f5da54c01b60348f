package index

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/textproc"
)

// entityText returns a record text whose blast radius does not grow with
// the collection: the record's entity contributes most of its words and a
// few come from a sliding window of neighbouring entities, so every term's
// document frequency, and with it every record's candidate row, stays
// bounded however many records are loaded.
func entityText(rng *rand.Rand, entity int) string {
	var b strings.Builder
	for j := 0; j < 6; j++ {
		if rng.Intn(4) != 0 {
			fmt.Fprintf(&b, "e%dw%d ", entity, j)
		}
	}
	for j := 0; j < 3; j++ {
		fmt.Fprintf(&b, "n%d ", entity+rng.Intn(24))
	}
	return b.String()
}

// TestUpsertCostIndependentOfSize pins the blast-radius cost contract of a
// fresh-ID Upsert: on records whose candidate rows are size-independent,
// the bytes one upsert allocates must not grow with the number of live
// records. Allocation bytes, not counts, are the signal: an index that
// re-allocates handle-space-sized scratch on every insert keeps a flat
// allocation count while its bytes grow linearly with the corpus, which
// makes a bulk load quadratic. Each size takes the cheapest of several
// windows: an amortized growth step of a handle-indexed slice or a map
// lands in some windows and only adds to them, while a cost that grows
// with the corpus is paid in every window.
func TestUpsertCostIndependentOfSize(t *testing.T) {
	ix := New(Config{
		Corpus: textproc.DefaultCorpusOptions(),
		Block:  BatchOptions{MinSharedTerms: 2, MaxTermRecords: 1000},
	})
	rng := rand.New(rand.NewSource(17))
	next := 0
	upsert := func() {
		ix.Upsert(fmt.Sprintf("r%07d", next), entityText(rng, next/3), 0)
		next++
	}
	const windows, perWindow = 9, 64
	bytesPerUpsert := func() float64 {
		var ms runtime.MemStats
		cheapest := math.Inf(1)
		for w := 0; w < windows; w++ {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			for i := 0; i < perWindow; i++ {
				upsert()
			}
			runtime.ReadMemStats(&ms)
			cheapest = min(cheapest, float64(ms.TotalAlloc-before)/perWindow)
		}
		return cheapest
	}
	for ix.Len() < 2000 {
		upsert()
	}
	small := bytesPerUpsert()
	for ix.Len() < 32000 {
		upsert()
	}
	large := bytesPerUpsert()
	t.Logf("bytes per fresh-ID Upsert: %.0f at ~2k live records, %.0f at ~32k", small, large)
	if large > 2*small {
		t.Errorf("Upsert allocates %.0f B at ~32k live records vs %.0f B at ~2k: its cost grows with the corpus, not the blast radius",
			large, small)
	}
}

// hashDelta folds one mutation and its Delta into h with length-prefixed
// fields, so distinct Delta sequences cannot collide by concatenation.
func hashDelta(h hash.Hash, op string, d Delta) {
	var buf [8]byte
	str := func(s string) {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
		h.Write(buf[:])
		h.Write([]byte(s))
	}
	pairs := func(ps [][2]string) {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(ps)))
		h.Write(buf[:])
		for _, p := range ps {
			str(p[0])
			str(p[1])
		}
	}
	str(op)
	pairs(d.AddedPairs)
	pairs(d.RemovedPairs)
	binary.LittleEndian.PutUint64(buf[:], uint64(len(d.Touched)))
	h.Write(buf[:])
	for _, id := range d.Touched {
		str(id)
	}
	if d.Rebuilt {
		str("rebuilt")
	}
}

// TestUpsertDeltaGolden pins every Delta of a seeded load-and-mutate trace,
// byte for byte, under two configurations: a MaxDFRatio band that moves
// with the corpus size (with a Jaccard floor and cross-source filtering),
// and a MaxTermRecords cap whose crossing forces pair-table rebuilds. The
// Delta lists (their order included) are what a streaming consumer sees,
// so a faster index must reproduce them exactly, not just the final table.
func TestUpsertDeltaGolden(t *testing.T) {
	base := textproc.DefaultTokenizeOptions()
	configs := []Config{
		{
			Corpus: textproc.CorpusOptions{Tokenize: base, MaxDFRatio: 0.1, MinDF: 1},
			Block:  BatchOptions{CrossSourceOnly: true, MinSharedTerms: 2, MinJaccard: 0.1},
		},
		{
			Corpus: textproc.CorpusOptions{Tokenize: base},
			Block:  BatchOptions{MinSharedTerms: 2, MaxTermRecords: 1100},
		},
	}
	h := sha256.New()
	var rebuilds, pairs int
	for ci, cfg := range configs {
		rng := rand.New(rand.NewSource(int64(31 + ci)))
		zipf := rand.NewZipf(rng, 1.3, 4, 400)
		text := func() string {
			var b strings.Builder
			if ci == 1 && rng.Intn(20) != 0 {
				b.WriteString("common ")
			}
			for k := 3 + rng.Intn(6); k > 0; k-- {
				fmt.Fprintf(&b, "w%d ", zipf.Uint64())
			}
			return b.String()
		}
		ix := New(cfg)
		live := []string{}
		apply := func(op string, d Delta) {
			hashDelta(h, op, d)
			if d.Rebuilt {
				rebuilds++
			}
			pairs += len(d.AddedPairs) + len(d.RemovedPairs)
		}
		for i := 0; i < 1300; i++ {
			id := fmt.Sprintf("r%05d", rng.Intn(100000))
			if _, ok := ix.byID[id]; !ok {
				live = append(live, id)
			}
			apply("upsert "+id, ix.Upsert(id, text(), rng.Intn(2)))
		}
		for i := 0; i < 600; i++ {
			k := rng.Intn(len(live))
			id := live[k]
			switch rng.Intn(4) {
			case 0:
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				d, _ := ix.Delete(id)
				apply("delete "+id, d)
			case 1:
				id = fmt.Sprintf("r%05d", rng.Intn(100000))
				if _, ok := ix.byID[id]; !ok {
					live = append(live, id)
				}
				apply("upsert "+id, ix.Upsert(id, text(), rng.Intn(2)))
			default:
				apply("upsert "+id, ix.Upsert(id, text(), rng.Intn(2)))
			}
		}
	}
	t.Logf("trace: %d pair-table rebuilds, %d pair changes", rebuilds, pairs)
	if rebuilds == 0 || pairs == 0 {
		t.Fatalf("trace exercised %d rebuilds and %d pair changes; both must be non-zero", rebuilds, pairs)
	}
	const want = "1c2e3010c1172644dd63ef364619b239e659627df641452ef81758d3d596992a"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("Delta trace digest = %s, want %s", got, want)
	}
}
