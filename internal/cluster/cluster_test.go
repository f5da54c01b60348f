package cluster

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/blocking"
	"repro/internal/graph"
)

func TestFromMatchesTransitiveClosure(t *testing.T) {
	pairs := []blocking.Pair{{I: 0, J: 1}, {I: 1, J: 2}, {I: 3, J: 4}, {I: 4, J: 5}}
	matched := []bool{true, true, true, false}
	clusters := FromMatches(6, pairs, matched)
	// {0,1,2}, {3,4}, {5}
	if len(clusters) != 3 {
		t.Fatalf("clusters = %v, want 3 groups", clusters)
	}
	if len(clusters[0]) != 3 || clusters[0][0] != 0 {
		t.Errorf("largest cluster = %v, want [0 1 2]", clusters[0])
	}
	if len(clusters[1]) != 2 || clusters[1][0] != 3 {
		t.Errorf("second cluster = %v, want [3 4]", clusters[1])
	}
	if len(clusters[2]) != 1 || clusters[2][0] != 5 {
		t.Errorf("singleton = %v, want [5]", clusters[2])
	}
}

// TestFromMatchesOrderMatchesSort pins FromMatches' bucket ordering to the
// comparison sort it replaced (size descending, then smallest member) on
// random match graphs with many equal-size clusters.
func TestFromMatchesOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		var pairs []blocking.Pair
		var matched []bool
		for k := rng.Intn(2 * n); k > 0; k-- {
			i, j := int32(rng.Intn(n)), int32(rng.Intn(n))
			if i == j {
				continue
			}
			pairs = append(pairs, blocking.Pair{I: min(i, j), J: max(i, j)})
			matched = append(matched, rng.Intn(3) != 0)
		}
		u := graph.NewUnionFind(n)
		for k, p := range pairs {
			if matched[k] {
				u.Union(int(p.I), int(p.J))
			}
		}
		want := u.Groups(1)
		slices.SortStableFunc(want, func(a, b []int) int {
			if len(a) != len(b) {
				return len(b) - len(a)
			}
			return a[0] - b[0]
		})
		if got := FromMatches(n, pairs, matched); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: clusters %v, sorted groups %v", trial, got, want)
		}
	}
}

func TestFromMatchesNoMatches(t *testing.T) {
	pairs := []blocking.Pair{{I: 0, J: 1}}
	clusters := FromMatches(3, pairs, []bool{false})
	if len(clusters) != 3 {
		t.Fatalf("want 3 singletons, got %v", clusters)
	}
}

func TestClosurePairs(t *testing.T) {
	closure := ClosurePairs([][]int{{0, 1, 2}, {3, 4}, {5}})
	want := []uint64{
		blocking.Key(0, 1), blocking.Key(0, 2), blocking.Key(1, 2),
		blocking.Key(3, 4),
	}
	if len(closure) != len(want) {
		t.Fatalf("closure has %d pairs, want %d", len(closure), len(want))
	}
	for _, k := range want {
		if !closure[k] {
			t.Errorf("pair key %d missing from closure", k)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([][]int{{0, 1, 2}, {3, 4}, {5}, {6}})
	if s.Clusters != 2 || s.Singletons != 2 || s.LargestSize != 3 || s.Records != 7 {
		t.Errorf("stats = %+v", s)
	}
}
