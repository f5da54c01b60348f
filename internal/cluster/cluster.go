// Package cluster turns a set of matched record pairs into entity clusters.
// The ground-truth record graph of §VI-A is a union of disjoint cliques, so
// the natural output representation of entity resolution is the set of
// connected components of the matched-pair graph (transitive closure).
package cluster

import (
	"repro/internal/blocking"
	"repro/internal/graph"
)

// FromMatches computes entity clusters from the flagged candidate pairs.
// Every record appears in exactly one cluster; unmatched records form
// singleton clusters. Clusters are ordered by size descending, ties broken
// by smallest member, members sorted ascending.
func FromMatches(numRecords int, pairs []blocking.Pair, matched []bool) [][]int {
	u := graph.NewUnionFind(numRecords)
	for k, p := range pairs {
		if matched[k] {
			u.Union(int(p.I), int(p.J))
		}
	}
	groups := u.Groups(1)
	// Size descending, then smallest member ascending, is a total order
	// (smallest members are distinct), so two bucket passes produce it
	// without a comparison sort: visit the groups by smallest member, and
	// drop each into the slot range of its size. At 100k records with ~70k
	// clusters this is the difference between a flat pass and the largest
	// sort on the warm resolve path.
	bySmallest := make([]int32, numRecords) // smallest member -> group index + 1
	start := make([]int, numRecords+2)      // size -> first slot, larger sizes first
	for gi, g := range groups {
		bySmallest[g[0]] = int32(gi) + 1
		start[len(g)]++
	}
	for size, next := numRecords, 0; size >= 1; size-- {
		start[size], next = next, next+start[size]
	}
	out := make([][]int, len(groups))
	for _, gi := range bySmallest {
		if gi > 0 {
			g := groups[gi-1]
			out[start[len(g)]] = g
			start[len(g)]++
		}
	}
	return out
}

// ClosurePairs expands clusters back into the full set of implied matching
// pairs (the transitive closure used by crowd-based methods to derive extra
// answers). Keys use blocking.Key.
func ClosurePairs(clusters [][]int) map[uint64]bool {
	out := make(map[uint64]bool)
	for _, c := range clusters {
		for a := 0; a < len(c); a++ {
			for b := a + 1; b < len(c); b++ {
				out[blocking.Key(int32(c[a]), int32(c[b]))] = true
			}
		}
	}
	return out
}

// Stats summarizes a clustering.
type Stats struct {
	Clusters    int // clusters with >= 2 records
	Singletons  int
	LargestSize int
	Records     int
}

// Summarize computes clustering statistics.
func Summarize(clusters [][]int) Stats {
	var s Stats
	for _, c := range clusters {
		s.Records += len(c)
		if len(c) == 1 {
			s.Singletons++
			continue
		}
		s.Clusters++
		if len(c) > s.LargestSize {
			s.LargestSize = len(c)
		}
	}
	return s
}
