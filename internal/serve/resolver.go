package serve

import (
	"context"
	"fmt"

	er "repro"
)

// Delta-scoped collection resolution: every collection is an
// er.Collection, kept current by the journal's apply step, so a resolve
// runs on it directly — re-fusing only the candidate-graph components the
// mutations since the last resolve touched, with everything else served
// from the shared component cache. The result is a pure function of the
// collection state and the default options (per-component fusion
// semantics — see er.Collection), so responses stay deterministic across
// restarts and mutation orderings.

// collectionOptions are the fixed pipeline options every collection runs
// under: the defaults, the server's per-job worker budget, and the shared
// snapshot cache (so component results are shared across collections).
func (s *Server) collectionOptions() er.Options {
	o := er.DefaultOptions()
	o.Workers = s.opts.WorkersPerJob
	o.Snapshots = s.snapshots
	return o
}

// resolveCollectionDelta is the delta-scoped job body for
// POST /collections/{name}/resolve without option overrides. It looks the
// collection up when the job runs, so one dropped while the job was queued
// fails instead of resolving a stale state.
func (s *Server) resolveCollectionDelta(ctx context.Context, name string) (*er.Result, error) {
	col, ok := s.cols.collection(name)
	if !ok {
		return nil, fmt.Errorf("%w: collection %q was dropped", er.ErrNoRecords, name)
	}
	s.c.deltaResolves.Add(1)
	return col.ResolveContext(ctx)
}
