package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"

	er "repro"
)

// Delta-scoped collection resolution: each collection gets a lazily-synced
// er.Collection mirror of the store's records. Mutations bump a
// per-collection version and append to a capped delta log; a resolve
// catches the mirror up by replaying only the missed mutations (falling
// back to a full rebuild when the log no longer reaches back far enough)
// and then resolves incrementally — re-fusing only the candidate-graph
// components the mutations touched, with everything else served from the
// shared component cache.
//
// The mirror is advisory state derived from the store: it is never
// journaled, and a restart simply rebuilds it on the first resolve. The
// incremental result is a pure function of the collection state and the
// default options (per-component fusion semantics — see er.Collection), so
// responses stay deterministic across restarts and mutation orderings.

// deltaLogCap bounds each collection's mutation log. A resolver lagging
// further behind than the log reaches is rebuilt from the full record set
// instead — correct either way, the log only bounds the cheap path.
const deltaLogCap = 1024

// colMutation is one journal-ordered record change in a collection's delta
// log. Delete distinguishes the two mutation kinds.
type colMutation struct {
	version uint64
	delete  bool
	id      string
	rec     colRecord
}

// colLog is one collection's capped mutation log: entries hold consecutive
// versions start, start+1, ... so a resolver at version v resumes at entry
// v+1-start.
type colLog struct {
	start   uint64
	entries []colMutation
}

// bumpLocked advances a collection's version counter and, for record
// mutations, appends to its delta log, trimming the oldest entries past
// the cap. Called from applyLocked under the store write lock — including
// during WAL replay, so versions count journal order on every path.
func (c *colStore) bumpLocked(typ byte, m mutation) {
	switch typ {
	case mutCreate:
		c.version[m.Collection]++
		c.logs[m.Collection] = &colLog{start: c.version[m.Collection] + 1}
	case mutDrop:
		// Keep the version counter (monotonic across drop/recreate, so a
		// stale resolver of a previous incarnation can never fast-path) and
		// drop the log.
		c.version[m.Collection]++
		delete(c.logs, m.Collection)
	case mutUpsert, mutDelete:
		c.version[m.Collection]++
		lg := c.logs[m.Collection]
		if lg == nil {
			lg = &colLog{start: c.version[m.Collection]}
			c.logs[m.Collection] = lg
		}
		cm := colMutation{version: c.version[m.Collection], id: m.ID}
		if typ == mutDelete {
			cm.delete = true
		} else {
			cm.rec = colRecord{Entity: m.Entity, Source: m.Source, Text: m.Text}
		}
		lg.entries = append(lg.entries, cm)
		if over := len(lg.entries) - deltaLogCap; over > 0 {
			lg.entries = append([]colMutation(nil), lg.entries[over:]...)
			lg.start += uint64(over)
		}
	}
}

// syncPlan computes, under the store's read lock, what a resolver at
// version have must do to reach the current state: replay muts (cheap
// path), or rebuild from the returned record snapshot. exists reports
// whether the collection is still there at all.
func (c *colStore) syncPlan(name string, have uint64, haveCol bool) (cur uint64, muts []colMutation, rebuild map[string]colRecord, exists bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	col, ok := c.cols[name]
	if !ok {
		return 0, nil, nil, false
	}
	cur = c.version[name]
	if lg := c.logs[name]; haveCol && lg != nil && have+1 >= lg.start {
		if idx := int(have + 1 - lg.start); idx <= len(lg.entries) {
			return cur, append([]colMutation(nil), lg.entries[idx:]...), nil, true
		}
	}
	rebuild = make(map[string]colRecord, len(col))
	for id, r := range col {
		rebuild[id] = r
	}
	return cur, nil, rebuild, true
}

// colResolver is one collection's incremental mirror. mu serializes use:
// er.Collection is not safe for concurrent access, so concurrent resolves
// of the same collection queue up here (distinct collections resolve in
// parallel).
type colResolver struct {
	mu      sync.Mutex
	col     *er.Collection
	version uint64
}

// resolverOptions are the fixed pipeline options the incremental mirrors
// run under: the defaults, the server's per-job worker budget, and the
// shared snapshot cache (so component results survive mirror rebuilds and
// are shared across collections).
func (s *Server) resolverOptions() er.Options {
	o := er.DefaultOptions()
	o.Workers = s.opts.WorkersPerJob
	o.Snapshots = s.snapshots
	return o
}

// resolver returns the collection's mirror entry, creating it on first use.
func (s *Server) resolver(name string) *colResolver {
	s.resolvers.Lock()
	defer s.resolvers.Unlock()
	r, ok := s.resolvers.m[name]
	if !ok {
		r = &colResolver{}
		s.resolvers.m[name] = r
	}
	return r
}

// dropResolver discards a collection's mirror (the collection is gone).
func (s *Server) dropResolver(name string) {
	s.resolvers.Lock()
	delete(s.resolvers.m, name)
	s.resolvers.Unlock()
}

// resolveCollectionDelta is the delta-scoped job body for
// POST /collections/{name}/resolve without option overrides: sync the
// mirror to the store's current version, then resolve incrementally.
func (s *Server) resolveCollectionDelta(ctx context.Context, name string) (*er.Result, error) {
	r := s.resolver(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, muts, rebuild, exists := s.cols.syncPlan(name, r.version, r.col != nil)
	if !exists {
		s.dropResolver(name)
		return nil, fmt.Errorf("%w: collection %q was dropped", er.ErrNoRecords, name)
	}
	switch {
	case rebuild != nil:
		col, err := er.NewCollection(s.resolverOptions())
		if err != nil {
			return nil, err
		}
		// The resolved result is mutation-order independent, but the
		// index's layout is not: upserting in ascending ID order makes
		// record handles follow IDs, so every rebuild lays the mirror out
		// the same way and each posting insert is an append.
		ids := make([]string, 0, len(rebuild))
		for id := range rebuild {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			rec := rebuild[id]
			col.Upsert(id, er.Record{Text: rec.Text, Source: rec.Source, Entity: rec.Entity})
		}
		r.col = col
		s.c.resolverRebuilds.Add(1)
	default:
		for _, m := range muts {
			if m.delete {
				r.col.Delete(m.id)
			} else {
				r.col.Upsert(m.id, er.Record{Text: m.rec.Text, Source: m.rec.Source, Entity: m.rec.Entity})
			}
		}
	}
	r.version = cur
	s.c.deltaResolves.Add(1)
	//lint:ignore lockhold the per-collection resolver mutex IS the serialization point: er.Collection is not safe for concurrent use, so concurrent delta resolves of the same collection must queue here; other collections and batch jobs never touch this lock
	return r.col.ResolveContext(ctx)
}
