package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Op groups the spans of one
// benchmark operation; Parent is the span that caused this one (0 for a
// root). Start and End are offsets from the tracer's epoch.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Op     int64         `json:"op,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; writeFile dumps them when the run ends.
// It is safe for concurrent use.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t *tracer
	s span
}

// start opens a span. An op of 0 makes the span the root of a new op,
// identified by the span's own ID.
func (t *tracer) start(name string, parent, op int64) *openSpan {
	id := t.ids.Add(1)
	if op == 0 {
		op = id
	}
	return &openSpan{t: t, s: span{ID: id, Parent: parent, Op: op, Name: name, Start: time.Since(t.epoch)}}
}

// child opens a span caused by o, in o's op.
func (o *openSpan) child(name string) *openSpan { return o.t.start(name, o.s.ID, o.s.Op) }

func (o *openSpan) end() time.Duration {
	o.s.End = time.Since(o.t.epoch)
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
	return o.s.dur()
}

// timed runs fn inside a child span of o named name.
func (o *openSpan) timed(name string, fn func()) time.Duration {
	c := o.child(name)
	fn()
	return c.end()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes the spans as gzip-compressed JSON lines, in start order.
func (t *tracer) writeFile(path string) error {
	spans := t.snapshot()
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Children may overlap each other
// (concurrent calls), so the covered part is the union of their intervals,
// clipped to the parent's.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals within
// the parent's interval.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// opSpans keeps the spans of the ops whose root span is named root.
func opSpans(spans []span, root string) []span {
	ops := make(map[int64]bool)
	for _, s := range spans {
		if s.Name == root && s.ID == s.Op {
			ops[s.ID] = true
		}
	}
	var out []span
	for _, s := range spans {
		if ops[s.Op] {
			out = append(out, s)
		}
	}
	return out
}

// layerStats aggregates spans by name: call count, summed self time and
// the individual call durations.
type layerStats struct {
	calls int
	self  time.Duration
	durs  []float64 // ms
}

func aggregate(spans []span) map[string]*layerStats {
	self := selfTimes(spans)
	out := make(map[string]*layerStats)
	for _, s := range spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStats{}
			out[s.Name] = ls
		}
		ls.calls++
		ls.self += self[s.ID]
		ls.durs = append(ls.durs, ms(s.dur()))
	}
	return out
}

// selfMsPer is the named layer's summed self time in ms divided by n (the
// op count); 0 when the layer never ran.
func selfMsPer(agg map[string]*layerStats, name string, n int) float64 {
	ls := agg[name]
	if ls == nil || n == 0 {
		return 0
	}
	return ms(ls.self) / float64(n)
}
