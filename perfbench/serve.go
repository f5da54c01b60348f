package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/serve"
	"repro/internal/wal"
)

const collectionName = "bench"

// rig is an in-process erserve: a serve.Server with a DataDir under the
// run's work directory, on a loopback listener, and a retrying client with
// one connection per load goroutine. A traced rig also times its handlers,
// its journal's writes and fsyncs, and counts client attempts.
type rig struct {
	srv       *serve.Server
	hs        *http.Server
	served    chan error
	transport *http.Transport
	cl        *client.Client

	// Traced rigs only.
	fs *timingFS
	rt *tracingTransport
	tr *tracer
}

func startRig(dir string, clients int, tr *tracer) (*rig, error) {
	opts := serve.Options{DataDir: dir}
	r := &rig{tr: tr, served: make(chan error, 1)}
	if tr != nil {
		r.fs = &timingFS{FS: wal.OSFS{}, tr: tr}
		opts.WALFS = r.fs
	}
	srv, err := serve.New(opts)
	if err != nil {
		return nil, err
	}
	r.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // the listen error is the one to report
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = &timedHandler{next: h, tr: tr}
	}
	r.hs = &http.Server{Handler: h}
	//lint:ignore goleak Serve returns once close shuts the http.Server down, and close waits for that on r.served
	go func() { r.served <- r.hs.Serve(ln) }()

	r.transport = &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
	var rt http.RoundTripper = r.transport
	if tr != nil {
		r.rt = &tracingTransport{base: r.transport}
		rt = r.rt
	}
	r.cl, err = client.New(client.Options{BaseURL: "http://" + ln.Addr().String(), HTTPClient: &http.Client{Transport: rt}})
	if err != nil {
		r.close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for r.cl.Ready(ctx) != nil {
		if ctx.Err() != nil {
			r.close()
			return nil, errors.New("server never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return r, nil
}

// close drains the server, stops the listener and waits for it to exit.
func (r *rig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	if herr := r.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-r.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	r.transport.CloseIdleConnections()
	return err
}

// seed creates the collection and writes every record once by keyed PUT,
// spread over the clients, then resolves once so the server builds its
// incremental mirror.
func (r *rig) seed(c *corpus, clients int) error {
	ctx := context.Background()
	if _, err := r.cl.CreateCollection(ctx, collectionName); err != nil {
		return fmt.Errorf("creating collection: %w", err)
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < c.len(); i += clients {
				rec := client.Record{Text: c.texts[i], Entity: c.entities[i]}
				if _, err := r.cl.PutRecord(ctx, collectionName, recID(i), rec); err != nil {
					errs[k] = fmt.Errorf("seeding %s: %w", recID(i), err)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if _, err := r.cl.Resolve(ctx, collectionName); err != nil {
		return fmt.Errorf("first resolve: %w", err)
	}
	return nil
}

// serveSetup starts and seeds a rig cfg.setups times, keeping the last one;
// each set-up runs from server start to the first resolve's answer.
func serveSetup(cfg config, c *corpus, name string, tr *tracer) (*rig, []float64, error) {
	var r *rig
	var setup []float64
	for i := 0; i < cfg.setups; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, nil, err
			}
		}
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d", name, i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
		runtime.GC()
		start := time.Now()
		var err error
		if r, err = startRig(dir, cfg.clients, tr); err != nil {
			return nil, nil, err
		}
		if err := r.seed(c, cfg.clients); err != nil {
			r.close()
			return nil, nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	return r, setup, nil
}

// loadResult is what a load phase measured.
type loadResult struct {
	puts, resolves sample
	late           sample // how late each put was sent, in ms
	elapsed        time.Duration
}

func (l *loadResult) add(m loadResult) {
	l.puts = append(l.puts, m.puts...)
	l.resolves = append(l.resolves, m.resolves...)
	l.late = append(l.late, m.late...)
	l.elapsed += m.elapsed
}

// load offers cfg.putRate keyed puts per second for d, open loop: writer w
// of the clients-1 writers sends its n-th put when it is due, at
// (n·writers + w) / putRate, each overwriting one of its own records with a
// fresh seeded revision. A put is timed from its send, or from when it was
// due if the writer's previous put was still unacknowledged then, so a
// stall counts against the puts queued behind it while the generator's own
// timer slack does not. The remaining client resolves the collection once
// per resolveEvery puts' worth of schedule. With a tracer each put is an op
// span. Each acknowledged put's text is recorded in expected, indexed by
// record.
func (r *rig) load(o *outcome, cfg config, c *corpus, d time.Duration, phase int64, expected []string) loadResult {
	var res loadResult
	writers := max(cfg.clients-1, 1)
	every := time.Duration(float64(time.Second) / cfg.putRate)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	due := func(n int) time.Time { return start.Add(time.Duration(n) * every) }
	merge := func(puts, resolves, late sample, failed int, failures []string) {
		mu.Lock()
		defer mu.Unlock()
		res.puts = append(res.puts, puts...)
		res.resolves = append(res.resolves, resolves...)
		res.late = append(res.late, late...)
		for i := 0; i < failed; i++ {
			msg := "(further failures of this client)"
			if i < len(failures) {
				msg = failures[i]
			}
			o.check(false, "%s", msg)
		}
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			ps := newPutStream(cfg.seed+phase, w, writers, c.len())
			var puts, late sample
			var failed int
			var failures []string
			var prevAck time.Time
			for n := w; due(n).Sub(start) < d; n += writers {
				if wait := time.Until(due(n)); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				late.add(sent.Sub(due(n)))
				from := sent
				if prevAck.After(due(n)) {
					from = due(n)
				}
				idx, rev := ps.next()
				text := revised(c.texts[idx], rev)
				var op *openSpan
				pctx := ctx
				if r.tr != nil {
					op = r.tr.start("client.PutRecord", 0, 0)
					pctx = context.WithValue(ctx, opKey{}, op)
				}
				_, err := r.cl.PutRecord(pctx, collectionName, recID(idx), client.Record{Text: text, Entity: c.entities[idx]})
				prevAck = time.Now()
				if op != nil {
					op.end()
				}
				if err != nil {
					failed++
					if len(failures) < 5 {
						failures = append(failures, fmt.Sprintf("put %s: %v", recID(idx), err))
					}
					continue
				}
				puts.add(prevAck.Sub(from))
				expected[idx] = text // idx is owned by this writer alone
			}
			merge(puts, nil, late, failed, failures)
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var resolves sample
		var failed int
		var failures []string
		for n := cfg.resolveEvery; due(n).Sub(start) < d; n += cfg.resolveEvery {
			if wait := time.Until(due(n)); wait > 0 {
				time.Sleep(wait)
			}
			t0 := time.Now()
			if _, err := r.cl.Resolve(context.Background(), collectionName); err != nil {
				failed++
				if len(failures) < 5 {
					failures = append(failures, fmt.Sprintf("resolve: %v", err))
				}
				continue
			}
			resolves.add(time.Since(t0))
		}
		merge(nil, resolves, nil, failed, failures)
	}()
	wg.Wait()
	res.elapsed = time.Since(start)
	for range res.puts {
		o.check(true, "")
	}
	for range res.resolves {
		o.check(true, "")
	}
	return res
}

// verify checks the server's state after a load phase: every acknowledged
// put is readable, and the collection's resolve agrees with an in-process
// er.Collection over the same records. It returns the resolve's F1.
func (r *rig) verify(o *outcome, c *corpus, expected []string) float64 {
	ctx := context.Background()
	recs, err := r.cl.GetCollection(ctx, collectionName)
	if err != nil {
		o.check(false, "get collection: %v", err)
	} else {
		wrong := 0
		for _, rec := range recs {
			i, err := strconv.Atoi(strings.TrimPrefix(rec.ID, "r"))
			if err != nil || i < 0 || i >= len(expected) || rec.Text != expected[i] || rec.Entity != c.entities[i] {
				wrong++
			}
		}
		o.check(len(recs) == len(expected) && wrong == 0,
			"collection holds %d records (want %d), %d differ from the last acknowledged put", len(recs), len(expected), wrong)
	}
	got, err := r.cl.Resolve(ctx, collectionName)
	if err != nil {
		o.check(false, "final resolve: %v", err)
		return 0
	}
	var body struct {
		Evaluation *struct {
			F1 float64 `json:"f1"`
		} `json:"evaluation"`
	}
	if err := json.Unmarshal(got.Raw, &body); err != nil || body.Evaluation == nil {
		o.check(false, "final resolve carries no evaluation (%v)", err)
		return 0
	}
	live := make(liveSet, len(expected))
	for i, text := range expected {
		live[i] = text
	}
	_, want, err := loadCollection(c, live)
	if err != nil {
		o.check(false, "in-process collection: %v", err)
	} else {
		o.check(got.Matches == len(want.Matches) && got.Clusters == len(want.Clusters),
			"server resolve has %d matches / %d clusters, in-process collection %d / %d",
			got.Matches, got.Clusters, len(want.Matches), len(want.Clusters))
	}
	return body.Evaluation.F1
}

func runServe(cfg config) (*outcome, error) {
	c := genCorpus(cfg.seed, cfg.records)
	r, setup, err := serveSetup(cfg, c, "serve", nil)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	o.set("setup_s", median(setup), "s", len(setup), fmt.Sprintf("start server, %d keyed PUTs, first resolve", c.len()))
	runtime.GC()
	expected := append([]string(nil), c.texts...)
	cpu0 := cpuTime()
	res := r.load(o, cfg, c, cfg.seconds, 0, expected)
	cpu := cpuTime() - cpu0
	f1 := r.verify(o, c, expected)
	if err := r.close(); err != nil {
		o.check(false, "server shutdown: %v", err)
	}
	o.check(f1 >= minF1, "serve: final f1 %.6f below %.2f", f1, minF1)
	o.timing("op_p50_ms", res.resolves, fmt.Sprintf("HTTP collection resolve every %d puts (col_resolve_p50_ms)", cfg.resolveEvery))
	o.timing("put_p50_ms", res.puts, fmt.Sprintf("acknowledged keyed PUT at %g puts/s offered", cfg.putRate))
	o.set("put_late_ms", percentile(res.late, 99), "ms", len(res.late), "p99 lateness of the put generator against its schedule")
	o.set("puts_per_s", float64(len(res.puts))/res.elapsed.Seconds(), "1/s", len(res.puts),
		fmt.Sprintf("acknowledged PUTs per second, %g offered", cfg.putRate))
	o.set("op_cpu_ms", ms(cpu)/max(float64(len(res.puts)), 1), "ms", len(res.puts),
		"process CPU time (user + system; server, client and resolves) per acknowledged PUT")
	o.set("f1", f1, "ratio", 1, "pairwise F1 of the final HTTP resolve")
	return o, nil
}

// traceServe runs the same load against an untraced rig and a traced one,
// alternating between them in slices so both see the same machine, and
// reports the traced rig's layers.
func traceServe(cfg config, tr *tracer) (*outcome, error) {
	const slices = 5
	cfg.setups = 1
	c := genCorpus(cfg.seed, cfg.records)
	o := &outcome{}
	closeRig := func(r *rig) {
		if err := r.close(); err != nil {
			o.check(false, "server shutdown: %v", err)
		}
	}
	plain, _, err := serveSetup(cfg, c, "plain", nil)
	if err != nil {
		return nil, err
	}
	r, _, err := serveSetup(cfg, c, "traced", tr)
	if err != nil {
		closeRig(plain)
		return nil, err
	}
	before, err := r.stats()
	if err != nil {
		closeRig(plain)
		closeRig(r)
		return nil, err
	}
	syncs0, bytes0, attempts0 := r.fs.syncs.Load(), r.fs.bytes.Load(), r.rt.puts.Load()
	fsyncs0 := len(r.fs.durations())
	spans0 := len(tr.snapshot())
	plainExp, tracedExp := append([]string(nil), c.texts...), append([]string(nil), c.texts...)
	var base, res loadResult
	var alloc float64
	var gcs uint32
	slice := cfg.seconds / (2 * slices)
	for i := int64(0); i < slices; i++ {
		base.add(plain.load(o, cfg, c, slice, i, plainExp))
		a, g := memDelta(func() { res.add(r.load(o, cfg, c, slice, i, tracedExp)) })
		alloc, gcs = alloc+a, gcs+g
	}
	loadSpans := tr.snapshot()[spans0:]
	after, err := r.stats()
	if err != nil {
		closeRig(plain)
		closeRig(r)
		return nil, err
	}
	syncs, bytes, attempts := r.fs.syncs.Load()-syncs0, r.fs.bytes.Load()-bytes0, r.rt.puts.Load()-attempts0
	fsyncMs := r.fs.durations()[fsyncs0:]
	plain.verify(o, c, plainExp)
	r.verify(o, c, tracedExp)
	closeRig(plain)
	closeRig(r)

	puts := float64(len(res.puts))
	per := func(v int64) float64 {
		if puts == 0 {
			return 0
		}
		return float64(v) / puts
	}
	agg := aggregate(loadSpans)
	handler := func(name string) float64 {
		if ls := agg[name]; ls != nil {
			return median(ls.durs)
		}
		return 0
	}
	o.set("serve.put_handler_ms", handler("serve.put_handler"), "ms", len(res.puts), "median PUT handler time inside Server.Handler()")
	o.set("serve.resolve_handler_ms", handler("serve.resolve_handler"), "ms", len(res.resolves), "median collection-resolve handler time")
	o.set("serve.queue_wait_ms", after.QueueLatency.P50Ms, "ms", after.QueueLatency.Samples, "/stats queue_latency p50 (resolve jobs)")
	o.set("serve.resolver_rebuilds", float64(after.Collections.ResolverRebuilds-before.Collections.ResolverRebuilds), "count", len(res.resolves),
		"mirror rebuilds during the load")
	o.set("serve.evictions_per_put", per(after.Idempotency.Evictions-before.Idempotency.Evictions), "1/put", len(res.puts), "dedup-table evictions per put")
	if after.Durability != nil && after.Durability.WAL != nil && before.Durability != nil && before.Durability.WAL != nil {
		o.set("wal.appends_per_put", per(after.Durability.WAL.Appends-before.Durability.WAL.Appends), "1/put", len(res.puts), "/stats journal appends per put")
	}
	o.set("wal.fsyncs_per_put", per(syncs), "1/put", len(res.puts), "file and directory fsyncs per put")
	o.set("wal.fsync_ms_p50", median(fsyncMs), "ms", len(fsyncMs), "fsync latency during the load")
	o.set("wal.fsync_ms_p99", percentile(fsyncMs, 99), "ms", len(fsyncMs), "fsync latency during the load")
	o.set("wal.bytes_per_put", per(bytes), "B/put", len(res.puts), "journal bytes written per put")
	o.set("client.attempts_per_put", per(attempts), "1/put", len(res.puts), "HTTP attempts per PutRecord call")
	o.set("runtime.alloc_mb_per_op", alloc/max(puts, 1), "MB/op", len(res.puts), "bytes allocated per put (server and client)")
	o.set("runtime.gc_cycles_per_op", float64(gcs)/max(puts, 1), "1/op", len(res.puts), "GC cycles per put")
	o.set("trace.untraced_op_ms", median(base.puts), "ms", len(base.puts), "median PUT on the untraced rig, in alternating slices")
	o.set("trace.traced_op_ms", median(res.puts), "ms", len(res.puts), "median PUT on the traced rig")
	o.set("trace.overhead_ms", median(res.puts)-median(base.puts), "ms", len(res.puts), "traced minus untraced median")
	return o, nil
}

func (r *rig) stats() (serve.Stats, error) {
	var st serve.Stats
	raw, err := r.cl.Stats(context.Background())
	if err != nil {
		return st, fmt.Errorf("reading /stats: %w", err)
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return st, fmt.Errorf("decoding /stats: %w", err)
	}
	return st, nil
}

// opKey carries a put's op span to the transport.
type opKey struct{}

// spanHeader carries "<op>.<parent span>" from the transport to the
// handler wrapper, linking server spans to the client op that caused them.
const spanHeader = "X-Perfbench-Span"

// tracingTransport counts PUT attempts and opens one span per attempt
// under the put's op span.
type tracingTransport struct {
	base http.RoundTripper
	puts atomic.Int64
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPut {
		t.puts.Add(1)
	}
	op, _ := req.Context().Value(opKey{}).(*openSpan)
	if op == nil {
		return t.base.RoundTrip(req)
	}
	sp := op.child("http.RoundTrip")
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, fmt.Sprintf("%d.%d", sp.s.Op, sp.s.ID))
	resp, err := t.base.RoundTrip(req)
	sp.end()
	return resp, err
}

// timedHandler wraps Server.Handler() with one span per request.
type timedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	name := "serve.handler"
	switch {
	case req.Method == http.MethodPut && strings.Contains(req.URL.Path, "/records/"):
		name = "serve.put_handler"
	case req.Method == http.MethodPost && strings.HasSuffix(req.URL.Path, "/resolve"):
		name = "serve.resolve_handler"
	}
	var op, parent int64
	if v := req.Header.Get(spanHeader); v != "" {
		a, b, _ := strings.Cut(v, ".")
		op, _ = strconv.ParseInt(a, 10, 64)
		parent, _ = strconv.ParseInt(b, 10, 64)
	}
	sp := h.tr.start(name, parent, op)
	h.next.ServeHTTP(w, req)
	sp.end()
}

// timingFS wraps the journal's filesystem, counting bytes written and
// timing every fsync.
type timingFS struct {
	wal.FS
	tr    *tracer
	syncs atomic.Int64
	bytes atomic.Int64
	mu    sync.Mutex
	ms    []float64
}

func (f *timingFS) Create(path string) (wal.File, error) {
	file, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f}, nil
}

func (f *timingFS) SyncDir(dir string) error {
	defer f.timeSync()()
	return f.FS.SyncDir(dir)
}

// timeSync opens a wal.fsync span; calling the result ends it.
func (f *timingFS) timeSync() func() {
	sp := f.tr.start("wal.fsync", 0, 0)
	return func() {
		d := sp.end()
		f.syncs.Add(1)
		f.mu.Lock()
		f.ms = append(f.ms, ms(d))
		f.mu.Unlock()
	}
}

func (f *timingFS) durations() []float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]float64(nil), f.ms...)
}

type timingFile struct {
	wal.File
	fs *timingFS
}

func (t *timingFile) Write(p []byte) (int, error) {
	n, err := t.File.Write(p)
	t.fs.bytes.Add(int64(n))
	return n, err
}

func (t *timingFile) Sync() error {
	defer t.fs.timeSync()()
	return t.File.Sync()
}
