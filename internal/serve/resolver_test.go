package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	er "repro"
	"repro/internal/wal"
)

// resolveCollectionDeltaJSON posts an override-free resolve, which routes
// through the delta-scoped path, with pair listings enabled.
func resolveCollectionDeltaJSON(t *testing.T, base, name string) (int, jobResponse) {
	t.Helper()
	resp, err := http.Post(base+"/collections/"+name+"/resolve?pairs=1", "application/json", nil)
	if err != nil {
		t.Fatalf("POST resolve: %v", err)
	}
	defer resp.Body.Close()
	var jr jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatalf("decode resolve response: %v", err)
	}
	return resp.StatusCode, jr
}

// TestCollectionDeltaResolve drives the delta-scoped resolve path: the
// first resolve fuses everything, a resolve after
// one record mutation re-fuses only the touched components, and the
// response and /stats expose the work split.
func TestCollectionDeltaResolve(t *testing.T) {
	_, hs := newTestServer(t, Options{BreakerThreshold: -1})
	n := seedCollection(t, hs.URL, "shops")

	status, jr := resolveCollectionDeltaJSON(t, hs.URL, "shops")
	if status != http.StatusOK || jr.State != JobCompleted {
		t.Fatalf("resolve = %d/%s (%s), want 200/completed", status, jr.State, jr.Error)
	}
	if jr.Records != n {
		t.Fatalf("resolved %d records, want %d", jr.Records, n)
	}
	if jr.Delta == nil {
		t.Fatal("delta-scoped resolve did not report delta stats")
	}
	if jr.Delta.Components == 0 || jr.Delta.ComponentsFused == 0 {
		t.Fatalf("cold resolve should fuse components: %+v", *jr.Delta)
	}
	var deltafuse *stageJSON
	for i := range jr.Stages {
		if jr.Stages[i].Stage == "deltafuse" {
			deltafuse = &jr.Stages[i]
		}
	}
	if deltafuse == nil {
		t.Fatalf("no deltafuse stage in trace: %+v", jr.Stages)
	}
	if deltafuse.ComponentsFused != jr.Delta.ComponentsFused {
		t.Fatalf("stage/delta split mismatch: %+v vs %+v", *deltafuse, *jr.Delta)
	}

	// An unmutated second resolve reuses every component.
	status, jr2 := resolveCollectionDeltaJSON(t, hs.URL, "shops")
	if status != http.StatusOK || jr2.Delta == nil {
		t.Fatalf("second resolve = %d, delta %v", status, jr2.Delta)
	}
	if jr2.Delta.ComponentsFused != 0 || jr2.Delta.ComponentsReused != jr2.Delta.Components {
		t.Fatalf("no-op resolve should reuse everything: %+v", *jr2.Delta)
	}
	if len(jr2.Pairs) != len(jr.Pairs) || jr2.Matches != jr.Matches {
		t.Fatalf("no-op resolve changed results: %d/%d matches", jr2.Matches, jr.Matches)
	}

	// Mutate one record; only its component re-fuses.
	url := fmt.Sprintf("%s/collections/shops/records/r05", hs.URL)
	if status, body := doJSON(t, http.MethodPut, url,
		`{"entity":"e4","source":1,"text":"mission chinese food 2234 mission street sf"}`); status != http.StatusOK {
		t.Fatalf("upsert = %d (%v), want 200", status, body)
	}
	status, jr3 := resolveCollectionDeltaJSON(t, hs.URL, "shops")
	if status != http.StatusOK || jr3.Delta == nil {
		t.Fatalf("post-mutation resolve = %d, delta %v", status, jr3.Delta)
	}
	if jr3.Delta.ComponentsReused == 0 {
		t.Fatalf("post-mutation resolve should reuse untouched components: %+v", *jr3.Delta)
	}

	st := getStats(t, hs.URL)
	if st.Collections.DeltaResolves != 3 {
		t.Fatalf("stats delta_resolves = %d, want 3", st.Collections.DeltaResolves)
	}
	if st.Collections.ResolverRebuilds != 0 {
		t.Fatalf("stats resolver_rebuilds = %d, want 0 (no mirror to rebuild)", st.Collections.ResolverRebuilds)
	}
	if st.SnapshotCache.ComponentMisses == 0 || st.SnapshotCache.ComponentEntries == 0 {
		t.Fatalf("component cache stats not populated: %+v", st.SnapshotCache)
	}

	// A resolve with overrides still takes the batch path — no delta stats.
	status, jr4 := resolveCollection(t, hs.URL, "shops")
	if status != http.StatusOK || jr4.State != JobCompleted {
		t.Fatalf("override resolve = %d/%s (%s)", status, jr4.State, jr4.Error)
	}
	if jr4.Delta != nil {
		t.Fatalf("override resolve must use the batch path, got delta %+v", *jr4.Delta)
	}
}

// TestCollectionDeltaResolveDropRecreate pins collection identity: dropping
// and recreating a collection under the same name must not leak the old
// incarnation's state into resolves of the new one.
func TestCollectionDeltaResolveDropRecreate(t *testing.T) {
	_, hs := newTestServer(t, Options{BreakerThreshold: -1})
	seedCollection(t, hs.URL, "shops")
	if status, jr := resolveCollectionDeltaJSON(t, hs.URL, "shops"); status != http.StatusOK || jr.State != JobCompleted {
		t.Fatalf("resolve = %d/%s (%s)", status, jr.State, jr.Error)
	}

	if status, _ := doJSON(t, http.MethodDelete, hs.URL+"/collections/shops", ""); status != http.StatusOK {
		t.Fatalf("drop = %d, want 200", status)
	}
	if status, _ := doJSON(t, http.MethodPost, hs.URL+"/collections", `{"name":"shops"}`); status != http.StatusCreated {
		t.Fatalf("recreate = %d, want 201", status)
	}
	if status, _ := doJSON(t, http.MethodPut, hs.URL+"/collections/shops/records/solo",
		`{"text":"one lonely record"}`); status != http.StatusOK {
		t.Fatalf("upsert = %d, want 200", status)
	}
	status, jr := resolveCollectionDeltaJSON(t, hs.URL, "shops")
	if status != http.StatusOK || jr.State != JobCompleted {
		t.Fatalf("resolve after recreate = %d/%s (%s)", status, jr.State, jr.Error)
	}
	if jr.Records != 1 || jr.Matches != 0 {
		t.Fatalf("recreated collection resolved %d records / %d matches, want 1/0", jr.Records, jr.Matches)
	}
}

// getRecords returns GET /collections/{name}'s record listing.
func getRecords(t *testing.T, base, name string) []recordInfo {
	t.Helper()
	resp, err := http.Get(base + "/collections/" + name)
	if err != nil {
		t.Fatalf("GET collection: %v", err)
	}
	defer resp.Body.Close()
	var body struct {
		Records []recordInfo `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode collection: %v", err)
	}
	return body.Records
}

// assertMatchesFresh demands a delta resolve response equal a fresh
// in-process er.Collection over recs: record, match and cluster counts,
// the evaluation, and the ?pairs=1 pair list down to each probability.
func assertMatchesFresh(t *testing.T, jr jobResponse, recs []recordInfo) {
	t.Helper()
	col, err := er.NewCollection(er.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		col.Upsert(r.ID, er.Record{Text: r.Text, Source: r.Source, Entity: r.Entity})
	}
	want, err := col.Resolve()
	if err != nil {
		t.Fatalf("fresh resolve: %v", err)
	}
	if jr.State != JobCompleted || jr.Delta == nil {
		t.Fatalf("resolve = %s (%s), delta %v; want a completed delta resolve", jr.State, jr.Error, jr.Delta)
	}
	if jr.Records != len(want.IDs) || jr.Matches != len(want.Matches) || jr.Clusters != len(want.Clusters) || jr.Converged != want.Converged {
		t.Fatalf("served records/matches/clusters/converged = %d/%d/%d/%v, fresh %d/%d/%d/%v",
			jr.Records, jr.Matches, jr.Clusters, jr.Converged,
			len(want.IDs), len(want.Matches), len(want.Clusters), want.Converged)
	}
	wantPairs := make([]matchJSON, len(want.Matches))
	for i, m := range want.Matches {
		wantPairs[i] = matchJSON{I: m.I, J: m.J, Probability: m.Probability}
	}
	if len(jr.Pairs) != len(wantPairs) {
		t.Fatalf("served %d pairs, fresh %d", len(jr.Pairs), len(wantPairs))
	}
	for i := range wantPairs {
		if jr.Pairs[i] != wantPairs[i] {
			t.Fatalf("pair %d: served %+v, fresh %+v", i, jr.Pairs[i], wantPairs[i])
		}
	}
	if (jr.Evaluation == nil) != (want.Evaluation == nil) {
		t.Fatalf("served evaluation %v, fresh %v", jr.Evaluation, want.Evaluation)
	}
	if e := want.Evaluation; e != nil {
		if got := (metricsJSON{Precision: e.Precision, Recall: e.Recall, F1: e.F1, TP: e.TP, FP: e.FP, FN: e.FN}); *jr.Evaluation != got {
			t.Fatalf("served evaluation %+v, fresh %+v", *jr.Evaluation, got)
		}
	}
}

// TestCollectionDeltaResolveRestartOracle restarts a durable server once
// after Shutdown (final snapshot) and once without it (journal-tail
// replay). After a warm resolve and further mutations on the first
// server, the restarted server's delta resolve must equal a fresh
// collection over the records it lists, and the pre-restart resolve.
func TestCollectionDeltaResolveRestartOracle(t *testing.T) {
	for _, tc := range []struct {
		name  string
		clean bool
	}{{"snapshot", true}, {"wal-tail", false}} {
		clean := tc.clean
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{DataDir: dir, BreakerThreshold: -1}
			var s1 *Server
			var base string
			if clean {
				var err error
				if s1, err = New(opts); err != nil {
					t.Fatalf("New: %v", err)
				}
				hs1 := httptest.NewServer(s1.Handler())
				defer hs1.Close()
				base = hs1.URL
			} else {
				var hs1 *httptest.Server
				s1, hs1 = newTestServer(t, opts)
				base = hs1.URL
			}
			waitReady(t, s1)
			seedCollection(t, base, "shops")
			if status, jr := resolveCollectionDeltaJSON(t, base, "shops"); status != http.StatusOK {
				t.Fatalf("warm resolve = %d (%s)", status, jr.Error)
			}
			for _, m := range []struct{ method, id, body string }{
				{http.MethodPut, "r05", `{"entity":"e4","source":0,"text":"mission chinese food 2234 mission street sf"}`},
				{http.MethodDelete, "r02", ""},
				{http.MethodPut, "r06", `{"entity":"e3","source":1,"text":"golden gate hardware supply co san francisco ca"}`},
			} {
				if status, body := doJSON(t, m.method, base+"/collections/shops/records/"+m.id, m.body); status != http.StatusOK {
					t.Fatalf("%s %s = %d (%v)", m.method, m.id, status, body)
				}
			}
			status, before := resolveCollectionDeltaJSON(t, base, "shops")
			if status != http.StatusOK {
				t.Fatalf("pre-restart resolve = %d (%s)", status, before.Error)
			}
			if clean {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if err := s1.Shutdown(ctx); err != nil {
					t.Fatalf("shutdown: %v", err)
				}
			}

			s2, hs2 := newTestServer(t, opts)
			waitReady(t, s2)
			if st := getStats(t, hs2.URL); st.Durability == nil || st.Durability.SnapshotRestored != clean {
				t.Fatalf("durability stats = %+v, want snapshot_restored %v", st.Durability, clean)
			}
			status, after := resolveCollectionDeltaJSON(t, hs2.URL, "shops")
			if status != http.StatusOK {
				t.Fatalf("post-restart resolve = %d (%s)", status, after.Error)
			}
			assertMatchesFresh(t, after, getRecords(t, hs2.URL, "shops"))
			assertSameResolution(t, before, after)
		})
	}
}

// snapshotLiteral is a collections snapshot payload in the on-disk
// snapshotState format: collections by name, records by ID (empty fields
// omitted), and the dedup table in FIFO order with base64 request bytes.
const snapshotLiteral = `{"collections":{"empty":{},"shops":{` +
	`"r00":{"entity":"e1","text":"joes pizza 123 main st new york"},` +
	`"r01":{"entity":"e1","source":1,"text":"joes pizza 123 main street new york ny"},` +
	`"r02":{"entity":"e2","text":"blue bottle coffee 300 webster st oakland"},` +
	`"r03":{"entity":"e2","source":1,"text":"blue bottle coffee co 300 webster street oakland ca"},` +
	`"r04":{"entity":"e3","text":"golden gate hardware supply san francisco"}}},` +
	`"dedup":[{"key":"put-r01","seq":3,"type":3,"data":"eyJjb2xsZWN0aW9uIjoic2hvcHMiLCJpZCI6InIwMSIsImVudGl0eSI6ImUxIiwic291cmNlIjoxLCJ0ZXh0Ijoiam9lcyBwaXp6YSAxMjMgbWFpbiBzdHJlZXQgbmV3IHlvcmsgbnkifQ=="}]}`

// TestCollectionSnapshotFormatCompat pins the on-disk snapshot format: a
// data directory holding snapshotLiteral recovers its collections and
// dedup table, resolves like a fresh collection over them, and the final
// snapshot a clean shutdown writes back is byte-identical.
func TestCollectionSnapshotFormatCompat(t *testing.T) {
	dir := t.TempDir()
	l, _, err := wal.Open(context.Background(), wal.Options{Dir: dir})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	for i := 0; i < 3; i++ { // the records the snapshot supersedes
		if _, err := l.Append(mutCreate, []byte(`{"collection":"superseded"}`)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.WriteSnapshot([]byte(snapshotLiteral), 3); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s, err := New(Options{DataDir: dir, BreakerThreshold: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	waitReady(t, s)
	if got := s.cols.list(); len(got) != 2 || got[0] != (collectionInfo{Name: "empty"}) || got[1] != (collectionInfo{Name: "shops", Records: 5}) {
		t.Fatalf("restored collections = %+v, want empty/0 and shops/5", got)
	}
	recs := getRecords(t, hs.URL, "shops")
	if len(recs) != 5 || recs[1] != (recordInfo{ID: "r01", Entity: "e1", Source: 1, Text: "joes pizza 123 main street new york ny"}) {
		t.Fatalf("restored records = %+v", recs)
	}
	req, err := http.NewRequest(http.MethodPut, hs.URL+"/collections/shops/records/r01",
		strings.NewReader(`{"entity":"e1","source":1,"text":"joes pizza 123 main street new york ny"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Idempotency-Key", "put-r01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("keyed PUT: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Idempotency-Replayed") != "true" {
		t.Fatalf("keyed PUT = %d replayed=%q, want 200 answered from the restored dedup table",
			resp.StatusCode, resp.Header.Get("Idempotency-Replayed"))
	}
	status, jr := resolveCollectionDeltaJSON(t, hs.URL, "shops")
	if status != http.StatusOK {
		t.Fatalf("resolve = %d (%s)", status, jr.Error)
	}
	assertMatchesFresh(t, jr, recs)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	var written []byte
	l, _, err = wal.Open(context.Background(), wal.Options{
		Dir:        dir,
		OnSnapshot: func(_ uint64, data []byte) error { written = data; return nil },
		OnRecord:   func(wal.Record) error { return nil },
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	if !bytes.Equal(written, []byte(snapshotLiteral)) {
		t.Fatalf("final snapshot differs from the restored one:\n  restored: %s\n  written:  %s", snapshotLiteral, written)
	}
}

// TestCollectionConcurrentPutsAndResolves is the serve-side concurrency
// oracle: keyed PUTs from several writers race delta resolves of one
// durable collection, overwriting each other's records. Every request must
// succeed, and once the writers are done a resolve must equal a fresh
// collection over the records the server lists. Run it under -race.
func TestCollectionConcurrentPutsAndResolves(t *testing.T) {
	s, hs := newTestServer(t, Options{DataDir: t.TempDir(), BreakerThreshold: -1})
	waitReady(t, s)
	if status, body := doJSON(t, http.MethodPost, hs.URL+"/collections", `{"name":"live"}`); status != http.StatusCreated {
		t.Fatalf("create = %d (%v)", status, body)
	}
	const writers, puts = 4, 30
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < puts; i++ {
				ent := rng.Intn(12)
				body := fmt.Sprintf(`{"entity":"e%d","source":%d,"text":"entity%d model%d w%d w%d"}`,
					ent, rng.Intn(2), ent, ent, rng.Intn(30), rng.Intn(30))
				req, err := http.NewRequest(http.MethodPut,
					fmt.Sprintf("%s/collections/live/records/r%02d", hs.URL, rng.Intn(40)), strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("Idempotency-Key", fmt.Sprintf("w%d-%d", w, i))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("writer %d: PUT: %v", w, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("writer %d: PUT = %d, want 200", w, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	resolves := make(chan int)
	go func() {
		n := 0
		defer func() { resolves <- n }()
		for {
			resp, err := http.Post(hs.URL+"/collections/live/resolve", "application/json", nil)
			if err != nil {
				t.Errorf("resolve: %v", err)
				return
			}
			var jr jobResponse
			err = json.NewDecoder(resp.Body).Decode(&jr)
			resp.Body.Close()
			// The first resolves may find the collection still empty.
			if err != nil || (resp.StatusCode != http.StatusOK && jr.Kind != "no_records") {
				t.Errorf("resolve = %d (%s, decode %v)", resp.StatusCode, jr.Error, err)
				return
			}
			n++
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	n := <-resolves
	if t.Failed() {
		return
	}
	t.Logf("%d resolves raced %d PUTs", n, writers*puts)
	status, jr := resolveCollectionDeltaJSON(t, hs.URL, "live")
	if status != http.StatusOK {
		t.Fatalf("quiesced resolve = %d (%s)", status, jr.Error)
	}
	assertMatchesFresh(t, jr, getRecords(t, hs.URL, "live"))
}
