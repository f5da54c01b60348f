package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	er "repro"
)

// Handler returns the daemon's HTTP surface:
//
//	POST /resolve    — submit a job (text/csv upload or application/json
//	                   replica request) and wait for its terminal state
//	GET  /jobs/{id}  — inspect a retained job
//	GET  /healthz    — liveness: 200 while the process serves at all
//	GET  /readyz     — readiness: 503 while draining or recovering
//	GET  /stats      — counters, gauges, latency quantiles, breaker classes
//
// plus the durable collections API (journaled through the WAL when a
// DataDir is configured):
//
//	POST   /collections                        — create a collection
//	GET    /collections                        — list collections
//	GET    /collections/{name}                 — list a collection's records
//	DELETE /collections/{name}                 — drop a collection
//	PUT    /collections/{name}/records/{id}    — upsert a record
//	DELETE /collections/{name}/records/{id}    — delete a record
//	POST   /collections/{name}/resolve         — resolve the full corpus
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /resolve", s.handleResolve)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("POST /collections", s.handleCollectionCreate)
	mux.HandleFunc("GET /collections", s.handleCollectionList)
	mux.HandleFunc("GET /collections/{name}", s.handleCollectionGet)
	mux.HandleFunc("DELETE /collections/{name}", s.handleCollectionDrop)
	mux.HandleFunc("PUT /collections/{name}/records/{id}", s.handleRecordPut)
	mux.HandleFunc("DELETE /collections/{name}/records/{id}", s.handleRecordDelete)
	mux.HandleFunc("POST /collections/{name}/resolve", s.handleCollectionResolve)
	return mux
}

// resolveRequest is the application/json form of POST /resolve: a named
// synthetic replica plus optional pipeline overrides.
type resolveRequest struct {
	// Replica selects the dataset: "restaurant", "product" or "paper".
	Replica string `json:"replica"`
	// Seed and Scale parameterize the replica generator (zero = defaults).
	Seed  int64   `json:"seed"`
	Scale float64 `json:"scale"`
	// Options overrides pipeline parameters; absent fields keep defaults.
	Options *jobOptions `json:"options"`
}

// jobOptions is the wire form of the pipeline overrides accepted by both
// request styles. Pointer fields distinguish "absent" from "zero", so a
// client can explicitly request Eta 0 without clobbering every default.
type jobOptions struct {
	Eta               *float64 `json:"eta"`
	FusionIterations  *int     `json:"iterations"`
	UseRSS            *bool    `json:"rss"`
	MinJaccard        *float64 `json:"min_jaccard"`
	MinSharedTerms    *int     `json:"min_shared_terms"`
	MaxDFRatio        *float64 `json:"max_df_ratio"`
	MaxCandidatePairs *int     `json:"max_pairs"`
	MaxWallClockMs    *int64   `json:"max_wall_clock_ms"`
	Seed              *int64   `json:"seed"`
	// Workers requests a kernel-goroutine budget for the job; the server
	// clamps it to Options.WorkersPerJob before running. Results are
	// bit-identical for every value, so this only trades latency for CPU.
	Workers *int `json:"workers"`
}

// apply overlays the wire overrides on a base Options.
func (jo *jobOptions) apply(o er.Options) er.Options {
	if jo == nil {
		return o
	}
	if jo.Eta != nil {
		o.Eta = *jo.Eta
	}
	if jo.FusionIterations != nil {
		o.FusionIterations = *jo.FusionIterations
	}
	if jo.UseRSS != nil {
		o.UseRSS = *jo.UseRSS
	}
	if jo.MinJaccard != nil {
		o.MinJaccard = *jo.MinJaccard
	}
	if jo.MinSharedTerms != nil {
		o.MinSharedTerms = *jo.MinSharedTerms
	}
	if jo.MaxDFRatio != nil {
		o.MaxDFRatio = *jo.MaxDFRatio
	}
	if jo.MaxCandidatePairs != nil {
		o.MaxCandidatePairs = *jo.MaxCandidatePairs
	}
	if jo.MaxWallClockMs != nil {
		o.MaxWallClock = time.Duration(*jo.MaxWallClockMs) * time.Millisecond
	}
	if jo.Seed != nil {
		o.Seed = *jo.Seed
	}
	if jo.Workers != nil {
		o.Workers = *jo.Workers
	}
	return o
}

// matchJSON is the wire form of one resolved pair.
type matchJSON struct {
	I           int     `json:"i"`
	J           int     `json:"j"`
	Probability float64 `json:"p"`
}

// metricsJSON is the wire form of a ground-truth evaluation.
type metricsJSON struct {
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
	TP        int     `json:"tp"`
	FP        int     `json:"fp"`
	FN        int     `json:"fn"`
}

// stageJSON is the wire form of one StageTrace entry. The *_fused/_reused
// fields appear only on the "deltafuse" stage of delta-scoped collection
// resolves: the work split between components actually re-fused and
// components served from the component cache.
type stageJSON struct {
	Stage            string  `json:"stage"`
	Cached           bool    `json:"cached,omitempty"`
	WallMs           float64 `json:"wall_ms"`
	In               int     `json:"in,omitempty"`
	Out              int     `json:"out,omitempty"`
	Rounds           int     `json:"rounds,omitempty"`
	Iterations       int     `json:"iterations,omitempty"`
	ComponentsFused  int     `json:"components_fused,omitempty"`
	ComponentsReused int     `json:"components_reused,omitempty"`
	PairsFused       int     `json:"pairs_fused,omitempty"`
	PairsReused      int     `json:"pairs_reused,omitempty"`
}

// deltaJSON is the wire form of er.DeltaStats on a delta-scoped resolve.
type deltaJSON struct {
	Components       int `json:"components"`
	ComponentsFused  int `json:"components_fused"`
	ComponentsReused int `json:"components_reused"`
	PairsFused       int `json:"pairs_fused"`
	PairsReused      int `json:"pairs_reused"`
}

// jobResponse is the wire form of a job's terminal (or inspected) state.
type jobResponse struct {
	JobID       string       `json:"job_id"`
	State       JobState     `json:"state"`
	Class       string       `json:"class"`
	Dataset     string       `json:"dataset,omitempty"`
	Records     int          `json:"records,omitempty"`
	QueueWaitMs float64      `json:"queue_wait_ms"`
	RunMs       float64      `json:"run_ms"`
	Matches     int          `json:"matches,omitempty"`
	Clusters    int          `json:"clusters,omitempty"`
	Converged   bool         `json:"converged,omitempty"`
	Repairs     int          `json:"numeric_repairs,omitempty"`
	Degraded    bool         `json:"degraded,omitempty"`
	Evaluation  *metricsJSON `json:"evaluation,omitempty"`
	Delta       *deltaJSON   `json:"delta,omitempty"`
	Stages      []stageJSON  `json:"stages,omitempty"`
	Pairs       []matchJSON  `json:"pairs,omitempty"`
	Error       string       `json:"error,omitempty"`
	Kind        string       `json:"kind,omitempty"`
}

// errorResponse is the wire form of any non-job failure (admission
// rejections, parse errors).
type errorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

func writeError(w http.ResponseWriter, status int, kind, msg string) {
	writeJSON(w, status, errorResponse{Error: msg, Kind: kind})
}

// unavailableRetryAfter is the Retry-After hint attached to transient
// fast-fail rejections (full admission queue, draining, recovering): short,
// because the condition clears on the order of a queue drain or a replay —
// the breaker path computes its own, longer hint from the actual cooldown.
const unavailableRetryAfter = time.Second

// writeHTTPError writes an admission-path rejection, including its
// Retry-After hint when the failure is transient. Ceil to whole seconds:
// the header has one-second resolution and rounding down would invite a
// retry that lands inside the window it was told to wait out.
func writeHTTPError(w http.ResponseWriter, herr *httpError) {
	if herr.retryAfter > 0 {
		secs := int64((herr.retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeError(w, herr.status, herr.kind, herr.message)
}

// ErrKind names the taxonomy class of a terminal job error for machine
// consumption, mirroring the er.HTTPStatus mapping. Exported so the HTTP
// client can assert the status↔kind↔sentinel round trip against the same
// table the server serializes from.
func ErrKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, er.ErrInvalidOptions):
		return "invalid_options"
	case errors.Is(err, er.ErrNoRecords):
		return "no_records"
	case errors.Is(err, er.ErrBadData):
		return "bad_data"
	case errors.Is(err, er.ErrNoCandidates):
		return "no_candidates"
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.Is(err, er.ErrBudgetExceeded), errors.Is(err, context.DeadlineExceeded):
		return "budget_exceeded"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "internal"
	}
}

// handleResolve is the job submission endpoint. It parses the dataset
// (upload or replica), runs admission control (breaker → draining →
// queue), then blocks until the job reaches its terminal state and maps
// the outcome onto the documented HTTP status.
func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request) {
	d, class, opts, perr := s.parseResolve(r)
	if perr != nil {
		writeError(w, perr.status, perr.kind, perr.message)
		return
	}
	s.runResolve(w, r, d.Name(), d, class, opts, nil)
}

// runResolve pushes a job through admission (breaker → draining → queue),
// waits for its terminal state and writes the response, reporting the
// input as dataset. Shared by /resolve and /collections/{name}/resolve; a
// non-nil run replaces the configured Runner and its dataset d (the
// delta-scoped collection path, where d is nil and the record count comes
// from the result).
func (s *Server) runResolve(w http.ResponseWriter, r *http.Request, dataset string, d *er.Dataset, class string, opts er.Options, run func(ctx context.Context) (*er.Result, error)) {
	ok, probe, retryAfter := s.breaker.allow(class)
	if !ok {
		s.c.tripped.Add(1)
		writeHTTPError(w, &httpError{status: http.StatusServiceUnavailable, kind: "breaker_open",
			message:    fmt.Sprintf("serve: circuit open for class %q, retry in %s", class, retryAfter.Round(time.Millisecond)),
			retryAfter: retryAfter})
		return
	}

	j, release, herr := s.submit(r.Context(), class, d, opts, probe, run)
	if herr != nil {
		if probe {
			// The probe never ran; free the half-open slot.
			s.breaker.onNeutral(class)
		}
		writeHTTPError(w, herr)
		return
	}
	defer release()
	<-j.done

	state, res, err, queueWait, runTime := j.view()
	resp := jobResponse{
		JobID:       j.id,
		State:       state,
		Class:       class,
		Dataset:     dataset,
		QueueWaitMs: float64(queueWait) / float64(time.Millisecond),
		RunMs:       float64(runTime) / float64(time.Millisecond),
	}
	if d != nil {
		resp.Records = d.NumRecords()
	} else if res != nil {
		resp.Records = len(res.IDs)
	}
	if err != nil {
		resp.Error = err.Error()
		resp.Kind = ErrKind(err)
		writeJSON(w, statusFor(err), resp)
		return
	}
	fillResult(&resp, res, r.URL.Query().Get("pairs") == "1")
	writeJSON(w, http.StatusOK, resp)
}

// fillResult copies the resolution outcome into the wire response. Pair
// listings are opt-in (?pairs=1): the counts are what most clients need
// and the Product replica resolves a thousand pairs.
func fillResult(resp *jobResponse, res *er.Result, includePairs bool) {
	if res == nil {
		return
	}
	resp.Matches = len(res.Matches)
	resp.Clusters = len(res.Clusters)
	resp.Converged = res.Converged
	resp.Repairs = res.NumericRepairs
	resp.Degraded = res.Degradation != nil
	if res.Evaluation != nil {
		resp.Evaluation = &metricsJSON{
			Precision: res.Evaluation.Precision,
			Recall:    res.Evaluation.Recall,
			F1:        res.Evaluation.F1,
			TP:        res.Evaluation.TP,
			FP:        res.Evaluation.FP,
			FN:        res.Evaluation.FN,
		}
	}
	if res.Delta != nil {
		resp.Delta = &deltaJSON{
			Components:       res.Delta.Components,
			ComponentsFused:  res.Delta.ComponentsFused,
			ComponentsReused: res.Delta.ComponentsReused,
			PairsFused:       res.Delta.PairsFused,
			PairsReused:      res.Delta.PairsReused,
		}
	}
	for _, st := range res.Trace {
		resp.Stages = append(resp.Stages, stageJSON{
			Stage:            st.Stage,
			Cached:           st.Cached,
			WallMs:           float64(st.Wall) / float64(time.Millisecond),
			In:               st.In,
			Out:              st.Out,
			Rounds:           st.Rounds,
			Iterations:       st.Iterations,
			ComponentsFused:  st.ComponentsFused,
			ComponentsReused: st.ComponentsReused,
			PairsFused:       st.PairsFused,
			PairsReused:      st.PairsReused,
		})
	}
	if includePairs {
		resp.Pairs = make([]matchJSON, len(res.Matches))
		for i, m := range res.Matches {
			resp.Pairs[i] = matchJSON{I: m.I, J: m.J, Probability: m.Probability}
		}
	}
}

// parseResolve extracts the dataset, job class and pipeline options from a
// POST /resolve request. CSV uploads are streamed through LoadCSVContext
// under the request context, so a client that disconnects mid-upload
// aborts the parse at the next row checkpoint.
func (s *Server) parseResolve(r *http.Request) (*er.Dataset, string, er.Options, *httpError) {
	var (
		d     *er.Dataset
		class string
		jo    *jobOptions
	)
	ct := r.Header.Get("Content-Type")
	switch {
	case strings.HasPrefix(ct, "text/csv"):
		body := http.MaxBytesReader(nil, r.Body, s.opts.MaxUploadBytes)
		ds, err := er.LoadCSVContext(r.Context(), body, "upload")
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				return nil, "", er.Options{}, &httpError{
					status:  http.StatusRequestEntityTooLarge,
					kind:    "upload_too_large",
					message: fmt.Sprintf("serve: upload exceeds %d bytes", s.opts.MaxUploadBytes),
				}
			}
			return nil, "", er.Options{}, &httpError{
				status:  er.HTTPStatus(err),
				kind:    ErrKind(err),
				message: err.Error(),
			}
		}
		d, class = ds, "upload"
		if q := r.URL.Query().Get("options"); q != "" {
			jo = &jobOptions{}
			if err := json.Unmarshal([]byte(q), jo); err != nil {
				return nil, "", er.Options{}, &httpError{
					status:  http.StatusBadRequest,
					kind:    "invalid_options",
					message: fmt.Sprintf("serve: bad options query parameter: %v", err),
				}
			}
		}
	case strings.HasPrefix(ct, "application/json"):
		var req resolveRequest
		dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, s.opts.MaxUploadBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return nil, "", er.Options{}, &httpError{
				status:  http.StatusBadRequest,
				kind:    "bad_request",
				message: fmt.Sprintf("serve: bad request body: %v", err),
			}
		}
		cfg := er.ReplicaConfig{Seed: req.Seed, Scale: req.Scale}
		switch req.Replica {
		case "restaurant":
			d = er.RestaurantReplica(cfg)
		case "product":
			d = er.ProductReplica(cfg)
		case "paper":
			d = er.PaperReplica(cfg)
		default:
			return nil, "", er.Options{}, &httpError{
				status:  http.StatusBadRequest,
				kind:    "invalid_options",
				message: fmt.Sprintf("serve: unknown replica %q (want restaurant, product or paper)", req.Replica),
			}
		}
		class, jo = "replica:"+req.Replica, req.Options
	default:
		return nil, "", er.Options{}, &httpError{
			status:  http.StatusUnsupportedMediaType,
			kind:    "unsupported_media_type",
			message: fmt.Sprintf("serve: unsupported Content-Type %q (want text/csv or application/json)", ct),
		}
	}

	opts := jo.apply(er.DefaultOptions())
	if opts.UseRSS {
		// RSS runs a different estimator with different failure modes;
		// separate breaker class so a sick estimator can't poison the other.
		class += "+rss"
	}
	if err := opts.Validate(); err != nil {
		return nil, "", er.Options{}, &httpError{
			status:  http.StatusBadRequest,
			kind:    "invalid_options",
			message: err.Error(),
		}
	}
	return d, class, opts, nil
}

// handleJob reports a retained job's current state (no pair listings).
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "serve: unknown job id")
		return
	}
	state, res, err, queueWait, runTime := j.view()
	resp := jobResponse{
		JobID:       j.id,
		State:       state,
		Class:       j.class,
		QueueWaitMs: float64(queueWait) / float64(time.Millisecond),
		RunMs:       float64(runTime) / float64(time.Millisecond),
	}
	if err != nil {
		resp.Error = err.Error()
		resp.Kind = ErrKind(err)
	}
	fillResult(&resp, res, false)
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is liveness: 200 whenever the process can answer at all,
// including while draining — the orchestrator's kill decision keys off
// readiness, not liveness.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 503 while draining, while the durable state
// is still being recovered (with replay progress, so an operator can
// watch a long recovery converge), permanently once recovery failed, or
// once the journal wedges — a wedged log fails every durable write, so
// the replica must leave rotation even though reads still work.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeHTTPError(w, &httpError{status: http.StatusServiceUnavailable, kind: "draining",
			message: ErrDraining.Error(), retryAfter: unavailableRetryAfter})
		return
	}
	switch s.recoveryPhase() {
	case recoveryRunning:
		w.Header().Set("Retry-After", strconv.FormatInt(int64(unavailableRetryAfter/time.Second), 10))
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":            "recovering",
			"kind":              "recovering",
			"replayed_records":  s.recovery.replayed.Load(),
			"snapshot_restored": s.recovery.snapshotRestored.Load(),
		})
		return
	case recoveryFailed:
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "recovery_failed",
			"kind":   "recovery_failed",
			"error":  s.recoveryError().Error(),
		})
		return
	case recoveryReady:
		if s.walLog.Stats().Wedged {
			writeError(w, http.StatusServiceUnavailable, "storage_wedged",
				"serve: collections journal is wedged; durable writes are failing")
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleStats reports the full observability snapshot.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
