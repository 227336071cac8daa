package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/bitset"
	"repro/internal/estimator"
	"repro/internal/ingestcodec"
	"repro/internal/telemetry"
)

// maxIngestBody is the default Config.MaxIngestBytes (64 MiB is ~ a
// day of intervals on the paper-scale path universe).
const maxIngestBody = 64 << 20

// APIVersion tags every response envelope; clients should reject
// versions they do not understand.
const APIVersion = "v1"

// Machine-readable error codes of the v1 API. They are part of the
// wire contract: clients dispatch on Code, never on Message.
const (
	CodeBadRequest    = "bad_request"    // malformed body or query parameter
	CodeUnknownAlgo   = "unknown_algo"   // ?algo= names no registered estimator
	CodeUnknownLink   = "unknown_link"   // link id outside the universe
	CodeUnknownSubset = "unknown_subset" // subset id outside the snapshot's universe
	CodeNoSnapshot    = "no_snapshot"    // no epoch published yet
	CodeSolveCanceled = "solve_canceled" // the request's solve was cancelled (client gone or shutdown)
	CodeSolverFailed  = "solver_failed"  // the estimator returned an error
	CodeInternal      = "internal_error" // server-side failure unrelated to the solve

	CodePayloadTooLarge  = "payload_too_large" // ingest body exceeds MaxIngestBytes
	CodeWALUnavailable   = "wal_unavailable"   // the write-ahead log cannot accept the batch (stalled or failed disk)
	CodeNotReady         = "not_ready"         // readiness probe: no snapshot published yet
	CodeSolverPanic      = "solver_panic"      // readiness probe: a contained solver panic has degraded the service
	CodeShardUnavailable = "shard_unavailable" // cluster mode: a shard's worker is unreachable (retry after it rejoins)
)

// Envelope is the versioned wrapper of every v1 response: exactly one
// of Data and Error is set.
type Envelope struct {
	APIVersion string          `json:"api_version"`
	Data       json.RawMessage `json:"data,omitempty"`
	Error      *APIError       `json:"error,omitempty"`
}

// APIError is the machine-readable error payload.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Wire types of the JSON API.

// IntervalObs is one measurement interval on the wire: the IDs of the
// paths observed congested (Assumption 2: E2E monitoring).
type IntervalObs struct {
	CongestedPaths []int `json:"congested_paths"`
}

// ObservationsRequest is the body of POST /v1/observations.
type ObservationsRequest struct {
	Intervals []IntervalObs `json:"intervals"`
}

// ObservationsResponse acknowledges an ingest batch.
type ObservationsResponse struct {
	Accepted int    `json:"accepted"`
	Seq      uint64 `json:"seq"`
}

// LinkResponse is the answer of GET /v1/links/{id}: the best available
// estimate of P(link congested) under the snapshot's epoch, by the
// requested algorithm (?algo=, default the epoch solver).
type LinkResponse struct {
	Link        int     `json:"link"`
	Name        string  `json:"name,omitempty"`
	Algorithm   string  `json:"algorithm"`
	CongestProb float64 `json:"congest_prob"`
	// Exact reports whether the probability was identified by the
	// algorithm (vs an observable fallback estimate).
	Exact   bool   `json:"exact"`
	Epoch   uint64 `json:"epoch"`
	WindowT int    `json:"window_intervals"`
	SeqHigh uint64 `json:"seq_high"`
}

// SubsetResponse is one correlation subset's estimate: the probability
// that all its links are simultaneously good (the paper's primary
// output). GoodProb is omitted when the subset is unidentifiable.
type SubsetResponse struct {
	ID           int      `json:"id"`
	Links        []int    `json:"links"`
	CorrSet      int      `json:"corr_set"`
	GoodProb     *float64 `json:"good_prob,omitempty"`
	CongestProb  *float64 `json:"congest_prob,omitempty"`
	Identifiable bool     `json:"identifiable"`
}

// SubsetsResponse is GET /v1/subsets: every correlation subset of the
// snapshot's estimate, in stable ID order.
type SubsetsResponse struct {
	Epoch        uint64           `json:"epoch"`
	Algorithm    string           `json:"algorithm"`
	WindowT      int              `json:"window_intervals"`
	SeqHigh      uint64           `json:"seq_high"`
	Total        int              `json:"total"`
	Identifiable int              `json:"identifiable"`
	Subsets      []SubsetResponse `json:"subsets"`
}

// EstimatorInfo describes one registered estimator.
type EstimatorInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// Default reports whether this is the server's epoch solver.
	Default bool `json:"default"`
}

// EstimatorsResponse is GET /v1/estimators: the registry, sorted by
// name.
type EstimatorsResponse struct {
	Estimators []EstimatorInfo `json:"estimators"`
}

// CongestedPath is one entry of GET /v1/paths/congested.
type CongestedPath struct {
	Path              int     `json:"path"`
	Name              string  `json:"name,omitempty"`
	CongestedFraction float64 `json:"congested_fraction"`
}

// CongestedPathsResponse lists the paths whose congested fraction over
// the snapshot window meets the threshold, most congested first.
type CongestedPathsResponse struct {
	Epoch     uint64          `json:"epoch"`
	WindowT   int             `json:"window_intervals"`
	SeqHigh   uint64          `json:"seq_high"`
	Threshold float64         `json:"threshold"`
	Paths     []CongestedPath `json:"paths"`
}

// ShardStatus is one shard solver's live state in GET /v1/status
// (sharded mode only): its independent epoch counter, the ingest
// sequence its last solve covered, how far ingest has run ahead of it,
// and whether the solve warm-started from the carried-forward plan.
type ShardStatus struct {
	Shard           int     `json:"shard"`
	Epoch           uint64  `json:"epoch"`
	SeqHigh         uint64  `json:"seq_high"`
	LagIntervals    uint64  `json:"lag_intervals"`
	Warm            bool    `json:"warm"`
	Repaired        bool    `json:"repaired"`
	RepairedNumeric bool    `json:"repaired_numeric"`
	RepairFailed    bool    `json:"repair_failed,omitempty"`
	ComputeMs       float64 `json:"last_compute_ms"`
	// EpochBacklog is the shard's pending interval-stride checkpoints
	// (0 unless Config.EpochEvery is set).
	EpochBacklog int    `json:"epoch_backlog,omitempty"`
	Paths        int    `json:"paths"`
	Links        int    `json:"links"`
	Error        string `json:"error,omitempty"`
}

// StatusResponse is GET /v1/status: ingest/solver progress and lag.
type StatusResponse struct {
	Epoch       uint64 `json:"epoch"`
	Algorithm   string `json:"algorithm"`
	IngestedSeq uint64 `json:"ingested_seq"`
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// LagIntervals is how many ingested intervals the published
	// snapshot has not yet seen.
	LagIntervals uint64  `json:"lag_intervals"`
	WindowT      int     `json:"window_intervals"`
	WindowCap    int     `json:"window_capacity"`
	NumLinks     int     `json:"num_links"`
	NumPaths     int     `json:"num_paths"`
	ComputeMs    float64 `json:"last_compute_ms"`
	Rank         int     `json:"rank"`
	Nullity      int     `json:"nullity"`
	Subsets      int     `json:"subsets"`
	Identifiable int     `json:"identifiable_subsets"`
	ClampedRows  int     `json:"clamped_rows"`
	SolverError  string  `json:"solver_error,omitempty"`

	// Warm, Repaired and RepairedNumeric report how the published
	// epoch's solve used the carried-forward structural plan (unsharded
	// correlation-complete; sharded mode reports per shard below):
	// warm reuse, tier-1 re-key, or tier-2 factorization patch.
	// RepairFailed marks a cold epoch whose repair attempt failed.
	Warm            bool `json:"warm"`
	Repaired        bool `json:"repaired"`
	RepairedNumeric bool `json:"repaired_numeric"`
	RepairFailed    bool `json:"repair_failed,omitempty"`

	// SolveTiers is the cumulative published-epoch count by plan path
	// since process start (cold / warm / repaired / repaired_numeric,
	// plus the overlapping repair_failed count).
	SolveTiers SolveTierCounts `json:"solve_tiers"`

	// EpochBacklog is the number of interval-stride checkpoints waiting
	// for the solver, CheckpointsDropped how many were discarded past
	// the backlog bound; both 0 unless Config.EpochEvery is set.
	EpochBacklog       int    `json:"epoch_backlog,omitempty"`
	CheckpointsDropped uint64 `json:"checkpoints_dropped,omitempty"`

	// Process identity and age, for fleet dashboards that correlate
	// behavior changes with deploys: UptimeSeconds since process start,
	// the Go toolchain that built the binary, the VCS revision stamped
	// at build time (absent for `go run` / test binaries), and the
	// solver's parallelism budget.
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
	VCSRevision   string  `json:"vcs_revision,omitempty"`
	GOMAXPROCS    int     `json:"gomaxprocs"`

	// Shards lists each shard solver's independent epoch and lag;
	// present only in sharded mode.
	Shards []ShardStatus `json:"shards,omitempty"`

	// Cluster reports the coordinator's worker fleet — per-worker shard
	// placement, health state and acknowledged sequence — present only
	// in cluster mode (-role coordinator).
	Cluster *ClusterStatus `json:"cluster,omitempty"`

	// Degraded reports a contained failure: a recovered solver panic
	// (cleared by the next clean epoch) or a latched WAL failure
	// (persists until restart). The daemon keeps serving its last good
	// snapshot while degraded.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`

	// WAL is the durable-ingest state; absent when -wal-dir is unset.
	WAL *WALStatus `json:"wal,omitempty"`
}

// WALStatus is the wal{} block of GET /v1/status.
type WALStatus struct {
	// LastSeq is the durable high-water mark: every interval up to it
	// survives a crash (modulo the fsync policy's window).
	LastSeq  uint64 `json:"last_seq"`
	Segments int    `json:"segments"`
	Bytes    int64  `json:"bytes"`
	// FsyncPolicy is "batch", "interval" or "off".
	FsyncPolicy string `json:"fsync_policy"`
	// RecoveredRecords is how many records the startup scan replayed;
	// TruncatedBytes the torn tail it dropped (0 on a clean start).
	RecoveredRecords int   `json:"recovered_records"`
	TruncatedBytes   int64 `json:"truncated_bytes,omitempty"`
	// Error is the latched WAL failure, if any: ingest is refusing
	// batches (503) until the daemon is restarted.
	Error string `json:"error,omitempty"`
}

// HealthResponse is GET /v1/healthz and /v1/readyz.
type HealthResponse struct {
	Status string `json:"status"`
}

// EpochRecord is one published epoch in GET /v1/epochs.
type EpochRecord struct {
	Epoch           uint64  `json:"epoch"`
	SeqHigh         uint64  `json:"seq_high"`
	WindowT         int     `json:"window_intervals"`
	Warm            bool    `json:"warm"`
	Repaired        bool    `json:"repaired"`
	RepairedNumeric bool    `json:"repaired_numeric"`
	RepairFailed    bool    `json:"repair_failed,omitempty"`
	ComputeMs       float64 `json:"compute_ms"`
	Error           string  `json:"error,omitempty"`
}

// EpochsResponse is GET /v1/epochs: the bounded ring of published
// epochs, oldest first — with interval-stride epochs enabled
// (Config.EpochEvery) this is where a drained lag burst becomes
// visible as one epoch per checkpoint.
type EpochsResponse struct {
	Algorithm string        `json:"algorithm"`
	Epochs    []EpochRecord `json:"epochs"`
}

// Handler returns the versioned HTTP API: batched ingest; per-link,
// subset-level and congested-path queries answered from the latest
// snapshot; the estimator registry; and status. The estimate-backed
// endpoints (/v1/links/{id}, /v1/subsets, /v1/subsets/{id}) accept
// per-request estimator selection via ?algo=; /v1/paths/congested is
// observation-level (raw window fractions, no estimator involved).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/observations", s.handleObservations)
	mux.HandleFunc("GET /v1/links/{id}", s.handleLink)
	mux.HandleFunc("GET /v1/subsets", s.handleSubsets)
	mux.HandleFunc("GET /v1/subsets/{id}", s.handleSubset)
	mux.HandleFunc("GET /v1/estimators", s.handleEstimators)
	mux.HandleFunc("GET /v1/paths/congested", s.handleCongestedPaths)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /v1/epochs", s.handleEpochs)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	mux.Handle("GET /metrics", telemetry.Handler(telemetry.Default()))
	return withMetrics(mux)
}

// statusRecorder captures the response code for the request metrics; a
// handler that never calls WriteHeader implicitly answered 200.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// withMetrics instruments every request with the in-flight gauge, the
// per-route latency histogram and the per-route/code counter. The
// route label is the mux pattern the request dispatched to (set on the
// request by ServeMux before the handler runs), so cardinality is
// bounded by the route table — client-controlled paths never mint new
// series.
func withMetrics(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		metricHTTPInFlight.Inc()
		defer metricHTTPInFlight.Dec()
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sr, r)
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		metricHTTPDuration.With(route).Observe(time.Since(start).Seconds())
		metricHTTPRequests.With(route, strconv.Itoa(sr.code)).Inc()
	})
}

// writeData wraps v in the versioned envelope.
func writeData(w http.ResponseWriter, status int, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "encoding response: %v", err)
		return
	}
	writeEnvelope(w, status, Envelope{APIVersion: APIVersion, Data: raw})
}

// writeError wraps a machine-readable error in the versioned envelope.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeEnvelope(w, status, Envelope{
		APIVersion: APIVersion,
		Error:      &APIError{Code: code, Message: fmt.Sprintf(format, args...)},
	})
}

func writeEnvelope(w http.ResponseWriter, status int, env Envelope) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(env)
}

func (s *Server) handleObservations(w http.ResponseWriter, r *http.Request) {
	buf, err := ingestcodec.ReadBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxIngestBytes))
	var batch []*bitset.Set
	if err == nil {
		batch, err = decodeObservations(buf.Bytes(), s.top.NumPaths())
	}
	ingestcodec.ReleaseBody(buf)
	if err != nil {
		var tooLarge *http.MaxBytesError
		var badPath *ingestcodec.PathRangeError
		switch {
		case errors.As(err, &tooLarge):
			rejTooLarge.Inc()
			writeError(w, http.StatusRequestEntityTooLarge, CodePayloadTooLarge,
				"body exceeds the %d-byte ingest limit; split the batch", tooLarge.Limit)
		case errors.As(err, &badPath):
			rejBadPath.Inc()
			writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		default:
			rejBadRequest.Inc()
			writeError(w, http.StatusBadRequest, CodeBadRequest, "decoding body: %v", err)
		}
		return
	}
	seq, err := s.Ingest(batch)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		if errors.Is(err, ErrShardUnavailable) {
			// A shard-owning worker is unreachable: nothing was applied
			// (the fan-out rejects before the local window advances), so
			// the client can retry the identical batch once the worker
			// rejoins — workers deduplicate by base sequence.
			rejShard.Inc()
			writeError(w, http.StatusServiceUnavailable, CodeShardUnavailable, "cluster ingest unavailable: %v", err)
			return
		}
		// The WAL cannot persist the batch: a stalled disk clears on
		// its own (retry soon), a latched write/fsync failure needs a
		// restart — either way the client should back off and retry
		// rather than treat the observations as accepted.
		rejWAL.Inc()
		writeError(w, http.StatusServiceUnavailable, CodeWALUnavailable, "durable ingest unavailable: %v", err)
		return
	}
	writeData(w, http.StatusOK, ObservationsResponse{Accepted: len(batch), Seq: seq})
}

// decodeObservations parses a POST /v1/observations body into one
// full-universe path set per interval: the single-pass codec for a
// canonical body, encoding/json (decodeObservationsJSON) for anything
// else. Out-of-range paths come back as *ingestcodec.PathRangeError.
func decodeObservations(body []byte, numPaths int) ([]*bitset.Set, error) {
	if batch, ok := ingestcodec.DecodeObservations(body, numPaths); ok {
		return batch, nil
	}
	return decodeObservationsJSON(body, numPaths)
}

// decodeObservationsJSON is the reference decode: it owns every error
// message and every body the codec does not handle. Like any
// json.Decoder it reads only the first JSON value of the body.
func decodeObservationsJSON(body []byte, numPaths int) ([]*bitset.Set, error) {
	var req ObservationsRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, err
	}
	batch := make([]*bitset.Set, len(req.Intervals))
	for i, iv := range req.Intervals {
		set, err := ingestcodec.PathSet(i, iv.CongestedPaths, numPaths)
		if err != nil {
			return nil, err
		}
		batch[i] = set
	}
	return batch, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeData(w, http.StatusOK, HealthResponse{Status: "ok"})
}

// handleReadyz reports readiness: WAL recovery is complete (it is
// synchronous in New, so reaching a handler implies it), the first
// snapshot has been published (queries will not 503 with no_snapshot),
// and the service is not degraded — a latched WAL failure (ingest is
// refusing batches until restart) or an uncleared solver panic both
// answer 503 with the reason, so a load balancer stops routing to a
// wedged instance instead of feeding it traffic it can only half
// serve.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.wal != nil {
		if err := s.wal.Err(); err != nil {
			writeError(w, http.StatusServiceUnavailable, CodeWALUnavailable,
				"degraded: durable ingest unavailable until restart: %v", err)
			return
		}
	}
	if cs := s.clusterStatus(); cs != nil && len(cs.UnreachableShards) > 0 {
		writeError(w, http.StatusServiceUnavailable, CodeShardUnavailable,
			"degraded: %d shard(s) unavailable (workers unreachable); serving last merged snapshot", len(cs.UnreachableShards))
		return
	}
	if reason, _ := s.degraded.Load().(string); reason != "" {
		writeError(w, http.StatusServiceUnavailable, CodeSolverPanic, "degraded: %s", reason)
		return
	}
	if !s.Ready() {
		writeError(w, http.StatusServiceUnavailable, CodeNotReady, "no solver snapshot published yet")
		return
	}
	writeData(w, http.StatusOK, HealthResponse{Status: "ready"})
}

// snapshotEstimate resolves the latest snapshot and the estimate for
// the request's ?algo= selection, writing the appropriate error
// envelope on failure.
func (s *Server) snapshotEstimate(w http.ResponseWriter, r *http.Request) (*Snapshot, *estimator.Estimate, bool) {
	snap := s.Latest()
	if snap == nil {
		writeError(w, http.StatusServiceUnavailable, CodeNoSnapshot, "no solver snapshot yet")
		return nil, nil, false
	}
	algo := r.URL.Query().Get("algo")
	est, err := snap.EstimateFor(r.Context(), algo)
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusServiceUnavailable, CodeSolveCanceled, "solve cancelled: %v", err)
		case algo != "" && !registered(algo):
			writeError(w, http.StatusBadRequest, CodeUnknownAlgo, "%v", err)
		default:
			writeError(w, http.StatusInternalServerError, CodeSolverFailed, "%v", err)
		}
		return nil, nil, false
	}
	return snap, est, true
}

// registered reports whether name is in the estimator registry.
func registered(name string) bool {
	_, err := estimator.New(name)
	return err == nil
}

func (s *Server) handleLink(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "link id %q is not an integer", r.PathValue("id"))
		return
	}
	if id < 0 || id >= s.top.NumLinks() {
		writeError(w, http.StatusNotFound, CodeUnknownLink, "link %d outside universe [0,%d)", id, s.top.NumLinks())
		return
	}
	snap, est, ok := s.snapshotEstimate(w, r)
	if !ok {
		return
	}
	p, exact := est.LinkCongestProb(id)
	writeData(w, http.StatusOK, LinkResponse{
		Link:        id,
		Name:        s.top.Links[id].Name,
		Algorithm:   est.Algorithm,
		CongestProb: p,
		Exact:       exact,
		Epoch:       snap.Epoch,
		WindowT:     snap.T,
		SeqHigh:     snap.SeqHigh,
	})
}

// subsetResponse flattens one subset estimate for the wire; the good
// probability is omitted (not NaN, which JSON cannot carry) when the
// subset is unidentifiable. For estimates with joint-query detail, the
// subset's congestion probability is included too.
func subsetResponse(est *estimator.Estimate, sub estimator.SubsetEstimate) SubsetResponse {
	out := SubsetResponse{
		ID:           sub.ID,
		Links:        sub.Links.Indices(),
		CorrSet:      sub.CorrSet,
		Identifiable: sub.Identifiable,
	}
	if sub.Identifiable {
		g := sub.GoodProb
		out.GoodProb = &g
		if est.Detail != nil {
			if c, ok := est.Detail.CongestedProb(sub.Links); ok {
				out.CongestProb = &c
			}
		}
	}
	return out
}

func (s *Server) handleSubsets(w http.ResponseWriter, r *http.Request) {
	snap, est, ok := s.snapshotEstimate(w, r)
	if !ok {
		return
	}
	resp := SubsetsResponse{
		Epoch:     snap.Epoch,
		Algorithm: est.Algorithm,
		WindowT:   snap.T,
		SeqHigh:   snap.SeqHigh,
		Total:     len(est.Subsets),
		Subsets:   make([]SubsetResponse, 0, len(est.Subsets)),
	}
	for _, sub := range est.Subsets {
		if sub.Identifiable {
			resp.Identifiable++
		}
		resp.Subsets = append(resp.Subsets, subsetResponse(est, sub))
	}
	writeData(w, http.StatusOK, resp)
}

func (s *Server) handleSubset(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "subset id %q is not an integer", r.PathValue("id"))
		return
	}
	snap, est, ok := s.snapshotEstimate(w, r)
	if !ok {
		return
	}
	if id < 0 || id >= len(est.Subsets) {
		writeError(w, http.StatusNotFound, CodeUnknownSubset,
			"subset %d outside universe [0,%d) of epoch %d", id, len(est.Subsets), snap.Epoch)
		return
	}
	writeData(w, http.StatusOK, subsetResponse(est, est.Subsets[id]))
}

func (s *Server) handleEstimators(w http.ResponseWriter, r *http.Request) {
	resp := EstimatorsResponse{}
	for _, name := range estimator.Names() {
		est, err := estimator.New(name)
		if err != nil {
			continue // unreachable: Names only lists registered estimators
		}
		resp.Estimators = append(resp.Estimators, EstimatorInfo{
			Name:        name,
			Description: est.Description(),
			Default:     name == s.cfg.Algo,
		})
	}
	writeData(w, http.StatusOK, resp)
}

func (s *Server) handleCongestedPaths(w http.ResponseWriter, r *http.Request) {
	threshold := 0.5
	if v := r.URL.Query().Get("min"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 || f > 1 {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "min must be a number in [0,1], got %q", v)
			return
		}
		threshold = f
	}
	snap := s.Latest()
	if snap == nil {
		writeError(w, http.StatusServiceUnavailable, CodeNoSnapshot, "no solver snapshot yet")
		return
	}
	resp := CongestedPathsResponse{
		Epoch:     snap.Epoch,
		WindowT:   snap.T,
		SeqHigh:   snap.SeqHigh,
		Threshold: threshold,
		Paths:     []CongestedPath{},
	}
	for p := 0; p < s.top.NumPaths(); p++ {
		if f := snap.Window.CongestedFraction(p); f >= threshold {
			resp.Paths = append(resp.Paths, CongestedPath{
				Path:              p,
				Name:              s.top.Paths[p].Name,
				CongestedFraction: f,
			})
		}
	}
	sort.Slice(resp.Paths, func(i, j int) bool {
		if resp.Paths[i].CongestedFraction != resp.Paths[j].CongestedFraction {
			return resp.Paths[i].CongestedFraction > resp.Paths[j].CongestedFraction
		}
		return resp.Paths[i].Path < resp.Paths[j].Path
	})
	writeData(w, http.StatusOK, resp)
}

func (s *Server) handleEpochs(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "limit must be a positive integer, got %q", v)
			return
		}
		limit = n
	}
	history := s.History()
	if limit > 0 && len(history) > limit {
		history = history[len(history)-limit:]
	}
	resp := EpochsResponse{Algorithm: s.cfg.Algo, Epochs: make([]EpochRecord, 0, len(history))}
	for _, h := range history {
		resp.Epochs = append(resp.Epochs, EpochRecord{
			Epoch:           h.Epoch,
			SeqHigh:         h.SeqHigh,
			WindowT:         h.T,
			Warm:            h.Warm,
			Repaired:        h.Repaired,
			RepairedNumeric: h.RepairedNumeric,
			RepairFailed:    h.RepairFailed,
			ComputeMs:       float64(h.ComputeTime.Microseconds()) / 1000,
			Error:           h.Err,
		})
	}
	writeData(w, http.StatusOK, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	// Load the snapshot before reading the ingest counter: SeqHigh is a
	// past value of the monotone counter, so this order guarantees
	// IngestedSeq ≥ SnapshotSeq and the lag subtraction cannot wrap.
	snap := s.Latest()
	st := StatusResponse{
		Algorithm:     s.cfg.Algo,
		IngestedSeq:   s.Seq(),
		WindowCap:     s.cfg.WindowSize,
		NumLinks:      s.top.NumLinks(),
		NumPaths:      s.top.NumPaths(),
		UptimeSeconds: Uptime().Seconds(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		SolveTiers:    s.SolveTiers(),
	}
	st.GoVersion, st.VCSRevision = BuildInfo()
	if st.VCSRevision == "unknown" {
		st.VCSRevision = ""
	}
	st.EpochBacklog, st.CheckpointsDropped = s.backlogStats()
	if snap != nil {
		st.Epoch = snap.Epoch
		st.SnapshotSeq = snap.SeqHigh
		st.LagIntervals = st.IngestedSeq - snap.SeqHigh
		st.WindowT = snap.T
		st.Warm = snap.Warm
		st.Repaired = snap.Repaired
		st.RepairedNumeric = snap.RepairedNumeric
		st.RepairFailed = snap.RepairFailed
		st.ComputeMs = float64(snap.ComputeTime.Microseconds()) / 1000
		if snap.Err != nil {
			st.SolverError = snap.Err.Error()
		}
		if est := snap.Est; est != nil {
			st.Rank = est.Rank
			st.Nullity = est.Nullity
			st.Subsets = len(est.Subsets)
			st.ClampedRows = est.ClampedRows
			for _, sub := range est.Subsets {
				if sub.Identifiable {
					st.Identifiable++
				}
			}
		}
	} else {
		st.LagIntervals = st.IngestedSeq
	}
	if s.backend != nil {
		st.Shards = s.shardStatuses(st.IngestedSeq)
	}
	if cs := s.clusterStatus(); cs != nil {
		st.Cluster = cs
	}
	if reason := s.DegradedReason(); reason != "" {
		st.Degraded = true
		st.DegradedReason = reason
	}
	if ws, rec, ok := s.WALStats(); ok {
		st.WAL = &WALStatus{
			LastSeq:          ws.LastSeq,
			Segments:         ws.Segments,
			Bytes:            ws.Bytes,
			FsyncPolicy:      ws.Policy.String(),
			RecoveredRecords: rec.Records,
			TruncatedBytes:   rec.TruncatedBytes,
		}
		if err := s.wal.Err(); err != nil {
			st.WAL.Error = err.Error()
		}
	}
	writeData(w, http.StatusOK, st)
}

// shardStatuses reads the live per-shard solver states. ingested is the
// ingest sequence already reported in the same response; a shard that
// published between the two reads is clamped to zero lag rather than
// allowed to wrap.
func (s *Server) shardStatuses(ingested uint64) []ShardStatus {
	s.publishMu.Lock()
	defer s.publishMu.Unlock()
	out := make([]ShardStatus, len(s.shardStates))
	for i := range s.shardStates {
		info := s.shardInfoLocked(i)
		out[i] = ShardStatus{
			Shard:           info.Shard,
			Epoch:           info.Epoch,
			SeqHigh:         info.SeqHigh,
			Warm:            info.Warm,
			Repaired:        info.Repaired,
			RepairedNumeric: info.RepairedNumeric,
			RepairFailed:    info.RepairFailed,
			ComputeMs:       float64(info.ComputeTime.Microseconds()) / 1000,
			EpochBacklog:    info.EpochBacklog,
			Paths:           info.Paths,
			Links:           info.Links,
		}
		if ingested >= info.SeqHigh {
			out[i].LagIntervals = ingested - info.SeqHigh
		}
		if err := s.shardStates[i].err; err != nil {
			out[i].Error = err.Error()
		}
	}
	return out
}
