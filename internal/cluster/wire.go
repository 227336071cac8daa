// Package cluster distributes the streaming tomography service across
// processes along the correlation-set partition seam: a coordinator
// owns the public /v1/* surface and the full ingest window, workers own
// disjoint sets of partition shards (their rings, warm structural
// plans, and per-shard WALs), and the two sides speak a small versioned
// JSON-over-HTTP wire format. The block-diagonal structure makes the
// distribution exact: each shard's solve reads only its own paths, so
// the coordinator's scatter-gather merge (core.MergeResults) is
// bit-identical to a single-process sharded solve over the same
// intervals.
//
// Wire contract (version "c1"; all responses wrapped in an envelope
// carrying the version and exactly one of data/error):
//
//   - POST /c1/assign        — shard placement: topology fingerprint,
//     window size, solver settings, shard list. Idempotent; replies
//     with each shard's recovered (WAL-replayed) sequence.
//   - POST /c1/ingest        — batched ingest to every assigned shard,
//     keyed by the coordinator's pre-batch sequence; workers skip the
//     already-applied prefix (retry dedupe) and reject gaps.
//   - POST /c1/shards/{k}/ingest — per-shard catch-up replay of rows a
//     rejoining worker missed; same dedupe/gap semantics, one shard.
//   - POST /c1/shards/{k}/reset  — discard the shard's ring and WAL and
//     fast-forward to a base sequence (worker fell behind the
//     coordinator's retained window, or ran ahead of a recovered
//     coordinator).
//   - GET  /c1/shards/{k}/result — the shard's solved block at the
//     worker's current sequence (solved on demand, warm plans, cached
//     until the ring advances).
//   - GET  /c1/status        — worker identity, fingerprint, per-shard
//     sequences.
//
// Failure semantics: the coordinator health-checks each worker and
// latches it unreachable on any RPC failure; while any shard is
// unreachable, ingest answers 503 shard_unavailable (nothing is ever
// half-applied: the fan-out precedes the coordinator's local apply, and
// workers deduplicate retried batches by base sequence) and queries
// keep serving the last merged snapshot. A restarted worker replays its
// per-shard WALs, reports its recovered sequences, and the health loop
// replays the missed suffix from the coordinator's window — or resets
// the shard when the gap has left the retained window.
package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/ingestcodec"
	"repro/internal/topology"
)

// WireVersion tags every internal-API response envelope; both sides
// reject versions they do not understand.
const WireVersion = "c1"

// maxRPCBody bounds one internal-API body on both sides (decode and
// reply), mirroring the public API's ingest bound.
const maxRPCBody = 64 << 20

// Machine-readable error codes of the cluster wire format. Like the
// public API, peers dispatch on Code, never on Message.
const (
	CodeWireVersion       = "wire_version"       // peer speaks an unknown wire version
	CodeTopologyMismatch  = "topology_mismatch"  // fingerprints disagree: the fleet is not monitoring one topology
	CodeNotAssigned       = "not_assigned"       // RPC before a successful /c1/assign
	CodeUnknownShard      = "unknown_shard"      // shard index not assigned to this worker
	CodeSeqGap            = "seq_gap"            // ingest base is ahead of the worker (missed batches); carries per-shard seqs
	CodeAssignmentChanged = "assignment_changed" // assign conflicts with live state; restart the worker to re-place
	CodeBadRequest        = "bad_request"        // malformed body or path
	CodeNotSolved         = "not_solved"         // result requested from an empty shard (nothing ingested yet)
	CodeSolverFailed      = "solver_failed"      // the shard solve returned an error
	CodeWALUnavailable    = "wal_unavailable"    // the shard WAL cannot accept the batch
)

// WireError is the error payload of the internal API; it implements
// error so clients can errors.As straight out of an RPC call.
type WireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Shards carries the worker's per-shard sequences on seq_gap, so
	// the coordinator can see exactly how far behind the worker is.
	Shards []ShardSeq `json:"shards,omitempty"`
}

func (e *WireError) Error() string { return fmt.Sprintf("cluster: %s: %s", e.Code, e.Message) }

// envelope wraps every internal-API response.
type envelope struct {
	WireVersion string          `json:"wire_version"`
	Data        json.RawMessage `json:"data,omitempty"`
	Error       *WireError      `json:"error,omitempty"`
}

// ShardSeq is one shard's ingest sequence, the unit of ack and catch-up
// bookkeeping.
type ShardSeq struct {
	Shard int    `json:"shard"`
	Seq   uint64 `json:"seq"`
}

// AssignRequest is POST /c1/assign: the coordinator places a set of
// partition shards on a worker. The fingerprint pins both sides to the
// same topology (and therefore the same partition, which both compute
// locally and never ship); the solver settings make worker solves
// bit-identical to what the coordinator would compute itself.
type AssignRequest struct {
	Fingerprint string             `json:"topology_fingerprint"`
	WorkerID    string             `json:"worker_id"`
	Shards      []int              `json:"shards"`
	WindowSize  int                `json:"window_size"`
	Solver      estimator.Settings `json:"solver"`
}

// AssignResponse acknowledges placement with each shard's current
// (possibly WAL-recovered) sequence, from which the coordinator plans
// catch-up.
type AssignResponse struct {
	WorkerID string     `json:"worker_id"`
	Shards   []ShardSeq `json:"shards"`
}

// IngestRequest is POST /c1/ingest (all assigned shards) and
// POST /c1/shards/{k}/ingest (one shard): a batch of intervals, each
// the congested path IDs in full-universe indexing, based at the
// sender's pre-batch sequence. A receiver whose shard is already past
// BaseSeq skips the overlap (idempotent retries); one that is behind it
// answers seq_gap and applies nothing.
type IngestRequest struct {
	BaseSeq   uint64  `json:"base_seq"`
	Intervals [][]int `json:"intervals"`
}

// IngestResponse acks the batch with the per-shard sequences after it.
type IngestResponse struct {
	Shards []ShardSeq `json:"shards"`
}

// ResetRequest is POST /c1/shards/{k}/reset: discard the shard's ring
// and WAL and fast-forward the empty state to Seq. Used when a worker's
// recovered sequence falls outside what the coordinator can replay.
type ResetRequest struct {
	Seq uint64 `json:"seq"`
}

// ResetResponse acknowledges the reset.
type ResetResponse struct {
	Shard int    `json:"shard"`
	Seq   uint64 `json:"seq"`
}

// WireSubset is one correlation subset of a shard's solved block.
// GoodProb is omitted (not NaN, which JSON cannot carry) when the
// subset is unidentifiable; links are full-universe IDs. encoding/json
// round-trips float64 exactly (shortest-representation encoding), so a
// decoded block is bit-identical to the worker's.
type WireSubset struct {
	Links        []int    `json:"links"`
	CorrSet      int      `json:"corr_set"`
	GoodProb     *float64 `json:"good_prob,omitempty"`
	Identifiable bool     `json:"identifiable"`
}

// ShardResultResponse is GET /c1/shards/{k}/result: the shard's solved
// block — the exported fields core.MergeResults reads — plus the
// sequence it was solved at and how the worker's warm plan served.
type ShardResultResponse struct {
	Shard           int    `json:"shard"`
	SeqHigh         uint64 `json:"seq_high"`
	T               int    `json:"t"`
	Warm            bool   `json:"warm"`
	Repaired        bool   `json:"repaired"`
	RepairedNumeric bool   `json:"repaired_numeric,omitempty"`
	RepairFailed    bool   `json:"repair_failed,omitempty"`
	BuildNs         int64  `json:"build_ns,omitempty"`
	RepairNs        int64  `json:"repair_ns,omitempty"`
	SolveNs         int64  `json:"solve_ns,omitempty"`

	Subsets     []WireSubset `json:"subsets"`
	PathSets    [][]int      `json:"path_sets"`
	Rank        int          `json:"rank"`
	Nullity     int          `json:"nullity"`
	ClampedRows int          `json:"clamped_rows"`
}

// WorkerStatusResponse is GET /c1/status on a worker.
type WorkerStatusResponse struct {
	WorkerID    string     `json:"worker_id"`
	Fingerprint string     `json:"topology_fingerprint"`
	WindowSize  int        `json:"window_size"`
	Shards      []ShardSeq `json:"shards"`
}

// Fingerprint identifies a topology on the wire: the hash of its
// canonical JSON serialization. Both sides compute their partition from
// the topology locally, so agreeing on the fingerprint means agreeing
// on the shard universe.
func Fingerprint(top *topology.Topology) string {
	h := sha256.New()
	if err := top.WriteJSON(h); err != nil {
		// WriteJSON to a hash cannot fail short of a marshal bug; make
		// that loud rather than fingerprint-collide.
		panic(fmt.Sprintf("cluster: fingerprinting topology: %v", err))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// encodeResult flattens a shard's solved block for the wire.
func encodeResult(shard int, seqHigh uint64, t int, res *core.Result, info estimator.SolveInfo) *ShardResultResponse {
	out := &ShardResultResponse{
		Shard:           shard,
		SeqHigh:         seqHigh,
		T:               t,
		Warm:            info.Warm,
		Repaired:        info.Repaired,
		RepairedNumeric: info.RepairedNumeric,
		RepairFailed:    info.RepairFailed,
		BuildNs:         info.BuildTime.Nanoseconds(),
		RepairNs:        info.RepairTime.Nanoseconds(),
		SolveNs:         info.SolveTime.Nanoseconds(),
		Subsets:         make([]WireSubset, len(res.Subsets)),
		PathSets:        make([][]int, len(res.PathSets)),
		Rank:            res.Rank,
		Nullity:         res.Nullity,
		ClampedRows:     res.ClampedRows,
	}
	for i, sub := range res.Subsets {
		ws := WireSubset{
			Links:        sub.Links.Indices(),
			CorrSet:      sub.CorrSet,
			Identifiable: sub.Identifiable,
		}
		if !math.IsNaN(sub.GoodProb) {
			g := sub.GoodProb
			ws.GoodProb = &g
		}
		out.Subsets[i] = ws
	}
	for i, ps := range res.PathSets {
		out.PathSets[i] = ps.Indices()
	}
	return out
}

// decodeResult reconstructs the block over the given universe sizes.
// Unidentifiable subsets get their NaN back.
func (r *ShardResultResponse) decodeResult(numPaths, numLinks int) *core.Result {
	subsets := make([]core.SubsetResult, len(r.Subsets))
	for i, ws := range r.Subsets {
		g := math.NaN()
		if ws.GoodProb != nil {
			g = *ws.GoodProb
		}
		subsets[i] = core.SubsetResult{
			Links:        bitset.FromIndices(numLinks, ws.Links...),
			CorrSet:      ws.CorrSet,
			GoodProb:     g,
			Identifiable: ws.Identifiable,
		}
	}
	pathSets := make([]*bitset.Set, len(r.PathSets))
	for i, ps := range r.PathSets {
		pathSets[i] = bitset.FromIndices(numPaths, ps...)
	}
	return core.NewShardResult(subsets, pathSets, r.Rank, r.Nullity, r.ClampedRows)
}

// decodeIngestBody parses a c1 ingest body into its base sequence and
// one full-universe path set per interval: the single-pass codec for
// the canonical encoding every coordinator sends, encoding/json
// (decodeIngestJSON) for anything else.
func decodeIngestBody(body []byte, numPaths int) (uint64, []*bitset.Set, error) {
	if base, batch, ok := ingestcodec.DecodeIngest(body, numPaths); ok {
		return base, batch, nil
	}
	return decodeIngestJSON(body, numPaths)
}

// decodeIngestJSON is the reference decode: it owns every error message
// and every body the codec does not handle.
func decodeIngestJSON(body []byte, numPaths int) (uint64, []*bitset.Set, error) {
	var req IngestRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return 0, nil, fmt.Errorf("decoding body: %w", err)
	}
	batch := make([]*bitset.Set, len(req.Intervals))
	for i, paths := range req.Intervals {
		set, err := ingestcodec.PathSet(i, paths, numPaths)
		if err != nil {
			return 0, nil, err
		}
		batch[i] = set
	}
	return req.BaseSeq, batch, nil
}

// client is one peer's view of a worker's internal API.
type client struct {
	base string // e.g. "http://127.0.0.1:9101"
	hc   *http.Client
}

// do performs one RPC: send in (nil means no body; a []byte is a
// pre-encoded body, anything else is marshalled), decode the envelope,
// enforce the wire version, and unmarshal data into out (nil means
// discard). Application errors come back as *WireError; transport
// errors as whatever the HTTP client produced.
func (c *client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, ok := in.([]byte)
		if !ok {
			var err error
			if raw, err = json.Marshal(in); err != nil {
				return fmt.Errorf("cluster: encoding %s %s: %w", method, path, err)
			}
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var env envelope
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxRPCBody)).Decode(&env); err != nil {
		return fmt.Errorf("cluster: decoding %s %s (HTTP %d): %w", method, path, resp.StatusCode, err)
	}
	if env.WireVersion != WireVersion {
		return &WireError{Code: CodeWireVersion,
			Message: fmt.Sprintf("peer speaks wire version %q, this build speaks %q", env.WireVersion, WireVersion)}
	}
	if env.Error != nil {
		return env.Error
	}
	if out != nil {
		if err := json.Unmarshal(env.Data, out); err != nil {
			return fmt.Errorf("cluster: decoding %s %s data: %w", method, path, err)
		}
	}
	return nil
}

// writeWire wraps v in the versioned envelope.
func writeWire(w http.ResponseWriter, status int, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		writeWireError(w, http.StatusInternalServerError,
			&WireError{Code: CodeBadRequest, Message: fmt.Sprintf("encoding response: %v", err)})
		return
	}
	writeWireEnvelope(w, status, envelope{WireVersion: WireVersion, Data: raw})
}

// writeWireError wraps a wire error in the versioned envelope.
func writeWireError(w http.ResponseWriter, status int, e *WireError) {
	writeWireEnvelope(w, status, envelope{WireVersion: WireVersion, Error: e})
}

func writeWireEnvelope(w http.ResponseWriter, status int, env envelope) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(env)
}

// settingsOptions turns resolved Settings back into an option list, so
// a worker reconstructs exactly the solver configuration the
// coordinator resolved (Apply over defaults is the identity for a
// resolved set).
func settingsOptions(st estimator.Settings) []estimator.Option {
	return []estimator.Option{
		estimator.WithMaxSubsetSize(st.MaxSubsetSize),
		estimator.WithAlwaysGoodTol(st.AlwaysGoodTol),
		estimator.WithMaxEnumPathSets(st.MaxEnumPathSets),
		estimator.WithConcurrency(st.Concurrency),
		estimator.WithPairsPerLink(st.PairsPerLink),
		estimator.WithGlobalPairs(st.GlobalPairs),
		estimator.WithSweeps(st.Sweeps),
		estimator.WithSeed(st.Seed),
		estimator.WithPlanRepair(!st.DisablePlanRepair),
		estimator.WithNumericalPlanRepair(st.NumericalPlanRepair),
		estimator.WithNumericalRepairMaxFrac(st.NumericalRepairMaxFrac),
	}
}
