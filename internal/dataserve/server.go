package dataserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/array"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sdf"
)

// defaultServingElems is the serving-chunk volume target for origins
// stored contiguously, shared with the debloat-time Merkle builder so
// both derive the same chunk grid.
const defaultServingElems = sdf.DefaultServingElems

// DatasetMeta is the /meta response body: the geometry a client needs
// to turn element indices into serving-chunk coordinates.
type DatasetMeta struct {
	Dataset string `json:"dataset"`
	Dims    []int  `json:"dims"`
	DType   string `json:"dtype"`
	// Chunk is the serving chunk shape: the dataset's storage chunk
	// shape when it is chunked, otherwise a server-derived shape.
	Chunk []int `json:"chunk"`
	// Chunked reports whether the underlying storage layout is
	// chunked (i.e. Chunk mirrors real storage granularity).
	Chunked   bool `json:"chunked"`
	Debloated bool `json:"debloated"`
}

// serving bundles one dataset's handle with its serving-chunk
// geometry, precomputed at open time so request handling allocates no
// shared state. The Merkle tree backing proof-carrying responses is
// built lazily on the first proof=1 request (a full-dataset read, paid
// once) and memoized; tamper after the build is still caught because
// the served bytes then disagree with the memoized leaves.
type serving struct {
	ds    *sdf.Dataset
	meta  DatasetMeta
	space array.Space
	grid  *array.ChunkedLayout

	treeOnce sync.Once
	tree     *sdf.MerkleTree
	treeErr  error
}

// merkle returns the dataset's memoized serving-chunk Merkle tree,
// building it on first use (built counts actual builds).
func (sv *serving) merkle(built *atomic.Int64) (*sdf.MerkleTree, error) {
	sv.treeOnce.Do(func() {
		sv.tree, sv.treeErr = sdf.BuildDatasetMerkle(sv.ds, sv.meta.Chunk)
		if sv.treeErr == nil {
			built.Add(1)
		}
	})
	return sv.tree, sv.treeErr
}

// Server serves chunk-granular reads from an origin sdf file. Reads
// are lock-free with respect to each other: dataset handles are
// immutable and the underlying file reads through ReadAt, so the only
// synchronization is an RWMutex held shared for the duration of a
// request to fence Close.
type Server struct {
	mu   sync.RWMutex
	file *sdf.File
	sets map[string]*serving
	rec  *metrics.ServeRecorder

	// trace, when set via EnableTracing, records one serve.<endpoint>
	// span per request.
	trace atomic.Pointer[obs.Trace]
	// traceRequests counts requests that arrived with a propagated
	// trace context (whether or not local recording is on).
	traceRequests atomic.Int64
	// proofFrames counts chunk responses served with an inclusion
	// proof; proofErrors counts proof=1 requests that failed to produce
	// one; proofTrees counts Merkle trees built (at most one per
	// dataset).
	proofFrames atomic.Int64
	proofErrors atomic.Int64
	proofTrees  atomic.Int64
}

// NewServer opens the origin file and precomputes serving geometry
// for every dataset.
func NewServer(originPath string) (*Server, error) {
	f, err := sdf.Open(originPath)
	if err != nil {
		return nil, fmt.Errorf("dataserve: opening origin: %w", err)
	}
	rec := metrics.NewServeRecorder()
	s := &Server{file: f, sets: make(map[string]*serving), rec: rec}
	reg := rec.Registry()
	reg.SetHelp("kondo_serve_trace_requests_total", "Requests that arrived carrying a propagated trace context.")
	reg.CounterFunc("kondo_serve_trace_requests_total", s.traceRequests.Load)
	reg.SetHelp("kondo_serve_proof_frames_total", "Chunk responses served with an inclusion proof (proof=1).")
	reg.CounterFunc("kondo_serve_proof_frames_total", s.proofFrames.Load)
	reg.SetHelp("kondo_serve_proof_errors_total", "proof=1 chunk requests that failed to produce a proof frame.")
	reg.CounterFunc("kondo_serve_proof_errors_total", s.proofErrors.Load)
	reg.SetHelp("kondo_serve_proof_trees_total", "Serving-chunk Merkle trees built (at most one per dataset).")
	reg.CounterFunc("kondo_serve_proof_trees_total", s.proofTrees.Load)
	for _, name := range f.Names() {
		ds, err := f.Dataset(name)
		if err != nil {
			f.Close()
			return nil, err
		}
		space := ds.Space()
		chunk := ds.ChunkShape()
		chunked := chunk != nil
		if chunk == nil {
			chunk = sdf.ServingChunkShape(space.Dims(), defaultServingElems)
		}
		grid, err := array.NewChunkedLayout(space, ds.DType(), chunk)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("dataserve: dataset %q: %w", name, err)
		}
		s.sets[name] = &serving{
			ds: ds,
			meta: DatasetMeta{
				Dataset:   name,
				Dims:      space.Dims(),
				DType:     ds.DType().String(),
				Chunk:     chunk,
				Chunked:   chunked,
				Debloated: ds.Debloated(),
			},
			space: space,
			grid:  grid,
		}
	}
	return s, nil
}

// Close releases the origin file. In-flight requests finish first.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.file == nil {
		return nil
	}
	err := s.file.Close()
	s.file = nil
	return err
}

// Registry exposes the server's instrument registry, so a daemon can
// serve it (obs.Endpoints) and register adjacent metrics into it.
func (s *Server) Registry() *obs.Registry { return s.rec.Registry() }

// EnableTracing starts recording one serve.<endpoint> span per request
// into tr; a daemon exports it through obs.Endpoints.SetTrace. A nil
// tr disables tracing again.
func (s *Server) EnableTracing(tr *obs.Trace) { s.trace.Store(tr) }

// Handler returns the HTTP handler exposing the wire protocol: /meta
// and /chunk. A daemon serves the observability endpoints beside it
// (obs.Endpoints.Handler).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/meta", s.instrument("meta", s.handleMeta))
	mux.Handle("/chunk", s.instrument("chunk", s.handleChunk))
	return mux
}

// countingWriter captures the status code and payload size of one
// response for the metrics recorder.
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (cw *countingWriter) WriteHeader(status int) {
	cw.status = status
	cw.ResponseWriter.WriteHeader(status)
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.ResponseWriter.Write(p)
	cw.bytes += int64(n)
	return n, err
}

// instrument wraps a handler with latency/byte/error recording under
// the given endpoint name, and emits one serve.<endpoint> span per
// request when tracing is enabled (or the request context already
// carries a trace, as in-process tests do). A propagated trace context
// on the request headers opens the span as a child hop: same trace id,
// the caller's span id recorded as parent_span_id.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		ctx := r.Context()
		ctx = obs.WithTrace(ctx, s.trace.Load())
		var sp *obs.Span
		if parent, ok := obs.ExtractTraceContext(r.Header); ok {
			s.traceRequests.Add(1)
			child := parent.Child()
			ctx = obs.WithTraceContext(ctx, child)
			sp = obs.Start(ctx, "serve."+endpoint,
				obs.A("trace_id", child.TraceID),
				obs.A("parent_span_id", parent.SpanID),
				obs.A("span_id", child.SpanID))
		} else {
			sp = obs.Start(ctx, "serve."+endpoint)
		}
		h(cw, r.WithContext(ctx))
		if sp != nil {
			sp.Arg("status", cw.status).Arg("bytes", cw.bytes)
		}
		sp.End()
		s.rec.Record(endpoint, cw.status, cw.bytes, time.Since(start))
	})
}

// lookup resolves a dataset under the read lock; the returned release
// must be called once the request is done with the handle.
func (s *Server) lookup(name string) (*serving, func(), error) {
	s.mu.RLock()
	if s.file == nil {
		s.mu.RUnlock()
		return nil, nil, errOriginClosed
	}
	sv, ok := s.sets[name]
	if !ok {
		s.mu.RUnlock()
		return nil, nil, fmt.Errorf("%w: %q", sdf.ErrNotFound, name)
	}
	return sv, s.mu.RUnlock, nil
}

var errOriginClosed = errors.New("dataserve: origin closed")

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps an error onto the protocol's status codes: missing
// data → 410 Gone, unknown dataset → 404, closed origin → 503,
// anything else → the fallback (usually 400).
func writeError(w http.ResponseWriter, fallback int, err error) {
	status := fallback
	switch {
	case errors.Is(err, sdf.ErrDataMissing):
		status = http.StatusGone
	case errors.Is(err, sdf.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, errOriginClosed):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	sv, release, err := s.lookup(r.URL.Query().Get("dataset"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer release()
	writeJSON(w, http.StatusOK, sv.meta)
}

func (s *Server) handleChunk(w http.ResponseWriter, r *http.Request) {
	dataset := r.URL.Query().Get("dataset")
	chunkArg := r.URL.Query().Get("chunk")
	if dataset == "" || chunkArg == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("dataset and chunk query parameters required"))
		return
	}
	cc, err := parseInts(chunkArg)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sv, release, err := s.lookup(dataset)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer release()
	if !sv.grid.Grid().Contains(array.Index(cc)) {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("dataserve: chunk %v outside grid %v", cc, sv.grid.Grid()))
		return
	}
	start, count := sdf.ChunkSlab(sv.space, sv.meta.Chunk, cc)
	vals, err := sv.ds.ReadHyperslab(sdf.Slab(start, count))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	leaf, err := sv.grid.ChunkLinear(array.Index(cc))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cf := chunkFrame{Dataset: dataset, Chunk: cc, Leaf: leaf, Leaves: sv.grid.NumChunks(), Vals: vals}
	withProof := r.URL.Query().Get("proof") == "1"
	if withProof {
		if cf.Proof, err = s.proof(sv, dataset, leaf); err != nil {
			s.proofErrors.Add(1)
			writeError(w, http.StatusInternalServerError, err)
			return
		}
	}
	buf, err := encodeChunkFrame(cf)
	if err != nil {
		if withProof {
			s.proofErrors.Add(1)
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if withProof {
		s.proofFrames.Add(1)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	_, _ = w.Write(buf)
}

// proof returns the inclusion proof of one leaf against the dataset's
// Merkle tree, building the tree on first use.
func (s *Server) proof(sv *serving, dataset string, leaf int64) ([][sdf.HashSize]byte, error) {
	tree, err := sv.merkle(&s.proofTrees)
	if err != nil {
		return nil, fmt.Errorf("dataserve: building merkle tree of %q: %w", dataset, err)
	}
	return tree.Proof(leaf)
}

// joinInts renders coordinates in the wire's comma form (the inverse
// of parseInts).
func joinInts(cc []int) string {
	parts := make([]string, len(cc))
	for i, v := range cc {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("dataserve: bad coordinate %q", p)
		}
		out[i] = v
	}
	return out, nil
}

// LimitConcurrency caps the number of requests a handler serves at
// once; excess requests queue (bounded by the client's timeout). A
// non-positive n returns h unchanged.
func LimitConcurrency(h http.Handler, n int) http.Handler {
	if n <= 0 {
		return h
	}
	sem := make(chan struct{}, n)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
			h.ServeHTTP(w, r)
		case <-r.Context().Done():
			writeError(w, http.StatusServiceUnavailable, r.Context().Err())
		}
	})
}
