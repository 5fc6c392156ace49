// Package service is the HTTP/JSON front end over the scenario registry
// and the query layer: the bridge from "library" to "service" on the
// ROADMAP. A Server resolves scenario specs against a registry, keeps
// one memoizing engine per canonical spec (so repeated requests against
// "fsquad" share every cached belief and performance index), and
// evaluates pak's existing query-batch documents with cross-system
// fan-out over one query.EvalMultiStream.
//
// Each evaluation endpoint is one request pipeline with two
// transports. The pipeline (evalFrames in stream.go, envelopeFrames in
// envelope.go) yields the wire result frames and exactly one terminal
// status frame; the streaming transport writes them as NDJSON, and the
// buffered transport folds them into one JSON body. All four POST
// routes share one prologue (post): the method guard, per-client
// admission, the request deadline and a strict body decode.
//
// Endpoints:
//
//	GET  /v1/scenarios         — the self-describing catalog (JSON),
//	                             space-valued sweep specs included
//	GET  /v1/scenarios/{name}  — one scenario's metadata
//	POST /v1/eval              — evaluate a query batch against named systems
//	POST /v1/eval/stream       — the same, answered as an NDJSON frame stream
//	POST /v1/envelope          — evaluate one query's min/max envelope over
//	                             an adversary space ("sweep(...)" specs)
//	POST /v1/envelope/stream   — the same, streamed one assignment per frame
//	                             with the running envelope (see envelope.go)
//	GET  /v1/stats             — engine-cache counters (hits/misses/evictions)
//
// An eval request names systems by spec and carries query batches in the
// exact format of pak.ParseQueryBatch — the query layer was shaped to be
// this wire format, so documents produced by pak.MarshalQueryBatch or
// pakrand -batch POST unchanged:
//
//	{
//	  "systems": ["fsquad", "nsquad(3)"],
//	  "queries": [ {"kind":"constraint", ...}, ... ],
//	  "parallelism": 0,
//	  "approx": {"eps": "1/10", "delta": "1/100", "seed": 7}
//	}
//
// The optional "approx" object turns the evaluation approx-first (the
// query layer's WithApprox): supported queries answer from a seeded
// sample with an exact-rational Hoeffding confidence interval before
// refining to the exact value. Buffered responses carry the estimate on
// each refined result (with the ciCovered self-check); the stream emits
// a stage-"approx" frame strictly before each slot's stage-"exact"
// frame; "only" suppresses refinement; and a deadline mid-refinement
// returns standing estimates as sound answers inside the usual 504
// body. Rationals travel as strings ("1/10"), the sample budget is
// capped (maxApproxSamples), invalid specs are 400 at decode, and the
// per-system sampling model is memoized in the engine cache beside the
// engine (EngineCache.ModelFor).
//
// Top-level queries fan out to every named system; a "requests" list
// gives per-system batches instead (or additionally). The response keeps
// per-system result ordering and per-query error isolation: a failing
// query reports in its own slot's "error" field with HTTP 200, while
// request-level failures (unknown scenario, malformed params, a bad
// batch document) are 4xx with a JSON error body. An expired request
// deadline is a 504 whose body is still a full EvalResponse — every
// finished result plus per-slot deadline errors for the rest, with the
// top-level status/error fields naming the cause — so deadline
// truncation never discards completed work. /v1/eval/stream delivers
// the same frames the moment each is computed (see stream.go for the
// frame contract).
//
// The server is hardened for sustained traffic: engines are retained in
// a size-bounded LRU (WithEngineCacheSize) whose eviction is invisible —
// a rebuilt engine returns byte-identical results; cold engines named by
// one request build concurrently under singleflight (max-of-unfolds, not
// sum, and concurrent requests for one spec share a single build); and
// WithRequestTimeout bounds a request's wall clock with cooperative
// cancellation at query-boundary granularity. internal/load and
// cmd/pakload drive these paths under concurrency.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pak/internal/core"
	"pak/internal/query"
	"pak/internal/ratutil"
	"pak/internal/registry"
	"pak/internal/store"
)

// Option configures a Server.
type Option func(*Server)

// WithMaxParallelism caps the evaluation workers a single request may
// use (default runtime.GOMAXPROCS(0)). Requests asking for more are
// clamped, never rejected.
func WithMaxParallelism(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxParallel = n
		}
	}
}

// WithMaxQueries caps the total (system, query) pairs one eval request
// may submit (default 10000), bounding a single request's evaluation
// work.
func WithMaxQueries(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxQueries = n
		}
	}
}

// WithMaxSystems caps the systems one eval request may name (default
// 64), bounding the unfolding work a single request can cause.
func WithMaxSystems(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxSystems = n
		}
	}
}

// WithMaxAssignments caps the adversary-space assignments one
// /v1/envelope request may sweep (default defaultMaxAssignments).
// Every assignment resolves, builds and evaluates one system, so this
// is the envelope analogue of WithMaxSystems.
func WithMaxAssignments(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxAssignments = n
		}
	}
}

// WithEngineCacheSize bounds the engines retained across requests
// (default defaultEngineCacheSize). The cache is LRU over canonical
// specs: traffic concentrated on few scenarios keeps them warm forever,
// while a stream of distinct `random(seed=…)` specs cycles through the
// bound instead of growing without limit. n ≤ 0 restores the unbounded
// pre-eviction behaviour. Eviction is invisible to clients — a rebuilt
// engine returns byte-identical results (TestEvictionInvisible) — it
// only costs warmth.
func WithEngineCacheSize(n int) Option {
	return func(s *Server) { s.cacheSize = n }
}

// WithRequestTimeout bounds the wall-clock time (resolve + build +
// evaluate) of one request on any of the four evaluation routes. On
// expiry the buffered endpoints answer 504 with the finished prefix
// under a top-level "deadline" status, and the streams end with a
// "deadline" terminal frame. Evaluation stops cooperatively at the next
// query boundary, and any engine builds already in flight complete and
// stay cached (the work is shared, so finishing it warms the next
// request). d ≤ 0 (the default) means no deadline.
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.timeout = d
		}
	}
}

// WithMaxBodyBytes bounds the request body of every evaluation route
// (/v1/eval[/stream], /v1/envelope[/stream]; default maxBodyBytes,
// 8 MiB). Chiefly for tests and embedders fronting the handler with
// their own limits.
func WithMaxBodyBytes(n int64) Option {
	return func(s *Server) {
		if n > 0 {
			s.bodyLimit = n
		}
	}
}

// WithClientQuota caps each client's concurrent in-flight evaluation
// requests (/v1/eval[/stream], /v1/envelope[/stream]) at n; the
// n+1-th answers a deterministic 429 before any work happens. Clients
// are told apart by X-Client-ID, falling back to the remote host (see
// quota.go). n ≤ 0 (the default) admits everything.
func WithClientQuota(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.quota = newClientQuota(n)
		}
	}
}

// maxBodyBytes bounds an evaluation request body (8 MiB): far above any
// reasonable query batch, far below what could exhaust server memory.
const maxBodyBytes = 8 << 20

// defaultEngineCacheSize is the default engine-retention bound: far
// above the built-in registry's fixed-scenario count (those can never
// evict each other), small enough that unbounded families like
// random(seed=…) cannot grow the process without limit.
const defaultEngineCacheSize = 128

// defaultMaxAssignments is the default per-request bound on envelope
// sweep size: roomy for real loss/seed sweeps, far below the registry's
// own MaxSpaceAssignments hard cap.
const defaultMaxAssignments = 256

// Server serves the registry and the query layer over HTTP. It is safe
// for concurrent use; engines are shared across requests through a
// size-bounded LRU cache with singleflight builds.
type Server struct {
	reg            *registry.Registry
	maxParallel    int
	maxQueries     int
	maxSystems     int
	maxAssignments int
	cacheSize      int
	timeout        time.Duration
	bodyLimit      int64

	engines *EngineCache

	// resultStore is the persistent result tier (nil = off; see
	// store.go), quota the per-client admission control (nil = off;
	// see quota.go).
	resultStore store.Store
	quota       *clientQuota

	stats counters
}

// counters are the server's request-path counters; /v1/stats
// snapshots them.
type counters struct {
	// The store counters classify persistent-tier lookups and writes.
	storeHits, storeMisses, storeCorrupt, storeWrites atomic.Int64
	// buildsAvoided counts engine unfolds the lazy-source contract
	// skipped outright: a target whose source was never invoked (its
	// request died before any of its slots started) and whose key was
	// not already cached — an unfold the retired all-engines barrier
	// would have paid for nothing. memoSeeded counts cold builds that
	// seeded their memo tables from a neighbouring engine
	// (core.NewSeeded), the envelope sweeps' structure-sharing hits.
	buildsAvoided, memoSeeded atomic.Int64
}

// New returns a server over the registry (nil means registry.Default()).
func New(reg *registry.Registry, opts ...Option) *Server {
	if reg == nil {
		reg = registry.Default()
	}
	s := &Server{
		reg:            reg,
		maxParallel:    runtime.GOMAXPROCS(0),
		maxQueries:     10000,
		maxSystems:     64,
		maxAssignments: defaultMaxAssignments,
		cacheSize:      defaultEngineCacheSize,
		bodyLimit:      maxBodyBytes,
	}
	for _, opt := range opts {
		opt(s)
	}
	s.engines = NewEngineCache(s.cacheSize)
	return s
}

// Cache exposes the engine cache (stats and observation; the load
// harness and the eviction tests read it).
func (s *Server) Cache() *EngineCache { return s.engines }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/scenarios", s.handleScenarios)
	mux.HandleFunc("/v1/scenarios/", s.handleScenario)
	mux.HandleFunc("/v1/eval", post(s, s.decodeEvalRequest, s.serveEval))
	mux.HandleFunc("/v1/eval/stream", post(s, s.decodeEvalRequest, s.serveEvalStream))
	mux.HandleFunc("/v1/envelope", post(s, s.decodeEnvelopeRequest, s.serveEnvelope))
	mux.HandleFunc("/v1/envelope/stream", post(s, s.decodeEnvelopeRequest, s.serveEnvelopeStream))
	mux.HandleFunc("/v1/stats", s.handleStats)
	return mux
}

// allowMethod reports whether r uses method. Otherwise it answers the
// 405, with the Allow header RFC 9110 §15.5.6 requires, and reports
// false.
func allowMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("%s not allowed; use %s", r.Method, method))
	return false
}

// post builds one evaluation route: the prologue all four share (the
// POST guard, per-client admission, the request deadline and the
// endpoint's strict decode), then serve, one transport over the
// endpoint's pipeline. A failed decode has already answered its 4xx.
func post[P any](s *Server, decode func(http.ResponseWriter, *http.Request) (P, bool),
	serve func(context.Context, http.ResponseWriter, P)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !allowMethod(w, r, http.MethodPost) {
			return
		}
		release, admitted := s.admit(w, r)
		if !admitted {
			return
		}
		defer release()
		ctx := r.Context()
		if s.timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.timeout)
			defer cancel()
		}
		if plan, ok := decode(w, r); ok {
			serve(ctx, w, plan)
		}
	}
}

// decodeBody strictly decodes one JSON document from the request body
// into v: the body limit applies, unknown fields are refused, and
// nothing may follow the document. On failure it writes the 4xx and
// reports false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.bodyLimit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil && dec.More() {
		err = errors.New("trailing content after the JSON document")
	}
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed request body: %w", err))
	}
	return false
}

// handleStats serves GET /v1/stats: a snapshot of the engine cache and
// the server's counters as JSON, for dashboards and pakload's soak
// accounting.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		EngineCache:         s.engines.Stats(),
		EngineBuildsAvoided: s.stats.buildsAvoided.Load(),
		MemoSeeded:          s.stats.memoSeeded.Load(),
		Store:               s.storeStats(),
	})
}

// StatsResponse is the GET /v1/stats body.
type StatsResponse struct {
	// EngineCache snapshots the shared engine cache: retained engines
	// (len/cap) and the hit/miss/eviction/shared-build counters.
	EngineCache CacheStats `json:"engineCache"`
	// EngineBuildsAvoided counts unfolds the lazy engine sources skipped
	// because the request died before any of the target's slots started
	// (and the key was not already cached).
	EngineBuildsAvoided int64 `json:"engineBuildsAvoided"`
	// MemoSeeded counts cold builds that seeded their structural memo
	// tables from a neighbouring engine (sweep structure sharing).
	MemoSeeded int64 `json:"memoSeeded"`
	// Store snapshots the persistent result tier; absent when no store
	// is configured, so the classic stats shape is byte-identical.
	Store *StoreStats `json:"store,omitempty"`
}

// resolved is a spec vetted for the service path: its canonical cache
// key plus a deferred build closure. Resolution (cheap, always serial)
// is split from building (expensive, lazily triggered) so a request
// can reject a bad request before any unfold starts and defer the cold
// builds to the evaluator's first touch. The build accepts an optional
// seeding neighbour: a same-shape engine whose structural memo tables
// the new engine shares (core.NewSeeded; nil builds fresh); the bool
// reports whether seeding actually took.
type resolved struct {
	spec  string
	key   string
	build func(seed *core.Engine) (*core.Engine, bool, error)
}

// resolveTarget resolves and vets one spec without building it.
func (s *Server) resolveTarget(spec string) (resolved, error) {
	sc, args, err := s.reg.Resolve(spec)
	if err != nil {
		return resolved{}, err
	}
	// Wire-exposure bounds (trusted local callers bypass both by
	// building directly): the generic value/rational caps every
	// scenario shares, then the scenario's own ServeGuard. Guard
	// rejections are client errors by definition, so wrap them in
	// ErrBadSpec even when a custom guard returns a plain error.
	if err := args.VetForService(); err != nil {
		return resolved{}, err
	}
	if sc.ServeGuard != nil {
		if err := sc.ServeGuard(args); err != nil {
			if !errors.Is(err, registry.ErrBadSpec) && !errors.Is(err, registry.ErrUnknownScenario) {
				err = fmt.Errorf("%w: %v", registry.ErrBadSpec, err)
			}
			return resolved{}, err
		}
	}
	key := args.Canonical()
	return resolved{spec: spec, key: key, build: func(seed *core.Engine) (*core.Engine, bool, error) {
		sys, err := sc.Build(args)
		if err != nil {
			// Validated params fully determine a build, so a builder failure
			// here is a domain error in the client's spec (loss outside
			// [0,1], agents=0, eps ≥ p, ...): report it as one, not as a 500.
			return nil, false, fmt.Errorf("%w: %v", registry.ErrBadSpec, err)
		}
		if sys == nil {
			// Same guard Registry.Build applies: a custom builder returning
			// (nil, nil) must not become a permanently cached nil-system
			// engine that panics on every query.
			return nil, false, fmt.Errorf("%w: scenario %q returned a nil system", registry.ErrBadSpec, key)
		}
		// NewSeeded is gated on pps.SameShape, so a nil or shape-
		// mismatched seed degrades to a fresh engine — seeding is a
		// warmth transfer, never a correctness dependency.
		e, shared := core.NewSeeded(sys, seed)
		return e, shared, nil
	}}, nil
}

// engineFor resolves a spec and returns the shared engine for its
// canonical form, building (and caching) the system on first use —
// the serial single-spec path; the request pipelines go through lazy
// sources (sourceFor) instead.
func (s *Server) engineFor(spec string) (*core.Engine, string, error) {
	r, err := s.resolveTarget(spec)
	if err != nil {
		return nil, "", err
	}
	e, err := s.engines.Get(r.key, func() (*core.Engine, error) {
		e, _, err := r.build(nil)
		return e, err
	})
	if err != nil {
		return nil, "", err
	}
	return e, r.key, nil
}

// sourceState is one target's lazy build cell for a single request: the
// EngineSource handed to the query layer, plus the record of whether it
// was ever invoked and with what outcome. The pipelines read it after
// evaluation (sweepSources) — and, under a streaming transport, on each
// frame — to classify failures and count the builds laziness avoided.
type sourceState struct {
	target  resolved
	src     query.EngineSource
	invoked atomic.Bool

	mu  sync.Mutex
	err error
}

// genuineBuildErr returns the target's build failure when it is a
// genuine one — a bad spec or builder domain error — and nil when the
// build was merely cut by the request context (those slots already
// carry the cut as per-slot context errors).
func (st *sourceState) genuineBuildErr(ctx context.Context) error {
	st.mu.Lock()
	err := st.err
	st.mu.Unlock()
	if err != nil && (!isContextErr(err) || context.Cause(ctx) == nil) {
		return err
	}
	return nil
}

// sourceFor wires one target into the query layer's lazy-engine
// contract: an EngineSource that reads through the shared engine cache
// (LRU + singleflight — concurrent requests naming one key still share
// one unfold), optionally seeds a cold build from the request's seed
// chain, and attaches the cache-memoized sampling model the eager path
// used to inject. The evaluator invokes it when its first
// worker reaches one of the target's slots with a live context, so
// early systems evaluate while later ones are still cold and a request
// that dies first never pays for the build at all.
//
// seed, when non-nil, is a per-request chain for sweep-shaped requests:
// the first successfully built engine is published once (CAS) and every
// later cold build seeds from it. Sharing is live and bidirectional
// (core.NewSeeded), so one published neighbour joins every same-shape
// assignment of the sweep to one set of structural memo tables.
func (s *Server) sourceFor(st *sourceState, wantModel bool, seed *atomic.Pointer[core.Engine]) query.EngineSource {
	st.src = func(ctx context.Context) (query.Engines, error) {
		st.invoked.Store(true)
		var refused bool
		e, err := s.engines.Get(st.target.key, func() (*core.Engine, error) {
			var neighbour *core.Engine
			if seed != nil {
				neighbour = seed.Load()
			}
			e, shared, err := st.target.build(neighbour)
			if shared {
				s.stats.memoSeeded.Add(1)
			} else if neighbour != nil {
				refused = true
			}
			return e, err
		})
		if err != nil {
			st.mu.Lock()
			st.err = err
			st.mu.Unlock()
			return query.Engines{}, err
		}
		if seed != nil && !seed.CompareAndSwap(nil, e) && refused {
			// The published seed has a different shape than this cold
			// build (a sweep endpoint like loss=0 prunes zero-weight
			// branches from its unfold, so it can anchor nothing);
			// publish this engine instead so the rest of its
			// shape-class still shares.
			seed.Store(e)
		}
		eng := query.Engines{Engine: e}
		if wantModel {
			if m, ok := s.engines.ModelFor(st.target.key); ok {
				eng.Model = m
			}
		}
		return eng, nil
	}
	return st.src
}

// sweepSources closes out a request's lazy builds after evaluation:
//
//   - A target whose source was never invoked under a live context is a
//     batchless probe (an empty query batch has no slot to trigger the
//     build): its source is resolved now, so the probe still vets the
//     builder and surfaces its 4xx exactly as the retired all-engines
//     barrier did. Once the context has a cause, probing is skipped —
//     the eager path never started new builds past the deadline either
//     — and the skipped unfold counts as a build avoided (per distinct
//     key, and only when the key is not already cached).
//   - The first genuine build failure in target order is returned; the
//     caller reports it request-level with statusOfEvalErr, exactly as
//     the barrier's first-error-in-target-order did.
//
// Callers run it strictly after the evaluator has terminated, so every
// source either finished or was never invoked.
func (s *Server) sweepSources(ctx context.Context, states []*sourceState) error {
	avoided := make(map[string]bool)
	var probes []*sourceState
	for _, st := range states {
		if st == nil || st.invoked.Load() {
			continue
		}
		if context.Cause(ctx) != nil {
			if !avoided[st.target.key] && !s.engines.Contains(st.target.key) {
				avoided[st.target.key] = true
				s.stats.buildsAvoided.Add(1)
			}
			continue
		}
		probes = append(probes, st)
	}
	// Batchless probes run concurrently, bounded like evaluation workers:
	// the retired barrier built cold engines side by side, and a probe-
	// only request (systems named, no queries) keeps that cost profile.
	// The cache's singleflight dedupes targets sharing a canonical key.
	if len(probes) > 0 {
		var wg sync.WaitGroup
		sem := make(chan struct{}, s.maxParallel)
		for _, st := range probes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				_, _ = st.src(ctx)
			}()
		}
		wg.Wait()
	}
	for _, st := range states {
		if st == nil {
			continue
		}
		if err := st.genuineBuildErr(ctx); err != nil {
			return err
		}
	}
	return nil
}

// The catalog endpoints serialize registry.Scenario directly: its JSON
// tags are the wire form (the builder is json:"-"), so new metadata
// fields reach clients without a mirror struct here.

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, s.reg.Scenarios())
}

func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodGet) {
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/v1/scenarios/")
	sc, ok := s.reg.Lookup(name)
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("%w: %q (have %v)", registry.ErrUnknownScenario, name, s.reg.Names()))
		return
	}
	writeJSON(w, http.StatusOK, sc)
}

// EvalRequest is the /v1/eval request body.
type EvalRequest struct {
	// Systems are scenario specs the top-level Queries fan out to.
	Systems []string `json:"systems,omitempty"`
	// Queries is a pak.ParseQueryBatch document (a JSON array of query
	// specs) shared by every entry of Systems, and the default batch for
	// Requests entries that omit their own.
	Queries json.RawMessage `json:"queries,omitempty"`
	// Requests are per-system batches, appended after Systems' fan-out.
	Requests []SystemRequest `json:"requests,omitempty"`
	// Parallelism bounds the worker pool (0 = server default; values
	// above the server's cap are clamped). 1 evaluates serially — the
	// results are identical either way, only slower.
	Parallelism int `json:"parallelism,omitempty"`
	// Approx enables the approximate tier for the whole request: every
	// supported query answers with a seeded sampled estimate first, then
	// (unless "only" is set) refines to the exact value. On the
	// streaming path the estimate arrives as its own stage:"approx"
	// frame before the exact frame.
	Approx *ApproxRequest `json:"approx,omitempty"`
}

// ApproxRequest is the wire form of a query.ApproxSpec. Rationals
// travel as strings ("1/20", "0.05") so the request round-trips the
// exact values the response's estimate echoes.
type ApproxRequest struct {
	// Eps is the target CI half-width; the sample budget is derived from
	// (eps, delta) when Samples is 0.
	Eps string `json:"eps,omitempty"`
	// Delta is the per-interval failure probability (default 1/100).
	Delta string `json:"delta,omitempty"`
	// Samples fixes the per-slot budget directly, overriding Eps.
	Samples int `json:"samples,omitempty"`
	// Seed is the base seed (0 = the deterministic default); per-slot
	// seeds derive from it, so one request is reproducible end to end.
	Seed int64 `json:"seed,omitempty"`
	// Only answers from samples alone: no exact refinement runs.
	Only bool `json:"only,omitempty"`
}

// maxApproxSamples caps the per-slot sample budget a request may set
// directly; eps-derived budgets are capped inside montecarlo.SampleSize.
const maxApproxSamples = 1 << 22

// approxSpec converts the wire form to the query layer's spec,
// normalized exactly as the evaluator would normalize it, so a bad spec
// is a 400 at decode, never N identical per-slot failures, and the
// evaluation reuses this normalization (one ln(2/δ) per request).
func (a *ApproxRequest) approxSpec() (*query.ApproxSpec, error) {
	if a == nil {
		return nil, nil
	}
	spec := query.ApproxSpec{Samples: a.Samples, Seed: a.Seed, Only: a.Only}
	if a.Eps != "" {
		eps, err := ratutil.Parse(a.Eps)
		if err != nil {
			return nil, fmt.Errorf("approx: bad eps: %w", err)
		}
		spec.Eps = eps
	}
	if a.Delta != "" {
		delta, err := ratutil.Parse(a.Delta)
		if err != nil {
			return nil, fmt.Errorf("approx: bad delta: %w", err)
		}
		spec.Delta = delta
	}
	if spec.Samples > maxApproxSamples {
		return nil, fmt.Errorf("approx: sample budget %d above the server cap of %d", spec.Samples, maxApproxSamples)
	}
	norm, err := spec.Normalized()
	if err != nil {
		return nil, err
	}
	return &norm, nil
}

// SystemRequest is one per-system batch inside an EvalRequest.
type SystemRequest struct {
	// System is the scenario spec.
	System string `json:"system"`
	// Queries overrides the request's shared batch for this system.
	Queries json.RawMessage `json:"queries,omitempty"`
}

// EvalResponse is the /v1/eval response body.
type EvalResponse struct {
	// Results has one entry per requested system, in request order.
	Results []SystemResult `json:"results"`
	// Status is set when the request's deadline expired ("deadline") or
	// its context was cancelled ("cancelled") before every query
	// finished: Results then carries the finished prefix — every
	// completed slot exact, byte-identical to its untimed value — plus
	// per-slot errors for the queries that never ran. Empty on a fully
	// evaluated request.
	Status string `json:"status,omitempty"`
	// Error carries the request-level timeout/cancellation message that
	// accompanies Status.
	Error string `json:"error,omitempty"`
}

// SystemResult is one system's evaluated batch.
type SystemResult struct {
	// System echoes the requested spec; Canonical is its fully resolved
	// form (the engine-cache key).
	System    string `json:"system"`
	Canonical string `json:"canonical"`
	// Results has one entry per query, in batch order. Failed queries
	// carry their message in the entry's "error" field.
	Results []query.ResultDoc `json:"results"`
}

// evalPlan is one vetted /v1/eval request, the eval pipeline's input
// under either transport: the requested spec strings, their resolved
// targets, the parsed per-system batches, and the clamped parallelism.
type evalPlan struct {
	specs   []string
	targets []resolved
	batches [][]query.Query
	// shared marks the targets whose batch is the request's top-level
	// one: their batches are the same parsed slice.
	shared   []bool
	parallel int
	// approx is the validated approximate-tier spec (nil = exact only).
	approx *query.ApproxSpec
}

// evalOptions renders the plan as query-layer options.
func (p evalPlan) evalOptions(ctx context.Context) []query.Option {
	opts := []query.Option{query.WithParallelism(p.parallel), query.WithContext(ctx)}
	if p.approx != nil {
		opts = append(opts, query.WithApprox(*p.approx))
	}
	return opts
}

// lazyItems assembles the plan's MultiItems around lazy engine sources:
// one source per target with un-stored work (fully-hit systems stream
// straight from the store and never get one), each reading through the
// shared engine cache and injecting the cache-memoized sampling model
// on resolution. The returned states parallel the items; the pipeline
// passes them to sweepSources after evaluation.
func (s *Server) lazyItems(plan evalPlan, lookup *storeLookup) ([]*sourceState, []query.MultiItem) {
	states := make([]*sourceState, len(plan.targets))
	items := make([]query.MultiItem, len(plan.targets))
	for i := range plan.targets {
		items[i] = query.MultiItem{Queries: plan.batches[i]}
		if lookup.fullyHit(i) {
			continue
		}
		states[i] = &sourceState{target: plan.targets[i]}
		items[i].Source = s.sourceFor(states[i], plan.approx != nil, nil)
	}
	return states, items
}

// decodeEvalRequest parses, validates and resolves an eval request
// without building any engine: body decoding, the normalization of
// "systems"/"requests" into one per-system list, batch parsing, the
// query/system caps, and spec resolution. On failure it writes the 4xx
// itself and reports false — nothing has been streamed yet at this
// point, so request-level errors always get a proper status line.
func (s *Server) decodeEvalRequest(w http.ResponseWriter, r *http.Request) (evalPlan, bool) {
	var req EvalRequest
	if !s.decodeBody(w, r, &req) {
		return evalPlan{}, false
	}

	// Normalize both request forms into one per-system list. `shared`
	// marks targets using the top-level batch, which is parsed once.
	type target struct {
		spec   string
		raw    json.RawMessage
		shared bool
	}
	var targets []target
	for _, spec := range req.Systems {
		targets = append(targets, target{spec: spec, raw: req.Queries, shared: true})
	}
	for _, sr := range req.Requests {
		raw, shared := sr.Queries, false
		if isMissingJSON(raw) {
			raw, shared = req.Queries, true
		}
		targets = append(targets, target{spec: sr.System, raw: raw, shared: shared})
	}
	if len(targets) == 0 {
		writeError(w, http.StatusBadRequest,
			errors.New(`empty request: name at least one system in "systems" or "requests"`))
		return evalPlan{}, false
	}
	// The systems cap bounds the builds, not just the evaluations: every
	// distinct canonical spec unfolds a system and retains an engine.
	if len(targets) > s.maxSystems {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("request names %d systems, above the server cap of %d", len(targets), s.maxSystems))
		return evalPlan{}, false
	}

	// Parse every batch and enforce the work cap before building any
	// engine: scenario unfolding is the expensive, cached-forever part,
	// so an over-cap request must be rejected before it happens. The
	// shared top-level batch is parsed once, not once per system.
	var sharedQs []query.Query
	sharedParsed := false
	batches := make([][]query.Query, len(targets))
	total := 0
	for i, tg := range targets {
		if isMissingJSON(tg.raw) {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf(`system %q has no query batch: provide "queries" at the top level or per request`, tg.spec))
			return evalPlan{}, false
		}
		if tg.shared && sharedParsed {
			batches[i] = sharedQs
			total += len(sharedQs)
			continue
		}
		qs, err := query.ParseBatch(tg.raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("system %q: bad query batch: %w", tg.spec, err))
			return evalPlan{}, false
		}
		if tg.shared {
			sharedQs, sharedParsed = qs, true
		}
		batches[i] = qs
		total += len(qs)
	}
	if total > s.maxQueries {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("request submits %d queries, above the server cap of %d", total, s.maxQueries))
		return evalPlan{}, false
	}

	// Resolve every spec (cheap, serial — bad requests are rejected
	// before any unfold), then build the distinct cold engines
	// concurrently under the cache's singleflight.
	resolvedTargets := make([]resolved, len(targets))
	for i, tg := range targets {
		rt, err := s.resolveTarget(tg.spec)
		if err != nil {
			writeError(w, statusOfEvalErr(err), err)
			return evalPlan{}, false
		}
		resolvedTargets[i] = rt
	}
	parallel := s.maxParallel
	if req.Parallelism > 0 && req.Parallelism < parallel {
		parallel = req.Parallelism
	}
	approx, err := req.Approx.approxSpec()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return evalPlan{}, false
	}
	plan := evalPlan{
		specs:    make([]string, len(targets)),
		targets:  resolvedTargets,
		batches:  batches,
		shared:   make([]bool, len(targets)),
		parallel: parallel,
		approx:   approx,
	}
	for i, tg := range targets {
		plan.specs[i], plan.shared[i] = tg.spec, tg.shared
	}
	return plan, true
}

// isContextErr reports whether err is the expiry/cancellation of the
// request context rather than a genuine request defect (the one
// classifier every layer shares, exported from core).
func isContextErr(err error) bool { return core.IsContextErr(err) }

// isMissingJSON reports whether a raw batch field is absent for all
// practical purposes: omitted entirely, or the JSON null literal
// ("present" only lexically). One predicate, so the per-request
// fallback and the final validation can't disagree on null.
func isMissingJSON(raw json.RawMessage) bool {
	return len(raw) == 0 || string(raw) == "null"
}

// statusOfEvalErr maps an eval-path failure to its HTTP status: unknown
// scenarios and malformed specs are client errors, an expired request
// deadline is a 504 gateway timeout (the server ran out of its allotted
// time, the request itself was well-formed).
func statusOfEvalErr(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for logs only.
		return http.StatusGatewayTimeout
	case errors.Is(err, registry.ErrUnknownScenario):
		return http.StatusNotFound
	case errors.Is(err, registry.ErrBadSpec):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// errorDoc is the uniform JSON error body.
type errorDoc struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorDoc{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Encoding a fully materialized value cannot fail except for a broken
	// connection, which the client observes anyway.
	_ = enc.Encode(v)
}
