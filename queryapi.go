package pak

import (
	"context"

	"pak/internal/core"
	"pak/internal/encode"
	"pak/internal/query"
)

// The unified query API, re-exported from internal/query: every analysis
// the engine offers as a composable request value, one evaluation entry
// point, and a parallel batch evaluator over the concurrency-safe
// Engine. Queries built from structural facts (everything except Atom
// and the *Pred escape hatches) serialize to JSON, so analysis requests
// can be stored, shipped to the CLI tools and replayed.
type (
	// Query is an analysis request evaluable against an Engine.
	Query = query.Query
	// QueryKind identifies a query's analysis family.
	QueryKind = query.Kind
	// QueryResult is the uniform outcome of evaluating any Query: exact
	// rational values, pass/fail verdicts, boolean diagnostics, witness
	// run-sets and belief timelines.
	QueryResult = query.Result
	// QueryVerdict is a query's pass/fail judgement.
	QueryVerdict = query.Verdict
	// TheoremID selects which of the paper's results a TheoremQuery
	// checks.
	TheoremID = query.Theorem

	// BeliefQuery asks for β_i(φ) at a local state or across the acting
	// states of a proper action.
	BeliefQuery = query.BeliefQuery
	// ConstraintQuery asks for µ(φ@α | α), optionally judged against a
	// threshold.
	ConstraintQuery = query.ConstraintQuery
	// ExpectationQuery asks for E[β_i(φ)@α | α] (Definition 6.1).
	ExpectationQuery = query.ExpectationQuery
	// ThresholdQuery asks for µ(β_i(φ)@α ≥ p | α).
	ThresholdQuery = query.ThresholdQuery
	// TheoremQuery machine-checks one of the paper's results.
	TheoremQuery = query.TheoremQuery
	// IndependenceQuery checks Definition 4.1 with Lemma 4.3 witnesses.
	IndependenceQuery = query.IndependenceQuery
	// TimelineQuery asks for the belief trajectory along one run.
	TimelineQuery = query.TimelineQuery

	// EvalOption configures EvalBatch.
	EvalOption = query.Option

	// MultiItem pairs an engine with the queries EvalMultiBatch
	// evaluates against it.
	MultiItem = query.MultiItem

	// QueryFrame is one emission of a streaming evaluation: a result
	// frame carrying (System, Index, Result), or the single terminal
	// status frame that closes every stream.
	QueryFrame = query.Frame
	// QueryStreamStatus is how a streamed evaluation ended (the
	// terminal frame's status).
	QueryStreamStatus = query.StreamStatus

	// ApproxSpec configures the approximate tier (see WithApprox): a
	// target CI half-width Eps or a direct Samples budget, the failure
	// probability Delta, the base Seed, and Only to skip refinement.
	ApproxSpec = query.ApproxSpec
	// QueryEstimate is a seeded sampled estimate with its exact-rational
	// Hoeffding confidence interval, carried by approx-stage frames and,
	// as provenance, by the refined exact results.
	QueryEstimate = query.Estimate
	// QueryStage labels a frame's tier under WithApprox: StageApprox or
	// StageExact (empty outside approx mode).
	QueryStage = query.Stage
)

// Approximate-tier stages and flags.
const (
	// StageApprox marks a frame carrying a sampled estimate; its exact
	// refinement (stage StageExact) follows on the same slot unless the
	// spec set Only or the context died in between.
	StageApprox = query.StageApprox
	// StageExact marks a slot's exact result (also used for slots the
	// tier does not support, which skip the approx stage).
	StageExact = query.StageExact
	// FlagCICovered is set on refined results: whether the exact value
	// landed inside the estimate's confidence interval (false is the
	// δ-probability miss, reported honestly rather than as an error).
	FlagCICovered = query.FlagCICovered
)

// Terminal stream statuses.
const (
	// StreamComplete: every query evaluated (per-slot failures included).
	StreamComplete = query.StreamComplete
	// StreamDeadline: the context's deadline expired mid-batch; emitted
	// frames are exact, the rest carry per-slot deadline errors.
	StreamDeadline = query.StreamDeadline
	// StreamCancelled: the context was cancelled mid-batch.
	StreamCancelled = query.StreamCancelled
)

// Query kinds.
const (
	KindBelief       = query.KindBelief
	KindConstraint   = query.KindConstraint
	KindExpectation  = query.KindExpectation
	KindThreshold    = query.KindThreshold
	KindTheorem      = query.KindTheorem
	KindIndependence = query.KindIndependence
	KindTimeline     = query.KindTimeline
)

// Checkable theorems.
const (
	// TheoremSufficiency is Theorem 4.2.
	TheoremSufficiency = query.TheoremSufficiency
	// TheoremNecessity is Lemma 5.1.
	TheoremNecessity = query.TheoremNecessity
	// TheoremExpectation is Theorem 6.2.
	TheoremExpectation = query.TheoremExpectation
	// TheoremPAK is Theorem 7.1 / Corollary 7.2.
	TheoremPAK = query.TheoremPAK
	// TheoremKoP is Lemma F.1.
	TheoremKoP = query.TheoremKoP
)

// Verdicts.
const (
	VerdictNone = query.VerdictNone
	VerdictPass = query.VerdictPass
	VerdictFail = query.VerdictFail
)

// Eval evaluates one query against the engine. The engine memoizes
// shared work, so repeated and overlapping requests get cheaper; it is
// safe to Eval concurrently on the same engine.
func Eval(e *Engine, q Query) (QueryResult, error) { return query.Eval(e, q) }

// EvalBatch evaluates a query list, by default in parallel across
// GOMAXPROCS workers sharing the engine's caches. Results come back in
// input order and are identical to a serial Eval loop's.
func EvalBatch(e *Engine, qs []Query, opts ...EvalOption) ([]QueryResult, error) {
	return query.EvalBatch(e, qs, opts...)
}

// EvalSystem is EvalBatch over a fresh engine for sys: the one-call form
// for callers that have a system and a query list.
func EvalSystem(sys *System, qs []Query, opts ...EvalOption) ([]QueryResult, error) {
	return query.EvalBatch(core.New(sys), qs, opts...)
}

// EvalMultiBatch is the cross-system fan-out: every item's query batch
// evaluates against that item's engine, all (system, query) pairs
// sharded across one bounded worker pool. Results come back indexed
// [system][query] in input order, exactly equal to a serial nested Eval
// loop's; a failing query occupies only its own slot (Result.Err), and
// the joined error names each failure's (system, query) coordinates.
func EvalMultiBatch(items []MultiItem, opts ...EvalOption) ([][]QueryResult, error) {
	return query.MultiBatch(items, opts...)
}

// EvalMultiSystems is EvalMultiBatch over fresh engines: one query list
// fanned out across several systems.
func EvalMultiSystems(systems []*System, qs []Query, opts ...EvalOption) ([][]QueryResult, error) {
	items := make([]MultiItem, len(systems))
	for i, sys := range systems {
		items[i] = MultiItem{Engine: core.New(sys), Queries: qs}
	}
	return query.MultiBatch(items, opts...)
}

// EvalStream is EvalBatch's streaming form: one result frame per query
// on the returned channel as its worker finishes (completion order;
// serial parallelism streams in input order), then exactly one terminal
// status frame, then the channel closes. Under WithEvalContext a dead
// context drains in-flight queries to their exact results and fails
// unstarted slots in their own frames — the finished prefix is never
// lost. The channel is buffered for the whole batch, so abandoning it
// leaks nothing. EvalBatch itself consumes this stream, which is what
// keeps batch and stream results identical by construction.
func EvalStream(e *Engine, qs []Query, opts ...EvalOption) <-chan QueryFrame {
	return query.EvalStream(e, qs, opts...)
}

// EvalMultiStream is EvalMultiBatch's streaming form: all (system,
// query) pairs shard across one bounded worker pool, each emitting its
// frame (with System/Index coordinates) as it finishes, closed by one
// terminal status frame.
func EvalMultiStream(items []MultiItem, opts ...EvalOption) <-chan QueryFrame {
	return query.EvalMultiStream(items, opts...)
}

// WithParallelism sets the number of EvalBatch workers (n ≤ 1 is
// serial).
func WithParallelism(n int) EvalOption { return query.WithParallelism(n) }

// WithCache controls whether a batch shares the engine's memoization
// (default true); disabled, each query runs against a cold engine.
func WithCache(enabled bool) EvalOption { return query.WithCache(enabled) }

// WithEvalContext binds a batch evaluation to ctx for cooperative
// cancellation: once ctx is done, queries not yet started fail fast in
// their own result slots with the context's error, while in-flight
// queries run to completion — finished slots are always exact, never
// torn.
func WithEvalContext(ctx context.Context) EvalOption { return query.WithContext(ctx) }

// WithApprox enables the approximate tier: every supported query
// (constraint, expectation, threshold, belief-at-local) first answers
// with a seeded, deterministic sampled estimate carrying an
// exact-rational Hoeffding confidence interval (stage StageApprox),
// then refines to the exact value (stage StageExact) with a ciCovered
// self-check — unless the spec set Only, or the context died between
// the two, in which case the estimate stands as the slot's sound
// answer. Same seed and budget ⇒ byte-identical estimates, serial or
// parallel.
func WithApprox(spec ApproxSpec) EvalOption { return query.WithApprox(spec) }

// CanApprox reports whether the approximate tier supports q; other
// queries evaluate exactly even under WithApprox.
func CanApprox(q Query) bool { return query.CanApprox(q) }

// MarshalQuery renders one query as a JSON document.
func MarshalQuery(q Query) ([]byte, error) { return query.Marshal(q) }

// ParseQuery parses one query JSON document.
func ParseQuery(data []byte) (Query, error) { return query.Parse(data) }

// MarshalQueryBatch renders a query list as a JSON array document.
func MarshalQueryBatch(qs []Query) ([]byte, error) { return query.MarshalBatch(qs) }

// ParseQueryBatch parses a JSON array of query documents.
func ParseQueryBatch(data []byte) ([]Query, error) { return query.ParseBatch(data) }

// MarshalFact renders a structural fact as a JSON expression document,
// the inverse of ParseFact. Opaque predicates (Atom, LocalPred, EnvPred)
// do not serialize.
func MarshalFact(f Fact) ([]byte, error) { return encode.MarshalFact(f) }
