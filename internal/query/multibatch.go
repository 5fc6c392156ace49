package query

import (
	"context"
	"errors"
	"fmt"

	"pak/internal/core"
	"pak/internal/montecarlo"
)

// MultiBatch: cross-system fan-out. EvalBatch parallelizes within one
// system; MultiBatch shards several query batches — each bound to its
// own engine — across one bounded worker pool, so a service request
// naming N systems saturates the machine without spawning N × GOMAXPROCS
// goroutines.
//
// The contract (documented in DESIGN.md and pinned by tests):
//
//   - Sharding: the unit of work is one (system, query) pair; a single
//     pool of at most WithParallelism(n) workers (default GOMAXPROCS)
//     drains all pairs, so small batches on one system never serialize
//     behind a large batch on another.
//   - Ordering: the result slab is indexed [system][query] in input
//     order. Parallelism never reorders, renumbers or regroups results,
//     and every result is exactly (Rat.Cmp == 0) what a serial nested
//     Eval loop would produce.
//   - Error isolation: a failing query reports in its own Result.Err
//     slot and never disturbs its neighbours — not in other systems, not
//     in the same batch. The returned error joins the per-query errors,
//     each prefixed with its (system, query) coordinates, and is nil
//     only when every query on every system succeeded.

// Engines bundles what one item resolves to: the exact engine
// (required), plus the optional prebuilt sampling model a warm cache
// can inject. It is what an EngineSource yields and what an eager
// MultiItem's Engine/Model fields denote.
type Engines struct {
	// Engine is the evaluation target; nil fails the item's slots with
	// the usual nil-engine error.
	Engine *core.Engine
	// Model optionally carries a prebuilt sampling model (see
	// MultiItem.Model); nil lets the stream build one on demand.
	Model *montecarlo.Model
}

// EngineSource resolves an item's engines on demand — the lazy half of
// the streaming core's contract. The stream calls it at most once per
// item (concurrent workers share one resolution), from whichever worker
// first reaches one of the item's slots, so evaluation of early items
// overlaps the build of later ones instead of waiting behind an
// all-engines barrier. The context is the evaluation context: a source
// should return its cause promptly once it is cancelled, and an error
// that is (or wraps) a context cancellation/deadline while the
// evaluation context has a cause is classified exactly like a slot the
// context cut — not visited by envelope folds, a per-slot deadline
// error elsewhere — whereas any other error is a hard failure carried
// by every slot of the item.
type EngineSource func(ctx context.Context) (Engines, error)

// MultiItem pairs an engine — eager, or lazily resolved through Source
// — with the queries to evaluate against it.
type MultiItem struct {
	// Engine is the evaluation target (its memoization is shared by the
	// item's queries, and by any other MultiItem holding the same engine).
	// When Source is set, Engine (with Model) is ignored: the
	// eager fields are just the trivial source.
	Engine *core.Engine
	// Source, when non-nil, resolves the item's engines on first use.
	// The stream invokes it at most once, after at least one of the
	// item's slots has passed its pre-evaluation context check — so a
	// request that dies before any slot of this item starts never pays
	// for the build.
	Source EngineSource
	// Queries are evaluated in order against Engine.
	Queries []Query
	// Model optionally carries a prebuilt sampling model for the
	// approximate tier (see WithApprox); nil means the stream builds one
	// on demand when the batch contains approximable queries. Exact
	// evaluation ignores it. The service layer injects the model
	// memoized in its EngineCache here, so repeated approx requests
	// against a cached engine never rebuild the sampling tables.
	Model *montecarlo.Model
}

// MultiBatch evaluates every item's query batch against that item's
// engine, fanning all (system, query) pairs out across one bounded
// worker pool. It accepts the same options as EvalBatch:
// WithParallelism bounds the shared pool, WithCache(false) gives every
// query a cold engine over its item's system, and WithContext makes the
// pool cooperatively cancellable — pairs not yet started when the
// context is done fail fast in their own slots, pairs in flight finish
// exactly.
//
// Like EvalBatch, MultiBatch is a consumer of the streaming core
// (EvalMultiStream): frames drain back into the [system][query] slab,
// so batch and stream evaluation share one scheduling substrate and one
// batch-equals-serial contract.
func MultiBatch(items []MultiItem, opts ...Option) ([][]Result, error) {
	results, errs := collectStream(items, newConfig(opts))
	return results, joinMulti(errs)
}

// joinMulti aggregates the per-slot errors, prefixing each with its
// (system, query) coordinates so a joined message stays attributable.
func joinMulti(errs [][]error) error {
	var flat []error
	for i, row := range errs {
		for j, err := range row {
			if err != nil {
				flat = append(flat, fmt.Errorf("system %d query %d: %w", i, j, err))
			}
		}
	}
	return errors.Join(flat...)
}
