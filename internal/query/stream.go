package query

// The streaming core. EvalStream and EvalMultiStream are the
// channel-based forms of EvalBatch/MultiBatch: one frame per (system,
// query) slot as its worker finishes, then exactly one terminal status
// frame, then the channel closes. The batch evaluators are thin
// consumers of this core (see collectStream), so "batch equals stream"
// is true by construction, not by parallel maintenance of two pools.
//
// The contract (documented in DESIGN.md and pinned by tests):
//
//   - One frame per slot, always: finished queries carry their exact
//     Result; queries not yet started when the context dies carry the
//     context's error in Result.Err. No slot is ever silently dropped,
//     which is what lets a deadline return the finished prefix instead
//     of discarding it.
//   - Completion order: frames arrive as workers finish. Serial
//     evaluation (parallelism ≤ 1) therefore emits in input order.
//   - Drain-then-close: when the context expires, queries already being
//     evaluated run to completion and their exact frames are still
//     emitted (one query is the unit of cancellation — a finished slot
//     is never torn); only then does the terminal frame report
//     StreamDeadline or StreamCancelled.
//   - Never blocks, never leaks: the channel is buffered for the whole
//     batch plus the terminal frame, so workers finish and the producer
//     goroutine exits even if the consumer abandons the stream.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"pak/internal/core"
	"pak/internal/montecarlo"
)

// StreamStatus is how a streamed evaluation ended, carried by the
// terminal frame.
type StreamStatus string

const (
	// StreamComplete: every query was evaluated (success or per-slot
	// failure) with a live context.
	StreamComplete StreamStatus = "complete"
	// StreamDeadline: the context's deadline expired mid-batch; frames
	// already emitted are exact, the rest carry the deadline error.
	StreamDeadline StreamStatus = "deadline"
	// StreamCancelled: the context was cancelled mid-batch (a client
	// going away rather than a budget running out).
	StreamCancelled StreamStatus = "cancelled"
)

// Frame is one emission of a streamed evaluation: a result frame for
// one (system, query) slot, or the single terminal status frame.
type Frame struct {
	// System is the MultiItem index the slot belongs to (always 0 for
	// EvalStream).
	System int
	// Index is the query's position within its batch.
	Index int
	// Result is the slot's result — exact on success, labelled with the
	// evaluation or context error in Result.Err otherwise.
	Result Result
	// Status is empty on result frames and set exactly once, on the
	// final frame before the channel closes.
	Status StreamStatus
	// Err is the context's cause on a deadline/cancelled terminal frame
	// (nil on result frames and on StreamComplete).
	Err error
	// Stage labels the frame's tier under WithApprox: StageApprox for a
	// sampled estimate, StageExact for the refined (or exact-only)
	// result. Empty outside approx mode, so the classic wire shape is
	// untouched.
	Stage Stage
}

// Terminal reports whether this is the closing status frame.
func (f Frame) Terminal() bool { return f.Status != "" }

// EvalStream is EvalBatch's streaming form: it evaluates qs against the
// engine under the same options and returns a channel emitting one
// result frame per query in completion order, then one terminal status
// frame, then closing. See the package contract above; EvalBatch itself
// is implemented over this stream.
func EvalStream(e *core.Engine, qs []Query, opts ...Option) <-chan Frame {
	return streamItems([]MultiItem{{Engine: e, Queries: qs}}, newConfig(opts))
}

// EvalMultiStream is MultiBatch's streaming form: every item's batch
// evaluates against that item's engine, all (system, query) pairs
// sharded across one bounded worker pool, each emitting its frame as it
// finishes. Frames carry their (System, Index) coordinates; the
// terminal status frame closes the stream.
func EvalMultiStream(items []MultiItem, opts ...Option) <-chan Frame {
	return streamItems(items, newConfig(opts))
}

// streamItems runs the shared worker pool and owns the emission
// contract. The channel buffers every frame, so the pool never blocks
// on a slow (or gone) consumer and the goroutine cannot leak. Under an
// approx config each supported slot may emit two frames (approx then
// exact, in that order on the channel since one worker owns the slot),
// so the buffer doubles; batch consumers keep the last frame per slot.
//
// Engines are lazy values here: each item resolves (through its Source,
// or trivially from its eager fields) at most once, from whichever
// worker first reaches one of its slots with a live context — so a
// slot's evaluation starts the moment ITS engine is ready, early items
// evaluate while later items are still building, and a context that
// dies before any slot of an item starts means that item's engine is
// never built at all.
func streamItems(items []MultiItem, cfg config) <-chan Frame {
	type unit struct{ sys, q int }
	var units []unit
	for i, item := range items {
		for j := range item.Queries {
			units = append(units, unit{i, j})
		}
	}
	buffer := len(units) + 1
	if cfg.approx != nil {
		buffer += len(units)
	}
	out := make(chan Frame, buffer)
	go func() {
		defer close(out)
		if cfg.approx != nil {
			norm, err := cfg.approx.Normalized()
			if err != nil {
				// An invalid spec fails every slot in place: the stream
				// keeps its one-frame-per-slot floor and the batch
				// consumers report the error per coordinate.
				for _, u := range units {
					qu := items[u.sys].Queries[u.q]
					out <- Frame{System: u.sys, Index: u.q, Result: Result{Kind: kindOf(qu), Query: stringOf(qu), Err: err}}
				}
				status, cause := statusOf(cfg.ctx)
				out <- Frame{Status: status, Err: cause}
				return
			}
			cfg.approx = &norm
		}
		states := make([]itemState, len(items))
		for i := range items {
			states[i].item = &items[i]
		}
		runPool(len(units), cfg.parallelism, func(u int) {
			sys, q := units[u].sys, units[u].q
			st := &states[sys]
			mat := MultiItem{Queries: st.item.Queries}
			var model *montecarlo.Model
			// The context check precedes resolution so a dead context
			// never triggers an engine build; the unresolved view's nil
			// engine is unreachable because evalSlot and evalApproxSlot
			// both check the context before touching the engine.
			if ctxErr(cfg.ctx, st.item.Queries[q]) == nil {
				var err error
				mat, model, err = st.resolve(cfg)
				if err != nil {
					failSlot(out, st.item.Queries[q], sys, q, cfg, err)
					return
				}
			}
			if cfg.approx == nil {
				res, _ := evalSlot(mat, q, cfg)
				out <- Frame{System: sys, Index: q, Result: res}
				return
			}
			streamApproxSlot(out, mat, model, sys, q, cfg)
		})
		status, cause := statusOf(cfg.ctx)
		out <- Frame{Status: status, Err: cause}
	}()
	return out
}

// itemState is one item's resolution cell: the first worker to reach
// one of the item's slots (with a live context) resolves the engines —
// calling the Source at most once, then deriving the per-item sampling
// model the eager path used to prebuild — and every later worker shares
// the outcome.
type itemState struct {
	item *MultiItem

	once  sync.Once
	mat   MultiItem // materialized view: resolved engines + the queries
	model *montecarlo.Model
	err   error // classified source error (see classifySourceErr)
}

// resolve materializes the item. Safe for concurrent use; the source
// runs at most once and its classified error is shared by every slot.
func (st *itemState) resolve(cfg config) (MultiItem, *montecarlo.Model, error) {
	st.once.Do(func() {
		eng := Engines{Engine: st.item.Engine, Model: st.item.Model}
		if st.item.Source != nil {
			eng, st.err = st.item.Source(cfg.ctx)
			if st.err != nil {
				st.err = classifySourceErr(cfg.ctx, st.err)
				st.mat = MultiItem{Queries: st.item.Queries}
				return
			}
		}
		st.mat = MultiItem{Engine: eng.Engine, Queries: st.item.Queries, Model: eng.Model}
		// Under the approximate tier each item gets one sampling model
		// for its lifetime, honoring an injected one.
		if cfg.approx != nil {
			switch {
			case eng.Model != nil:
				st.model = eng.Model
			case eng.Engine != nil && anyApproxable(st.item.Queries):
				st.model = montecarlo.NewModel(eng.Engine.System())
			}
		}
	})
	return st.mat, st.model, st.err
}

// classifySourceErr fixes a source failure's error class for the slots
// that will carry it. A context-flavoured error while the evaluation
// context has a cause is the context cutting the build: it stays
// context-classed (wrapped, so envelope folds count the slot as not
// visited and batch consumers report a per-slot deadline error). Any
// other failure is a genuine build error — a hard failure — and a
// context-flavoured error from a source while OUR context is live is
// flattened so it cannot masquerade as a cut.
func classifySourceErr(ctx context.Context, err error) error {
	if core.IsContextErr(err) {
		if context.Cause(ctx) != nil {
			return fmt.Errorf("query: engine not built: %w", err)
		}
		return fmt.Errorf("query: engine build failed: %v", err)
	}
	return fmt.Errorf("query: engine build failed: %w", err)
}

// failSlot emits one slot's source-failure frame, honoring the stage
// labelling: exact-only streams carry no stage, approx streams label
// the slot's single (and therefore final) frame with the tier it
// stands for — approx under "only", exact otherwise.
func failSlot(out chan<- Frame, qu Query, sys, q int, cfg config, err error) {
	res := Result{Kind: kindOf(qu), Query: stringOf(qu), Err: err}
	if cfg.approx == nil {
		out <- Frame{System: sys, Index: q, Result: res}
		return
	}
	stage := StageExact
	if cfg.approx.Only {
		stage = StageApprox
	}
	out <- Frame{System: sys, Index: q, Result: res, Stage: stage}
}

// anyApproxable reports whether any query in the batch can use the
// sampling model, so exact-only batches under WithApprox skip the
// model build.
func anyApproxable(qs []Query) bool {
	for _, q := range qs {
		if CanApprox(q) {
			return true
		}
	}
	return false
}

// streamApproxSlot owns one slot's emission under the approximate tier:
//
//   - unsupported kind: one exact frame (stage "exact"), as ever.
//   - supported, approx-only: one approx frame, estimate or error.
//   - supported, refine mode: the approx frame (when the estimate
//     landed), then the exact frame carrying the estimate and the
//     ciCovered self-check — unless the context died between the two,
//     in which case the approx frame stands as the slot's final, sound
//     answer and no exact frame is emitted (a deadline mid-refinement
//     must never overwrite a sound estimate with an error).
func streamApproxSlot(out chan<- Frame, item MultiItem, model *montecarlo.Model, sys, q int, cfg config) {
	var est *Estimate
	if CanApprox(item.Queries[q]) {
		ares := evalApproxSlot(item, model, sys, q, cfg)
		if ares.Err == nil || cfg.approx.Only {
			out <- Frame{System: sys, Index: q, Result: ares, Stage: StageApprox}
			est = ares.Estimate
		}
		if cfg.approx.Only {
			return
		}
		if gate := approxRefineGate; gate != nil {
			gate(cfg.ctx, sys, q)
		}
	}
	res, _ := evalSlot(item, q, cfg)
	if est != nil {
		if ctxAborted(res.Err) {
			return
		}
		if res.Err == nil {
			attachEstimate(&res, est)
		}
	}
	out <- Frame{System: sys, Index: q, Result: res, Stage: StageExact}
}

// evalSlot evaluates one (item, query) slot under the batch config: the
// context check first (so a dead context fails the slot with the cause,
// never touching the engine), then the engine, cold when the batch
// disabled cache sharing.
func evalSlot(item MultiItem, q int, cfg config) (Result, error) {
	qu := item.Queries[q]
	if err := ctxErr(cfg.ctx, qu); err != nil {
		return Result{Kind: kindOf(qu), Query: stringOf(qu), Err: err}, err
	}
	if item.Engine == nil {
		err := errors.New("query: nil engine")
		return Result{Err: err}, err
	}
	target := item.Engine
	if !cfg.cache {
		target = core.New(item.Engine.System())
	}
	res, err := evalCtx(cfg.ctx, target, qu)
	if err != nil && res.Err == nil {
		// Eval's nil-query path reports only through its error return;
		// the stream carries errors inside frames, so every failure must
		// land in Result.Err or the batch consumers would report success.
		res.Err = err
	}
	return res, err
}

// statusOf classifies the context's state for the terminal frame.
func statusOf(ctx context.Context) (StreamStatus, error) {
	cause := context.Cause(ctx)
	switch {
	case cause == nil:
		return StreamComplete, nil
	case errors.Is(cause, context.DeadlineExceeded):
		return StreamDeadline, cause
	default:
		return StreamCancelled, cause
	}
}

// collectStream drains a stream back into the [system][query] slabs the
// batch evaluators return. Frames address their slots directly, so the
// result shape is input-ordered regardless of completion order.
func collectStream(items []MultiItem, cfg config) ([][]Result, [][]error) {
	results := make([][]Result, len(items))
	errs := make([][]error, len(items))
	for i, item := range items {
		results[i] = make([]Result, len(item.Queries))
		errs[i] = make([]error, len(item.Queries))
	}
	for f := range streamItems(items, cfg) {
		if f.Terminal() {
			continue
		}
		results[f.System][f.Index] = f.Result
		errs[f.System][f.Index] = f.Result.Err
	}
	return results, errs
}
