package query

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"pak/internal/core"
)

// Eval evaluates one query against the engine. The engine memoizes
// shared work (performance indexes, fact extensions, beliefs), so
// consecutive Eval calls over overlapping requests get cheaper; it is
// safe to call Eval concurrently from multiple goroutines on the same
// engine.
//
// Facts that reference an agent absent from the system panic in the
// logic layer (a programming error there); Eval converts the panic to
// an error so one bad query in a batch reports in its own slot instead
// of killing the process.
func Eval(e *core.Engine, q Query) (Result, error) {
	return evalCtx(context.Background(), e, q)
}

// evalCtx is Eval bound to a context. The context is advisory (see the
// Query interface): it reaches the engine's deep scans so a deadline
// can cut even a single long evaluation, and an aborted query reports
// the context's cause in its own slot.
func evalCtx(ctx context.Context, e *core.Engine, q Query) (res Result, err error) {
	if q == nil {
		return Result{}, fmt.Errorf("query: nil query")
	}
	if vErr := q.validate(); vErr != nil {
		return Result{Kind: q.Kind(), Query: q.String(), Err: vErr}, vErr
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("query: %s: panic: %v", q, r)
			res = Result{Kind: q.Kind(), Query: q.String(), Err: err}
		}
	}()
	res, err = q.eval(ctx, e)
	if err != nil {
		return Result{Kind: q.Kind(), Query: q.String(), Err: err}, err
	}
	return res, nil
}

// config collects EvalBatch's functional options.
type config struct {
	parallelism int
	cache       bool
	ctx         context.Context
	// approx, when set, enables the approximate tier (see WithApprox
	// and approx.go). It is normalized once per stream in streamItems.
	approx *ApproxSpec
}

// newConfig applies the options over the defaults shared by the batch
// and stream evaluators. Parallelism is normalized here: n ≤ 1 means
// serial, exactly as WithParallelism documents, so zero and negative
// values cannot reach the pool as anything but 1.
func newConfig(opts []Option) config {
	cfg := config{parallelism: runtime.GOMAXPROCS(0), cache: true, ctx: context.Background()}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.parallelism < 1 {
		cfg.parallelism = 1
	}
	if cfg.ctx == nil {
		cfg.ctx = context.Background()
	}
	return cfg
}

// Option configures EvalBatch.
type Option func(*config)

// WithParallelism sets the number of worker goroutines evaluating the
// batch. n ≤ 1 evaluates serially in input order; the default is
// runtime.GOMAXPROCS(0).
func WithParallelism(n int) Option {
	return func(c *config) { c.parallelism = n }
}

// WithContext binds a batch evaluation to ctx for cooperative
// cancellation: once ctx is done, queries that have not yet started
// fail fast in their own result slots with an error wrapping ctx's
// cause (context.DeadlineExceeded for timeouts), while queries already
// being evaluated run to completion — one query is the unit of
// cancellation, so a finished slot is always exact, never a torn
// partial value. A nil ctx means context.Background() (never cancels).
func WithContext(ctx context.Context) Option {
	return func(c *config) { c.ctx = ctx }
}

// WithCache controls whether the batch shares the engine's memoization:
// enabled (the default), queries overlapping in (fact, agent, action)
// reuse each other's performance indexes, fact extensions and beliefs;
// disabled, every query is evaluated against a fresh cold engine over
// the same system. Disabling is chiefly useful for isolating queries and
// for benchmarking the cache itself.
func WithCache(enabled bool) Option {
	return func(c *config) { c.cache = enabled }
}

// EvalBatch evaluates the queries against the engine, by default in
// parallel across runtime.GOMAXPROCS(0) workers. The returned slice has
// one Result per query, in input order — parallelism never reorders or
// renumbers results, and every result is identical to what a serial Eval
// loop would produce (the engine computes exact rationals, so there is
// no accumulation-order effect to worry about). Failed queries carry
// their error in Result.Err; the joined error aggregates them and is nil
// when every query succeeded. Under WithContext, queries not yet started
// when the context is done fail in their slots with the context's error.
//
// EvalBatch is a consumer of the streaming core (EvalStream): it drains
// the frame stream back into an input-ordered slice, so the batch and
// stream paths cannot disagree on a single result.
func EvalBatch(e *core.Engine, qs []Query, opts ...Option) ([]Result, error) {
	results, errs := collectStream([]MultiItem{{Engine: e, Queries: qs}}, newConfig(opts))
	return results[0], errors.Join(errs[0]...)
}

// ctxErr reports the context's cause as this query's evaluation error,
// or nil while the context is live. It is the single cancellation check
// both batch evaluators run before starting a query.
func ctxErr(ctx context.Context, q Query) error {
	if err := context.Cause(ctx); err != nil {
		return fmt.Errorf("query: %s: not evaluated: %w", stringOf(q), err)
	}
	return nil
}

// kindOf and stringOf tolerate nil queries so a cancelled slot's result
// never panics rendering its own label.
func kindOf(q Query) Kind {
	if q == nil {
		return ""
	}
	return q.Kind()
}

func stringOf(q Query) string {
	if q == nil {
		return "<nil>"
	}
	return q.String()
}

// runPool runs do(0..n-1) across a bounded worker pool and waits for
// completion; workers ≤ 1 degrades to a serial in-order loop. It is the
// one scheduling substrate under EvalBatch and MultiBatch, so the
// batch-equals-serial contract has a single implementation to audit.
func runPool(n, workers int, do func(int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			do(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				do(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
