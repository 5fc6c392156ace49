package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// memo is a concurrency-safe, singleflight-style memoization table. The
// map lock is held only while locating (or installing) an entry, never
// while computing it, so distinct keys are computed in parallel while
// concurrent requests for the same key block on a single computation and
// then share its result. Entries are retained for the engine's lifetime
// — the caches are bounded by the number of distinct (fact, agent,
// action/local) tuples a workload touches — with one exception: an
// entry whose computation was aborted by a context (see get) is evicted
// immediately, so a deadline can never poison a key for later callers.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

// memoEntry holds one computed value. once guarantees the compute
// function runs at most once per key; panicked re-raises a compute panic
// on every subsequent access so a poisoned entry is never silently read
// as a zero value.
type memoEntry[V any] struct {
	once     sync.Once
	val      V
	err      error
	panicked any
}

// get returns the memoized value for key, running compute at most once
// per key across all goroutines.
func (c *memo[K, V]) get(key K, compute func() (V, error)) (V, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*memoEntry[V])
	}
	e, ok := c.m[key]
	if !ok {
		e = new(memoEntry[V])
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				e.panicked = r
				panic(r)
			}
		}()
		e.val, e.err = compute()
	})
	if e.panicked != nil {
		panic(e.panicked)
	}
	if e.err != nil && IsContextErr(e.err) {
		// A context abort is a property of the aborted caller, not of the
		// key: never cache it. Evict the poisoned entry so the next get
		// recomputes under its own (possibly live) context; every waiter
		// already blocked on this entry still observes the abort.
		c.mu.Lock()
		if c.m[key] == e {
			delete(c.m, key)
		}
		c.mu.Unlock()
	}
	return e.val, e.err
}

// getCtx is get for a context-bound compute function: it distinguishes
// the CALLER's abort from a shared computation's. A context error
// surfacing from the memo may belong to another caller whose scan this
// one joined (singleflight shares one computation per key); the memo
// evicts aborted entries, so while our own context is live we retry
// against a fresh entry, and after a few collisions we compute
// unmemoized under our own context so an adversarial neighbour can
// never starve us.
func (c *memo[K, V]) getCtx(ctx context.Context, key K, compute func() (V, error)) (V, error) {
	var v V
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		v, err = c.get(key, compute)
		if err == nil || !IsContextErr(err) || context.Cause(ctx) != nil {
			return v, err
		}
	}
	return compute()
}

// IsContextErr reports whether err is (or wraps) a context cancellation
// or deadline expiry — the error class the memo refuses to retain, the
// query layer's envelope fold counts as not-visited, and the service
// maps to 504s. Exported so every layer shares one classifier.
func IsContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// abortCause is what a scan cut by ctx reports (nil while ctx is live):
// the context's cause, joined with ctx.Err() when the cause is the
// canceller's own error, so that every abort satisfies IsContextErr and
// the memo never keeps one.
func abortCause(ctx context.Context) error {
	cause := context.Cause(ctx)
	if cause == nil {
		return nil
	}
	if err := ctx.Err(); err != nil && !IsContextErr(cause) {
		return fmt.Errorf("%w (%w)", cause, err)
	}
	return cause
}

// len reports the number of cached entries (for tests and stats).
func (c *memo[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
