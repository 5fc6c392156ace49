package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"pak/internal/logic"
	"pak/internal/paper"
	"pak/internal/pps"
	"pak/internal/ratutil"
)

// fsEngine builds an engine over Example 1's firing squad.
func fsEngine(t testing.TB) *Engine {
	t.Helper()
	sys, err := paper.FiringSquad(ratutil.R(1, 10), paper.FSOriginal)
	if err != nil {
		t.Fatal(err)
	}
	return New(sys)
}

// TestCachedResultsAreIsolated mutates everything the engine hands out
// and re-queries: cache entries must be unaffected.
func TestCachedResultsAreIsolated(t *testing.T) {
	e := fsEngine(t)
	phi := logic.And(logic.Does("Alice", "fire"), logic.Does("Bob", "fire"))

	ev, err := e.FactAtAction(phi, "Alice", "fire")
	if err != nil {
		t.Fatal(err)
	}
	want := ev.Clone()
	ev.Complement().ForEach(func(r int) bool { ev.Add(r); return true }) // wreck the returned set
	again, err := e.FactAtAction(phi, "Alice", "fire")
	if err != nil {
		t.Fatal(err)
	}
	if !again.Equal(want) {
		t.Error("mutating a returned event corrupted the cache")
	}

	local := "t2|go=1,sent,recv=Yes"
	bel, err := e.Belief(phi, "Alice", local)
	if err != nil {
		t.Fatal(err)
	}
	wantBel := ratutil.Copy(bel)
	bel.SetInt64(42) // wreck the returned rational
	againBel, err := e.Belief(phi, "Alice", local)
	if err != nil {
		t.Fatal(err)
	}
	if !ratutil.Eq(againBel, wantBel) {
		t.Errorf("mutating a returned belief corrupted the cache: %s", againBel.RatString())
	}

	rep, err := e.LocalStateIndependence(logic.LocalIs("Bob", "nope"), "Alice", "fire")
	if err == nil {
		// The fact never holds; independence may or may not fail, but the
		// returned violations slice must be private.
		rep.Violations = append(rep.Violations, IndependenceViolation{Local: "junk"})
		again, aerr := e.LocalStateIndependence(logic.LocalIs("Bob", "nope"), "Alice", "fire")
		if aerr != nil {
			t.Fatal(aerr)
		}
		for _, v := range again.Violations {
			if v.Local == "junk" {
				t.Error("appending to returned violations corrupted the cache")
			}
		}
	}
}

// TestEngineConcurrentQueries hammers one engine from many goroutines
// over overlapping keys; under -race this is the engine's thread-safety
// proof at the core layer.
func TestEngineConcurrentQueries(t *testing.T) {
	e := fsEngine(t)
	phi := logic.And(logic.Does("Alice", "fire"), logic.Does("Bob", "fire"))
	want, err := e.ConstraintProb(phi, "Alice", "fire")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				mu, cerr := e.ConstraintProb(phi, "Alice", "fire")
				if cerr != nil {
					errs <- cerr
					return
				}
				if !ratutil.Eq(mu, want) {
					errs <- fmt.Errorf("concurrent µ = %s, want %s", mu.RatString(), want.RatString())
					return
				}
				if _, cerr = e.ExpectedBelief(phi, "Alice", "fire"); cerr != nil {
					errs <- cerr
					return
				}
				if _, cerr = e.LocalStateIndependence(phi, "Alice", "fire"); cerr != nil {
					errs <- cerr
					return
				}
				if _, cerr = e.ExplainIndependence(phi, "Alice", "fire"); cerr != nil {
					errs <- cerr
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	perf, events, beliefs := e.CacheStats()
	if perf == 0 || events == 0 || beliefs == 0 {
		t.Errorf("caches not warmed: perf=%d events=%d beliefs=%d", perf, events, beliefs)
	}
}

// TestFactKeyUnambiguous pins the cache-key contract: facts whose
// display strings collide (unquoted names) must still get distinct
// keys, and opaque predicates must be uncacheable.
func TestFactKeyUnambiguous(t *testing.T) {
	f1 := logic.Does("a(b", "c")
	f2 := logic.Does("a", "b(c")
	if f1.String() != f2.String() {
		t.Skipf("display strings no longer collide (%q vs %q); key test moot", f1, f2)
	}
	r1, r2 := refOf(f1), refOf(f2)
	if !r1.cacheable || !r2.cacheable {
		t.Fatalf("structural facts must be cacheable (ok1=%v ok2=%v)", r1.cacheable, r2.cacheable)
	}
	if r1.key == r2.key {
		t.Errorf("distinct facts share cache key %q", r1.key)
	}
	if refOf(logic.Atom("p", func(*pps.System, pps.RunID, int) bool { return true })).cacheable {
		t.Error("opaque Atom reported cacheable")
	}
}

// TestMemoDoesNotCacheContextAborts: a compute aborted by a context
// must not poison its key — the entry is evicted and the next get
// recomputes. Deterministic errors stay cached as before.
func TestMemoDoesNotCacheContextAborts(t *testing.T) {
	var m memo[string, int]
	calls := 0
	compute := func() (int, error) {
		calls++
		if calls == 1 {
			return 0, fmt.Errorf("scan aborted: %w", context.DeadlineExceeded)
		}
		return 42, nil
	}
	if _, err := m.get("k", compute); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first get err = %v", err)
	}
	if m.len() != 0 {
		t.Fatalf("aborted entry retained: len = %d", m.len())
	}
	v, err := m.get("k", compute)
	if err != nil || v != 42 {
		t.Fatalf("second get = (%d, %v), want (42, nil)", v, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times", calls)
	}
	// Deterministic errors keep the historical contract: cached forever.
	boom := errors.New("boom")
	first := true
	bad := func() (int, error) {
		if first {
			first = false
			return 0, boom
		}
		return 0, errors.New("recomputed; deterministic errors must stay cached")
	}
	if _, err := m.get("bad", bad); !errors.Is(err, boom) {
		t.Fatalf("bad first get err = %v", err)
	}
	if _, err := m.get("bad", bad); !errors.Is(err, boom) {
		t.Fatalf("bad second get err = %v (entry was evicted)", err)
	}
}
