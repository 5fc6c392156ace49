package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"pak/internal/core"
	"pak/internal/query"
	"pak/internal/ratutil"
	"pak/internal/scenarios"
)

// buildSquad returns a build closure counting its invocations.
func buildSquad(n int, calls *atomic.Int64) func() (*core.Engine, error) {
	return func() (*core.Engine, error) {
		calls.Add(1)
		sys, err := scenarios.NFiringSquadSystem(n, ratutil.R(1, 10), false)
		if err != nil {
			return nil, err
		}
		return core.New(sys), nil
	}
}

func TestEngineCacheLRUEviction(t *testing.T) {
	var calls atomic.Int64
	c := NewEngineCache(2)

	e2a, err := c.Get("nsquad(2)", buildSquad(2, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("nsquad(3)", buildSquad(3, &calls)); err != nil {
		t.Fatal(err)
	}
	// Touch nsquad(2) so nsquad(3) is the LRU victim.
	e2b, err := c.Get("nsquad(2)", buildSquad(2, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if e2a != e2b {
		t.Error("warm hit rebuilt the engine")
	}
	if _, err := c.Get("nsquad(4)", buildSquad(4, &calls)); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("cache len = %d, want 2", c.Len())
	}
	if !c.Contains("nsquad(2)") || !c.Contains("nsquad(4)") || c.Contains("nsquad(3)") {
		t.Errorf("LRU evicted the wrong entry: 2=%v 3=%v 4=%v",
			c.Contains("nsquad(2)"), c.Contains("nsquad(3)"), c.Contains("nsquad(4)"))
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Hits != 1 || st.Misses != 3 {
		t.Errorf("stats = %+v, want 1 eviction, 1 hit, 3 misses", st)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("build ran %d times, want 3", got)
	}
}

func TestEngineCacheUnboundedWhenCapZero(t *testing.T) {
	var calls atomic.Int64
	c := NewEngineCache(0)
	for n := 2; n <= 5; n++ {
		if _, err := c.Get(fmt.Sprintf("nsquad(%d)", n), buildSquad(n, &calls)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 4 || c.Stats().Evictions != 0 {
		t.Errorf("unbounded cache evicted: len=%d stats=%+v", c.Len(), c.Stats())
	}
}

// TestEngineCacheSingleflight: N concurrent Gets for one cold key share
// one build; the rest either join the flight or hit the installed entry.
func TestEngineCacheSingleflight(t *testing.T) {
	var calls atomic.Int64
	c := NewEngineCache(4)
	const goroutines = 16

	var wg sync.WaitGroup
	engines := make([]*core.Engine, goroutines)
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			e, err := c.Get("nsquad(3)", buildSquad(3, &calls))
			if err != nil {
				t.Error(err)
				return
			}
			engines[g] = e
		}(g)
	}
	close(start)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("build ran %d times under contention, want 1", got)
	}
	for g := 1; g < goroutines; g++ {
		if engines[g] != engines[0] {
			t.Fatalf("goroutine %d got a different engine", g)
		}
	}
}

// TestEngineCacheBuildErrorNotCached: a failed build reaches every
// waiter and is retried on the next Get — errors never poison a key.
func TestEngineCacheBuildErrorNotCached(t *testing.T) {
	c := NewEngineCache(4)
	boom := errors.New("boom")
	var calls atomic.Int64
	fail := func() (*core.Engine, error) { calls.Add(1); return nil, boom }

	if _, err := c.Get("bad", fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Contains("bad") || c.Len() != 0 {
		t.Error("failed build was cached")
	}
	var ok atomic.Int64
	if _, err := c.Get("bad", buildSquad(2, &ok)); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if calls.Load() != 1 || ok.Load() != 1 {
		t.Errorf("retry counts wrong: fail=%d ok=%d", calls.Load(), ok.Load())
	}
}

// squadWorkload is every analysis kind and theorem check for the
// general of the n-squad. The necessity check (Lemma 5.1) names a
// witness state, so the workload also pins that the witness does not
// depend on an engine's map iteration order.
func squadWorkload(n int) []query.Query {
	all := scenarios.AllFireFact(n)
	g, fire, half := scenarios.General, scenarios.ActFire, ratutil.R(1, 2)
	return []query.Query{
		query.ConstraintQuery{Fact: all, Agent: g, Action: fire, Threshold: half},
		query.ExpectationQuery{Fact: all, Agent: g, Action: fire},
		query.BeliefQuery{Fact: all, Agent: g, Action: fire},
		query.ThresholdQuery{Fact: all, Agent: g, Action: fire, P: ratutil.R(9, 10)},
		query.IndependenceQuery{Fact: all, Agent: g, Action: fire},
		query.TheoremQuery{Theorem: query.TheoremSufficiency, Fact: all, Agent: g, Action: fire, P: half},
		query.TheoremQuery{Theorem: query.TheoremNecessity, Fact: all, Agent: g, Action: fire, P: half},
		query.TheoremQuery{Theorem: query.TheoremExpectation, Fact: all, Agent: g, Action: fire},
		query.TheoremQuery{Theorem: query.TheoremPAK, Fact: all, Agent: g, Action: fire, Eps: ratutil.R(1, 4)},
		query.TheoremQuery{Theorem: query.TheoremKoP, Fact: all, Agent: g, Action: fire},
	}
}

// TestEvictionInvisible is the contract the LRU rests on: evict
// everything, re-evaluate, and the wire-form results are byte-identical.
// Equivalent spellings address one slot, and a capacity-1 cache never
// holds more than one engine.
func TestEvictionInvisible(t *testing.T) {
	s := New(nil, WithEngineCacheSize(1))

	evalDocs := func(spec string, n int) []byte {
		t.Helper()
		e, _, err := s.engineFor(spec)
		if err != nil {
			t.Fatal(err)
		}
		results, err := query.EvalBatch(e, squadWorkload(n), query.WithParallelism(4))
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(query.DocsOf(results))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	warm := evalDocs("nsquad(2)", 2)
	// Force the only slot over to another spec: nsquad(2) is evicted.
	other := evalDocs("nsquad(3)", 3)
	if s.Cache().Contains("nsquad(n=2,loss=1/10,improved=false)") {
		t.Fatal("nsquad(2) survived a capacity-1 eviction")
	}
	if rebuilt := evalDocs("nsquad(2)", 2); string(warm) != string(rebuilt) {
		t.Errorf("eviction visible:\nwarm    %s\nrebuilt %s", warm, rebuilt)
	}
	if rebuilt := evalDocs("nsquad(3)", 3); string(other) != string(rebuilt) {
		t.Errorf("nsquad(3) eviction visible:\nwarm    %s\nrebuilt %s", other, rebuilt)
	}
	if aliased := evalDocs("nsquad(n=2,loss=1/10,improved=false)", 2); string(warm) != string(aliased) {
		t.Errorf("equivalent spelling answered differently:\nshort %s\nlong  %s", warm, aliased)
	}
	if st := s.Cache().Stats(); st.Evictions < 3 || st.Len > 1 {
		t.Errorf("stats = %+v, want ≥ 3 evictions and len ≤ 1", st)
	}
}
