package query_test

// The lazy-engine differential: a MultiItem whose engine arrives
// through a Source must be indistinguishable on the wire from the same
// item with the engine prebuilt — every mode (serial, parallel,
// streamed), every registry scenario. The
// deadline tests pin the other half of the contract: a deadline
// mid-build cuts unbuilt items without spending their build, the cut is
// ctx-classed (an envelope counts the assignment as not visited), and
// nothing about a cut poisons later evaluations.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"pak/internal/core"
	"pak/internal/query"
	"pak/internal/ratutil"
	"pak/internal/registry"
	"pak/internal/scenarios"
)

// wireGrid renders a MultiBatch result grid to wire JSON per slot.
func wireGrid(t testing.TB, grid [][]query.Result) [][]string {
	t.Helper()
	out := make([][]string, len(grid))
	for i, row := range grid {
		out[i] = make([]string, len(row))
		for j, res := range row {
			out[i][j] = wireJSON(t, res)
		}
	}
	return out
}

// multiStreamWire reassembles an EvalMultiStream into per-slot wire
// JSON, requiring a complete, hole-free stream.
func multiStreamWire(t testing.TB, items []query.MultiItem, opts ...query.Option) [][]string {
	t.Helper()
	out := make([][]string, len(items))
	for i := range items {
		out[i] = make([]string, len(items[i].Queries))
	}
	for f := range query.EvalMultiStream(items, opts...) {
		if f.Terminal() {
			if f.Status != query.StreamComplete {
				t.Fatalf("terminal status %q, want complete", f.Status)
			}
			continue
		}
		if out[f.System][f.Index] != "" {
			t.Fatalf("duplicate frame for slot (%d,%d)", f.System, f.Index)
		}
		out[f.System][f.Index] = wireJSON(t, f.Result)
	}
	for i, row := range out {
		for j, doc := range row {
			if doc == "" {
				t.Fatalf("slot (%d,%d) never emitted", i, j)
			}
		}
	}
	return out
}

// lazyTwin mirrors eager items as Source-backed ones, each source
// building a fresh engine for the same system and counting invocations.
func lazyTwin(eager []query.MultiItem) ([]query.MultiItem, []*atomic.Int64) {
	lazy := make([]query.MultiItem, len(eager))
	counts := make([]*atomic.Int64, len(eager))
	for i, it := range eager {
		sys := it.Engine.System()
		n := &atomic.Int64{}
		counts[i] = n
		lazy[i] = query.MultiItem{
			Queries: it.Queries,
			Source: func(context.Context) (query.Engines, error) {
				n.Add(1)
				return query.Engines{Engine: core.New(sys)}, nil
			},
		}
	}
	return lazy, counts
}

// TestLazyMatchesEagerEverywhere is the differential gate of the lazy
// contract: for every registry scenario's differential instances,
// {serial, parallel, streamed} over a two-item batch, the
// Source-backed evaluation returns byte-identical ResultDoc JSON to the
// prebuilt-engine evaluation, and every source resolves exactly once.
func TestLazyMatchesEagerEverywhere(t *testing.T) {
	reg := registry.Default()
	for _, s := range reg.Scenarios() {
		for _, spec := range s.Differential {
			spec := spec
			t.Run(spec, func(t *testing.T) {
				sys, err := reg.Build(spec)
				if err != nil {
					t.Fatalf("build %q: %v", spec, err)
				}
				qs := supportedBatch(t, sys)
				eager := []query.MultiItem{
					{Engine: core.New(sys), Queries: qs},
					{Engine: core.New(sys), Queries: qs[:3]},
				}

				for _, par := range []int{1, 4} {
					mode := fmt.Sprintf("par=%d", par)
					opts := []query.Option{query.WithParallelism(par)}
					want, _ := query.MultiBatch(eager, opts...)
					lazy, counts := lazyTwin(eager)
					got, _ := query.MultiBatch(lazy, opts...)
					compareGrids(t, mode, wireGrid(t, got), wireGrid(t, want))
					for i, n := range counts {
						if n.Load() != 1 {
							t.Errorf("%s: item %d source resolved %d times, want exactly once", mode, i, n.Load())
						}
					}
				}
				mode := "streamed"
				opts := []query.Option{query.WithParallelism(4)}
				want := multiStreamWire(t, eager, opts...)
				lazy, counts := lazyTwin(eager)
				got := multiStreamWire(t, lazy, opts...)
				compareGrids(t, mode, got, want)
				for i, n := range counts {
					if n.Load() != 1 {
						t.Errorf("%s: item %d source resolved %d times, want exactly once", mode, i, n.Load())
					}
				}
			})
		}
	}
}

func compareGrids(t testing.TB, mode string, got, want [][]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d systems, want %d", mode, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: system %d has %d slots, want %d", mode, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Errorf("%s slot (%d,%d) differs:\nlazy:  %s\neager: %s", mode, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestDeadlineMidBuildCutsUnbuilt: a deadline arriving while one item's
// source is still building cuts that item's slots with the context's
// cause — already-finished slots keep their exact answers — and nothing
// about the cut is sticky: the same source evaluated under a live
// context afterwards answers exactly.
func TestDeadlineMidBuildCutsUnbuilt(t *testing.T) {
	sys, err := scenarios.NFiringSquadSystem(2, ratutil.R(1, 10), false)
	if err != nil {
		t.Fatal(err)
	}
	qs := supportedBatch(t, sys)[:2]
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)

	var builds atomic.Int64
	blocking := func(c context.Context) (query.Engines, error) {
		builds.Add(1)
		<-c.Done() // the build outlives the request: block until the cut
		return query.Engines{}, context.Cause(c)
	}
	items := []query.MultiItem{
		{Engine: core.New(sys), Queries: qs},
		{Source: blocking, Queries: qs},
	}

	// Parallelism 1 orders the slots: item 0 completes, then the worker
	// enters item 1's source, where we cancel it.
	exact := 0
	var cutErrs []error
	status := query.StreamStatus("")
	for f := range query.EvalMultiStream(items, query.WithContext(ctx), query.WithParallelism(1)) {
		if f.Terminal() {
			status = f.Status
			continue
		}
		switch f.System {
		case 0:
			if f.Result.Err != nil {
				t.Errorf("finished slot (0,%d) failed: %v", f.Index, f.Result.Err)
			}
			exact++
			if exact == len(qs) {
				cancel(context.DeadlineExceeded)
			}
		case 1:
			cutErrs = append(cutErrs, f.Result.Err)
		}
	}
	if exact != len(qs) {
		t.Fatalf("item 0 finished %d slots, want %d", exact, len(qs))
	}
	if status != query.StreamDeadline {
		t.Errorf("terminal status %q, want %q", status, query.StreamDeadline)
	}
	if len(cutErrs) != len(qs) {
		t.Fatalf("item 1 emitted %d slots, want %d", len(cutErrs), len(qs))
	}
	for i, err := range cutErrs {
		if !core.IsContextErr(err) {
			t.Errorf("cut slot %d error %v is not ctx-classed; envelope folds would hard-fail it", i, err)
		}
	}
	if builds.Load() != 1 {
		t.Errorf("blocking source resolved %d times, want once", builds.Load())
	}

	// The cut is not sticky: a live re-evaluation of an identical lazy
	// item answers byte-identically to the eager baseline.
	retry := []query.MultiItem{{
		Source: func(context.Context) (query.Engines, error) {
			return query.Engines{Engine: core.New(sys)}, nil
		},
		Queries: qs,
	}}
	got, _ := query.MultiBatch(retry, query.WithParallelism(1))
	want, _ := query.MultiBatch([]query.MultiItem{{Engine: core.New(sys), Queries: qs}}, query.WithParallelism(1))
	compareGrids(t, "retry", wireGrid(t, got), wireGrid(t, want))
}

// TestDeadlineMidBuildEnvelopeNotVisited: an envelope assignment whose
// source the deadline cuts counts as not visited — the partial
// envelope's accounting shows exactly the finished assignments.
func TestDeadlineMidBuildEnvelopeNotVisited(t *testing.T) {
	sys, err := scenarios.NFiringSquadSystem(2, ratutil.R(1, 10), false)
	if err != nil {
		t.Fatal(err)
	}
	inner := query.ConstraintQuery{Fact: scenarios.AllFireFact(2), Agent: scenarios.General, Action: scenarios.ActFire}
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)

	q := query.EnvelopeQuery{Inner: inner, Items: []query.EnvelopeItem{
		{Assignment: "a=0", Spec: "s0", Engine: core.New(sys)},
		{Assignment: "a=1", Spec: "s1", Source: func(c context.Context) (query.Engines, error) {
			<-c.Done()
			return query.Engines{}, context.Cause(c)
		}},
	}}
	frames, err := query.EnvelopeStream(q, query.WithContext(ctx), query.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	for f := range frames {
		if f.Terminal() {
			if f.Status != query.StreamDeadline {
				t.Errorf("terminal status %q, want %q", f.Status, query.StreamDeadline)
			}
			env := f.Envelope
			if env.Visited != 1 || env.Total != 2 {
				t.Errorf("envelope accounting = %d/%d visited, want 1/2 (the cut build must count as not visited)", env.Visited, env.Total)
			}
			if !env.Defined() {
				t.Error("the finished assignment's value should define the partial envelope")
			}
			continue
		}
		if f.Index == 0 {
			cancel(context.DeadlineExceeded)
		}
	}
}
