package core

import (
	"context"
	"math/big"
	"testing"

	"pak/internal/epistemic"
	"pak/internal/logic"
	"pak/internal/randsys"
)

// TestIndependenceScanCtxCut: the Definition 4.1 scan consults the
// context at its coarse interval, so on a system with more local states
// than the interval an already-dead context cuts the scan with its
// cause — and because the memo never retains context aborts, a later
// caller with a live context still computes the exact report.
func TestIndependenceScanCtxCut(t *testing.T) {
	sys, err := randsys.Generate(randsys.Config{
		Agents: 2, Depth: 6, MaxBranch: 3, MaxInitial: 2,
		ObsAlphabet: 64, ActionTime: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := New(sys)
	agent := sys.AgentName(0)
	if n := len(sys.LocalStates(0)); n <= indepCtxInterval {
		t.Skipf("system has %d local states, below the %d-state check interval", n, indepCtxInterval)
	}
	fact := logic.Does(agent, randsys.DesignatedAction)

	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(context.DeadlineExceeded)
	if _, err := e.LocalStateIndependenceCtx(ctx, fact, agent, randsys.DesignatedAction); !IsContextErr(err) {
		t.Fatalf("dead-context scan err = %v, want the deadline cause", err)
	}

	// The abort is not cached: the same engine answers a live caller.
	report, err := e.LocalStateIndependence(fact, agent, randsys.DesignatedAction)
	if err != nil {
		t.Fatalf("live scan after abort: %v", err)
	}
	// And the memoized entry now serves the dead-context caller too (a
	// cache hit needs no scan to cut).
	report2, err := e.LocalStateIndependenceCtx(ctx, fact, agent, randsys.DesignatedAction)
	if err != nil || report2.Independent != report.Independent {
		t.Fatalf("cached report under dead context = (%+v, %v)", report2, err)
	}
}

// TestPastBasedScanCtxCut: Lemma 4.3(b)'s past-based scan consults the
// context every indepCtxInterval runs, so with the Definition 4.1 report
// already memoized, a dead context cuts ExplainIndependenceCtx inside
// the past-based scan with its cause. The abort is not memoized: a live
// caller then gets the exact verdict, which a dead-context caller reads
// from the memo afterwards.
func TestPastBasedScanCtxCut(t *testing.T) {
	sys, err := randsys.Generate(randsys.Config{
		Agents: 2, Depth: 6, MaxBranch: 3, MaxInitial: 2,
		ObsAlphabet: 64, ActionTime: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := sys.NumRuns(); n <= indepCtxInterval {
		t.Skipf("system has %d runs, below the %d-run check interval", n, indepCtxInterval)
	}
	agent := sys.AgentName(0)
	action := randsys.DesignatedAction
	// Past-based facts, so that the scan has to visit every run.
	facts := map[string]logic.Fact{
		"localIs":  logic.LocalIs(agent, sys.LocalStates(0)[1]),
		"believes": epistemic.Believes(agent, big.NewRat(1, 2), logic.Sometime(logic.Does(agent, action))),
	}
	for name, fact := range facts {
		t.Run(name, func(t *testing.T) {
			e := New(sys)
			if _, err := e.LocalStateIndependence(fact, agent, action); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancelCause(context.Background())
			cancel(context.DeadlineExceeded)
			// The report is memoized, so the abort can only come from
			// the past-based scan (or, for believes, a scan nested in it).
			if _, err := e.ExplainIndependenceCtx(ctx, fact, agent, action); !IsContextErr(err) {
				t.Fatalf("dead-context explain err = %v, want the deadline cause", err)
			}
			if n := e.pasts.len(); n != 0 {
				t.Fatalf("the aborted scan left %d past-based entries", n)
			}

			w, err := e.ExplainIndependence(fact, agent, action)
			if err != nil {
				t.Fatalf("live explain after abort: %v", err)
			}
			if !w.PastBased || !logic.IsPastBased(sys, fact) {
				t.Fatalf("PastBased = %v after an aborted scan, logic.IsPastBased = %v, want both true", w.PastBased, logic.IsPastBased(sys, fact))
			}
			w2, err := e.ExplainIndependenceCtx(ctx, fact, agent, action)
			if err != nil || w2 != w {
				t.Fatalf("memoized explain under dead context = (%+v, %v), want (%+v, nil)", w2, err, w)
			}
		})
	}
}
