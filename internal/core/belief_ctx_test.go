package core

import (
	"context"
	"errors"
	"testing"

	"pak/internal/epistemic"
	"pak/internal/logic"
	"pak/internal/pps"
	"pak/internal/randsys"
	"pak/internal/ratutil"
)

// TestFactExtensionScanCtxCut: the φ@α and φ@ℓ extension scans consult
// the context every indepCtxInterval runs, so on a system whose proper
// action (or local state) spans more runs than the interval an already
// dead context cuts the scan with its cause — and because the memo never
// retains context aborts, a later caller with a live context still
// computes the exact extension and the memoized entry then serves even
// dead-context callers (a cache hit needs no scan to cut).
func TestFactExtensionScanCtxCut(t *testing.T) {
	sys, err := randsys.Generate(randsys.Config{
		Agents: 2, Depth: 7, MaxBranch: 3, MaxInitial: 2,
		ObsAlphabet: 64, ActionTime: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := New(sys)
	agent := sys.AgentName(0)
	fact := logic.Does(agent, randsys.DesignatedAction)

	dead, cancel := context.WithCancelCause(context.Background())
	cancel(context.DeadlineExceeded)

	t.Run("atAction", func(t *testing.T) {
		_, info, err := e.properFor(agent, randsys.DesignatedAction)
		if err != nil {
			t.Fatal(err)
		}
		if n := info.set.Count(); n <= indepCtxInterval {
			t.Skipf("action spans %d runs, below the %d-run check interval", n, indepCtxInterval)
		}
		if _, err := e.FactAtActionCtx(dead, fact, agent, randsys.DesignatedAction); !IsContextErr(err) {
			t.Fatalf("dead-context φ@α scan err = %v, want the deadline cause", err)
		}
		// The abort is not cached: the same engine answers a live caller,
		// and the now-memoized entry serves the dead-context caller too.
		live, err := e.FactAtAction(fact, agent, randsys.DesignatedAction)
		if err != nil {
			t.Fatalf("live φ@α scan after abort: %v", err)
		}
		again, err := e.FactAtActionCtx(dead, fact, agent, randsys.DesignatedAction)
		if err != nil || again.Count() != live.Count() {
			t.Fatalf("cached φ@α under dead context = (%v, %v), want count %d", again, err, live.Count())
		}
	})

	t.Run("atLocal", func(t *testing.T) {
		// Find a local state wide enough that the scan checks the context.
		var local string
		for _, l := range sys.LocalStates(0) {
			if occ, _, ok := sys.Occurs(0, l); ok && occ.Count() > indepCtxInterval {
				local = l
				break
			}
		}
		if local == "" {
			t.Skipf("no local state spans more than the %d-run check interval", indepCtxInterval)
		}
		if _, err := e.FactAtLocalCtx(dead, fact, agent, local); !IsContextErr(err) {
			t.Fatalf("dead-context φ@ℓ scan err = %v, want the deadline cause", err)
		}
		live, err := e.FactAtLocal(fact, agent, local)
		if err != nil {
			t.Fatalf("live φ@ℓ scan after abort: %v", err)
		}
		again, err := e.FactAtLocalCtx(dead, fact, agent, local)
		if err != nil || again.Count() != live.Count() {
			t.Fatalf("cached φ@ℓ under dead context = (%v, %v), want count %d", again, err, live.Count())
		}
	})
}

// TestNestedBeliefScanCtxCut: a deadline that fires inside a nested
// belief scan fails the outer scan with the context's cause. The outer
// scan runs over a local state with fewer runs than the check interval,
// so it never consults the context itself. The believes node sits under
// atTime(0, ·) and asks about a time-0 state with more runs than the
// interval, so the nested scan does. Were the nested abort read as
// "belief 0", the outer scan would complete with a wrong extension.
// Nothing may be memoized: neither extension table nor the beliefs
// table keeps an entry, and a live caller then gets the exact answer.
func TestNestedBeliefScanCtxCut(t *testing.T) {
	sys, err := randsys.Generate(randsys.Config{
		Agents: 2, Depth: 7, MaxBranch: 3, MaxInitial: 2,
		ObsAlphabet: 64, ActionTime: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var local string
	for _, l := range sys.LocalStates(0) {
		occ, _, _ := sys.Occurs(0, l)
		if occ.Count() >= indepCtxInterval {
			continue
		}
		r := pps.RunID(occ.Members()[0])
		if wide, _, _ := sys.Occurs(0, sys.Local(r, 0, 0)); wide.Count() > indepCtxInterval {
			local = l
			break
		}
	}
	if local == "" {
		t.Skip("no narrow local state whose runs start in a wide one")
	}
	agent := sys.AgentName(0)
	fact := logic.AtTime(0, epistemic.Believes(agent, ratutil.R(1, 2), logic.Not(logic.Does(agent, randsys.DesignatedAction))))

	e := New(sys)
	dead, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("deadline inside the nested scan")
	cancel(cause)
	if _, err := e.FactAtLocalCtx(dead, fact, agent, local); !errors.Is(err, cause) {
		t.Fatalf("nested abort: err = %v, want the context's cause", err)
	}
	if n, m, b := e.events.len(), e.mevents.len(), e.beliefs.len(); n+m+b != 0 {
		t.Fatalf("aborted scans left memo entries: events %d, mevents %d, beliefs %d", n, m, b)
	}

	got, err := e.FactAtLocal(fact, agent, local)
	if err != nil {
		t.Fatalf("live scan after the abort: %v", err)
	}
	occ, tm, _ := sys.Occurs(0, local)
	want := sys.NewSet()
	occ.ForEach(func(r int) bool {
		if fact.Holds(sys, pps.RunID(r), tm) {
			want.Add(r)
		}
		return true
	})
	if !got.Equal(want) {
		t.Fatalf("live scan after the abort = %v, self-contained evaluation %v", got, want)
	}
	if want.IsEmpty() {
		t.Error("the believes fact holds nowhere; an abort read as belief 0 would go unseen")
	}
}
