package protocol

import (
	"fmt"
	"testing"
	"unsafe"

	"pak/internal/pps"
	"pak/internal/ratutil"
)

// gossipModel is three agents over three rounds whose local states
// repeat across many nodes: each agent flips a fair coin and remembers
// only the parity of its heads, so the tree has 8^3 leaves but each
// agent sees just two local states per time. calls counts AgentStep
// invocations per (agent, t, local).
func gossipModel(calls map[string]int) FuncModel {
	return FuncModel{
		AgentNames: []string{"a", "b", "c"},
		Init:       []Weighted[Global]{W(Global{Env: "e", Locals: []string{"even", "even", "even"}}, ratutil.One())},
		Step: func(agent int, local string, t int) []Weighted[string] {
			calls[fmt.Sprintf("%d/%d/%s", agent, t, local)]++
			return Mix(W("heads", ratutil.R(1, 2)), W("tails", ratutil.R(1, 2)))
		},
		Trans: func(g Global, acts []string, envAct string, t int) (Global, error) {
			next := g.Clone()
			for i, act := range acts {
				if act == "heads" {
					if next.Locals[i] == "even" {
						next.Locals[i] = "odd"
					} else {
						next.Locals[i] = "even"
					}
				}
			}
			return next, nil
		},
		Bound: 3,
	}
}

// TestUnfoldStepsEachLocalStateOnce: Unfold treats P_i as the function
// of local state it is, calling AgentStep once per distinct
// (agent, t, local) of one unfold however many nodes share it — and
// again in a second unfold, whose memo is its own.
func TestUnfoldStepsEachLocalStateOnce(t *testing.T) {
	calls := make(map[string]int)
	m := gossipModel(calls)
	for round := 1; round <= 2; round++ {
		sys, err := Unfold(m)
		if err != nil {
			t.Fatal(err)
		}
		if sys.NumRuns() != 512 {
			t.Fatalf("NumRuns = %d, want 512", sys.NumRuns())
		}
		// t=0: one state per agent; t=1, t=2: even and odd.
		if len(calls) != 3*(1+2+2) {
			t.Fatalf("distinct step arguments = %d, want 15: %v", len(calls), calls)
		}
		for key, n := range calls {
			if n != round {
				t.Errorf("after unfold %d: AgentStep(%s) called %d times, want %d", round, key, n, round)
			}
		}
	}
}

// TestUnfoldSharesStampedLocals: every node holding the same local at
// the same time holds one interned string (one backing array, whichever
// agent holds it), and that string is Stamp's.
func TestUnfoldSharesStampedLocals(t *testing.T) {
	sys, err := Unfold(gossipModel(make(map[string]int)))
	if err != nil {
		t.Fatal(err)
	}
	data := make(map[string]*byte)
	for id := pps.NodeID(1); int(id) < sys.NumNodes(); id++ {
		tm := sys.DepthOf(id) - 1
		for _, local := range sys.LocalsOf(id) {
			if want := Stamp(tm, Unstamp(local)); local != want {
				t.Fatalf("node %d holds %q, want %q", id, local, want)
			}
			p := unsafe.StringData(local)
			if first, ok := data[local]; ok && first != p {
				t.Fatalf("node %d holds a second copy of %q", id, local)
			}
			data[local] = p
		}
	}
	if len(data) != 1+2+2+2 {
		t.Errorf("distinct stamped locals = %d, want 7", len(data))
	}
}
