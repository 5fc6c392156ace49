package pps

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pak/internal/ratutil"
)

// buildDiamond constructs the small two-run system of the paper's Figure 1:
// a single agent i, one initial state g0, and two leaves reached by
// performing α or α' with probability 1/2 each.
func buildDiamond(t *testing.T) *System {
	t.Helper()
	b := NewBuilder("i")
	g0 := b.Init(ratutil.One(), "e0", "g0")
	b.Child(g0, Step{Pr: ratutil.R(1, 2), Acts: []string{"alpha"}, Env: "e1", Locals: []string{"g1"}})
	b.Child(g0, Step{Pr: ratutil.R(1, 2), Acts: []string{"alpha'"}, Env: "e1", Locals: []string{"g1"}})
	sys, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return sys
}

func TestBuildDiamond(t *testing.T) {
	sys := buildDiamond(t)
	if got := sys.NumRuns(); got != 2 {
		t.Fatalf("NumRuns = %d, want 2", got)
	}
	if got := sys.NumNodes(); got != 4 { // root + g0 + 2 leaves
		t.Fatalf("NumNodes = %d, want 4", got)
	}
	if got := sys.MaxTime(); got != 1 {
		t.Fatalf("MaxTime = %d, want 1", got)
	}
	for r := RunID(0); r < 2; r++ {
		if got := sys.RunProb(r); !ratutil.Eq(got, ratutil.R(1, 2)) {
			t.Errorf("RunProb(%d) = %v, want 1/2", r, got)
		}
		if got := sys.RunLen(r); got != 2 {
			t.Errorf("RunLen(%d) = %d, want 2", r, got)
		}
	}
	if !ratutil.IsOne(sys.TotalMeasure()) {
		t.Fatalf("TotalMeasure = %v, want 1", sys.TotalMeasure())
	}
}

func TestActions(t *testing.T) {
	sys := buildDiamond(t)
	act0, ok := sys.Action(0, 0, 0)
	if !ok || act0 != "alpha" {
		t.Fatalf("Action(run0, t0) = %q,%v; want alpha,true", act0, ok)
	}
	act1, ok := sys.Action(1, 0, 0)
	if !ok || act1 != "alpha'" {
		t.Fatalf("Action(run1, t0) = %q,%v; want alpha',true", act1, ok)
	}
	if _, ok := sys.Action(0, 1, 0); ok {
		t.Fatal("Action at final point should report ok=false")
	}
}

func TestLocalAndEnv(t *testing.T) {
	sys := buildDiamond(t)
	if got := sys.Local(0, 0, 0); got != "g0" {
		t.Errorf("Local(0,0) = %q", got)
	}
	if got := sys.Local(0, 1, 0); got != "g1" {
		t.Errorf("Local(0,1) = %q", got)
	}
	if got := sys.Env(0, 1); got != "e1" {
		t.Errorf("Env(0,1) = %q", got)
	}
}

func TestOccurs(t *testing.T) {
	sys := buildDiamond(t)
	ev, tm, ok := sys.Occurs(0, "g0")
	if !ok || tm != 0 || ev.Count() != 2 {
		t.Fatalf("Occurs(g0) = %v,%d,%v", ev, tm, ok)
	}
	ev, tm, ok = sys.Occurs(0, "g1")
	if !ok || tm != 1 || ev.Count() != 2 {
		t.Fatalf("Occurs(g1) = %v,%d,%v", ev, tm, ok)
	}
	if _, _, ok := sys.Occurs(0, "nope"); ok {
		t.Fatal("Occurs(nonexistent) should be false")
	}
	// The returned set must be a copy.
	ev, _, _ = sys.Occurs(0, "g0")
	ev.Remove(0)
	ev2, _, _ := sys.Occurs(0, "g0")
	if ev2.Count() != 2 {
		t.Fatal("Occurs returned aliased internal set")
	}
}

func TestLocalStates(t *testing.T) {
	sys := buildDiamond(t)
	got := sys.LocalStates(0)
	if len(got) != 2 || got[0] != "g0" || got[1] != "g1" {
		t.Fatalf("LocalStates = %v, want [g0 g1]", got)
	}
}

func TestMeasureAndCond(t *testing.T) {
	sys := buildDiamond(t)
	a := sys.RunsWhere(func(r RunID) bool {
		act, _ := sys.Action(r, 0, 0)
		return act == "alpha"
	})
	if got := sys.Measure(a); !ratutil.Eq(got, ratutil.R(1, 2)) {
		t.Fatalf("Measure(alpha runs) = %v, want 1/2", got)
	}
	cond, ok := sys.Cond(a, sys.FullSet())
	if !ok || !ratutil.Eq(cond, ratutil.R(1, 2)) {
		t.Fatalf("Cond = %v,%v", cond, ok)
	}
	if _, ok := sys.Cond(a, sys.NewSet()); ok {
		t.Fatal("Cond on empty event should report ok=false")
	}
}

func TestAgentIndex(t *testing.T) {
	sys := buildDiamond(t)
	id, ok := sys.AgentIndex("i")
	if !ok || id != 0 {
		t.Fatalf("AgentIndex(i) = %d,%v", id, ok)
	}
	if _, ok := sys.AgentIndex("nobody"); ok {
		t.Fatal("AgentIndex(nobody) should be false")
	}
	if got := sys.AgentName(0); got != "i" {
		t.Fatalf("AgentName(0) = %q", got)
	}
	agents := sys.Agents()
	agents[0] = "mutated"
	if sys.AgentName(0) != "i" {
		t.Fatal("Agents() returned aliased slice")
	}
}

func TestBuilderValidation(t *testing.T) {
	tests := []struct {
		name    string
		build   func() (*System, error)
		wantErr error
	}{
		{
			name: "no agents",
			build: func() (*System, error) {
				return NewBuilder().Build()
			},
			wantErr: ErrNoAgents,
		},
		{
			name: "duplicate agent",
			build: func() (*System, error) {
				return NewBuilder("a", "a").Build()
			},
			wantErr: ErrDuplicateAgent,
		},
		{
			name: "empty agent name",
			build: func() (*System, error) {
				return NewBuilder("").Build()
			},
			wantErr: ErrDuplicateAgent,
		},
		{
			name: "no initial states",
			build: func() (*System, error) {
				return NewBuilder("i").Build()
			},
			wantErr: ErrNoInitial,
		},
		{
			name: "zero probability",
			build: func() (*System, error) {
				b := NewBuilder("i")
				b.Init(ratutil.Zero(), "e", "l")
				return b.Build()
			},
			wantErr: ErrBadProb,
		},
		{
			name: "nil probability",
			build: func() (*System, error) {
				b := NewBuilder("i")
				b.Init(nil, "e", "l")
				return b.Build()
			},
			wantErr: ErrBadProb,
		},
		{
			name: "probability above one",
			build: func() (*System, error) {
				b := NewBuilder("i")
				b.Init(ratutil.R(3, 2), "e", "l")
				return b.Build()
			},
			wantErr: ErrBadProb,
		},
		{
			name: "probabilities do not sum to one",
			build: func() (*System, error) {
				b := NewBuilder("i")
				b.Init(ratutil.R(1, 2), "e", "l0")
				return b.Build()
			},
			wantErr: ErrProbSum,
		},
		{
			name: "child probabilities do not sum to one",
			build: func() (*System, error) {
				b := NewBuilder("i")
				g := b.Init(ratutil.One(), "e", "l0")
				b.Child(g, Step{Pr: ratutil.R(1, 3), Acts: []string{"a"}, Locals: []string{"l1"}})
				b.Child(g, Step{Pr: ratutil.R(1, 3), Acts: []string{"a"}, Locals: []string{"l1b"}})
				return b.Build()
			},
			wantErr: ErrProbSum,
		},
		{
			name: "wrong locals arity",
			build: func() (*System, error) {
				b := NewBuilder("i", "j")
				b.Init(ratutil.One(), "e", "only-one")
				return b.Build()
			},
			wantErr: ErrArity,
		},
		{
			name: "wrong acts arity",
			build: func() (*System, error) {
				b := NewBuilder("i")
				g := b.Init(ratutil.One(), "e", "l0")
				c := b.Child(g, Step{Pr: ratutil.One(), Acts: []string{"a"}, Locals: []string{"l1"}})
				b.Child(c, Step{Pr: ratutil.One(), Acts: []string{"a", "b"}, Locals: []string{"l2"}})
				return b.Build()
			},
			wantErr: ErrArity,
		},
		{
			name: "acts on initial state",
			build: func() (*System, error) {
				b := NewBuilder("i")
				b.addChild(Root, Step{Pr: ratutil.One(), Acts: []string{"a"}, Env: "e", Locals: []string{"l0"}})
				return b.Build()
			},
			wantErr: ErrArity,
		},
		{
			name: "child of root via Child",
			build: func() (*System, error) {
				b := NewBuilder("i")
				b.Child(Root, Step{Pr: ratutil.One(), Locals: []string{"l0"}})
				return b.Build()
			},
			wantErr: ErrBadParent,
		},
		{
			name: "unknown parent",
			build: func() (*System, error) {
				b := NewBuilder("i")
				b.Init(ratutil.One(), "e", "l0")
				b.Child(99, Step{Pr: ratutil.One(), Acts: []string{"a"}, Locals: []string{"l1"}})
				return b.Build()
			},
			wantErr: ErrBadParent,
		},
		{
			name: "synchrony violation",
			build: func() (*System, error) {
				b := NewBuilder("i")
				g := b.Init(ratutil.One(), "e", "same")
				b.Child(g, Step{Pr: ratutil.One(), Acts: []string{"a"}, Locals: []string{"same"}})
				return b.Build()
			},
			wantErr: ErrSynchrony,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sys, err := tt.build()
			if err == nil {
				t.Fatalf("Build succeeded (%v), want %v", sys, tt.wantErr)
			}
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("Build error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestStickyError(t *testing.T) {
	b := NewBuilder("i")
	b.Init(nil, "e", "l") // first error: bad prob
	id := b.Init(ratutil.One(), "e", "l2")
	if id != -1 {
		t.Fatalf("builder after error returned id %d, want -1", id)
	}
	if _, err := b.Build(); !errors.Is(err, ErrBadProb) {
		t.Fatalf("sticky error = %v, want ErrBadProb", err)
	}
	if b.Err() == nil {
		t.Fatal("Err() should report the sticky error")
	}
}

func TestBuilderCopiesProb(t *testing.T) {
	b := NewBuilder("i")
	p := ratutil.One()
	b.Init(p, "e", "l0")
	p.SetInt64(0) // caller mutates after handing it to the builder
	sys, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !ratutil.IsOne(sys.RunProb(0)) {
		t.Fatal("builder aliased caller's probability")
	}
}

func TestSynchronyAllowsSameStateAcrossAgents(t *testing.T) {
	// Two different agents may use the same local-state string at
	// different times; synchrony is per agent.
	b := NewBuilder("i", "j")
	g := b.Init(ratutil.One(), "e", "x", "y")
	b.Child(g, Step{Pr: ratutil.One(), Acts: []string{"a", "a"}, Locals: []string{"y", "x"}})
	if _, err := b.Build(); err != nil {
		t.Fatalf("cross-agent state reuse rejected: %v", err)
	}
}

func TestNodeAccessors(t *testing.T) {
	sys := buildDiamond(t)
	children := sys.ChildrenOf(Root)
	if len(children) != 1 {
		t.Fatalf("root children = %v", children)
	}
	g0 := children[0]
	if sys.ParentOf(g0) != Root || sys.DepthOf(g0) != 1 {
		t.Fatal("g0 parent/depth wrong")
	}
	if sys.EdgeProb(Root) != nil {
		t.Fatal("root EdgeProb should be nil")
	}
	if !ratutil.IsOne(sys.EdgeProb(g0)) {
		t.Fatal("g0 EdgeProb should be 1")
	}
	leaves := sys.ChildrenOf(g0)
	if len(leaves) != 2 || !sys.IsLeaf(leaves[0]) || sys.IsLeaf(g0) {
		t.Fatal("leaf structure wrong")
	}
	if got := sys.ActsOf(leaves[0]); len(got) != 1 || got[0] != "alpha" {
		t.Fatalf("ActsOf = %v", got)
	}
	if got := sys.LocalsOf(g0); len(got) != 1 || got[0] != "g0" {
		t.Fatalf("LocalsOf = %v", got)
	}
	if got := sys.EnvOf(g0); got != "e0" {
		t.Fatalf("EnvOf = %q", got)
	}
}

func TestDumpAndString(t *testing.T) {
	sys := buildDiamond(t)
	d := sys.Dump()
	for _, want := range []string{"λ", "1/2", "alpha'", "g0"} {
		if !strings.Contains(d, want) {
			t.Errorf("Dump missing %q:\n%s", want, d)
		}
	}
	if s := sys.String(); !strings.Contains(s, "runs=2") {
		t.Errorf("String = %q", s)
	}
}

// randomTree builds a random valid system and returns it. Probabilities at
// each node are a random composition of 1 summed from unit fractions.
func randomTree(seed int64) (*System, error) {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder("i", "j")
	type frontier struct {
		id    NodeID
		depth int
	}
	// Random initial states.
	nInit := rng.Intn(3) + 1
	var front []frontier
	for k := 0; k < nInit; k++ {
		pr := ratutil.R(1, int64(nInit))
		id := b.Init(pr, "e", nameFor(0, k, "i"), nameFor(0, k, "j"))
		front = append(front, frontier{id, 1})
	}
	maxDepth := rng.Intn(4) + 2
	serial := 0
	for len(front) > 0 {
		f := front[0]
		front = front[1:]
		if f.depth >= maxDepth || rng.Intn(4) == 0 {
			continue // leaf
		}
		nKids := rng.Intn(3) + 1
		for k := 0; k < nKids; k++ {
			serial++
			id := b.Child(f.id, Step{
				Pr:     ratutil.R(1, int64(nKids)),
				Acts:   []string{actFor(rng), actFor(rng)},
				Env:    "e",
				Locals: []string{nameFor(f.depth, serial, "i"), nameFor(f.depth, serial, "j")},
			})
			front = append(front, frontier{id, f.depth + 1})
		}
	}
	return b.Build()
}

func nameFor(depth, serial int, agent string) string {
	return agent + "-" + string(rune('a'+depth)) + "-" + itoa(serial)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func actFor(rng *rand.Rand) string {
	return string(rune('a' + rng.Intn(3)))
}

// Property: every randomly generated valid tree has total measure exactly 1
// and positive probability on every run.
func TestQuickTotalMeasureIsOne(t *testing.T) {
	f := func(seed int64) bool {
		sys, err := randomTree(seed)
		if err != nil {
			t.Logf("seed %d: build error %v", seed, err)
			return false
		}
		if !ratutil.IsOne(sys.TotalMeasure()) {
			return false
		}
		for r := 0; r < sys.NumRuns(); r++ {
			if sys.RunProb(RunID(r)).Sign() <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: runs through the same node at time t share an identical prefix.
func TestQuickSharedNodeMeansSharedPrefix(t *testing.T) {
	f := func(seed int64) bool {
		sys, err := randomTree(seed)
		if err != nil {
			return false
		}
		for r1 := 0; r1 < sys.NumRuns(); r1++ {
			for r2 := r1 + 1; r2 < sys.NumRuns(); r2++ {
				n := sys.RunLen(RunID(r1))
				if m := sys.RunLen(RunID(r2)); m < n {
					n = m
				}
				for tt := 0; tt < n; tt++ {
					if sys.NodeAt(RunID(r1), tt) == sys.NodeAt(RunID(r2), tt) {
						for u := 0; u <= tt; u++ {
							if sys.NodeAt(RunID(r1), u) != sys.NodeAt(RunID(r2), u) {
								return false
							}
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestBlocksAppendAndIndex pins the builder's block storage: at(i) finds
// every element across the doubling block boundaries, variadic adds may
// straddle a boundary, and flat returns them in order with no spare
// capacity.
func TestBlocksAppendAndIndex(t *testing.T) {
	for _, n := range []int{0, 1, minBlock - 1, minBlock, minBlock + 1, 4*minBlock + 3, 1000} {
		var b blocks[int]
		for i := 0; i < n; {
			k := min(3, n-i) // three at a time where it can
			b.add([]int{i, i + 1, i + 2}[:k]...)
			i += k
		}
		for i := 0; i < n; i++ {
			if got := *b.at(i); got != i {
				t.Fatalf("n=%d: at(%d) = %d", n, i, got)
			}
		}
		flat := b.flat()
		if len(flat) != n || cap(flat) != n {
			t.Fatalf("n=%d: flat has len %d, cap %d", n, len(flat), cap(flat))
		}
		for i, v := range flat {
			if v != i {
				t.Fatalf("n=%d: flat[%d] = %d", n, i, v)
			}
		}
	}
}
