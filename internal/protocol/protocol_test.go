package protocol

import (
	"errors"
	"fmt"
	"testing"

	"pak/internal/pps"
	"pak/internal/ratutil"
)

// coinModel is a single agent flipping a fair coin once.
func coinModel() FuncModel {
	return FuncModel{
		AgentNames: []string{"i"},
		Init:       []Weighted[Global]{W(Global{Env: "e", Locals: []string{"start"}}, ratutil.One())},
		Step: func(agent int, local string, t int) []Weighted[string] {
			return Mix(W("heads", ratutil.R(1, 2)), W("tails", ratutil.R(1, 2)))
		},
		Trans: func(g Global, acts []string, envAct string, t int) (Global, error) {
			return Global{Env: g.Env, Locals: []string{acts[0]}}, nil
		},
		Bound: 1,
	}
}

func TestUnfoldCoin(t *testing.T) {
	sys, err := Unfold(coinModel())
	if err != nil {
		t.Fatalf("Unfold: %v", err)
	}
	if sys.NumRuns() != 2 {
		t.Fatalf("NumRuns = %d, want 2", sys.NumRuns())
	}
	if !ratutil.IsOne(sys.TotalMeasure()) {
		t.Fatalf("total measure = %v", sys.TotalMeasure())
	}
	for r := pps.RunID(0); r < 2; r++ {
		if got := sys.RunProb(r); !ratutil.Eq(got, ratutil.R(1, 2)) {
			t.Errorf("run %d prob = %v", r, got)
		}
	}
	// Locals are stamped with the time.
	if got := sys.Local(0, 0, 0); got != "t0|start" {
		t.Errorf("initial local = %q, want t0|start", got)
	}
	act, ok := sys.Action(0, 0, 0)
	if !ok || (act != "heads" && act != "tails") {
		t.Errorf("action = %q,%v", act, ok)
	}
	if got := sys.Local(0, 1, 0); got != "t1|"+act {
		t.Errorf("final local = %q, want t1|%s", got, act)
	}
}

// twoAgentModel exercises the cartesian product of mixed actions: both
// agents flip independent biased coins for two rounds.
func twoAgentModel() FuncModel {
	return FuncModel{
		AgentNames: []string{"i", "j"},
		Init:       []Weighted[Global]{W(Global{Env: "e", Locals: []string{"i", "j"}}, ratutil.One())},
		Step: func(agent int, local string, t int) []Weighted[string] {
			if agent == 0 {
				return Mix(W("a", ratutil.R(1, 3)), W("b", ratutil.R(2, 3)))
			}
			return Mix(W("x", ratutil.R(1, 4)), W("y", ratutil.R(3, 4)))
		},
		Trans: func(g Global, acts []string, envAct string, t int) (Global, error) {
			return Global{Env: g.Env, Locals: []string{
				g.Locals[0] + acts[0],
				g.Locals[1] + acts[1],
			}}, nil
		},
		Bound: 2,
	}
}

func TestUnfoldTwoAgents(t *testing.T) {
	sys, err := Unfold(twoAgentModel())
	if err != nil {
		t.Fatalf("Unfold: %v", err)
	}
	// 4 joint actions per round, two rounds: 16 runs.
	if sys.NumRuns() != 16 {
		t.Fatalf("NumRuns = %d, want 16", sys.NumRuns())
	}
	if !ratutil.IsOne(sys.TotalMeasure()) {
		t.Fatalf("total measure = %v", sys.TotalMeasure())
	}
	// The run where both agents play their first action twice has
	// probability (1/3·1/4)² = 1/144.
	ev := sys.RunsWhere(func(r pps.RunID) bool {
		return sys.Local(r, 2, 0) == "t2|iaa" && sys.Local(r, 2, 1) == "t2|jxx"
	})
	if ev.Count() != 1 {
		t.Fatalf("expected unique run, got %d", ev.Count())
	}
	if got := sys.Measure(ev); !ratutil.Eq(got, ratutil.R(1, 144)) {
		t.Fatalf("measure = %v, want 1/144", got)
	}
}

func TestUnfoldWithEnv(t *testing.T) {
	// The environment delivers a flag with probability 1/5.
	m := FuncModel{
		AgentNames: []string{"i"},
		Init:       []Weighted[Global]{W(Global{Env: "e", Locals: []string{"s"}}, ratutil.One())},
		Step: func(agent int, local string, t int) []Weighted[string] {
			return Det("noop")
		},
		Env: func(g Global, acts []string, t int) []Weighted[string] {
			return Mix(W("deliver", ratutil.R(1, 5)), W("drop", ratutil.R(4, 5)))
		},
		Trans: func(g Global, acts []string, envAct string, t int) (Global, error) {
			return Global{Env: envAct, Locals: []string{envAct}}, nil
		},
		Bound: 1,
	}
	sys, err := Unfold(m)
	if err != nil {
		t.Fatalf("Unfold: %v", err)
	}
	ev := sys.RunsWhere(func(r pps.RunID) bool { return sys.Env(r, 1) == "deliver" })
	if got := sys.Measure(ev); !ratutil.Eq(got, ratutil.R(1, 5)) {
		t.Fatalf("deliver measure = %v, want 1/5", got)
	}
	envAct, ok := sys.EnvAction(0, 0)
	if !ok || (envAct != "deliver" && envAct != "drop") {
		t.Fatalf("EnvAction = %q,%v", envAct, ok)
	}
}

func TestUnfoldValidation(t *testing.T) {
	base := coinModel()
	tests := []struct {
		name    string
		mutate  func(m FuncModel) FuncModel
		wantErr error
	}{
		{
			name: "no agents",
			mutate: func(m FuncModel) FuncModel {
				m.AgentNames = nil
				return m
			},
			wantErr: ErrBadModel,
		},
		{
			name: "zero horizon",
			mutate: func(m FuncModel) FuncModel {
				m.Bound = 0
				return m
			},
			wantErr: ErrBadModel,
		},
		{
			name: "bad initial distribution",
			mutate: func(m FuncModel) FuncModel {
				m.Init = []Weighted[Global]{W(Global{Env: "e", Locals: []string{"s"}}, ratutil.R(1, 2))}
				return m
			},
			wantErr: ErrBadDist,
		},
		{
			name: "initial arity mismatch",
			mutate: func(m FuncModel) FuncModel {
				m.Init = []Weighted[Global]{W(Global{Env: "e", Locals: []string{"s", "extra"}}, ratutil.One())}
				return m
			},
			wantErr: ErrBadModel,
		},
		{
			name: "agent distribution does not sum to 1",
			mutate: func(m FuncModel) FuncModel {
				m.Step = func(agent int, local string, t int) []Weighted[string] {
					return Mix(W("a", ratutil.R(1, 3)))
				}
				return m
			},
			wantErr: ErrBadDist,
		},
		{
			name: "env distribution empty",
			mutate: func(m FuncModel) FuncModel {
				m.Env = func(g Global, acts []string, t int) []Weighted[string] { return nil }
				return m
			},
			wantErr: ErrBadDist,
		},
		{
			name: "next arity mismatch",
			mutate: func(m FuncModel) FuncModel {
				m.Trans = func(g Global, acts []string, envAct string, t int) (Global, error) {
					return Global{Env: "e", Locals: []string{"a", "b"}}, nil
				}
				return m
			},
			wantErr: ErrBadModel,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Unfold(tt.mutate(base))
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("Unfold err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestUnfoldTransitionError(t *testing.T) {
	m := coinModel()
	boom := errors.New("boom")
	m.Trans = func(g Global, acts []string, envAct string, t int) (Global, error) {
		return Global{}, boom
	}
	if _, err := Unfold(m); !errors.Is(err, boom) {
		t.Fatalf("Unfold err = %v, want boom", err)
	}
}

func TestValidateDist(t *testing.T) {
	tests := []struct {
		name    string
		dist    []Weighted[string]
		wantErr bool
	}{
		{"det ok", Det("a"), false},
		{"mix ok", Mix(W("a", ratutil.R(1, 2)), W("b", ratutil.R(1, 2))), false},
		{"empty", nil, true},
		{"nil pr", []Weighted[string]{{Value: "a"}}, true},
		{"zero pr", Mix(W("a", ratutil.Zero()), W("b", ratutil.One())), true},
		{"sum below 1", Mix(W("a", ratutil.R(1, 3))), true},
		{"sum above 1", Mix(W("a", ratutil.R(2, 3)), W("b", ratutil.R(2, 3))), true},
		{"shared denominator ok", Mix(W("a", ratutil.R(1, 4)), W("b", ratutil.R(3, 4))), false},
		{"mixed denominators ok", Mix(W("a", ratutil.R(1, 2)), W("b", ratutil.R(1, 3)), W("c", ratutil.R(1, 6))), false},
		{"mixed denominators below 1", Mix(W("a", ratutil.R(1, 2)), W("b", ratutil.R(1, 3))), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := ValidateDist(tt.dist)
			if (err != nil) != tt.wantErr {
				t.Fatalf("ValidateDist = %v, wantErr=%v", err, tt.wantErr)
			}
			if err != nil && !errors.Is(err, ErrBadDist) {
				t.Fatalf("error not wrapping ErrBadDist: %v", err)
			}
		})
	}
}

func TestStampUnstamp(t *testing.T) {
	tests := []struct {
		t     int
		local string
	}{
		{0, "start"},
		{12, "go=1,recv=Yes"},
		{3, ""},
		{1, "with|pipe"},
		{-3, "negative"},
		{100, "three digits"},
	}
	for _, tt := range tests {
		stamped := Stamp(tt.t, tt.local)
		want := fmt.Sprintf("t%d|%s", tt.t, tt.local)
		if stamped != want {
			t.Errorf("Stamp = %q, want %q", stamped, want)
		}
		if got := Unstamp(stamped); got != tt.local {
			t.Errorf("Unstamp(%q) = %q, want %q", stamped, got, tt.local)
		}
	}
	if got := Unstamp("no-prefix"); got != "no-prefix" {
		t.Errorf("Unstamp passthrough = %q", got)
	}
}

func TestGlobalClone(t *testing.T) {
	g := Global{Env: "e", Locals: []string{"a"}}
	c := g.Clone()
	c.Locals[0] = "mutated"
	if g.Locals[0] != "a" {
		t.Fatal("Clone shares locals")
	}
}

func TestCartesianSizes(t *testing.T) {
	dists := [][]Weighted[string]{
		Mix(W("a", ratutil.R(1, 2)), W("b", ratutil.R(1, 2))),
		Det("x"),
		Mix(W("1", ratutil.R(1, 3)), W("2", ratutil.R(1, 3)), W("3", ratutil.R(1, 3))),
	}
	combos := cartesian(nil, dists)
	if len(combos) != 6 {
		t.Fatalf("cartesian size = %d, want 6", len(combos))
	}
	total := ratutil.Zero()
	for _, c := range combos {
		if len(c.acts) != 3 {
			t.Fatalf("acts len = %d", len(c.acts))
		}
		total = ratutil.Add(total, c.pr)
	}
	if !ratutil.IsOne(total) {
		t.Fatalf("total probability = %v", total)
	}
}

// TestCartesianDeterministic: when every agent's action is determined,
// the product is one choice of probability 1 appended to dst, with a
// fresh acts slice.
func TestCartesianDeterministic(t *testing.T) {
	dst := cartesian(nil, [][]Weighted[string]{Mix(W("a", ratutil.R(1, 2)), W("b", ratutil.R(1, 2)))})
	dists := [][]Weighted[string]{Det("x"), Det("y"), Det("z")}
	combos := cartesian(dst, dists)
	if len(combos) != 3 {
		t.Fatalf("cartesian appended %d choices, want 1", len(combos)-2)
	}
	got := combos[2]
	if !ratutil.IsOne(got.pr) || fmt.Sprint(got.acts) != "[x y z]" {
		t.Fatalf("deterministic choice = %v @ %v", got.acts, got.pr)
	}
	again := cartesian(nil, dists)
	if &again[0].acts[0] == &got.acts[0] {
		t.Error("two deterministic products share an acts slice")
	}
}
