package pps

// The SameShape differential: these tests hold SameShape — node by node
// over equal parent arrays, point by point otherwise — to sameShapeWalk,
// the direct point-by-point reading, across systems that agree, differ
// in measure only, differ in one label, share labels over different
// trees, or carry labels crafted to collide under a naive concatenating
// encoding.

import (
	"testing"

	"pak/internal/ratutil"
)

// squadLike builds a 2-agent, 2-run system parameterised by a measure
// and a handful of labels, so tests can perturb one dimension at a time.
func squadLike(t *testing.T, prNum int64, env1, act0, local1 string) *System {
	t.Helper()
	b := NewBuilder("i", "j")
	g0 := b.Init(ratutil.One(), "e0", "g0", "h0")
	b.Child(g0, Step{Pr: ratutil.R(prNum, 10), Acts: []string{act0, "wait"}, Env: env1, Locals: []string{local1, "h1"}})
	b.Child(g0, Step{Pr: ratutil.R(10-prNum, 10), Acts: []string{"beta", "wait"}, Env: "e2", Locals: []string{"g2", "h1"}})
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// squadLikeEnvAct is squadLike(3, "e1", "alpha", "g1") with envAct
// recorded as the environment's action on its first transition.
func squadLikeEnvAct(t *testing.T, envAct string) *System {
	t.Helper()
	b := NewBuilder("i", "j")
	g0 := b.Init(ratutil.One(), "e0", "g0", "h0")
	b.Child(g0, Step{Pr: ratutil.R(3, 10), Acts: []string{"alpha", "wait"}, EnvAct: envAct, Env: "e1", Locals: []string{"g1", "h1"}})
	b.Child(g0, Step{Pr: ratutil.R(7, 10), Acts: []string{"beta", "wait"}, Env: "e2", Locals: []string{"g2", "h1"}})
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// splitSquadLike is squadLike(3, "e1", "alpha", "g1") with its one
// initial state split into two identical initial states, one per run:
// the same label at every point (r, t) over a different tree, so only
// SameShape's point-by-point comparison can find the two equal.
func splitSquadLike(t *testing.T) *System {
	t.Helper()
	b := NewBuilder("i", "j")
	g0a := b.Init(ratutil.R(3, 10), "e0", "g0", "h0")
	g0b := b.Init(ratutil.R(7, 10), "e0", "g0", "h0")
	b.Child(g0a, Step{Pr: ratutil.One(), Acts: []string{"alpha", "wait"}, Env: "e1", Locals: []string{"g1", "h1"}})
	b.Child(g0b, Step{Pr: ratutil.One(), Acts: []string{"beta", "wait"}, Env: "e2", Locals: []string{"g2", "h1"}})
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestSameShapeMatchesWalk is the differential: on every pair drawn from
// a family of perturbed systems, SameShape and the direct point-by-point
// walk must agree — including the diagonal (a system against a
// separately-built copy of itself), the measure-only perturbation,
// which must NOT break shape equality, and a label-equal system over a
// different tree, which must not break it either.
func TestSameShapeMatchesWalk(t *testing.T) {
	family := []*System{
		squadLike(t, 3, "e1", "alpha", "g1"),
		squadLike(t, 3, "e1", "alpha", "g1"), // identical rebuild
		squadLike(t, 7, "e1", "alpha", "g1"), // measure differs, shape equal
		squadLike(t, 3, "eX", "alpha", "g1"), // env label differs
		squadLike(t, 3, "e1", "gamma", "g1"), // action label differs
		squadLike(t, 3, "e1", "alpha", "gX"), // local label differs
		buildDiamond(t),                      // different agents / arity
		splitSquadLike(t),                    // labels equal, tree differs
		squadLikeEnvAct(t, "lost"),           // env action label differs
	}
	for i, a := range family {
		for j, b := range family {
			got, want := SameShape(a, b), sameShapeWalk(a, b)
			if got != want {
				t.Errorf("pair (%d,%d): SameShape says %v, walk says %v", i, j, got, want)
			}
			if i == j && !got {
				t.Errorf("system %d not same-shape as itself", i)
			}
		}
	}
	if !SameShape(family[0], family[2]) {
		t.Error("measure-only perturbation broke shape equality; sweeps could never share")
	}
	if SameShape(family[0], family[3]) {
		t.Error("env relabel kept shape equality; sharing would be unsound")
	}
	if !SameShape(family[0], family[7]) || !SameShape(family[7], family[2]) {
		t.Error("a label-equal system over a different tree compared unequal")
	}
	if SameShape(family[0], family[8]) || SameShape(family[7], family[8]) {
		t.Error("env action relabel kept shape equality; sharing would be unsound")
	}
}

// TestSameShapeNil pins the nil contract the walk had.
func TestSameShapeNil(t *testing.T) {
	sys := buildDiamond(t)
	if !SameShape(nil, nil) {
		t.Error("SameShape(nil, nil) = false")
	}
	if SameShape(sys, nil) || SameShape(nil, sys) {
		t.Error("nil compared equal to a real system")
	}
}

// TestShapeSignatureInjective feeds labels designed to collide under a
// concatenating encoding — one system's env ends where another's local
// begins — and requires SameShape to keep them apart, in agreement with
// the walk.
func TestShapeSignatureInjective(t *testing.T) {
	build := func(env, local string) *System {
		b := NewBuilder("i")
		g0 := b.Init(ratutil.One(), "e0", "g0")
		b.Child(g0, Step{Pr: ratutil.One(), Acts: []string{"a"}, Env: env, Locals: []string{local}})
		sys, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	// "ab"+"c" vs "a"+"bc", plus labels embedding the delimiter bytes.
	pairs := [][2]*System{
		{build("ab", "c"), build("a", "bc")},
		{build("1:x", "y"), build("1:", "xy")},
		{build("e;2", "g"), build("e", ";2g")},
	}
	for i, p := range pairs {
		if SameShape(p[0], p[1]) {
			t.Errorf("pair %d: crafted labels compared equal", i)
		}
		if sameShapeWalk(p[0], p[1]) {
			t.Errorf("pair %d: walk also confused the labels; test is vacuous", i)
		}
	}
}

// sameShapeWalk is the direct point-by-point reading of shape equality,
// kept as the differential reference for SameShape.
func sameShapeWalk(a, b *System) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.agents) != len(b.agents) || len(a.runs) != len(b.runs) {
		return false
	}
	for i := range a.agents {
		if a.agents[i] != b.agents[i] {
			return false
		}
	}
	for r := range a.runs {
		if len(a.runs[r]) != len(b.runs[r]) {
			return false
		}
		for t := range a.runs[r] {
			na, nb := &a.nodes[a.runs[r][t]], &b.nodes[b.runs[r][t]]
			if na.env != nb.env || na.envAct != nb.envAct {
				return false
			}
			for ag := range a.agents {
				if a.Local(RunID(r), t, AgentID(ag)) != b.Local(RunID(r), t, AgentID(ag)) {
					return false
				}
			}
			actsA, actsB := a.ActsOf(a.runs[r][t]), b.ActsOf(b.runs[r][t])
			if len(actsA) != len(actsB) {
				return false
			}
			for ag := range actsA {
				if actsA[ag] != actsB[ag] {
					return false
				}
			}
		}
	}
	return true
}
