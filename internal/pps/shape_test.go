package pps

// The shape-signature differential: SameShape now compares cached
// canonical signatures, and these tests hold the signature encoding to
// sameShapeWalk — the direct label-by-label reading — across systems
// that agree, differ in measure only, differ in one label, or carry
// labels crafted to collide under a naive (non-length-prefixed)
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

// TestSameShapeMatchesWalk is the differential: on every pair drawn from
// a family of perturbed systems, the signature comparison and the direct
// walk must agree — including the diagonal (a system against a
// separately-built copy of itself) and the measure-only perturbation,
// which must NOT break shape equality.
func TestSameShapeMatchesWalk(t *testing.T) {
	family := []*System{
		squadLike(t, 3, "e1", "alpha", "g1"),
		squadLike(t, 3, "e1", "alpha", "g1"), // identical rebuild
		squadLike(t, 7, "e1", "alpha", "g1"), // measure differs, shape equal
		squadLike(t, 3, "eX", "alpha", "g1"), // env label differs
		squadLike(t, 3, "e1", "gamma", "g1"), // action label differs
		squadLike(t, 3, "e1", "alpha", "gX"), // local label differs
		buildDiamond(t),                      // different agents / arity
	}
	for i, a := range family {
		for j, b := range family {
			got, want := SameShape(a, b), sameShapeWalk(a, b)
			if got != want {
				t.Errorf("pair (%d,%d): signature says %v, walk says %v", i, j, got, want)
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
// begins — and requires the length-prefixed signature to keep them
// apart, in agreement with the walk.
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
			t.Errorf("pair %d: crafted labels collided in the signature", i)
		}
		if sameShapeWalk(p[0], p[1]) {
			t.Errorf("pair %d: walk also confused the labels; test is vacuous", i)
		}
	}
}

// sameShapeWalk is the direct label-by-label reading of shape equality,
// kept as the differential reference for the signature encoding.
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
				if na.locals[ag] != nb.locals[ag] {
					return false
				}
			}
			if len(na.acts) != len(nb.acts) {
				return false
			}
			for ag := range na.acts {
				if na.acts[ag] != nb.acts[ag] {
					return false
				}
			}
		}
	}
	return true
}
