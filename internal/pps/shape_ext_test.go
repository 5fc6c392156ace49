package pps_test

import (
	"math/big"
	"testing"

	"pak/internal/pps"
	"pak/internal/randsys"
	"pak/internal/ratutil"
	"pak/internal/scenarios"
)

// reweighted rebuilds sys over the same tree with different edge
// probabilities: the m children of a node get weights 1..m, normalized.
// It is shape-equal to sys by construction, with the same parent array.
func reweighted(t *testing.T, sys *pps.System) *pps.System {
	t.Helper()
	b := pps.NewBuilder(sys.Agents()...)
	for id := pps.NodeID(1); int(id) < sys.NumNodes(); id++ {
		parent := sys.ParentOf(id)
		siblings := sys.ChildrenOf(parent)
		k := 0
		for siblings[k] != id {
			k++
		}
		m := int64(len(siblings))
		pr := ratutil.R(int64(k+1)*2, m*(m+1))
		if parent == pps.Root {
			b.Init(pr, sys.EnvOf(id), sys.LocalsOf(id)...)
			continue
		}
		b.Child(parent, pps.Step{Pr: pr, Acts: sys.ActsOf(id), EnvAct: sys.EnvActOf(id), Env: sys.EnvOf(id), Locals: sys.LocalsOf(id)})
	}
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// chains rebuilds sys with every run as its own chain from its own
// initial state, weighted by µ_T(r): the same label at every point
// (r, t) over a different tree (unless sys is already all chains).
func chains(t *testing.T, sys *pps.System) *pps.System {
	t.Helper()
	b := pps.NewBuilder(sys.Agents()...)
	for r := pps.RunID(0); int(r) < sys.NumRuns(); r++ {
		id := sys.NodeAt(r, 0)
		prev := b.Init(sys.RunProb(r), sys.EnvOf(id), sys.LocalsOf(id)...)
		for tm := 1; tm < sys.RunLen(r); tm++ {
			id = sys.NodeAt(r, tm)
			prev = b.Child(prev, pps.Step{Pr: ratutil.One(), Acts: sys.ActsOf(id), EnvAct: sys.EnvActOf(id), Env: sys.EnvOf(id), Locals: sys.LocalsOf(id)})
		}
	}
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSameShapeMatchesWalkRandsys runs the SameShape differential over
// random systems: each seed's system, a reweighted copy (same tree) and
// its chains (same labels, different tree), against each other and
// against the next seed's three.
func TestSameShapeMatchesWalkRandsys(t *testing.T) {
	var families [][]*pps.System
	for seed := int64(0); seed < 12; seed++ {
		sys, err := randsys.Generate(randsys.Default(seed))
		if err != nil {
			t.Fatal(err)
		}
		family := []*pps.System{sys, reweighted(t, sys), chains(t, sys)}
		for i, other := range family[1:] {
			if !pps.SameShape(sys, other) {
				t.Errorf("seed %d: copy %d compared unequal to its source", seed, i+1)
			}
		}
		families = append(families, family)
	}
	for s, family := range families {
		pool := family
		if s+1 < len(families) {
			pool = append(append([]*pps.System(nil), family...), families[s+1]...)
		}
		for i, a := range pool {
			for j, b := range pool {
				if got, want := pps.SameShape(a, b), pps.SameShapeWalk(a, b); got != want {
					t.Errorf("seed %d pair (%d,%d): SameShape says %v, walk says %v", s, i, j, got, want)
				}
			}
		}
	}
}

// TestSameShapeAllocatesNothing pins the gate's cost on nsquad(4): no
// allocation, over the same tree (two losses) or a different one (the
// chains of the same system).
func TestSameShapeAllocatesNothing(t *testing.T) {
	squad := func(loss *big.Rat) *pps.System {
		sys, err := scenarios.NFiringSquadSystem(4, loss, false)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	a, b := squad(ratutil.R(1, 10)), squad(ratutil.R(1, 5))
	for name, pair := range map[string][2]*pps.System{
		"same tree":      {a, b},
		"different tree": {a, chains(t, a)},
	} {
		if !pps.SameShape(pair[0], pair[1]) {
			t.Fatalf("%s: nsquad(4) pair compared unequal", name)
		}
		if allocs := testing.AllocsPerRun(20, func() { pps.SameShape(pair[0], pair[1]) }); allocs != 0 {
			t.Errorf("%s: SameShape allocates %v times per call, want 0", name, allocs)
		}
	}
}
