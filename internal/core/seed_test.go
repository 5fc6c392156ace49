package core

// Tests for the structure-sharing constructor (NewSeeded) and the
// incremental Definition 4.1 scan. The soundness obligations, stated as
// differentials:
//
//   - a seeded engine must answer every query with exactly the rationals
//     a fresh engine computes (the shared perf/events tables are pure
//     label-functions; see NewSeeded's doc for the precise line);
//   - sharing must refuse engines of different shape (the gate is
//     pps.SameShape, compared on labels only — never on measures, which
//     is precisely what lets a sweep's loss-assignments share);
//   - the incremental independence scan must reproduce the direct
//     O(states × runs) reading of Definition 4.1 verbatim, violations
//     and their order included.

import (
	"math/big"
	"testing"

	"pak/internal/epistemic"
	"pak/internal/logic"
	"pak/internal/pps"
	"pak/internal/randsys"
	"pak/internal/ratutil"
	"pak/internal/runset"
	"pak/internal/scenarios"
)

// directIndependence is the reference reading of Definition 4.1: for
// every local state ℓ, scan the runs through ℓ outright — no occurrence
// index, no skip for never-performing locals — and compare
// µ(φ@ℓ|ℓ)·µ(α@ℓ|ℓ) with µ([φ∧α]@ℓ|ℓ).
func directIndependence(t *testing.T, sys *pps.System, f logic.Fact, agent, action string) IndependenceReport {
	t.Helper()
	a, ok := sys.AgentIndex(agent)
	if !ok {
		t.Fatalf("no agent %q", agent)
	}
	report := IndependenceReport{Independent: true}
	for _, local := range sys.LocalStates(a) {
		occ, at, ok := sys.Occurs(a, local)
		if !ok {
			continue
		}
		factAt := runset.New(sys.NumRuns())
		actAt := runset.New(sys.NumRuns())
		for r := 0; r < sys.NumRuns(); r++ {
			if !occ.Contains(r) {
				continue
			}
			if f.Holds(sys, pps.RunID(r), at) {
				factAt.Add(r)
			}
			if got, performed := sys.Action(pps.RunID(r), at, a); performed && got == action {
				actAt.Add(r)
			}
		}
		mOcc := sys.Measure(occ)
		if mOcc.Sign() == 0 {
			continue
		}
		pFact := ratutil.Div(sys.Measure(factAt), mOcc)
		pAct := ratutil.Div(sys.Measure(actAt), mOcc)
		pJoint := ratutil.Div(sys.Measure(factAt.Intersect(actAt)), mOcc)
		product := ratutil.Mul(pFact, pAct)
		if !ratutil.Eq(product, pJoint) {
			report.Independent = false
			report.Violations = append(report.Violations, IndependenceViolation{
				Local: local, Product: product, Joint: pJoint,
			})
		}
	}
	return report
}

// sameReport compares two independence reports including the violation
// list, order and both sides of each violated equation.
func sameReport(got, want IndependenceReport) bool {
	if got.Independent != want.Independent || len(got.Violations) != len(want.Violations) {
		return false
	}
	for i := range got.Violations {
		g, w := got.Violations[i], want.Violations[i]
		if g.Local != w.Local || !ratutil.Eq(g.Product, w.Product) || !ratutil.Eq(g.Joint, w.Joint) {
			return false
		}
	}
	return true
}

// TestIndependenceIncrementalMatchesDirect holds the incremental scan
// to the direct Definition 4.1 reading on the paper's Figure 1 (where
// independence fails and the violation's rationals matter) and on a
// spread of random systems with structured past facts.
func TestIndependenceIncrementalMatchesDirect(t *testing.T) {
	e := figure1(t)
	fig1Fact := logic.Not(logic.Does("i", "alpha"))
	got, err := e.LocalStateIndependence(fig1Fact, "i", "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if want := directIndependence(t, e.sys, fig1Fact, "i", "alpha"); !sameReport(got, want) {
		t.Errorf("figure1: incremental %+v, direct %+v", got, want)
	}
	if got.Independent {
		t.Error("figure1 counterexample reported independent; the differential proved nothing")
	}

	for seed := int64(1); seed <= 12; seed++ {
		cfg := randsys.Default(seed)
		cfg.DetAction = seed%2 == 0
		sys, err := randsys.Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		e := New(sys)
		agent := sys.AgentName(0)
		for _, f := range []logic.Fact{
			logic.True(),
			logic.Does(agent, randsys.DesignatedAction),
			randsys.StructuredPastFact(sys, seed*17+5),
		} {
			got, err := e.LocalStateIndependence(f, agent, randsys.DesignatedAction)
			if err != nil {
				t.Fatalf("seed %d fact %v: %v", seed, f, err)
			}
			if want := directIndependence(t, sys, f, agent, randsys.DesignatedAction); !sameReport(got, want) {
				t.Errorf("seed %d fact %v: incremental %+v, direct %+v", seed, f, got, want)
			}
		}
	}
}

// squadEngine unfolds nsquad(n, loss) for the seeding tests.
func squadEngine(t *testing.T, n int64, lossNum int64) *Engine {
	t.Helper()
	sys, err := scenarios.NFiringSquadSystem(int(n), ratutil.R(lossNum, 10), false)
	if err != nil {
		t.Fatal(err)
	}
	return New(sys)
}

// TestNewSeededShapeGate: sharing engages exactly when pps.SameShape
// holds — loss-assignments of one squad share (they differ only in
// measure), squads of different size refuse, nil seeds refuse.
func TestNewSeededShapeGate(t *testing.T) {
	a := squadEngine(t, 3, 1)
	if _, shared := NewSeeded(a.sys, nil); shared {
		t.Error("nil neighbour engaged sharing")
	}
	b := squadEngine(t, 3, 3)
	seeded, shared := NewSeeded(b.sys, a)
	if !shared {
		t.Fatal("same-shape loss neighbours refused to share")
	}
	if seeded.perf != a.perf || seeded.events != a.events {
		t.Error("seeded engine does not share the structural tables")
	}
	if seeded.mevents == a.mevents || seeded.beliefs == a.beliefs || seeded.indeps == a.indeps {
		t.Error("seeded engine shares a µ_T-dependent table; that is unsound across measures")
	}
	other := squadEngine(t, 2, 1)
	if _, shared := NewSeeded(other.sys, a); shared {
		t.Error("nsquad(2) shared tables with nsquad(3); shapes differ")
	}
}

// TestSeededEngineMatchesFresh is the soundness differential: warm an
// engine on one loss assignment, then seed a chain of neighbours from
// it, each from its predecessor, as a sweep does. Sharing must engage on
// every link, and every answer class that crosses the shared tables —
// beliefs, constraint probabilities, expectations, threshold measures,
// the independence report, the theorem checkers — must equal the
// rationals a fresh engine computes for the link's measure. The
// independence report must also equal the direct Definition 4.1 reading.
func TestSeededEngineMatchesFresh(t *testing.T) {
	const n = 3
	chain := squadEngine(t, n, 1)
	fact := scenarios.AllFireFact(n)
	heard := logic.Once(logic.LocalContains(scenarios.General, "Yes"))

	// Warm the shared tables through the first assignment.
	if _, err := chain.ConstraintProb(fact, scenarios.General, scenarios.ActFire); err != nil {
		t.Fatal(err)
	}
	if _, err := chain.LocalStateIndependence(fact, scenarios.General, scenarios.ActFire); err != nil {
		t.Fatal(err)
	}

	for _, loss := range []int64{2, 3, 4} {
		fresh := squadEngine(t, n, loss)
		seeded, shared := NewSeeded(fresh.sys, chain)
		if !shared {
			t.Fatalf("loss %d/10: seeding refused between loss assignments of one squad", loss)
		}
		chain = seeded

		check := func(name string, f func(e *Engine) (*big.Rat, error)) {
			t.Helper()
			want, err1 := f(fresh)
			got, err2 := f(seeded)
			if err1 != nil || err2 != nil {
				t.Fatalf("loss %d/10 %s: fresh err %v, seeded err %v", loss, name, err1, err2)
			}
			if !ratutil.Eq(got, want) {
				t.Errorf("loss %d/10 %s: seeded %s, fresh %s", loss, name, got.RatString(), want.RatString())
			}
		}
		check("constraint", func(e *Engine) (*big.Rat, error) {
			return e.ConstraintProb(fact, scenarios.General, scenarios.ActFire)
		})
		check("expected belief", func(e *Engine) (*big.Rat, error) {
			return e.ExpectedBelief(fact, scenarios.General, scenarios.ActFire)
		})
		check("threshold measure", func(e *Engine) (*big.Rat, error) {
			return e.ThresholdMeasure(fact, scenarios.General, scenarios.ActFire, ratutil.R(1, 2))
		})
		check("threshold measure of a past fact", func(e *Engine) (*big.Rat, error) {
			return e.ThresholdMeasure(heard, scenarios.General, scenarios.ActFire, ratutil.R(1, 2))
		})
		for _, local := range fresh.sys.LocalStates(0) {
			check("belief at "+local, func(e *Engine) (*big.Rat, error) {
				return e.Belief(fact, fresh.sys.AgentName(0), local)
			})
		}

		gotRep, err := seeded.LocalStateIndependence(fact, scenarios.General, scenarios.ActFire)
		if err != nil {
			t.Fatal(err)
		}
		wantRep, err := fresh.LocalStateIndependence(fact, scenarios.General, scenarios.ActFire)
		if err != nil {
			t.Fatal(err)
		}
		if !sameReport(gotRep, wantRep) {
			t.Errorf("loss %d/10 independence: seeded %+v, fresh %+v", loss, gotRep, wantRep)
		}
		if direct := directIndependence(t, fresh.sys, fact, scenarios.General, scenarios.ActFire); !sameReport(gotRep, direct) {
			t.Errorf("loss %d/10 independence: seeded %+v, direct %+v", loss, gotRep, direct)
		}

		gotSuf, err1 := seeded.CheckSufficiency(fact, scenarios.General, scenarios.ActFire, ratutil.R(1, 2))
		wantSuf, err2 := fresh.CheckSufficiency(fact, scenarios.General, scenarios.ActFire, ratutil.R(1, 2))
		if err1 != nil || err2 != nil {
			t.Fatalf("loss %d/10 sufficiency: seeded err %v, fresh err %v", loss, err1, err2)
		}
		if gotSuf.Holds() != wantSuf.Holds() || gotSuf.Independent != wantSuf.Independent ||
			!ratutil.Eq(gotSuf.MinBelief, wantSuf.MinBelief) || !ratutil.Eq(gotSuf.ConstraintProb, wantSuf.ConstraintProb) {
			t.Errorf("loss %d/10 sufficiency: seeded %+v, fresh %+v", loss, gotSuf, wantSuf)
		}
	}
}

// TestSeededBelievesMatchesFresh is the seeding differential for a
// measure-dependent fact: B_General^{1/2}(all fire) reads µ_T, so its
// φ@α and φ@ℓ extensions differ between loss assignments of one squad
// even though the shapes are equal. After the 1/10 engine has answered
// the believes queries, an engine seeded from it for loss 9/10 must
// still give a fresh engine's answers.
func TestSeededBelievesMatchesFresh(t *testing.T) {
	const n = 3
	fact := epistemic.Believes(scenarios.General, ratutil.R(1, 2), scenarios.AllFireFact(n))
	half := ratutil.R(1, 2)
	queries := []struct {
		name string
		eval func(e *Engine) (*big.Rat, error)
	}{
		{"constraint", func(e *Engine) (*big.Rat, error) {
			return e.ConstraintProb(fact, scenarios.General, scenarios.ActFire)
		}},
		{"expected belief", func(e *Engine) (*big.Rat, error) {
			return e.ExpectedBelief(fact, scenarios.General, scenarios.ActFire)
		}},
		{"threshold measure", func(e *Engine) (*big.Rat, error) {
			return e.ThresholdMeasure(fact, scenarios.General, scenarios.ActFire, half)
		}},
	}

	warm := squadEngine(t, n, 1)
	for _, q := range queries {
		if _, err := q.eval(warm); err != nil {
			t.Fatalf("warm %s: %v", q.name, err)
		}
	}
	far := squadEngine(t, n, 9)
	seeded, shared := NewSeeded(far.sys, warm)
	if !shared {
		t.Fatal("seeding refused between loss assignments of one squad")
	}
	fresh := New(far.sys)
	for _, q := range queries {
		want, err1 := q.eval(fresh)
		got, err2 := q.eval(seeded)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: fresh err %v, seeded err %v", q.name, err1, err2)
		}
		if !ratutil.Eq(got, want) {
			t.Errorf("%s: seeded %s, fresh %s", q.name, got.RatString(), want.RatString())
		}
	}
}
