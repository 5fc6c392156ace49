package randsys

import (
	"testing"
	"testing/quick"

	"pak/internal/core"
	"pak/internal/epistemic"
	"pak/internal/logic"
	"pak/internal/pps"
	"pak/internal/ratutil"
)

// Property tests for the extended analysis machinery, over random
// protocol-generated systems.

// TestQuickJeffreyDecomposition: on every random system, the Jeffrey
// decomposition's weights sum to 1 and its aggregates equal the direct
// engine queries; under independence Lemma B.1 holds cell-wise.
func TestQuickJeffreyDecomposition(t *testing.T) {
	f := func(sysSeed, factSeed int64, det bool) bool {
		cfg := Default(sysSeed % 10_000)
		cfg.DetAction = det
		sys, err := Generate(cfg)
		if err != nil {
			return false
		}
		fact := PastFact(sys, factSeed)
		e := core.New(sys)
		d, err := e.Decompose(fact, "a0", DesignatedAction)
		if err != nil {
			return false
		}
		if !d.WeightsSumToOne() {
			return false
		}
		mu, err := e.ConstraintProb(fact, "a0", DesignatedAction)
		if err != nil {
			return false
		}
		exp, err := e.ExpectedBelief(fact, "a0", DesignatedAction)
		if err != nil {
			return false
		}
		if !ratutil.Eq(d.ConstraintProb, mu) || !ratutil.Eq(d.ExpectedBelief, exp) {
			return false
		}
		// Past-based fact ⇒ independent ⇒ Lemma B.1 cell-wise.
		return d.LemmaB1Holds()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMartingale: for run-based facts on uniform-depth random
// systems, the expected posterior E[β at t] is constant over time (the
// Bayesian martingale property) and equals the prior µ(φ).
func TestQuickMartingale(t *testing.T) {
	f := func(sysSeed, factSeed int64) bool {
		cfg := Default(sysSeed % 10_000)
		sys, err := Generate(cfg)
		if err != nil {
			return false
		}
		fact := RunFact(sys, factSeed)
		prior := sys.Measure(logic.RunsSatisfying(sys, fact))
		e := core.New(sys)
		for agent := 0; agent < cfg.Agents; agent++ {
			name := sys.AgentName(pps.AgentID(agent))
			for tt := 0; tt <= cfg.Depth; tt++ {
				got, err := e.ExpectedBeliefAtTime(fact, name, tt)
				if err != nil {
					return false
				}
				if !ratutil.Eq(got, prior) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEpistemicFactsPastBased: B_i^p(φ) and K_i(φ) are past-based on
// every system, for any argument fact (their value is a function of the
// local state, which is part of the node).
func TestQuickEpistemicFactsPastBased(t *testing.T) {
	levels := []string{"1/4", "1/2", "3/4", "1"}
	f := func(sysSeed, factSeed int64, levelIdx uint8, useRunFact bool) bool {
		sys, err := Generate(Default(sysSeed % 10_000))
		if err != nil {
			return false
		}
		var arg logic.Fact
		if useRunFact {
			arg = RunFact(sys, factSeed)
		} else {
			arg = PastFact(sys, factSeed)
		}
		p := ratutil.MustParse(levels[int(levelIdx)%len(levels)])
		bel := epistemic.Believes("a0", p, arg)
		kn := epistemic.Knows("a1", arg)
		return logic.IsPastBased(sys, bel) && logic.IsPastBased(sys, kn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEpistemicConstraints: epistemic conditions participate in
// Theorem 6.2 like any other past-based fact.
func TestQuickEpistemicConstraints(t *testing.T) {
	f := func(sysSeed, factSeed int64) bool {
		sys, err := Generate(Default(sysSeed % 10_000))
		if err != nil {
			return false
		}
		cond := epistemic.Believes("a1", ratutil.R(1, 2), RunFact(sys, factSeed))
		e := core.New(sys)
		rep, err := e.CheckExpectation(cond, "a0", DesignatedAction)
		if err != nil {
			return false
		}
		return rep.Independent && rep.Equal()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickKnowledgeImpliesBelief: K_i(φ) ⊆ B_i^p(φ) for every level p
// (knowledge is the strongest belief).
func TestQuickKnowledgeImpliesBelief(t *testing.T) {
	f := func(sysSeed, factSeed int64) bool {
		sys, err := Generate(Default(sysSeed % 10_000))
		if err != nil {
			return false
		}
		arg := PastFact(sys, factSeed)
		kn := epistemic.Knows("a0", arg)
		bel := epistemic.Believes("a0", ratutil.R(99, 100), arg)
		for r := 0; r < sys.NumRuns(); r++ {
			for tt := 0; tt < sys.RunLen(pps.RunID(r)); tt++ {
				if kn.Holds(sys, pps.RunID(r), tt) && !bel.Holds(sys, pps.RunID(r), tt) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
