package experiments

import (
	"fmt"

	"pak/internal/commonbelief"
	"pak/internal/core"
	"pak/internal/logic"
	"pak/internal/montecarlo"
	"pak/internal/paper"
	"pak/internal/pps"
	"pak/internal/randsys"
	"pak/internal/ratutil"
)

// E4Expectation machine-checks Theorem 6.2 over a family of random
// systems: mixed and deterministic designated actions, past-based and
// run-based facts. Whenever the independence hypothesis holds, the
// expected belief must equal the constraint probability exactly.
func E4Expectation(systems int, seed int64) (Result, error) {
	res := Result{
		ID:     "E4",
		Title:  fmt.Sprintf("Theorem 6.2 on %d random systems", systems),
		Source: "Theorem 6.2 (main result)",
	}
	type mode struct {
		name    string
		det     bool
		runFact bool
	}
	modes := []mode{
		{"mixed action, past-based fact", false, false},
		{"deterministic action, past-based fact", true, false},
		{"deterministic action, run-based fact", true, true},
		{"mixed action, run-based fact", false, true},
	}
	for _, m := range modes {
		holds, equalWhenIndep, indepCount := 0, 0, 0
		for k := 0; k < systems; k++ {
			cfg := randsys.Default(seed + int64(k))
			cfg.DetAction = m.det
			sys, err := randsys.Generate(cfg)
			if err != nil {
				return Result{}, err
			}
			var fact logic.Fact
			if m.runFact {
				fact = randsys.RunFact(sys, seed+int64(k)+1)
			} else {
				fact = randsys.PastFact(sys, seed+int64(k)+1)
			}
			e := core.New(sys)
			rep, err := e.CheckExpectation(fact, "a0", randsys.DesignatedAction)
			if err != nil {
				return Result{}, err
			}
			if rep.Holds() {
				holds++
			}
			if rep.Independent {
				indepCount++
				if rep.Equal() {
					equalWhenIndep++
				}
			}
		}
		res.Rows = append(res.Rows, Row{
			Quantity: fmt.Sprintf("%s: theorem holds", m.name),
			Paper:    fmt.Sprintf("%d/%d", systems, systems),
			Measured: fmt.Sprintf("%d/%d", holds, systems),
			Match:    holds == systems,
		})
		res.Rows = append(res.Rows, Row{
			Quantity: fmt.Sprintf("%s: exact equality when independent", m.name),
			Paper:    fmt.Sprintf("%d/%d", indepCount, indepCount),
			Measured: fmt.Sprintf("%d/%d", equalWhenIndep, indepCount),
			Match:    equalWhenIndep == indepCount,
		})
	}
	return res, nil
}

// E5PAKFrontier checks Theorem 7.1 and Corollary 7.2 on the T-hat family
// and on FS: whenever µ ≥ 1−δε, the belief level 1−ε is reached with
// probability at least 1−δ.
func E5PAKFrontier() (Result, error) {
	res := Result{
		ID:     "E5",
		Title:  "PAK frontier: µ ≥ 1−δε ⇒ µ(β ≥ 1−ε | α) ≥ 1−δ",
		Source: "Theorem 7.1, Corollary 7.2",
	}
	// T-hat sweep: p = 1−δε by construction, with a small construction
	// parameter e < both.
	grid := []struct{ delta, eps, e string }{
		{"1/10", "1/10", "1/200"},
		{"1/10", "1/100", "1/2000"},
		{"1/100", "1/10", "1/2000"},
		{"1/2", "1/2", "1/100"},
		{"1/4", "1/20", "1/400"},
	}
	for _, g := range grid {
		delta := ratutil.MustParse(g.delta)
		eps := ratutil.MustParse(g.eps)
		p := ratutil.OneMinus(ratutil.Mul(delta, eps))
		sys, err := paper.That(p, ratutil.MustParse(g.e))
		if err != nil {
			return Result{}, err
		}
		e := core.New(sys)
		rep, err := e.CheckPAK(paper.ThatBitFact(), paper.AgentI, paper.ActAlpha, delta, eps)
		if err != nil {
			return Result{}, err
		}
		res.Rows = append(res.Rows, Row{
			Quantity: fmt.Sprintf("T-hat(µ=%s): δ=%s ε=%s ⇒ µ(β≥%s|α)=%s ≥ %s",
				p.RatString(), g.delta, g.eps,
				rep.BeliefLevel.RatString(), rep.BeliefMeasure.RatString(), rep.Bound.RatString()),
			Paper:    "holds",
			Measured: verdictStr(rep.Holds() && rep.PremiseMet()),
			Match:    rep.Holds() && rep.PremiseMet(),
		})
	}
	// FS with ε = δ = 1/10 (µ = 99/100 = 1−ε² exactly): Corollary 7.2,
	// with the paper noting the actual measure 0.991.
	sys, err := paper.FiringSquad(ratutil.R(1, 10), paper.FSOriginal)
	if err != nil {
		return Result{}, err
	}
	e := core.New(sys)
	rep, err := e.CheckPAKSquare(paper.FSBothFire(), paper.Alice, paper.ActFire, ratutil.R(1, 10))
	if err != nil {
		return Result{}, err
	}
	res.addBool("FS: Corollary 7.2 with ε=1/10", "holds", rep.Holds() && rep.PremiseMet(), true)
	res.addExact("FS: µ(β ≥ 9/10 | fire_A)", "991/1000", rep.BeliefMeasure)
	return res, nil
}

// E7MonteCarlo cross-validates the exact engine with the sampling
// simulator: every sampled estimate must contain the exact value within
// its 99% Hoeffding radius.
func E7MonteCarlo(samples int, seed int64) (Result, error) {
	res := Result{
		ID:     "E7",
		Title:  fmt.Sprintf("Monte-Carlo cross-validation (%d samples)", samples),
		Source: "model validation (Sections 2-3); exact vs sampled",
	}
	sys, err := paper.FiringSquad(ratutil.R(1, 10), paper.FSOriginal)
	if err != nil {
		return Result{}, err
	}
	e := core.New(sys)
	both := paper.FSBothFire()
	exact, err := e.ConstraintProb(both, paper.Alice, paper.ActFire)
	if err != nil {
		return Result{}, err
	}
	ev, err := e.FactAtAction(both, paper.Alice, paper.ActFire)
	if err != nil {
		return Result{}, err
	}
	perf, err := e.PerformedSet(paper.Alice, paper.ActFire)
	if err != nil {
		return Result{}, err
	}
	s := montecarlo.NewSampler(sys, seed)
	est, err := s.EstimateConditional(
		func(r pps.RunID) bool { return ev.Contains(int(r)) },
		func(r pps.RunID) bool { return perf.Contains(int(r)) },
		samples,
	)
	if err != nil {
		return Result{}, err
	}
	res.Rows = append(res.Rows, Row{
		Quantity: "FS: sampled µ(φ_both | fire_A) vs exact 99/100",
		Paper:    "within 99% CI",
		Measured: est.String(),
		Match:    est.Contains(ratutil.Float(exact)),
	})

	// T-hat threshold measure.
	that, err := paper.That(ratutil.R(9, 10), ratutil.R(1, 10))
	if err != nil {
		return Result{}, err
	}
	e2 := core.New(that)
	thresholdEv, err := e2.BeliefThresholdEvent(paper.ThatBitFact(), paper.AgentI, paper.ActAlpha, ratutil.R(9, 10))
	if err != nil {
		return Result{}, err
	}
	s2 := montecarlo.NewSampler(that, seed+1)
	est2, err := s2.EstimateEvent(func(r pps.RunID) bool { return thresholdEv.Contains(int(r)) }, samples)
	if err != nil {
		return Result{}, err
	}
	res.Rows = append(res.Rows, Row{
		Quantity: "T-hat(9/10,1/10): sampled µ(β≥p) vs exact 1/10",
		Paper:    "within 99% CI",
		Measured: est2.String(),
		Match:    est2.Contains(0.1),
	})

	// Protocol-level simulation (no unfolding).
	m, err := paper.FiringSquadModel(ratutil.R(1, 10), paper.FSOriginal)
	if err != nil {
		return Result{}, err
	}
	ps := montecarlo.NewProtocolSampler(m, seed+2)
	est3, err := ps.EstimateTraceConditional(
		func(tr montecarlo.Trace) bool {
			return tr.Acts[2][0] == paper.ActFire && tr.Acts[2][1] == paper.ActFire
		},
		func(tr montecarlo.Trace) bool { return tr.Acts[2][0] == paper.ActFire },
		samples,
	)
	if err != nil {
		return Result{}, err
	}
	res.Rows = append(res.Rows, Row{
		Quantity: "FS protocol-level simulation vs exact 99/100",
		Paper:    "within 99% CI",
		Measured: est3.String(),
		Match:    est3.Contains(0.99),
	})
	return res, nil
}

// E9Independence machine-checks Lemma 4.3 over random systems: both
// sufficient conditions force local-state independence, and the Figure 1
// violation is detected.
func E9Independence(systems int, seed int64) (Result, error) {
	res := Result{
		ID:     "E9",
		Title:  fmt.Sprintf("Lemma 4.3 on %d random systems", systems),
		Source: "Lemma 4.3, Definition 4.1",
	}
	pastOK, detOK := 0, 0
	for k := 0; k < systems; k++ {
		cfg := randsys.Default(seed + int64(k))
		sys, err := randsys.Generate(cfg)
		if err != nil {
			return Result{}, err
		}
		e := core.New(sys)
		rep, err := e.LocalStateIndependence(randsys.PastFact(sys, seed-int64(k)), "a0", randsys.DesignatedAction)
		if err != nil {
			return Result{}, err
		}
		if rep.Independent {
			pastOK++
		}

		cfg.DetAction = true
		dsys, err := randsys.Generate(cfg)
		if err != nil {
			return Result{}, err
		}
		de := core.New(dsys)
		drep, err := de.LocalStateIndependence(randsys.RunFact(dsys, seed-int64(k)), "a0", randsys.DesignatedAction)
		if err != nil {
			return Result{}, err
		}
		if drep.Independent {
			detOK++
		}
	}
	res.Rows = append(res.Rows, Row{
		Quantity: "L4.3(b): past-based fact ⇒ independent",
		Paper:    fmt.Sprintf("%d/%d", systems, systems),
		Measured: fmt.Sprintf("%d/%d", pastOK, systems),
		Match:    pastOK == systems,
	})
	res.Rows = append(res.Rows, Row{
		Quantity: "L4.3(a): deterministic action ⇒ independent",
		Paper:    fmt.Sprintf("%d/%d", systems, systems),
		Measured: fmt.Sprintf("%d/%d", detOK, systems),
		Match:    detOK == systems,
	})

	// The Figure 1 violation must be detected, with the exact gap.
	fig1, err := paper.Figure1()
	if err != nil {
		return Result{}, err
	}
	e := core.New(fig1)
	rep, err := e.LocalStateIndependence(paper.Figure1PsiFact(), paper.AgentI, paper.ActAlpha)
	if err != nil {
		return Result{}, err
	}
	detected := !rep.Independent && len(rep.Violations) == 1 &&
		ratutil.Eq(rep.Violations[0].Product, ratutil.R(1, 4)) &&
		ratutil.IsZero(rep.Violations[0].Joint)
	res.addBool("Figure 1 violation detected (1/4 vs 0 at g0)", "true", detected, true)
	return res, nil
}

// E10CommonBelief computes Monderer–Samet probabilistic common belief on
// the paper's systems: in FS, joint firing is common 1/2-believed at the
// decision time on the good runs, while in T-hat high-level common belief
// of bit=1 collapses to the empty event.
func E10CommonBelief() (Result, error) {
	res := Result{
		ID:     "E10",
		Title:  "Probabilistic common belief (Monderer–Samet extension)",
		Source: "Section 1 / related work [24, 29]",
	}
	// T-hat: exact hand-derived values.
	that, err := paper.That(ratutil.R(9, 10), ratutil.R(1, 10))
	if err != nil {
		return Result{}, err
	}
	slice, err := commonbelief.NewSlice(that, 1)
	if err != nil {
		return Result{}, err
	}
	bit := logic.RunsSatisfying(that, paper.ThatBitFact())
	group := []pps.AgentID{0, 1}

	bi, err := slice.PBelief(0, bit, ratutil.R(9, 10))
	if err != nil {
		return Result{}, err
	}
	res.Rows = append(res.Rows, Row{
		Quantity: "T-hat: B_i^{9/10}(bit=1)",
		Paper:    "{r''} (derived)",
		Measured: bi.String(),
		Match:    bi.Count() == 1 && bi.Contains(2),
	})
	ep, err := slice.EveryoneP(group, bit, ratutil.R(9, 10))
	if err != nil {
		return Result{}, err
	}
	res.Rows = append(res.Rows, Row{
		Quantity: "T-hat: E_G^{9/10}(bit=1)",
		Paper:    "{r''} (derived)",
		Measured: ep.String(),
		Match:    ep.Count() == 1 && ep.Contains(2),
	})
	cp, err := slice.CommonP(group, bit, ratutil.R(9, 10))
	if err != nil {
		return Result{}, err
	}
	res.Rows = append(res.Rows, Row{
		Quantity: "T-hat: C_G^{9/10}(bit=1)",
		Paper:    "∅ (derived: j's posterior of r'' is ε/p = 1/9)",
		Measured: cp.String(),
		Match:    cp.IsEmpty(),
	})

	// FS: joint firing is common 1/2-belief on good runs at t=2.
	fs, err := paper.FiringSquad(ratutil.R(1, 10), paper.FSOriginal)
	if err != nil {
		return Result{}, err
	}
	fsSlice, err := commonbelief.NewSlice(fs, 2)
	if err != nil {
		return Result{}, err
	}
	both := logic.RunsSatisfying(fs, logic.Sometime(paper.FSBothFire()))
	c, err := fsSlice.CommonP([]pps.AgentID{0, 1}, both, ratutil.R(1, 2))
	if err != nil {
		return Result{}, err
	}
	res.Rows = append(res.Rows, Row{
		Quantity: "FS: C_G^{1/2}(both fire) nonempty at t=2",
		Paper:    "nonempty (derived)",
		Measured: fmt.Sprintf("%d runs", c.Count()),
		Match:    !c.IsEmpty(),
	})
	return res, nil
}

// Builders returns every experiment constructor in E-number order,
// honouring the workload parameters (systems for E4/E9, samples for E7,
// seed for both). It is the single experiment list — cmd/paperbench and
// All both consume it, so a new experiment registers in one place.
func Builders(systems, samples int, seed int64) []func() (Result, error) {
	return []func() (Result, error){
		E1FiringSquad,
		E2Figure1,
		E3Theorem52,
		func() (Result, error) { return E4Expectation(systems, seed) },
		E5PAKFrontier,
		E6ImprovedFS,
		func() (Result, error) { return E7MonteCarlo(samples, seed) },
		E8KoPLimit,
		func() (Result, error) { return E9Independence(systems, seed) },
		E10CommonBelief,
		E11CommonKnowledge,
		E12Martingale,
		E13LossSensitivity,
		E14NSquad,
	}
}

// All runs every experiment with default workloads.
func All() ([]Result, error) {
	builders := Builders(100, 60_000, 1)
	out := make([]Result, 0, len(builders))
	for _, b := range builders {
		res, err := b()
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

func verdictStr(ok bool) string {
	if ok {
		return "holds"
	}
	return "VIOLATED"
}
