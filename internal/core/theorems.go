package core

import (
	"fmt"
	"math/big"
	"sort"

	"pak/internal/logic"
	"pak/internal/pps"
	"pak/internal/ratutil"
)

// Machine checkers for the paper's formal results. Each checker evaluates
// both sides of the theorem's statement exactly and reports whether the
// implication holds on the given system. Since the theorems are universal
// (they hold for every pps satisfying their hypotheses), a checker
// returning Holds=false on a system whose hypotheses are met would be a
// counterexample to the paper — the test suite asserts this never happens,
// and conversely exhibits the paper's own counterexamples (Figure 1) when
// hypotheses are violated.

// SufficiencyReport is the result of CheckSufficiency (Theorem 4.2): if
// β_i(φ) ≥ p at every point at which i performs α, and φ is local-state
// independent of α, then µ_T(φ@α | α) ≥ p.
type SufficiencyReport struct {
	// Threshold is the p of the probabilistic constraint.
	Threshold *big.Rat
	// MinBelief is the minimum of β_i(φ) over points where α is performed.
	MinBelief *big.Rat
	// ConstraintProb is µ_T(φ@α | α).
	ConstraintProb *big.Rat
	// Independent reports Definition 4.1 (the theorem's hypothesis).
	Independent bool
	// PremiseMet is MinBelief ≥ p.
	PremiseMet bool
	// ConstraintMet is ConstraintProb ≥ p.
	ConstraintMet bool
}

// Holds reports whether the theorem's implication is satisfied on this
// system: hypotheses (independence ∧ premise) imply the constraint.
func (r SufficiencyReport) Holds() bool {
	if !r.Independent || !r.PremiseMet {
		return true
	}
	return r.ConstraintMet
}

// String summarizes the report.
func (r SufficiencyReport) String() string {
	return fmt.Sprintf("Thm4.2{p=%s minβ=%s µ(φ@α|α)=%s indep=%v holds=%v}",
		r.Threshold.RatString(), r.MinBelief.RatString(), r.ConstraintProb.RatString(),
		r.Independent, r.Holds())
}

// CheckSufficiency evaluates Theorem 4.2 on the system for threshold p.
func (e *Engine) CheckSufficiency(f logic.Fact, agent, action string, p *big.Rat) (SufficiencyReport, error) {
	min, _, err := e.BeliefRangeAtAction(f, agent, action)
	if err != nil {
		return SufficiencyReport{}, err
	}
	mu, err := e.ConstraintProb(f, agent, action)
	if err != nil {
		return SufficiencyReport{}, err
	}
	indep, err := e.LocalStateIndependence(f, agent, action)
	if err != nil {
		return SufficiencyReport{}, err
	}
	return SufficiencyReport{
		Threshold:      ratutil.Copy(p),
		MinBelief:      min,
		ConstraintProb: mu,
		Independent:    indep.Independent,
		PremiseMet:     ratutil.Geq(min, p),
		ConstraintMet:  ratutil.Geq(mu, p),
	}, nil
}

// ExpectationReport is the result of CheckExpectation (Theorem 6.2, the
// paper's main result): under local-state independence,
// µ_T(φ@α | α) = E_µT(β_i(φ)@α | α).
type ExpectationReport struct {
	// ConstraintProb is µ_T(φ@α | α).
	ConstraintProb *big.Rat
	// ExpectedBelief is E_µT(β_i(φ)@α | α).
	ExpectedBelief *big.Rat
	// Independent reports Definition 4.1 (the theorem's hypothesis).
	Independent bool
}

// Equal reports whether the two sides agree exactly.
func (r ExpectationReport) Equal() bool {
	return ratutil.Eq(r.ConstraintProb, r.ExpectedBelief)
}

// Holds reports whether the theorem's implication is satisfied: if the
// independence hypothesis is met the two sides must be equal.
func (r ExpectationReport) Holds() bool {
	return !r.Independent || r.Equal()
}

// String summarizes the report.
func (r ExpectationReport) String() string {
	return fmt.Sprintf("Thm6.2{µ(φ@α|α)=%s E[β]=%s indep=%v holds=%v}",
		r.ConstraintProb.RatString(), r.ExpectedBelief.RatString(), r.Independent, r.Holds())
}

// CheckExpectation evaluates Theorem 6.2 on the system.
func (e *Engine) CheckExpectation(f logic.Fact, agent, action string) (ExpectationReport, error) {
	mu, err := e.ConstraintProb(f, agent, action)
	if err != nil {
		return ExpectationReport{}, err
	}
	exp, err := e.ExpectedBelief(f, agent, action)
	if err != nil {
		return ExpectationReport{}, err
	}
	indep, err := e.LocalStateIndependence(f, agent, action)
	if err != nil {
		return ExpectationReport{}, err
	}
	return ExpectationReport{
		ConstraintProb: mu,
		ExpectedBelief: exp,
		Independent:    indep.Independent,
	}, nil
}

// NecessityReport is the result of CheckNecessity (Lemma 5.1): under
// local-state independence, if µ_T(φ@α | α) ≥ p then at some point at
// which α is performed, β_i(φ) ≥ p.
type NecessityReport struct {
	// Threshold is p.
	Threshold *big.Rat
	// ConstraintProb is µ_T(φ@α | α).
	ConstraintProb *big.Rat
	// MaxBelief is the maximum of β_i(φ) over points where α is performed.
	MaxBelief *big.Rat
	// Witness is a local state at which β_i(φ) ≥ p when performing α
	// (empty when none exists).
	Witness string
	// Independent reports Definition 4.1 (the lemma's hypothesis).
	Independent bool
}

// Holds reports whether the lemma's implication is satisfied.
func (r NecessityReport) Holds() bool {
	if !r.Independent || ratutil.Less(r.ConstraintProb, r.Threshold) {
		return true
	}
	return ratutil.Geq(r.MaxBelief, r.Threshold)
}

// String summarizes the report.
func (r NecessityReport) String() string {
	return fmt.Sprintf("L5.1{p=%s µ=%s maxβ=%s witness=%q holds=%v}",
		r.Threshold.RatString(), r.ConstraintProb.RatString(), r.MaxBelief.RatString(),
		r.Witness, r.Holds())
}

// CheckNecessity evaluates Lemma 5.1 on the system for threshold p.
func (e *Engine) CheckNecessity(f logic.Fact, agent, action string, p *big.Rat) (NecessityReport, error) {
	mu, err := e.ConstraintProb(f, agent, action)
	if err != nil {
		return NecessityReport{}, err
	}
	beliefs, err := e.BeliefByActionState(f, agent, action)
	if err != nil {
		return NecessityReport{}, err
	}
	indep, err := e.LocalStateIndependence(f, agent, action)
	if err != nil {
		return NecessityReport{}, err
	}
	report := NecessityReport{
		Threshold:      ratutil.Copy(p),
		ConstraintProb: mu,
		MaxBelief:      ratutil.Zero(),
		Independent:    indep.Independent,
	}
	// Iterate in sorted state order: the witness is "some state with
	// β ≥ p", and picking the lexicographically first makes the report —
	// and hence every wire response embedding it — deterministic across
	// runs and engine rebuilds (the stability TestEvictionInvisible pins).
	locals := make([]string, 0, len(beliefs))
	for local := range beliefs {
		locals = append(locals, local)
	}
	sort.Strings(locals)
	for _, local := range locals {
		bel := beliefs[local]
		if ratutil.Greater(bel, report.MaxBelief) {
			report.MaxBelief = ratutil.Copy(bel)
		}
		if ratutil.Geq(bel, p) && report.Witness == "" {
			report.Witness = local
		}
	}
	return report, nil
}

// PAKReport is the result of CheckPAK (Theorem 7.1 and Corollary 7.2): if
// µ_T(φ@α | α) ≥ 1−δε then µ_T(β_i(φ)@α ≥ 1−ε | α) ≥ 1−δ. With δ = ε this
// is the paper's "probably approximately knowing" form.
type PAKReport struct {
	// Delta and Eps are the parameters δ, ε ∈ (0,1).
	Delta, Eps *big.Rat
	// ConstraintProb is µ_T(φ@α | α).
	ConstraintProb *big.Rat
	// Threshold is 1 − δε, the premise's constraint threshold.
	Threshold *big.Rat
	// BeliefLevel is 1 − ε, the "approximate knowledge" degree.
	BeliefLevel *big.Rat
	// BeliefMeasure is µ_T(β_i(φ)@α ≥ 1−ε | α).
	BeliefMeasure *big.Rat
	// Bound is 1 − δ, the promised lower bound on BeliefMeasure.
	Bound *big.Rat
	// Independent reports Definition 4.1 (the theorem's hypothesis).
	Independent bool
}

// PremiseMet reports whether µ_T(φ@α | α) ≥ 1−δε.
func (r PAKReport) PremiseMet() bool { return ratutil.Geq(r.ConstraintProb, r.Threshold) }

// ConclusionMet reports whether µ_T(β ≥ 1−ε | α) ≥ 1−δ.
func (r PAKReport) ConclusionMet() bool { return ratutil.Geq(r.BeliefMeasure, r.Bound) }

// Holds reports whether the theorem's implication is satisfied.
func (r PAKReport) Holds() bool {
	if !r.Independent || !r.PremiseMet() {
		return true
	}
	return r.ConclusionMet()
}

// String summarizes the report.
func (r PAKReport) String() string {
	return fmt.Sprintf("Thm7.1{δ=%s ε=%s µ=%s≥%s? %v; µ(β≥%s|α)=%s≥%s? %v; holds=%v}",
		r.Delta.RatString(), r.Eps.RatString(),
		r.ConstraintProb.RatString(), r.Threshold.RatString(), r.PremiseMet(),
		r.BeliefLevel.RatString(), r.BeliefMeasure.RatString(), r.Bound.RatString(), r.ConclusionMet(),
		r.Holds())
}

// CheckPAK evaluates Theorem 7.1 on the system for parameters δ, ε.
func (e *Engine) CheckPAK(f logic.Fact, agent, action string, delta, eps *big.Rat) (PAKReport, error) {
	mu, err := e.ConstraintProb(f, agent, action)
	if err != nil {
		return PAKReport{}, err
	}
	level := ratutil.OneMinus(eps)
	beliefMeasure, err := e.ThresholdMeasure(f, agent, action, level)
	if err != nil {
		return PAKReport{}, err
	}
	indep, err := e.LocalStateIndependence(f, agent, action)
	if err != nil {
		return PAKReport{}, err
	}
	return PAKReport{
		Delta:          ratutil.Copy(delta),
		Eps:            ratutil.Copy(eps),
		ConstraintProb: mu,
		Threshold:      ratutil.OneMinus(ratutil.Mul(delta, eps)),
		BeliefLevel:    level,
		BeliefMeasure:  beliefMeasure,
		Bound:          ratutil.OneMinus(delta),
		Independent:    indep.Independent,
	}, nil
}

// CheckPAKSquare evaluates Corollary 7.2 (δ = ε): if µ_T(φ@α|α) ≥ 1−ε²
// then µ_T(β ≥ 1−ε | α) ≥ 1−ε.
func (e *Engine) CheckPAKSquare(f logic.Fact, agent, action string, eps *big.Rat) (PAKReport, error) {
	return e.CheckPAK(f, agent, action, eps, eps)
}

// KoPReport is the result of CheckKoPLimit (Lemma F.1, the probabilistic
// limit of the Knowledge of Preconditions principle): under local-state
// independence, if µ_T(φ@α | α) = 1 then β_i(φ)@α = 1 with probability 1 —
// equivalently, the agent knows φ whenever it performs α.
type KoPReport struct {
	// ConstraintProb is µ_T(φ@α | α).
	ConstraintProb *big.Rat
	// MinBelief is the minimum belief over performance points.
	MinBelief *big.Rat
	// AlwaysKnows is true when K_i(φ) holds at every performance point.
	AlwaysKnows bool
	// Independent reports Definition 4.1 (the lemma's hypothesis).
	Independent bool
}

// Holds reports whether the lemma's implication is satisfied.
func (r KoPReport) Holds() bool {
	if !r.Independent || !ratutil.IsOne(r.ConstraintProb) {
		return true
	}
	return ratutil.IsOne(r.MinBelief) && r.AlwaysKnows
}

// String summarizes the report.
func (r KoPReport) String() string {
	return fmt.Sprintf("LF.1{µ=%s minβ=%s knows=%v holds=%v}",
		r.ConstraintProb.RatString(), r.MinBelief.RatString(), r.AlwaysKnows, r.Holds())
}

// CheckKoPLimit evaluates Lemma F.1 on the system. It also checks the
// knowledge-operator form: in a pps, belief 1 coincides with S5 knowledge.
func (e *Engine) CheckKoPLimit(f logic.Fact, agent, action string) (KoPReport, error) {
	_, info, err := e.properFor(agent, action)
	if err != nil {
		return KoPReport{}, err
	}
	mu, err := e.ConstraintProb(f, agent, action)
	if err != nil {
		return KoPReport{}, err
	}
	min, _, err := e.BeliefRangeAtAction(f, agent, action)
	if err != nil {
		return KoPReport{}, err
	}
	indep, err := e.LocalStateIndependence(f, agent, action)
	if err != nil {
		return KoPReport{}, err
	}
	alwaysKnows := true
	var iterErr error
	info.set.ForEach(func(r int) bool {
		knows, kerr := e.Knows(f, agent, pps.RunID(r), info.times[r])
		if kerr != nil {
			iterErr = kerr
			return false
		}
		if !knows {
			alwaysKnows = false
			return false
		}
		return true
	})
	if iterErr != nil {
		return KoPReport{}, iterErr
	}
	return KoPReport{
		ConstraintProb: mu,
		MinBelief:      min,
		AlwaysKnows:    alwaysKnows,
		Independent:    indep.Independent,
	}, nil
}
