// Package query reifies the engine's analyses as first-class request
// values: every quantity and theorem check the paper attaches to a
// (system, fact, agent, action) tuple becomes a composable Query that
// evaluates to a uniform Result through one entry point, Eval, or in
// bulk through EvalBatch.
//
// The queries mirror the paper's analysis surface:
//
//   - BeliefQuery: β_i(φ) at a local state, or at every acting state of a
//     proper action (Definition 3.1);
//   - ConstraintQuery: µ_T(φ@α | α), optionally judged against a
//     threshold p (Definition 3.2);
//   - ExpectationQuery: E_µT(β_i(φ)@α | α) (Definition 6.1);
//   - ThresholdQuery: µ_T(β_i(φ)@α ≥ p | α);
//   - TheoremQuery: the machine checkers for Theorem 4.2 (sufficiency),
//     Lemma 5.1 (necessity), Theorem 6.2 (expectation), Theorem 7.1 /
//     Corollary 7.2 (PAK) and Lemma F.1 (KoP limit);
//   - IndependenceQuery: Definition 4.1 with Lemma 4.3's witnesses;
//   - TimelineQuery: the belief trajectory β_i(φ) along one run.
//
// Queries built from structural facts serialize to JSON (Marshal /
// Parse, MarshalBatch / ParseBatch), so analysis requests can be stored,
// shipped and replayed by the CLI tools; queries built around opaque Go
// predicates still evaluate but refuse to serialize.
//
// All numeric results are exact rationals; a Result additionally carries
// pass/fail verdicts, boolean diagnostics and witness run-sets.
package query

import (
	"context"
	"fmt"
	"math/big"
	"sort"
	"strings"

	"pak/internal/core"
	"pak/internal/logic"
	"pak/internal/pps"
	"pak/internal/ratutil"
	"pak/internal/runset"
)

// Kind identifies a query's analysis family.
type Kind string

// The query kinds. The strings are the JSON "kind" values.
const (
	KindBelief       Kind = "belief"
	KindConstraint   Kind = "constraint"
	KindExpectation  Kind = "expectation"
	KindThreshold    Kind = "threshold"
	KindTheorem      Kind = "theorem"
	KindIndependence Kind = "independence"
	KindTimeline     Kind = "timeline"
	// KindMetric marks MetricQuery: an opaque Go metric evaluated over
	// the engine (in-process only; it refuses to serialize).
	KindMetric Kind = "metric"
	// KindEnvelope marks the result of EvalEnvelope: a min/max Range of
	// an inner query over an adversary space (see envelope.go).
	KindEnvelope Kind = "envelope"
)

// Theorem selects which of the paper's results a TheoremQuery checks.
type Theorem string

// The checkable results. The strings are the JSON "theorem" values.
const (
	// TheoremSufficiency is Theorem 4.2: belief ≥ p everywhere when
	// acting (plus independence) implies µ(φ@α | α) ≥ p.
	TheoremSufficiency Theorem = "sufficiency"
	// TheoremNecessity is Lemma 5.1: µ(φ@α | α) ≥ p (plus independence)
	// implies belief ≥ p at some acting state.
	TheoremNecessity Theorem = "necessity"
	// TheoremExpectation is Theorem 6.2, the paper's main result:
	// µ(φ@α | α) = E[β(φ)@α | α] under independence.
	TheoremExpectation Theorem = "expectation"
	// TheoremPAK is Theorem 7.1 (δ, ε) / Corollary 7.2 (δ = ε).
	TheoremPAK Theorem = "pak"
	// TheoremKoP is Lemma F.1, the probabilistic Knowledge of
	// Preconditions limit.
	TheoremKoP Theorem = "kop"
)

// Verdict is a query's pass/fail judgement, when it has one.
type Verdict string

// The verdict values. VerdictNone marks purely numeric results.
const (
	VerdictNone Verdict = ""
	VerdictPass Verdict = "pass"
	VerdictFail Verdict = "fail"
)

// Result is the uniform outcome of evaluating any Query. Which fields
// are populated depends on the query kind; Value and Verdict cover the
// common "one number, one judgement" shape.
type Result struct {
	// Kind echoes the query's kind.
	Kind Kind
	// Query describes the evaluated request (its String form).
	Query string
	// Value is the query's primary exact quantity (nil when the query
	// has no single headline number, e.g. per-state belief maps).
	Value *big.Rat
	// Values holds named auxiliary quantities: per-state beliefs, both
	// sides of a theorem, thresholds and bounds.
	Values map[string]*big.Rat
	// Verdict is the pass/fail judgement (VerdictNone when the query is
	// purely numeric).
	Verdict Verdict
	// Flags holds named boolean diagnostics (independence, premises, ...).
	Flags map[string]bool
	// Witness is the run-set substantiating the result, when one exists:
	// the φ@α event for constraints, the runs meeting the belief
	// threshold, the first independence violation's state occurrence.
	Witness *runset.Set
	// Timeline carries TimelineQuery trajectories.
	Timeline []core.TimelinePoint
	// Envelope carries an EvalEnvelope result's min/max range over the
	// adversary space (nil on every other kind).
	Envelope *Range
	// Estimate carries the approximate tier's sampled estimate (see
	// WithApprox): on an approx-stage frame it is the result; on an
	// exact-stage frame it rides along with the refined value, and
	// Flags[FlagCICovered] records the self-check. Nil outside approx
	// mode.
	Estimate *Estimate
	// Detail is a human-readable summary for reports.
	Detail string
	// Err records this query's evaluation error inside a batch (nil on
	// success). A failed query's other fields are zero.
	Err error
}

// Passed reports whether the result carries a passing verdict.
func (r Result) Passed() bool { return r.Verdict == VerdictPass }

// Query is an analysis request evaluable against a core.Engine. The
// interface is closed: the query types of this package are the complete
// set, which is what lets specs round-trip through JSON.
type Query interface {
	// Kind reports the query's analysis family.
	Kind() Kind
	// String describes the request for logs and Result.Query.
	String() string
	// validate checks the request's well-formedness before evaluation.
	validate() error
	// eval runs the request against the engine. ctx is advisory: most
	// queries run to completion regardless (one query is the unit of
	// cancellation), but evaluations dominated by a single deep engine
	// scan — today the Definition 4.1 independence scan — consult it at
	// a coarse interval so a deadline can cut even one query.
	eval(ctx context.Context, e *core.Engine) (Result, error)
}

// verdictOf maps a boolean judgement to a Verdict.
func verdictOf(ok bool) Verdict {
	if ok {
		return VerdictPass
	}
	return VerdictFail
}

// BeliefQuery asks for β_Agent(Fact). With Local set it targets that
// single state; with Action set (and Local empty) it targets every local
// state at which the agent performs the proper action, producing one
// value per state in Values, keyed by the state string.
type BeliefQuery struct {
	// Fact is φ.
	Fact logic.Fact
	// Agent is the believing agent i.
	Agent string
	// Local is the state ℓ at which to evaluate β_i(φ); empty means "at
	// every acting state of Action".
	Local string
	// Action is the proper action whose acting states are targeted when
	// Local is empty.
	Action string
}

// Kind reports KindBelief.
func (q BeliefQuery) Kind() Kind { return KindBelief }

// String describes the request.
func (q BeliefQuery) String() string {
	if q.Local != "" {
		return fmt.Sprintf("belief β_%s(%s) @ ℓ=%q", q.Agent, q.Fact, q.Local)
	}
	return fmt.Sprintf("belief β_%s(%s) @ acting states of %q", q.Agent, q.Fact, q.Action)
}

func (q BeliefQuery) validate() error {
	if q.Fact == nil || q.Agent == "" {
		return fmt.Errorf("query: belief requires fact and agent")
	}
	if (q.Local == "") == (q.Action == "") {
		return fmt.Errorf("query: belief requires exactly one of local or action")
	}
	return nil
}

func (q BeliefQuery) eval(ctx context.Context, e *core.Engine) (Result, error) {
	res := Result{Kind: q.Kind(), Query: q.String()}
	if q.Local != "" {
		// Warm the φ@ℓ extension under the request context first: the
		// scan is the dominant cost, the ctx-bound variant can abort
		// mid-scan at a deadline, and a completed scan is memoized so
		// Belief reuses it — evaluation never runs the scan twice, and
		// never runs it past the context's expiry.
		if _, err := e.FactAtLocalCtx(ctx, q.Fact, q.Agent, q.Local); err != nil && core.IsContextErr(err) {
			return Result{}, err
		}
		bel, err := e.Belief(q.Fact, q.Agent, q.Local)
		if err != nil {
			return Result{}, err
		}
		res.Value = bel
		res.Detail = fmt.Sprintf("β = %s", bel.RatString())
		return res, nil
	}
	byState, err := e.BeliefByActionState(q.Fact, q.Agent, q.Action)
	if err != nil {
		return Result{}, err
	}
	res.Values = make(map[string]*big.Rat, len(byState))
	states := make([]string, 0, len(byState))
	for state, bel := range byState {
		res.Values[state] = bel
		states = append(states, state)
	}
	sort.Strings(states)
	parts := make([]string, len(states))
	for i, s := range states {
		parts[i] = fmt.Sprintf("β@%q=%s", s, byState[s].RatString())
	}
	res.Detail = strings.Join(parts, " ")
	return res, nil
}

// ConstraintQuery asks for µ_T(Fact@Action | Action), the left-hand side
// of a probabilistic constraint. With Threshold set the result is judged
// pass/fail against µ ≥ p. The witness is the φ@α event.
type ConstraintQuery struct {
	// Fact is φ.
	Fact logic.Fact
	// Agent and Action identify the proper action α.
	Agent  string
	Action string
	// Threshold is the optional constraint threshold p.
	Threshold *big.Rat
}

// Kind reports KindConstraint.
func (q ConstraintQuery) Kind() Kind { return KindConstraint }

// String describes the request.
func (q ConstraintQuery) String() string {
	s := fmt.Sprintf("constraint µ(%s @ %s | %s) for %s", q.Fact, q.Action, q.Action, q.Agent)
	if q.Threshold != nil {
		s += fmt.Sprintf(" ≥ %s", q.Threshold.RatString())
	}
	return s
}

func (q ConstraintQuery) validate() error {
	if q.Fact == nil || q.Agent == "" || q.Action == "" {
		return fmt.Errorf("query: constraint requires fact, agent and action")
	}
	if q.Threshold != nil && !ratutil.IsProb(q.Threshold) {
		return fmt.Errorf("query: constraint threshold %s not in [0,1]", q.Threshold.RatString())
	}
	return nil
}

func (q ConstraintQuery) eval(ctx context.Context, e *core.Engine) (Result, error) {
	// Warm the φ@α extension under the request context (see
	// BeliefQuery.eval): a deadline aborts the scan mid-run, a completed
	// scan is memoized for ConstraintProb and FactAtAction below.
	// Non-context errors fall through so domain failures keep their
	// single reporting path.
	if _, err := e.FactAtActionCtx(ctx, q.Fact, q.Agent, q.Action); err != nil && core.IsContextErr(err) {
		return Result{}, err
	}
	mu, err := e.ConstraintProb(q.Fact, q.Agent, q.Action)
	if err != nil {
		return Result{}, err
	}
	witness, err := e.FactAtAction(q.Fact, q.Agent, q.Action)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Kind:    q.Kind(),
		Query:   q.String(),
		Value:   mu,
		Witness: witness,
		Detail:  fmt.Sprintf("µ = %s", mu.RatString()),
	}
	if q.Threshold != nil {
		res.Verdict = verdictOf(ratutil.Geq(mu, q.Threshold))
		res.Values = map[string]*big.Rat{"threshold": ratutil.Copy(q.Threshold)}
		res.Detail += fmt.Sprintf(" (≥ %s: %s)", q.Threshold.RatString(), res.Verdict)
	}
	return res, nil
}

// ExpectationQuery asks for E_µT(β_Agent(Fact)@Action | Action), the
// expected degree of belief when acting (Definition 6.1).
type ExpectationQuery struct {
	// Fact is φ.
	Fact logic.Fact
	// Agent and Action identify the proper action α.
	Agent  string
	Action string
}

// Kind reports KindExpectation.
func (q ExpectationQuery) Kind() Kind { return KindExpectation }

// String describes the request.
func (q ExpectationQuery) String() string {
	return fmt.Sprintf("expectation E[β_%s(%s) @ %s | %s]", q.Agent, q.Fact, q.Action, q.Action)
}

func (q ExpectationQuery) validate() error {
	if q.Fact == nil || q.Agent == "" || q.Action == "" {
		return fmt.Errorf("query: expectation requires fact, agent and action")
	}
	return nil
}

func (q ExpectationQuery) eval(ctx context.Context, e *core.Engine) (Result, error) {
	exp, err := e.ExpectedBelief(q.Fact, q.Agent, q.Action)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Kind:   q.Kind(),
		Query:  q.String(),
		Value:  exp,
		Detail: fmt.Sprintf("E[β] = %s", exp.RatString()),
	}, nil
}

// ThresholdQuery asks for µ_T(β_Agent(Fact)@Action ≥ P | Action): the
// measure of acting runs at which the belief meets the threshold. The
// witness is that event.
type ThresholdQuery struct {
	// Fact is φ.
	Fact logic.Fact
	// Agent and Action identify the proper action α.
	Agent  string
	Action string
	// P is the belief threshold.
	P *big.Rat
}

// Kind reports KindThreshold.
func (q ThresholdQuery) Kind() Kind { return KindThreshold }

// String describes the request.
func (q ThresholdQuery) String() string {
	p := "?"
	if q.P != nil {
		p = q.P.RatString()
	}
	return fmt.Sprintf("threshold µ(β_%s(%s) @ %s ≥ %s | %s)", q.Agent, q.Fact, q.Action, p, q.Action)
}

func (q ThresholdQuery) validate() error {
	if q.Fact == nil || q.Agent == "" || q.Action == "" {
		return fmt.Errorf("query: threshold requires fact, agent and action")
	}
	if q.P == nil || !ratutil.IsProb(q.P) {
		return fmt.Errorf("query: threshold requires p in [0,1]")
	}
	return nil
}

func (q ThresholdQuery) eval(_ context.Context, e *core.Engine) (Result, error) {
	tm, err := e.ThresholdMeasure(q.Fact, q.Agent, q.Action, q.P)
	if err != nil {
		return Result{}, err
	}
	witness, err := e.BeliefThresholdEvent(q.Fact, q.Agent, q.Action, q.P)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Kind:    q.Kind(),
		Query:   q.String(),
		Value:   tm,
		Values:  map[string]*big.Rat{"p": ratutil.Copy(q.P)},
		Witness: witness,
		Detail:  fmt.Sprintf("µ(β ≥ %s | α) = %s", q.P.RatString(), tm.RatString()),
	}, nil
}

// TheoremQuery machine-checks one of the paper's results on the system.
// The verdict is pass when the theorem's implication holds there (it
// must, whenever the hypotheses are met — a fail is a counterexample to
// the paper). P parameterizes sufficiency and necessity; Delta and Eps
// parameterize PAK (leave Delta nil for the Corollary 7.2 form δ = ε).
type TheoremQuery struct {
	// Theorem selects the result to check.
	Theorem Theorem
	// Fact is φ.
	Fact logic.Fact
	// Agent and Action identify the proper action α.
	Agent  string
	Action string
	// P is the threshold for sufficiency (Theorem 4.2) and necessity
	// (Lemma 5.1).
	P *big.Rat
	// Delta and Eps are Theorem 7.1's parameters; Eps alone selects
	// Corollary 7.2 (δ = ε).
	Delta, Eps *big.Rat
}

// Kind reports KindTheorem.
func (q TheoremQuery) Kind() Kind { return KindTheorem }

// String describes the request.
func (q TheoremQuery) String() string {
	return fmt.Sprintf("theorem %s on µ(%s @ %s | %s) for %s", q.Theorem, q.Fact, q.Action, q.Action, q.Agent)
}

func (q TheoremQuery) validate() error {
	if q.Fact == nil || q.Agent == "" || q.Action == "" {
		return fmt.Errorf("query: theorem requires fact, agent and action")
	}
	switch q.Theorem {
	case TheoremSufficiency, TheoremNecessity:
		if q.P == nil || !ratutil.IsProb(q.P) {
			return fmt.Errorf("query: theorem %s requires p in [0,1]", q.Theorem)
		}
	case TheoremExpectation, TheoremKoP:
		// No parameters.
	case TheoremPAK:
		if q.Eps == nil || !ratutil.IsProb(q.Eps) {
			return fmt.Errorf("query: theorem pak requires eps in [0,1]")
		}
		if q.Delta != nil && !ratutil.IsProb(q.Delta) {
			return fmt.Errorf("query: theorem pak delta %s not in [0,1]", q.Delta.RatString())
		}
	default:
		return fmt.Errorf("query: unknown theorem %q", q.Theorem)
	}
	return nil
}

func (q TheoremQuery) eval(ctx context.Context, e *core.Engine) (Result, error) {
	res := Result{Kind: q.Kind(), Query: q.String()}
	switch q.Theorem {
	case TheoremSufficiency:
		rep, err := e.CheckSufficiency(q.Fact, q.Agent, q.Action, q.P)
		if err != nil {
			return Result{}, err
		}
		res.Verdict = verdictOf(rep.Holds())
		res.Value = rep.ConstraintProb
		res.Values = map[string]*big.Rat{
			"p":         rep.Threshold,
			"minBelief": rep.MinBelief,
		}
		res.Flags = map[string]bool{
			"independent":   rep.Independent,
			"premiseMet":    rep.PremiseMet,
			"constraintMet": rep.ConstraintMet,
		}
		res.Detail = rep.String()
	case TheoremNecessity:
		rep, err := e.CheckNecessity(q.Fact, q.Agent, q.Action, q.P)
		if err != nil {
			return Result{}, err
		}
		res.Verdict = verdictOf(rep.Holds())
		res.Value = rep.ConstraintProb
		res.Values = map[string]*big.Rat{
			"p":         rep.Threshold,
			"maxBelief": rep.MaxBelief,
		}
		res.Flags = map[string]bool{
			"independent": rep.Independent,
			"hasWitness":  rep.Witness != "",
		}
		res.Detail = rep.String()
	case TheoremExpectation:
		rep, err := e.CheckExpectation(q.Fact, q.Agent, q.Action)
		if err != nil {
			return Result{}, err
		}
		res.Verdict = verdictOf(rep.Holds())
		res.Value = rep.ConstraintProb
		res.Values = map[string]*big.Rat{
			"expectedBelief": rep.ExpectedBelief,
		}
		res.Flags = map[string]bool{
			"independent": rep.Independent,
			"equal":       rep.Equal(),
		}
		res.Detail = rep.String()
	case TheoremPAK:
		delta := q.Delta
		if delta == nil {
			delta = q.Eps // Corollary 7.2 form
		}
		rep, err := e.CheckPAK(q.Fact, q.Agent, q.Action, delta, q.Eps)
		if err != nil {
			return Result{}, err
		}
		res.Verdict = verdictOf(rep.Holds())
		res.Value = rep.ConstraintProb
		res.Values = map[string]*big.Rat{
			"delta":         rep.Delta,
			"eps":           rep.Eps,
			"threshold":     rep.Threshold,
			"beliefLevel":   rep.BeliefLevel,
			"beliefMeasure": rep.BeliefMeasure,
			"bound":         rep.Bound,
		}
		res.Flags = map[string]bool{
			"independent":   rep.Independent,
			"premiseMet":    rep.PremiseMet(),
			"conclusionMet": rep.ConclusionMet(),
		}
		res.Detail = rep.String()
		// Witness: the acting runs at which the belief reaches 1−ε.
		witness, werr := e.BeliefThresholdEvent(q.Fact, q.Agent, q.Action, rep.BeliefLevel)
		if werr != nil {
			return Result{}, werr
		}
		res.Witness = witness
	case TheoremKoP:
		rep, err := e.CheckKoPLimit(q.Fact, q.Agent, q.Action)
		if err != nil {
			return Result{}, err
		}
		res.Verdict = verdictOf(rep.Holds())
		res.Value = rep.ConstraintProb
		res.Values = map[string]*big.Rat{
			"minBelief": rep.MinBelief,
		}
		res.Flags = map[string]bool{
			"independent": rep.Independent,
			"alwaysKnows": rep.AlwaysKnows,
		}
		res.Detail = rep.String()
	default:
		return Result{}, fmt.Errorf("query: unknown theorem %q", q.Theorem)
	}
	return res, nil
}

// IndependenceQuery checks local-state independence (Definition 4.1) and
// Lemma 4.3's sufficient conditions for it. The verdict is pass when the
// fact is independent of the action; the witness is the occurrence event
// of the first violating local state, when one exists.
type IndependenceQuery struct {
	// Fact is φ.
	Fact logic.Fact
	// Agent and Action identify the proper action α.
	Agent  string
	Action string
}

// Kind reports KindIndependence.
func (q IndependenceQuery) Kind() Kind { return KindIndependence }

// String describes the request.
func (q IndependenceQuery) String() string {
	return fmt.Sprintf("independence of %s from %s for %s", q.Fact, q.Action, q.Agent)
}

func (q IndependenceQuery) validate() error {
	if q.Fact == nil || q.Agent == "" || q.Action == "" {
		return fmt.Errorf("query: independence requires fact, agent and action")
	}
	return nil
}

func (q IndependenceQuery) eval(ctx context.Context, e *core.Engine) (Result, error) {
	report, err := e.LocalStateIndependenceCtx(ctx, q.Fact, q.Agent, q.Action)
	if err != nil {
		return Result{}, err
	}
	witness, err := e.ExplainIndependenceCtx(ctx, q.Fact, q.Agent, q.Action)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Kind:    q.Kind(),
		Query:   q.String(),
		Verdict: verdictOf(report.Independent),
		Flags: map[string]bool{
			"independent":   witness.Independent,
			"deterministic": witness.Deterministic,
			"pastBased":     witness.PastBased,
			"lemma43":       witness.Lemma43Consistent(),
		},
		Detail: report.String(),
	}
	if len(report.Violations) > 0 {
		// Witness: where the first violating local state occurs.
		a, ok := e.System().AgentIndex(q.Agent)
		if ok {
			if occ, _, occOK := e.System().Occurs(a, report.Violations[0].Local); occOK {
				res.Witness = occ
			}
		}
	}
	return res, nil
}

// TimelineQuery asks for the belief trajectory β_Agent(Fact) along run
// Run, one point per time step. Value is the belief at the final point.
type TimelineQuery struct {
	// Fact is φ.
	Fact logic.Fact
	// Agent is the believing agent.
	Agent string
	// Run is the run to traverse.
	Run int
}

// Kind reports KindTimeline.
func (q TimelineQuery) Kind() Kind { return KindTimeline }

// String describes the request.
func (q TimelineQuery) String() string {
	return fmt.Sprintf("timeline β_%s(%s) along run %d", q.Agent, q.Fact, q.Run)
}

func (q TimelineQuery) validate() error {
	if q.Fact == nil || q.Agent == "" {
		return fmt.Errorf("query: timeline requires fact and agent")
	}
	if q.Run < 0 {
		return fmt.Errorf("query: timeline run %d negative", q.Run)
	}
	return nil
}

// MetricQuery evaluates an arbitrary exact metric — an opaque Go
// function over the engine — as a first-class query, so ad-hoc
// quantities (custom threshold measures, derived beliefs) compose with
// EvalBatch and, chiefly, with EvalEnvelope's min/max folds. Like facts
// built from opaque predicates, a MetricQuery evaluates but refuses to
// serialize: it exists for in-process callers sweeping a quantity the
// wire grammar does not name, never for the wire.
type MetricQuery struct {
	// Name labels the metric in Result.Query and error messages.
	Name string
	// Fn computes the metric on the engine.
	Fn func(e *core.Engine) (*big.Rat, error)
}

// Kind reports KindMetric.
func (q MetricQuery) Kind() Kind { return KindMetric }

// String describes the request.
func (q MetricQuery) String() string {
	name := q.Name
	if name == "" {
		name = "<unnamed>"
	}
	return fmt.Sprintf("metric %s", name)
}

func (q MetricQuery) validate() error {
	if q.Fn == nil {
		return fmt.Errorf("query: metric requires a function")
	}
	return nil
}

func (q MetricQuery) eval(ctx context.Context, e *core.Engine) (Result, error) {
	v, err := q.Fn(e)
	if err != nil {
		return Result{}, err
	}
	if v == nil {
		return Result{}, fmt.Errorf("query: %s returned no value", q)
	}
	return Result{
		Kind:   q.Kind(),
		Query:  q.String(),
		Value:  ratutil.Copy(v),
		Detail: fmt.Sprintf("%s = %s", q, v.RatString()),
	}, nil
}

func (q TimelineQuery) eval(ctx context.Context, e *core.Engine) (Result, error) {
	points, err := e.BeliefTimeline(q.Fact, q.Agent, pps.RunID(q.Run))
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Kind:     q.Kind(),
		Query:    q.String(),
		Timeline: points,
	}
	if len(points) > 0 {
		last := points[len(points)-1]
		res.Value = ratutil.Copy(last.Belief)
		res.Detail = fmt.Sprintf("%d points, final β = %s", len(points), last.Belief.RatString())
	}
	return res, nil
}
