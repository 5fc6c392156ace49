package query

// The approximate tier: any supported query can be answered first from
// a seeded Monte-Carlo sample with an exact-rational Hoeffding interval,
// then refined to the exact value. Under WithApprox the streaming core
// emits per supported slot an "approx" frame (the sampled estimate)
// followed by an "exact" frame (the refined value, carrying the same
// estimate plus a ciCovered self-check); batch consumers keep only the
// last frame per slot, so the refined value wins whenever refinement
// ran and the estimate stands as the slot's answer when a deadline cut
// the refinement off. Everything is deterministic: the per-slot seed is
// a pure function of (base seed, system, index), so serial and parallel
// evaluation — and any two runs with the same seed and budget — produce
// byte-identical estimates.
//
// Supported kinds and their estimators (n = sample budget):
//
//	constraint   µ(φ@α | α)         frequency of φ at the performance
//	                                point among sampled α-performing runs
//	belief (ℓ)   β_i(φ) @ ℓ         frequency of φ at ℓ's occurrence
//	                                time among sampled runs through ℓ
//	threshold    µ(β_i(φ)@α ≥ p|α)  frequency of the exact point belief
//	                                clearing p among sampled acting runs
//	expectation  E[β_i(φ)@α | α]    exact-rational mean of the point
//	                                belief over sampled acting runs
//
// The threshold and expectation estimators are hybrids: runs are
// sampled, but the belief at each sampled point is the engine's exact
// rational, so the sampled mean is itself an exact rational and the
// Hoeffding bound (which covers [0,1]-valued means) applies unchanged.
//
// Conditioning events that never occur in the sample yield the
// trivially sound "no information" estimate 1/2 ± 1/2 (interval [0,1],
// N = 0) rather than an error: the interval still covers the truth.

import (
	"context"
	"fmt"
	"math/big"

	"pak/internal/core"
	"pak/internal/montecarlo"
	"pak/internal/ratutil"
)

// Stage labels which tier of an approximate evaluation a frame carries.
type Stage string

const (
	// StageApprox marks a sampled-estimate frame (always emitted before
	// its slot's exact frame).
	StageApprox Stage = "approx"
	// StageExact marks a refined exact frame. Outside approx mode the
	// stage is empty, keeping the non-approx wire shape unchanged.
	StageExact Stage = "exact"
)

// ApproxSpec configures the approximate tier for a batch or stream.
type ApproxSpec struct {
	// Eps is the target half-width ε ∈ (0,1); together with Delta it
	// determines the sample budget when Samples is zero.
	Eps *big.Rat
	// Delta is the per-estimate CI failure probability δ ∈ (0,1);
	// defaults to 1/100.
	Delta *big.Rat
	// Samples fixes the budget directly; 0 derives it from (Eps, Delta)
	// via the Hoeffding sample complexity ⌈ln(2/δ)/(2ε²)⌉.
	Samples int
	// Seed is the base seed; every (system, index) slot derives its own
	// seed deterministically from it, which is what makes serial and
	// parallel evaluation byte-identical. 0 means seed 1.
	Seed int64
	// Only suppresses exact refinement: supported slots answer from
	// samples alone (kinds outside the approximable set still evaluate
	// exactly).
	Only bool

	// conf is Delta's confidence level, set by Normalized on success
	// only: every estimate of one evaluation reads its ln(2/δ) bound,
	// which is therefore derived at most once per request.
	conf *montecarlo.Confidence
}

// Normalized validates the spec and fills defaults, resolving the
// sample budget and the confidence level its estimates share: the
// normalization every evaluation applies. It never mutates the
// receiver. A normalized spec normalizes to itself at once, so a
// transport that validates a spec at decode (the service's request
// decoder) hands the result on, and an eps-derived budget's ln(2/δ) is
// derived once per request. Fields changed after normalization give
// the same result as normalizing afresh: the confidence level is kept
// only while it belongs to the spec's own Delta, and a zeroed Samples
// or Seed is filled again.
func (a ApproxSpec) Normalized() (ApproxSpec, error) {
	if a.conf != nil && a.conf.Delta() == a.Delta && a.Samples > 0 && a.Seed != 0 {
		return a, nil
	}
	a.conf = nil
	if a.Delta == nil {
		a.Delta = ratutil.R(1, 100)
	} else {
		if a.Delta.Sign() <= 0 || a.Delta.Cmp(ratutil.One()) >= 0 {
			return a, fmt.Errorf("query: approx delta must be in (0,1), got %s", a.Delta.RatString())
		}
		a.Delta = ratutil.Copy(a.Delta)
	}
	if a.Eps != nil {
		a.Eps = ratutil.Copy(a.Eps)
	}
	if a.Samples < 0 {
		return a, fmt.Errorf("query: approx sample budget must be positive, got %d", a.Samples)
	}
	conf := montecarlo.NewConfidence(a.Delta)
	if a.Samples == 0 {
		if a.Eps == nil {
			return a, fmt.Errorf("query: approx requires eps or an explicit sample budget")
		}
		n, err := conf.SampleSize(a.Eps)
		if err != nil {
			return a, fmt.Errorf("query: approx: %w", err)
		}
		a.Samples = n
	}
	if a.Seed == 0 {
		a.Seed = 1
	}
	a.conf = conf
	return a, nil
}

// WithApprox enables the approximate tier: supported queries stream a
// seeded sampled estimate (stage "approx") before their exact result
// (stage "exact"); see the package comment for the full contract. An
// invalid spec fails every slot of the batch with the validation error.
func WithApprox(spec ApproxSpec) Option {
	return func(c *config) {
		s := spec
		c.approx = &s
	}
}

// Estimate is a sampled estimate with its exact-rational Hoeffding
// interval and the provenance needed to reproduce it.
type Estimate struct {
	// EstimateRat is the point estimate and [Lo, Hi] interval; every
	// component is an exact rational, so the estimate round-trips
	// through its wire form without float drift.
	montecarlo.EstimateRat
	// Samples is the total prior-sample budget spent (N counts only the
	// samples that hit the conditioning event).
	Samples int
	// Seed is the slot's derived seed.
	Seed int64
	// Eps is the requested half-width (nil when the budget was given
	// directly); Delta is the CI failure probability: the exact value
	// lies in [Lo, Hi] with probability at least 1-Delta.
	Eps, Delta *big.Rat
}

// CanApprox reports whether the approximate tier supports q: constraint,
// expectation and threshold queries, and belief queries at an explicit
// local state. Everything else evaluates exactly even under WithApprox.
func CanApprox(q Query) bool {
	switch qq := q.(type) {
	case ConstraintQuery, ExpectationQuery, ThresholdQuery:
		return true
	case BeliefQuery:
		return qq.Local != ""
	}
	return false
}

// slotSeed derives the per-slot seed from the base seed and the slot's
// (system, index) coordinates with a splitmix64-style mix: a pure
// function, so the schedule (serial, parallel, rerun) cannot influence
// any slot's sample sequence.
func slotSeed(base int64, sys, idx int) int64 {
	z := uint64(base) ^ (uint64(sys)+1)*0x9E3779B97F4A7C15 ^ (uint64(idx)+1)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// approxRefineGate, when non-nil, runs between a slot's approx emission
// and the start of its exact refinement. It exists solely so tests (here
// and in the service layer) can prove the deadline-mid-refinement
// contract deterministically — the gate blocks until the evaluation
// context expires, forcing the "approx frame stands as the slot's
// answer" path without timers or races. Never set outside tests.
var approxRefineGate func(ctx context.Context, system, index int)

// SetApproxRefineGate installs (or, with nil, removes) the test-only
// refinement gate. Exported for the service tests; production code must
// never call it.
func SetApproxRefineGate(gate func(ctx context.Context, system, index int)) {
	approxRefineGate = gate
}

// evalApproxSlot computes the sampled estimate for one supported slot.
// It mirrors evalSlot's shape: context check first, then the engine,
// with panics converted to per-slot errors.
func evalApproxSlot(item MultiItem, model *montecarlo.Model, sys, idx int, cfg config) (res Result) {
	qu := item.Queries[idx]
	if err := ctxErr(cfg.ctx, qu); err != nil {
		return Result{Kind: kindOf(qu), Query: stringOf(qu), Err: err}
	}
	if item.Engine == nil {
		return Result{Err: fmt.Errorf("query: nil engine")}
	}
	if model == nil {
		return Result{Kind: kindOf(qu), Query: stringOf(qu), Err: fmt.Errorf("query: approx: no sampling model for system %d", sys)}
	}
	if err := qu.validate(); err != nil {
		return Result{Kind: qu.Kind(), Query: qu.String(), Err: err}
	}
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("query: %s: approx panic: %v", qu, r)
			res = Result{Kind: qu.Kind(), Query: qu.String(), Err: err}
		}
	}()
	seed := slotSeed(cfg.approx.Seed, sys, idx)
	est, err := approxEval(cfg.ctx, item.Engine, model, qu, *cfg.approx, seed)
	if err != nil {
		return Result{Kind: qu.Kind(), Query: qu.String(), Err: err}
	}
	return Result{
		Kind:     qu.Kind(),
		Query:    qu.String(),
		Value:    ratutil.Copy(est.P),
		Estimate: est,
		Detail:   fmt.Sprintf("sampled estimate %s ∈ [%s, %s] (n=%d of %d, seed=%d)", est.P.RatString(), est.Lo.RatString(), est.Hi.RatString(), est.N, est.Samples, est.Seed),
	}
}

// approxEval dispatches to the per-kind estimator. The returned
// Estimate is fully determined by (engine's system, query, spec, seed).
// Facts evaluated per sample are bound to the engine (core.Engine.Bind),
// so believes and knows inside them read the engine's memo tables; ctx
// cuts the nested scans that fill them.
func approxEval(ctx context.Context, e *core.Engine, model *montecarlo.Model, q Query, spec ApproxSpec, seed int64) (*Estimate, error) {
	s := model.Sampler(seed)
	sys := model.System()
	switch qq := q.(type) {
	case ConstraintQuery:
		if err := e.IsProper(qq.Agent, qq.Action); err != nil {
			return nil, err
		}
		f, check := e.Bind(ctx, qq.Fact)
		hits, acting := 0, 0
		for k := 0; k < spec.Samples; k++ {
			r := s.SampleRun()
			t, ok, err := e.PerformanceTime(qq.Agent, qq.Action, r)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			acting++
			if f.Holds(sys, r, t) {
				hits++
			}
			if err := check(); err != nil {
				return nil, err
			}
		}
		return newEstimate(montecarlo.NewEstimateRat(hits, acting, spec.conf), spec, seed), nil

	case BeliefQuery:
		a, ok := sys.AgentIndex(qq.Agent)
		if !ok {
			return nil, fmt.Errorf("%w: %q", core.ErrUnknownAgent, qq.Agent)
		}
		_, tm, ok := sys.OccursShared(a, qq.Local)
		if !ok {
			return nil, fmt.Errorf("%w: agent %q state %q", core.ErrUnknownLocal, qq.Agent, qq.Local)
		}
		f, check := e.Bind(ctx, qq.Fact)
		hits, reached := 0, 0
		for k := 0; k < spec.Samples; k++ {
			r := s.SampleRun()
			if tm >= sys.RunLen(r) || sys.Local(r, tm, a) != qq.Local {
				continue
			}
			reached++
			if f.Holds(sys, r, tm) {
				hits++
			}
			if err := check(); err != nil {
				return nil, err
			}
		}
		return newEstimate(montecarlo.NewEstimateRat(hits, reached, spec.conf), spec, seed), nil

	case ThresholdQuery:
		if err := e.IsProper(qq.Agent, qq.Action); err != nil {
			return nil, err
		}
		hits, acting := 0, 0
		for k := 0; k < spec.Samples; k++ {
			r := s.SampleRun()
			t, ok, err := e.PerformanceTime(qq.Agent, qq.Action, r)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			acting++
			b, err := e.BeliefAtPoint(qq.Fact, qq.Agent, r, t)
			if err != nil {
				return nil, err
			}
			if b.Cmp(qq.P) >= 0 {
				hits++
			}
		}
		return newEstimate(montecarlo.NewEstimateRat(hits, acting, spec.conf), spec, seed), nil

	case ExpectationQuery:
		if err := e.IsProper(qq.Agent, qq.Action); err != nil {
			return nil, err
		}
		sum := new(big.Rat)
		acting := 0
		for k := 0; k < spec.Samples; k++ {
			r := s.SampleRun()
			t, ok, err := e.PerformanceTime(qq.Agent, qq.Action, r)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			acting++
			b, err := e.BeliefAtPoint(qq.Fact, qq.Agent, r, t)
			if err != nil {
				return nil, err
			}
			sum.Add(sum, b)
		}
		var mean *big.Rat
		if acting > 0 {
			mean = sum.Quo(sum, big.NewRat(int64(acting), 1))
		}
		return newEstimate(montecarlo.NewEstimateRatMean(mean, acting, spec.conf), spec, seed), nil
	}
	return nil, fmt.Errorf("query: %s is not approximable", stringOf(q))
}

// newEstimate decorates the rational interval with the provenance the
// wire form carries.
func newEstimate(er montecarlo.EstimateRat, spec ApproxSpec, seed int64) *Estimate {
	est := &Estimate{EstimateRat: er, Samples: spec.Samples, Seed: seed, Delta: ratutil.Copy(spec.Delta)}
	if spec.Eps != nil {
		est.Eps = ratutil.Copy(spec.Eps)
	}
	return est
}

// FlagCICovered is the exact frame's self-check flag: true when the
// exact value lies inside the approx frame's [Lo, Hi] interval. A false
// value is not an error — it is the δ-probability CI miss, surfaced so
// consumers (and the pakrand self-check) can audit the claimed rate.
const FlagCICovered = "ciCovered"

// attachEstimate carries the slot's sampled estimate onto its refined
// exact result and runs the self-check.
func attachEstimate(res *Result, est *Estimate) {
	res.Estimate = est
	if res.Flags == nil {
		res.Flags = make(map[string]bool, 1)
	}
	res.Flags[FlagCICovered] = est.Contains(res.Value)
}
