// Package montecarlo provides a sampling-based estimator for purely
// probabilistic systems and protocols, cross-validating the exact rational
// engine: sampled frequencies of events, constraint probabilities and
// belief thresholds converge to the exact values computed by internal/core.
//
// The paper's evaluation is analytic; this package supplies the
// "empirical" counterpart a systems reader expects: estimates carry
// Hoeffding confidence radii, and the test suite (plus experiment E7 in
// the benchmark harness) verifies that the exact values always fall within
// the confidence interval.
//
// All sampling is deterministic given the seed.
//
// Radii are exact rational upper bounds (rational.go). Their costly
// part, the upper bound on ln(2/δ), is computed by a Confidence, at most
// once per Confidence: the query layer builds one per request when it
// normalizes the request's approx spec (query.ApproxSpec), and every
// estimate of that request reads it; the float tier below shares one
// for its fixed δ = 1/100. RadiusRat and SampleSize remain the
// uncached, self-contained forms.
package montecarlo

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"

	"pak/internal/pps"
	"pak/internal/protocol"
	"pak/internal/ratutil"
)

// Sentinel errors returned (wrapped) by this package.
var (
	// ErrNoSamples indicates a request for an estimate from zero samples.
	ErrNoSamples = errors.New("montecarlo: sample count must be positive")
	// ErrNoHits indicates a conditional estimate whose conditioning event
	// was never sampled.
	ErrNoHits = errors.New("montecarlo: conditioning event never occurred in the sample")
)

// Estimate is a sampled probability with its sample size and a Hoeffding
// confidence radius at 99% confidence.
type Estimate struct {
	// P is the point estimate (a frequency).
	P float64
	// N is the number of samples behind the estimate.
	N int
	// Radius is the 99%-confidence Hoeffding radius: with probability at
	// least 0.99 the true value lies within [P-Radius, P+Radius].
	Radius float64
}

// Contains reports whether the exact value v lies within the confidence
// interval.
func (e Estimate) Contains(v float64) bool {
	return v >= e.P-e.Radius && v <= e.P+e.Radius
}

// String renders the estimate.
func (e Estimate) String() string {
	return fmt.Sprintf("%.6f ±%.6f (n=%d)", e.P, e.Radius, e.N)
}

// delta99 is the fixed confidence parameter of the float-radius tier:
// every Estimate carries a 99% interval (δ = 1/100); conf99 derives its
// ln(2/δ) bound once for all of them.
var (
	delta99 = big.NewRat(1, 100)
	conf99  = NewConfidence(delta99)
)

// hoeffdingRadius returns the two-sided 99% Hoeffding radius for n
// samples as the float64 view of the exact rational bound
// RadiusRat(n, 1/100) — NOT a parallel math.Sqrt/math.Log computation.
// Routing the float through the rational keeps the two tiers in
// lockstep: the rational errs only upward, and its 2^-30-dyadic form is
// exactly representable in float64, so the float radius is itself a
// strict upper bound on sqrt(ln(200)/(2n)) and the interval never
// under-covers (pinned by TestRadiusNeverUnderCovers).
func hoeffdingRadius(n int) float64 {
	f, _ := conf99.Radius(n).Float64()
	return f
}

// Sampler draws runs from a pps according to µ_T. A Sampler is a seeded
// cursor over an immutable Model: the rng is the only mutable state, so
// Samplers are cheap and single-goroutine while the Model underneath is
// freely shared.
type Sampler struct {
	model *Model
	sys   *pps.System
	rng   *rand.Rand
}

// NewSampler returns a Sampler over sys seeded deterministically. It
// builds a private Model; callers sampling one system repeatedly (or
// concurrently) should build the Model once and derive Samplers from it.
func NewSampler(sys *pps.System, seed int64) *Sampler {
	return NewModel(sys).Sampler(seed)
}

// next draws one child of the internal node according to its
// transition probabilities.
func (s *Sampler) next(node pps.NodeID) pps.NodeID {
	cum := s.model.cum[node]
	x := s.rng.Float64() * cum[len(cum)-1]
	idx := 0
	for idx < len(cum)-1 && x > cum[idx] {
		idx++
	}
	return s.sys.ChildrenShared(node)[idx]
}

// SampleNodePath draws one root-to-leaf node path according to the tree's
// transition probabilities.
func (s *Sampler) SampleNodePath() []pps.NodeID {
	var path []pps.NodeID
	for node := pps.Root; !s.sys.IsLeaf(node); {
		node = s.next(node)
		path = append(path, node)
	}
	return path
}

// SampleRun draws one run (as a RunID) according to µ_T. It makes the
// draws SampleNodePath makes, without recording the path.
func (s *Sampler) SampleRun() pps.RunID {
	node := pps.Root
	for !s.sys.IsLeaf(node) {
		node = s.next(node)
	}
	return s.model.leafRun[node]
}

// EstimateEvent estimates µ_T of the event defined by pred over n samples.
func (s *Sampler) EstimateEvent(pred func(r pps.RunID) bool, n int) (Estimate, error) {
	if n <= 0 {
		return Estimate{}, ErrNoSamples
	}
	hits := 0
	for k := 0; k < n; k++ {
		if pred(s.SampleRun()) {
			hits++
		}
	}
	return Estimate{P: float64(hits) / float64(n), N: n, Radius: hoeffdingRadius(n)}, nil
}

// EstimateConditional estimates µ_T(a | b) over n samples of the prior,
// counting only samples falling in b.
func (s *Sampler) EstimateConditional(a, b func(r pps.RunID) bool, n int) (Estimate, error) {
	if n <= 0 {
		return Estimate{}, ErrNoSamples
	}
	hitsA, hitsB := 0, 0
	for k := 0; k < n; k++ {
		r := s.SampleRun()
		if !b(r) {
			continue
		}
		hitsB++
		if a(r) {
			hitsA++
		}
	}
	if hitsB == 0 {
		return Estimate{}, ErrNoHits
	}
	return Estimate{P: float64(hitsA) / float64(hitsB), N: hitsB, Radius: hoeffdingRadius(hitsB)}, nil
}

// ProtocolSampler simulates a protocol.Model directly, without unfolding
// it into a pps first. This scales to horizons whose trees would be too
// large to enumerate, trading exactness for sampling.
type ProtocolSampler struct {
	m   protocol.Model
	rng *rand.Rand
}

// NewProtocolSampler returns a sampler for m seeded deterministically.
func NewProtocolSampler(m protocol.Model, seed int64) *ProtocolSampler {
	return &ProtocolSampler{m: m, rng: rand.New(rand.NewSource(seed))}
}

// Trace is one simulated execution of a protocol: the global state at
// every time and the actions chosen at every step.
type Trace struct {
	// States[t] is the global state at time t, 0 ≤ t ≤ Horizon.
	States []protocol.Global
	// Acts[t] are the agents' actions at time t, 0 ≤ t < Horizon.
	Acts [][]string
	// EnvActs[t] is the environment action at time t.
	EnvActs []string
}

// pick draws from a weighted distribution.
func pick[T any](rng *rand.Rand, dist []protocol.Weighted[T]) T {
	x := rng.Float64()
	acc := 0.0
	for _, w := range dist {
		acc += ratutil.Float(w.Pr)
		if x <= acc {
			return w.Value
		}
	}
	return dist[len(dist)-1].Value
}

// Sample simulates one execution of the protocol.
func (ps *ProtocolSampler) Sample() (Trace, error) {
	g := pick(ps.rng, ps.m.Initials()).Clone()
	trace := Trace{States: []protocol.Global{g.Clone()}}
	agents := ps.m.Agents()
	for t := 0; t < ps.m.Horizon(); t++ {
		acts := make([]string, len(agents))
		for a := range agents {
			dist := ps.m.AgentStep(a, g.Locals[a], t)
			if err := protocol.ValidateDist(dist); err != nil {
				return Trace{}, fmt.Errorf("agent %s at t=%d: %w", agents[a], t, err)
			}
			acts[a] = pick(ps.rng, dist)
		}
		envDist := ps.m.EnvStep(g, acts, t)
		if err := protocol.ValidateDist(envDist); err != nil {
			return Trace{}, fmt.Errorf("environment at t=%d: %w", t, err)
		}
		envAct := pick(ps.rng, envDist)
		next, err := ps.m.Next(g, acts, envAct, t)
		if err != nil {
			return Trace{}, fmt.Errorf("transition at t=%d: %w", t, err)
		}
		trace.Acts = append(trace.Acts, acts)
		trace.EnvActs = append(trace.EnvActs, envAct)
		trace.States = append(trace.States, next.Clone())
		g = next
	}
	return trace, nil
}

// EstimateTrace estimates the probability that pred holds of a simulated
// execution, over n independent simulations.
func (ps *ProtocolSampler) EstimateTrace(pred func(Trace) bool, n int) (Estimate, error) {
	if n <= 0 {
		return Estimate{}, ErrNoSamples
	}
	hits := 0
	for k := 0; k < n; k++ {
		tr, err := ps.Sample()
		if err != nil {
			return Estimate{}, err
		}
		if pred(tr) {
			hits++
		}
	}
	return Estimate{P: float64(hits) / float64(n), N: n, Radius: hoeffdingRadius(n)}, nil
}

// EstimateTraceConditional estimates P(a | b) over simulated executions.
func (ps *ProtocolSampler) EstimateTraceConditional(a, b func(Trace) bool, n int) (Estimate, error) {
	if n <= 0 {
		return Estimate{}, ErrNoSamples
	}
	hitsA, hitsB := 0, 0
	for k := 0; k < n; k++ {
		tr, err := ps.Sample()
		if err != nil {
			return Estimate{}, err
		}
		if !b(tr) {
			continue
		}
		hitsB++
		if a(tr) {
			hitsA++
		}
	}
	if hitsB == 0 {
		return Estimate{}, ErrNoHits
	}
	return Estimate{P: float64(hitsA) / float64(hitsB), N: hitsB, Radius: hoeffdingRadius(hitsB)}, nil
}
