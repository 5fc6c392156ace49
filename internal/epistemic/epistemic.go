// Package epistemic turns the paper's belief and knowledge notions into
// facts, closing the loop between the logic and the probability layers:
// Believes(i, p, φ) is itself a fact over the pps, so epistemic operators
// nest — "Alice p-believes that Bob q-believes φ" is an ordinary event
// with a measure, and iterated everyone-believes facts express the
// Monderer–Samet hierarchy syntactically.
//
// Semantics. At a point (r, t) with ℓ = r_i(t), the agent's degree of
// belief in φ is β_i(φ) = µ_T(φ@ℓ | ℓ) (Definition 3.1). Believes(i, p, φ)
// holds at (r, t) iff β_i(φ) ≥ p there; Knows(i, φ) holds iff φ@ℓ is true
// in every run in which ℓ occurs (equivalently β_i(φ) = 1, since the prior
// has full support).
//
// Because belief at a point depends only on the local state, every
// epistemic fact is past-based — hence, by Lemma 4.3(b), local-state
// independent of any proper action of a protocol-generated system. This
// makes nested-belief conditions directly usable in probabilistic
// constraints analyzed by internal/core.
//
// Evaluation here is self-contained (no engine cache): each Holds call
// computes the conditional measure from the system by rescanning the runs
// through the agent's local state. That is the path for engine-free
// callers (the Monte-Carlo sampler, the LP backend, direct Holds calls)
// and the oracle the engine is tested against. When core.Engine scans a
// fact, it does not call these Holds methods: it rebuilds the fact from
// its spec (logic.FromSpec) with operators bound to its own memo tables,
// so β_i(φ) is computed once per local state and K_i(φ) reads the
// memoized φ@ℓ extension. Ops supplies this package's operators to
// logic.FromSpec.
package epistemic

import (
	"fmt"
	"math/big"

	"pak/internal/logic"
	"pak/internal/pps"
	"pak/internal/ratutil"
)

// beliefAt computes β_a(f) at the point (r, t): µ(f@ℓ | ℓ) for ℓ = r_a(t).
func beliefAt(sys *pps.System, a pps.AgentID, f logic.Fact, r pps.RunID, t int) *big.Rat {
	local := sys.Local(r, t, a)
	occ, tm, ok := sys.OccursShared(a, local)
	if !ok {
		// Unreachable for points inside the system; treat as belief 0.
		return ratutil.Zero()
	}
	factAt := sys.NewSet()
	occ.ForEach(func(rr int) bool {
		if f.Holds(sys, pps.RunID(rr), tm) {
			factAt.Add(rr)
		}
		return true
	})
	cond, condOK := sys.Cond(factAt, occ)
	if !condOK {
		return ratutil.Zero()
	}
	return cond
}

func mustAgent(sys *pps.System, name string) pps.AgentID {
	id, ok := sys.AgentIndex(name)
	if !ok {
		panic(fmt.Sprintf("epistemic: unknown agent %q in system %v", name, sys))
	}
	return id
}

// believesFact is B_i^p(φ) as a fact.
type believesFact struct {
	agent string
	p     *big.Rat
	f     logic.Fact
}

func (b believesFact) Holds(sys *pps.System, r pps.RunID, t int) bool {
	bel := beliefAt(sys, mustAgent(sys, b.agent), b.f, r, t)
	return ratutil.Geq(bel, b.p)
}

func (b believesFact) String() string {
	return fmt.Sprintf("B_%s^{%s}(%s)", b.agent, b.p.RatString(), b.f)
}

// Believes returns the fact B_i^p(φ): agent's current degree of belief in
// φ is at least p. p is copied; it must be a probability.
func Believes(agent string, p *big.Rat, f logic.Fact) logic.Fact {
	if p == nil || !ratutil.IsProb(p) {
		panic(fmt.Sprintf("epistemic.Believes: level %v not in [0,1]", p))
	}
	return believesFact{agent: agent, p: ratutil.Copy(p), f: f}
}

// knowsFact is K_i(φ) as a fact.
type knowsFact struct {
	agent string
	f     logic.Fact
}

func (k knowsFact) Holds(sys *pps.System, r pps.RunID, t int) bool {
	a := mustAgent(sys, k.agent)
	local := sys.Local(r, t, a)
	occ, tm, ok := sys.OccursShared(a, local)
	if !ok {
		return false
	}
	known := true
	occ.ForEach(func(rr int) bool {
		if !k.f.Holds(sys, pps.RunID(rr), tm) {
			known = false
			return false
		}
		return true
	})
	return known
}

func (k knowsFact) String() string { return fmt.Sprintf("K_%s(%s)", k.agent, k.f) }

// Knows returns the fact K_i(φ): φ holds at the agent's current time in
// every run consistent with its local state (S5 knowledge).
func Knows(agent string, f logic.Fact) logic.Fact {
	return knowsFact{agent: agent, f: f}
}

// Ops is the logic.Epistemic that builds this package's self-contained
// operators; encode.ParseFact hands it to logic.FromSpec.
type Ops struct{}

// Believes returns Believes(agent, p, arg).
func (Ops) Believes(agent string, p *big.Rat, arg logic.Fact, _ *logic.FactSpec) logic.Fact {
	return Believes(agent, p, arg)
}

// Knows returns Knows(agent, arg).
func (Ops) Knows(agent string, arg logic.Fact, _ *logic.FactSpec) logic.Fact {
	return Knows(agent, arg)
}

// EveryoneBelieves returns E_G^p(φ) = ∧_{i∈G} B_i^p(φ).
func EveryoneBelieves(agents []string, p *big.Rat, f logic.Fact) logic.Fact {
	fs := make([]logic.Fact, len(agents))
	for i, a := range agents {
		fs[i] = Believes(a, p, f)
	}
	return logic.And(fs...)
}

// EveryoneKnows returns E_G(φ) = ∧_{i∈G} K_i(φ).
func EveryoneKnows(agents []string, f logic.Fact) logic.Fact {
	fs := make([]logic.Fact, len(agents))
	for i, a := range agents {
		fs[i] = Knows(a, f)
	}
	return logic.And(fs...)
}

// MutualBelief returns the k-level iterated everyone-believes fact:
// level 1 is E_G^p(φ), level 2 is E_G^p(φ ∧ E_G^p(φ)), and so on. As k
// grows these decrease toward common p-belief (computed as a fixed point
// by internal/commonbelief; the two agree level by level, which the tests
// verify).
func MutualBelief(agents []string, p *big.Rat, f logic.Fact, k int) logic.Fact {
	if k < 1 {
		panic(fmt.Sprintf("epistemic.MutualBelief: level %d < 1", k))
	}
	current := EveryoneBelieves(agents, p, f)
	for i := 1; i < k; i++ {
		current = EveryoneBelieves(agents, p, logic.And(f, current))
	}
	return current
}

// BeliefDegree exposes β_i(φ) at a point for callers that want the exact
// degree rather than a thresholded fact.
func BeliefDegree(sys *pps.System, agent string, f logic.Fact, r pps.RunID, t int) *big.Rat {
	return beliefAt(sys, mustAgent(sys, agent), f, r, t)
}

// Spec reports the structural form of B_i^p(φ) for serialization
// (see logic.Speccer and the internal/encode JSON schema).
func (b believesFact) Spec() (logic.FactSpec, bool) {
	s, ok := logic.SpecOf(b.f)
	if !ok {
		return logic.FactSpec{}, false
	}
	return logic.FactSpec{Op: "believes", Agent: b.agent, P: b.p.RatString(), Arg: &s}, true
}

// Spec reports the structural form of K_i(φ) for serialization.
func (k knowsFact) Spec() (logic.FactSpec, bool) {
	s, ok := logic.SpecOf(k.f)
	if !ok {
		return logic.FactSpec{}, false
	}
	return logic.FactSpec{Op: "knows", Agent: k.agent, Arg: &s}, true
}
