package core

import (
	"context"
	"fmt"
	"math/big"

	"pak/internal/logic"
	"pak/internal/pps"
)

// Epistemic facts inside the engine. A believes(i, p, φ) or knows(i, φ)
// node inside a scanned fact is a question about the agent's local
// state ℓ at each point: β_i(φ) = µ_T(φ@ℓ | ℓ) (Definition 3.1), and
// K_i(φ) ⇔ occ(ℓ) ⊆ φ@ℓ. The self-contained operators of package
// epistemic answer it by rescanning occ(ℓ) at every run of the outer
// scan. Before a scan, the engine instead rebuilds the fact from its
// spec (logic.FromSpec) with the operators below, which read the same
// memo tables the engine's public queries fill: the belief is computed
// once per (φ, agent, ℓ), and φ@ℓ once per (φ, agent, ℓ).
//
// Beliefs read µ_T, so a fact with believes anywhere in its spec is
// measure-dependent: its extensions live in the per-engine mevents
// table, never in the events table NewSeeded shares. knows reads only
// the occurrence sets, so knows over a label-pure fact stays label-pure.

// factRef is a fact prepared for the memo tables. One SpecOf yields its
// key, whether scans must bind it first, and which table holds it.
type factRef struct {
	f logic.Fact
	// spec is f's structural form; key is spec.Key(). Both are unset
	// when cacheable is false: f contains an opaque predicate (logic.Atom,
	// LocalPred, EnvPred), has no spec, and is never memoized or bound.
	spec      logic.FactSpec
	key       string
	cacheable bool
	// measured: the spec contains believes, so the extensions depend on
	// µ_T and go to the per-engine table.
	measured bool
	// epistemic: the spec contains believes or knows, so a scan binds f
	// before evaluating it.
	epistemic bool
	// b is set when f is already bound: a subfact of a bound node, which
	// nested scans evaluate as is under the outer scan's binding.
	b *binding
}

// refOf prepares f for the memo tables. A prepared fact (a parsed one,
// see logic.Prepare) already holds its spec, key and operator bits, and
// is scanned through the fact it wraps; any other fact derives them
// here, on every call.
func refOf(f logic.Fact) factRef {
	if p, ok := f.(*logic.Prepared); ok {
		spec, _ := p.Spec()
		ref := factRef{f: p.Fact, spec: spec, key: p.Key(), cacheable: true}
		ref.measured, ref.epistemic = p.EpistemicOps()
		return ref
	}
	spec, ok := logic.SpecOf(f)
	if !ok {
		return factRef{f: f}
	}
	ref := factRef{f: f, spec: spec, key: spec.Key(), cacheable: true}
	ref.measured, ref.epistemic = spec.EpistemicOps()
	return ref
}

// binding carries one scan's context into the nested scans of its
// bound nodes and records the first error one of them hits. A bound
// node's Holds can only answer true or false; after an error it answers
// false, and the scan must return the error instead of its result — an
// aborted nested scan is never read as "belief 0". A binding belongs to
// the goroutine running its scan.
type binding struct {
	e   *Engine
	ctx context.Context
	err error
}

// scanFact returns the fact a scan of ref evaluates, and the binding
// whose error the scan checks after each Holds (nil when f has no
// epistemic node).
func (e *Engine) scanFact(ctx context.Context, ref factRef) (logic.Fact, *binding) {
	if ref.b != nil || !ref.epistemic {
		return ref.f, ref.b
	}
	b := &binding{e: e, ctx: ctx}
	f, err := logic.FromSpec(ref.spec, b)
	if err != nil {
		// Unreachable: every spec SpecOf reports rebuilds.
		return ref.f, nil
	}
	return f, b
}

// Bind returns f ready for evaluation at many points of the engine's
// system, with its believes and knows nodes bound to the engine's memo
// tables as the engine's own scans bind them (f itself, unwrapped if
// prepared, when it has none). The sampled estimators of the
// approximate tier evaluate facts this way, so a belief inside a
// sampled fact is computed once per local state, not rescanned at every
// sample. Evaluate the result on one goroutine, and call check after
// each Holds: once a nested scan fails (ctx done), Holds answers false,
// and check reports the failure so that it is never read as a verdict.
func (e *Engine) Bind(ctx context.Context, f logic.Fact) (bound logic.Fact, check func() error) {
	bound, b := e.scanFact(ctx, refOf(f))
	if b == nil {
		return bound, func() error { return nil }
	}
	return bound, func() error { return b.err }
}

// subRef prepares a bound node's subfact, which FromSpec built under b.
func (b *binding) subRef(f logic.Fact, spec *logic.FactSpec) factRef {
	ref := factRef{f: f, key: spec.Key(), cacheable: true}
	ref.measured, ref.epistemic = spec.EpistemicOps()
	if ref.epistemic {
		ref.b = b
	}
	return ref
}

// Believes implements logic.Epistemic.
func (b *binding) Believes(agent string, p *big.Rat, arg logic.Fact, argSpec *logic.FactSpec) logic.Fact {
	a, known := b.e.sys.AgentIndex(agent)
	return &boundBelieves{b: b, agent: agent, a: a, known: known, p: p, arg: b.subRef(arg, argSpec)}
}

// Knows implements logic.Epistemic.
func (b *binding) Knows(agent string, arg logic.Fact, argSpec *logic.FactSpec) logic.Fact {
	a, known := b.e.sys.AgentIndex(agent)
	return &boundKnows{b: b, agent: agent, a: a, known: known, arg: b.subRef(arg, argSpec)}
}

// unknownAgent panics as package epistemic's operators do when a fact
// names an agent the system lacks.
func unknownAgent(sys *pps.System, agent string) {
	panic(fmt.Sprintf("epistemic: unknown agent %q in system %v", agent, sys))
}

// boundBelieves is B_i^p(φ) evaluated through the engine's beliefs memo.
type boundBelieves struct {
	b     *binding
	agent string
	a     pps.AgentID
	known bool
	p     *big.Rat
	arg   factRef
	// at caches the verdict per local state: a scan visits each state
	// many times, and comparing two rationals allocates.
	at map[string]bool
}

func (n *boundBelieves) Holds(sys *pps.System, r pps.RunID, t int) bool {
	if n.b.err != nil {
		return false
	}
	if !n.known {
		unknownAgent(sys, n.agent)
	}
	local := sys.Local(r, t, n.a)
	if v, ok := n.at[local]; ok {
		return v
	}
	bel, err := n.b.e.belief(n.b.ctx, n.arg, n.a, local)
	if err != nil {
		n.b.err = err
		return false
	}
	if n.at == nil {
		n.at = make(map[string]bool)
	}
	v := bel.Cmp(n.p) >= 0
	n.at[local] = v
	return v
}

func (n *boundBelieves) String() string {
	return fmt.Sprintf("B_%s^{%s}(%s)", n.agent, n.p.RatString(), n.arg.f)
}

// boundKnows is K_i(φ) evaluated as occ(ℓ) ⊆ φ@ℓ over the memoized φ@ℓ.
type boundKnows struct {
	b     *binding
	agent string
	a     pps.AgentID
	known bool
	arg   factRef
	at    map[string]bool // verdict per local state, as in boundBelieves
}

func (n *boundKnows) Holds(sys *pps.System, r pps.RunID, t int) bool {
	if n.b.err != nil {
		return false
	}
	if !n.known {
		unknownAgent(sys, n.agent)
	}
	local := sys.Local(r, t, n.a)
	if v, ok := n.at[local]; ok {
		return v
	}
	occ, _, ok := sys.OccursShared(n.a, local)
	if !ok {
		return false
	}
	ev, err := n.b.e.localExt(n.b.ctx, n.arg, n.a, local)
	if err != nil {
		n.b.err = err
		return false
	}
	if n.at == nil {
		n.at = make(map[string]bool)
	}
	v := occ.SubsetOf(ev)
	n.at[local] = v
	return v
}

func (n *boundKnows) String() string { return fmt.Sprintf("K_%s(%s)", n.agent, n.arg.f) }
