package core

import (
	"context"
	"fmt"
	"math/big"

	"pak/internal/logic"
	"pak/internal/pps"
	"pak/internal/ratutil"
	"pak/internal/runset"
)

// Belief queries (Section 3 of the paper). The agent's subjective
// probabilistic belief is the posterior obtained by conditioning the prior
// µ_T on the agent's local state: β_i(φ) at (r, t) is µ_T(φ@ℓ | ℓ) for
// ℓ = r_i(t). Since synchrony makes a local state occur at most once per
// run, φ@ℓ ("φ holds when i is in state ℓ in the current run") is a
// well-defined fact about runs and corresponds to a measurable event.

// FactAtLocal returns the event φ@ℓ: the runs in which agent's local state
// equals local at some point (necessarily a unique time) and φ holds at
// that point. Extensions are memoized per (φ, agent, ℓ); the returned set
// is a private copy the caller may mutate.
func (e *Engine) FactAtLocal(f logic.Fact, agent, local string) (*runset.Set, error) {
	return e.FactAtLocalCtx(context.Background(), f, agent, local)
}

// FactAtLocalCtx is FactAtLocal bound to a context: the scan over the
// runs through ℓ checks ctx every indepCtxInterval runs and aborts with
// the context's cause, so a deadline cuts even one long extension scan
// instead of letting it run to completion. An aborted scan is never
// memoized (the memo evicts context aborts), so a later caller with a
// live context recomputes the extension.
func (e *Engine) FactAtLocalCtx(ctx context.Context, f logic.Fact, agent, local string) (*runset.Set, error) {
	a, err := e.agent(agent)
	if err != nil {
		return nil, err
	}
	ev, err := e.localExt(ctx, refOf(f), a, local)
	if err != nil {
		return nil, err
	}
	return ev.Clone(), nil
}

// localExt is FactAtLocalCtx for a prepared fact, without the defensive
// clone; the returned set may be the shared cache entry and must not be
// mutated.
func (e *Engine) localExt(ctx context.Context, ref factRef, a pps.AgentID, local string) (*runset.Set, error) {
	compute := func() (*runset.Set, error) {
		occ, tm, ok := e.sys.OccursShared(a, local)
		if !ok {
			return nil, fmt.Errorf("%w: agent %q state %q", ErrUnknownLocal, e.sys.AgentName(a), local)
		}
		return e.scan(ctx, ref, occ, func(int) int { return tm }, "φ@ℓ")
	}
	if !ref.cacheable {
		return compute()
	}
	return e.extensions(ref).getCtx(ctx, eventKey{fact: ref.key, agent: a, kind: eventAtLocal, at: local}, compute)
}

// scan is the fact-extension scan: the runs r of over at which the fact
// holds at time at(r). It binds the fact's epistemic nodes first (see
// bind.go), checks ctx every indepCtxInterval runs, and aborts with the
// context's cause, or with the first error a nested scan hit.
func (e *Engine) scan(ctx context.Context, ref factRef, over *runset.Set, at func(r int) int, what string) (*runset.Set, error) {
	f, b := e.scanFact(ctx, ref)
	ev := e.sys.NewSet()
	n := 0
	var cause error
	over.ForEach(func(r int) bool {
		if n%indepCtxInterval == indepCtxInterval-1 {
			if cause = abortCause(ctx); cause != nil {
				return false
			}
		}
		n++
		if f.Holds(e.sys, pps.RunID(r), at(r)) {
			ev.Add(r)
		}
		return b == nil || b.err == nil
	})
	if b != nil && b.err != nil {
		return nil, b.err
	}
	if cause != nil {
		return nil, fmt.Errorf("core: %s scan aborted after %d runs: %w", what, n, cause)
	}
	return ev, nil
}

// extensions is the table holding ref's extensions: the shared,
// label-pure events table, or the per-engine mevents table when the
// fact contains believes and so depends on µ_T.
func (e *Engine) extensions(ref factRef) *memo[eventKey, *runset.Set] {
	if ref.measured {
		return e.mevents
	}
	return e.events
}

// belief is β_i(φ) at ℓ for a prepared fact: the memoized µ_T(φ@ℓ | ℓ),
// shared with the cache and not to be mutated.
func (e *Engine) belief(ctx context.Context, ref factRef, a pps.AgentID, local string) (*big.Rat, error) {
	compute := func() (*big.Rat, error) {
		occ, _, ok := e.sys.OccursShared(a, local)
		if !ok {
			return nil, fmt.Errorf("%w: agent %q state %q", ErrUnknownLocal, e.sys.AgentName(a), local)
		}
		ev, err := e.localExt(ctx, ref, a, local)
		if err != nil {
			return nil, err
		}
		// Fused kernel conditional: φ@ℓ ∩ ℓ is never materialized.
		cond, condOK := e.sys.Cond(ev, occ)
		if !condOK {
			// Unreachable in a valid pps: every occurring local state has
			// positive measure because all runs do.
			return nil, fmt.Errorf("%w: state %q has zero measure", ErrUnknownLocal, local)
		}
		return cond, nil
	}
	if !ref.cacheable {
		return compute()
	}
	return e.beliefs.getCtx(ctx, beliefKey{fact: ref.key, agent: a, local: local}, compute)
}

// Belief returns β_i(φ) at local state ℓ: µ_T(φ@ℓ | ℓ) (Definition 3.1).
// The belief is a property of the local state alone — it is the same at
// every point where the agent is in state ℓ.
func (e *Engine) Belief(f logic.Fact, agent, local string) (*big.Rat, error) {
	a, err := e.agent(agent)
	if err != nil {
		return nil, err
	}
	bel, err := e.belief(context.Background(), refOf(f), a, local)
	if err != nil {
		return nil, err
	}
	// Return a private copy: callers are free to mutate their result.
	return ratutil.Copy(bel), nil
}

// BeliefAtPoint returns β_i(φ) at the point (r, t): the belief at the
// agent's local state there.
func (e *Engine) BeliefAtPoint(f logic.Fact, agent string, r pps.RunID, t int) (*big.Rat, error) {
	a, err := e.agent(agent)
	if err != nil {
		return nil, err
	}
	if r < 0 || int(r) >= e.sys.NumRuns() || t < 0 || t >= e.sys.RunLen(r) {
		return nil, fmt.Errorf("%w: (%d, %d)", ErrBadPoint, r, t)
	}
	return e.Belief(f, agent, e.sys.Local(r, t, a))
}

// Knows reports whether agent knows φ at (r, t) in the S5 sense of the
// interpreted-systems framework: φ@ℓ holds in every run in which the
// agent's current local state ℓ occurs. In a pps the prior has full
// support, so K_i(φ) coincides with β_i(φ) = 1.
func (e *Engine) Knows(f logic.Fact, agent string, r pps.RunID, t int) (bool, error) {
	return e.KnowsCtx(context.Background(), f, agent, r, t)
}

// KnowsCtx is Knows bound to a context. It routes through the memoized
// factAtLocal path — K_i(φ) at ℓ holds exactly when the extension φ@ℓ
// covers every run through ℓ, i.e. occ ⊆ ev — so repeated knowledge
// queries at the same state (the Lemma F.1 checker asks once per acting
// run) share one extension scan instead of rescanning f.Holds per call,
// and a dead context cuts a long scan with the same
// every-indepCtxInterval-runs discipline as FactAtLocalCtx.
func (e *Engine) KnowsCtx(ctx context.Context, f logic.Fact, agent string, r pps.RunID, t int) (bool, error) {
	a, err := e.agent(agent)
	if err != nil {
		return false, err
	}
	if r < 0 || int(r) >= e.sys.NumRuns() || t < 0 || t >= e.sys.RunLen(r) {
		return false, fmt.Errorf("%w: (%d, %d)", ErrBadPoint, r, t)
	}
	local := e.sys.Local(r, t, a)
	occ, _, ok := e.sys.OccursShared(a, local)
	if !ok {
		// Unreachable: the point (r, t) exhibits the state.
		return false, fmt.Errorf("%w: agent %q state %q", ErrUnknownLocal, agent, local)
	}
	ev, err := e.localExt(ctx, refOf(f), a, local)
	if err != nil {
		return false, err
	}
	return occ.SubsetOf(ev), nil
}

// FactAtAction returns the event φ@α: the runs in which agent performs
// the proper action α, and φ holds at the (unique) point of performance
// (Section 3.1).
func (e *Engine) FactAtAction(f logic.Fact, agent, action string) (*runset.Set, error) {
	return e.FactAtActionCtx(context.Background(), f, agent, action)
}

// FactAtActionCtx is FactAtAction bound to a context, with the same
// every-indepCtxInterval-runs cancellation discipline (and the same
// no-memoized-aborts guarantee) as FactAtLocalCtx.
func (e *Engine) FactAtActionCtx(ctx context.Context, f logic.Fact, agent, action string) (*runset.Set, error) {
	a, info, err := e.properFor(agent, action)
	if err != nil {
		return nil, err
	}
	ev, err := e.actionExt(ctx, refOf(f), a, info, action)
	if err != nil {
		return nil, err
	}
	return ev.Clone(), nil
}

// actionExt is FactAtActionCtx for a prepared fact and a resolved
// proper action, without the defensive clone; the returned set may be
// the shared cache entry and must not be mutated.
func (e *Engine) actionExt(ctx context.Context, ref factRef, a pps.AgentID, info *perfInfo, action string) (*runset.Set, error) {
	compute := func() (*runset.Set, error) {
		return e.scan(ctx, ref, info.set, func(r int) int { return info.times[r] }, "φ@α")
	}
	if !ref.cacheable {
		return compute()
	}
	return e.extensions(ref).getCtx(ctx, eventKey{fact: ref.key, agent: a, kind: eventAtAction, at: action}, compute)
}

// ConstraintProb returns µ_T(φ@α | α), the left-hand side of a
// probabilistic constraint µ_T(φ@α | α) ≥ p (Definition 3.2).
func (e *Engine) ConstraintProb(f logic.Fact, agent, action string) (*big.Rat, error) {
	a, info, err := e.properFor(agent, action)
	if err != nil {
		return nil, err
	}
	ev, err := e.actionExt(context.Background(), refOf(f), a, info, action)
	if err != nil {
		return nil, err
	}
	cond, ok := e.sys.Cond(ev, info.set)
	if !ok {
		return nil, fmt.Errorf("%w: %s never performs %q", ErrNotProper, agent, action)
	}
	return cond, nil
}

// BeliefAtAction returns the run-indexed random variable (β_i(φ)@α)[r]:
// the agent's degree of belief in φ at the point where it performs α in
// run r, and 0 (by the paper's convention) for runs in which α is not
// performed. The action must be proper.
func (e *Engine) BeliefAtAction(f logic.Fact, agent, action string) ([]*big.Rat, error) {
	a, info, err := e.properFor(agent, action)
	if err != nil {
		return nil, err
	}
	// β depends only on the local state, so compute once per ℓ ∈ L_i[α].
	ref := refOf(f)
	byLocal := make(map[string]*big.Rat, len(info.locals))
	for _, local := range info.locals {
		bel, belErr := e.belief(context.Background(), ref, a, local)
		if belErr != nil {
			return nil, belErr
		}
		byLocal[local] = bel
	}
	out := make([]*big.Rat, e.sys.NumRuns())
	for r := range out {
		t := info.times[r]
		if t < 0 {
			out[r] = ratutil.Zero()
			continue
		}
		out[r] = ratutil.Copy(byLocal[e.sys.Local(pps.RunID(r), t, a)])
	}
	return out, nil
}

// ExpectedBelief returns E_µT(β_i(φ)@α | α), the expected degree of the
// agent's belief in φ when it performs α, conditioned on α being performed
// (Definition 6.1). The fold groups by acting local state — β is constant
// on each α@ℓ cell, so E[β@α|α] = Σ_ℓ β_ℓ · µ(α@ℓ) / µ(α) — which prices
// it at one kernel measure per acting state instead of one rational
// multiply-add per run. Exactness makes the regrouping invisible: the
// sum is the same rational either way.
func (e *Engine) ExpectedBelief(f logic.Fact, agent, action string) (*big.Rat, error) {
	a, info, err := e.properFor(agent, action)
	if err != nil {
		return nil, err
	}
	ref := refOf(f)
	total, term := new(big.Rat), new(big.Rat)
	for _, local := range info.locals {
		bel, belErr := e.belief(context.Background(), ref, a, local)
		if belErr != nil {
			return nil, belErr
		}
		total.Add(total, term.Mul(bel, e.sys.Measure(info.atLocal[local])))
	}
	mAlpha := e.sys.Measure(info.set)
	return total.Quo(total, mAlpha), nil
}

// BeliefThresholdEvent returns the event {r ∈ R_α : (β_i(φ)@α)[r] ≥ p}.
// The acting runs partition by acting local state and β is constant per
// state, so the event is the union of the α@ℓ cells whose belief meets
// the threshold — one comparison per acting state, not per run.
func (e *Engine) BeliefThresholdEvent(f logic.Fact, agent, action string, p *big.Rat) (*runset.Set, error) {
	a, info, err := e.properFor(agent, action)
	if err != nil {
		return nil, err
	}
	ref := refOf(f)
	ev := e.sys.NewSet()
	for _, local := range info.locals {
		bel, belErr := e.belief(context.Background(), ref, a, local)
		if belErr != nil {
			return nil, belErr
		}
		if ratutil.Geq(bel, p) {
			ev.UnionWith(info.atLocal[local])
		}
	}
	return ev, nil
}

// ThresholdMeasure returns µ_T(β_i(φ)@α ≥ p | α): the probability,
// conditioned on α being performed, that the agent's belief meets the
// threshold p when it acts.
func (e *Engine) ThresholdMeasure(f logic.Fact, agent, action string, p *big.Rat) (*big.Rat, error) {
	_, info, err := e.properFor(agent, action)
	if err != nil {
		return nil, err
	}
	ev, err := e.BeliefThresholdEvent(f, agent, action, p)
	if err != nil {
		return nil, err
	}
	cond, ok := e.sys.Cond(ev, info.set)
	if !ok {
		return nil, fmt.Errorf("%w: %s never performs %q", ErrNotProper, agent, action)
	}
	return cond, nil
}

// BeliefRangeAtAction returns the minimum and maximum of β_i(φ) over the
// points at which agent performs the proper action α.
func (e *Engine) BeliefRangeAtAction(f logic.Fact, agent, action string) (min, max *big.Rat, err error) {
	a, info, err := e.properFor(agent, action)
	if err != nil {
		return nil, nil, err
	}
	ref := refOf(f)
	for _, local := range info.locals {
		bel, belErr := e.belief(context.Background(), ref, a, local)
		if belErr != nil {
			return nil, nil, belErr
		}
		if min == nil || ratutil.Less(bel, min) {
			min = ratutil.Copy(bel)
		}
		if max == nil || ratutil.Greater(bel, max) {
			max = ratutil.Copy(bel)
		}
	}
	return min, max, nil
}

// BeliefByActionState returns β_i(φ) for each local state in L_i[α],
// keyed by the local state. This is the agent's "information states when
// acting" view used throughout the paper's examples (e.g. Alice's three
// states {Yes, No, silence} in Example 1).
func (e *Engine) BeliefByActionState(f logic.Fact, agent, action string) (map[string]*big.Rat, error) {
	a, info, err := e.properFor(agent, action)
	if err != nil {
		return nil, err
	}
	ref := refOf(f)
	out := make(map[string]*big.Rat, len(info.locals))
	for _, local := range info.locals {
		bel, belErr := e.belief(context.Background(), ref, a, local)
		if belErr != nil {
			return nil, belErr
		}
		out[local] = ratutil.Copy(bel)
	}
	return out, nil
}
