package core

import (
	"context"
	"fmt"
	"math/big"

	"pak/internal/logic"
	"pak/internal/pps"
	"pak/internal/ratutil"
)

// Local-state independence (Definition 4.1): a fact φ is local-state
// independent of a proper action α for agent i if, for every local state
// ℓ_i,
//
//	µ_T(φ@ℓ | ℓ) · µ_T(α@ℓ | ℓ) = µ_T([φ∧α]@ℓ | ℓ).
//
// Intuitively the probability that φ holds when i performs α must not
// depend on which runs through ℓ happen to perform α. It is the hypothesis
// of Theorems 4.2, 6.2 and 7.1, and fails exactly in mixed-action
// pathologies such as the paper's Figure 1.

// IndependenceViolation records one local state at which Definition 4.1
// fails, with both sides of the defining equation.
type IndependenceViolation struct {
	// Local is the offending local state ℓ.
	Local string
	// Product is µ(φ@ℓ|ℓ) · µ(α@ℓ|ℓ).
	Product *big.Rat
	// Joint is µ([φ∧α]@ℓ|ℓ).
	Joint *big.Rat
}

// String renders the violation for reports.
func (v IndependenceViolation) String() string {
	return fmt.Sprintf("at ℓ=%q: µ(φ@ℓ|ℓ)·µ(α@ℓ|ℓ) = %s ≠ %s = µ([φ∧α]@ℓ|ℓ)",
		v.Local, v.Product.RatString(), v.Joint.RatString())
}

// IndependenceReport is the result of checking Definition 4.1.
type IndependenceReport struct {
	// Independent is true when the defining equation holds at every local
	// state of the agent.
	Independent bool
	// Violations lists the local states at which it fails.
	Violations []IndependenceViolation
}

// String summarizes the report.
func (r IndependenceReport) String() string {
	if r.Independent {
		return "local-state independent"
	}
	return fmt.Sprintf("NOT local-state independent (%d violations; first: %s)",
		len(r.Violations), r.Violations[0])
}

// LocalStateIndependence checks Definition 4.1 for the given fact, agent
// and proper action, examining every local state of the agent that occurs
// in the system. (States at which α is never performed satisfy the
// equation trivially, both sides being 0, but are checked anyway.) The
// scan touches every local state, so it is the costliest shared step of
// the theorem checkers; reports are memoized per (φ, agent, α) and the
// returned copy is safe to retain.
func (e *Engine) LocalStateIndependence(f logic.Fact, agent, action string) (IndependenceReport, error) {
	return e.LocalStateIndependenceCtx(context.Background(), f, agent, action)
}

// indepCtxInterval is the coarse cancellation granularity of the
// engine's deep scans — the independence scan (once per this many local
// states) and the fact-extension scans in belief.go (once per this many
// runs): the check's cost is invisible on small systems while a deep
// scan inside one envelope assignment can still be cut at the deadline
// within a bounded amount of extra work (the ROADMAP's "finer
// cancellation", first slice).
const indepCtxInterval = 64

// LocalStateIndependenceCtx is LocalStateIndependence bound to a
// context: the Definition 4.1 scan checks ctx every indepCtxInterval
// local states and aborts with the context's cause once it is done. An
// aborted scan is never memoized (the memo evicts context aborts), so a
// later caller with a live context recomputes the report rather than
// inheriting another request's deadline.
func (e *Engine) LocalStateIndependenceCtx(ctx context.Context, f logic.Fact, agent, action string) (IndependenceReport, error) {
	return e.independence(ctx, refOf(f), agent, action)
}

// independence is LocalStateIndependenceCtx for a prepared fact.
func (e *Engine) independence(ctx context.Context, ref factRef, agent, action string) (IndependenceReport, error) {
	a, _, err := e.properFor(agent, action)
	if err != nil {
		return IndependenceReport{}, err
	}
	var report IndependenceReport
	if ref.cacheable {
		key := eventKey{fact: ref.key, agent: a, kind: eventIndep, at: action}
		report, err = e.indeps.getCtx(ctx, key, func() (IndependenceReport, error) {
			return e.localStateIndependence(ctx, ref, a, action)
		})
	} else {
		report, err = e.localStateIndependence(ctx, ref, a, action)
	}
	if err != nil {
		return IndependenceReport{}, err
	}
	// Hand out a copy of the violations slice so callers may append or
	// sort without corrupting the cache.
	report.Violations = append([]IndependenceViolation(nil), report.Violations...)
	return report, nil
}

// localStateIndependence performs the actual Definition 4.1 scan,
// incrementally over precomputed indexes rather than O(states × runs)
// per call:
//
//   - α@ℓ comes straight from the perf index's atLocal occurrence map
//     (one performance scan per (agent, action), ever) — local states at
//     which α is never performed satisfy the equation with both sides
//     exactly 0 and are settled without evaluating the fact at all;
//   - φ@ℓ is the memoized fact-extension scan (localExt), shared with
//     the belief queries and — through seeded engines (NewSeeded) — with
//     neighbouring sweep assignments;
//   - [φ∧α]@ℓ is a bitset intersection of the two.
//
// Violation order (LocalStates' sorted enumeration) and the
// every-indepCtxInterval cancellation checks are preserved exactly.
func (e *Engine) localStateIndependence(ctx context.Context, ref factRef, a pps.AgentID, action string) (IndependenceReport, error) {
	report := IndependenceReport{Independent: true}
	info := e.perfFor(a, action)
	for n, local := range e.sys.LocalStates(a) {
		if n%indepCtxInterval == indepCtxInterval-1 {
			if cause := abortCause(ctx); cause != nil {
				return IndependenceReport{}, fmt.Errorf("core: independence scan aborted after %d local states: %w", n, cause)
			}
		}
		actAt := info.atLocal[local]
		if actAt == nil {
			// α is never performed at ℓ: µ(α@ℓ|ℓ) and µ([φ∧α]@ℓ|ℓ) are
			// both exactly 0, so Definition 4.1 holds at ℓ trivially.
			continue
		}
		occ, _, ok := e.sys.OccursShared(a, local)
		if !ok {
			continue // unreachable: LocalStates only lists occurring states
		}
		factAt, err := e.localExt(ctx, ref, a, local) // φ@ℓ (shared cache entry)
		if err != nil {
			return IndependenceReport{}, err
		}
		// Both sides via fused kernel conditionals: no [φ∧α]@ℓ intermediate
		// set, integer numerator sums, one reduction per quantity.
		pFact, okF := e.sys.Cond(factAt, occ)
		pAct, okA := e.sys.Cond(actAt, occ)
		pJoint, okJ := e.sys.CondIntersect(factAt, actAt, occ)
		if !okF || !okA || !okJ {
			continue // unreachable in a valid pps: µ(ℓ) > 0
		}
		product := ratutil.Mul(pFact, pAct)
		if !ratutil.Eq(product, pJoint) {
			report.Independent = false
			report.Violations = append(report.Violations, IndependenceViolation{
				Local:   local,
				Product: product,
				Joint:   pJoint,
			})
		}
	}
	return report, nil
}

// IndependenceWitness classifies why local-state independence holds, per
// the sufficient conditions of Lemma 4.3.
type IndependenceWitness struct {
	// Deterministic is true when the action is deterministic for the agent
	// (condition (a) of Lemma 4.3).
	Deterministic bool
	// PastBased is true when the fact is past-based in the system
	// (condition (b) of Lemma 4.3).
	PastBased bool
	// Independent is the directly checked Definition 4.1.
	Independent bool
}

// Lemma43Consistent reports whether the witness is consistent with
// Lemma 4.3: if either sufficient condition holds, independence must hold.
func (w IndependenceWitness) Lemma43Consistent() bool {
	if w.Deterministic || w.PastBased {
		return w.Independent
	}
	return true // lemma is silent when neither condition holds
}

// ExplainIndependence evaluates both sufficient conditions of Lemma 4.3
// alongside the direct Definition 4.1 check.
func (e *Engine) ExplainIndependence(f logic.Fact, agent, action string) (IndependenceWitness, error) {
	return e.ExplainIndependenceCtx(context.Background(), f, agent, action)
}

// ExplainIndependenceCtx is ExplainIndependence bound to ctx: the
// Definition 4.1 scan (see LocalStateIndependenceCtx) and the
// past-based scan both stop with the context's cause once it is done.
func (e *Engine) ExplainIndependenceCtx(ctx context.Context, f logic.Fact, agent, action string) (IndependenceWitness, error) {
	det, err := e.IsDeterministicAction(agent, action)
	if err != nil {
		return IndependenceWitness{}, err
	}
	ref := refOf(f)
	report, err := e.independence(ctx, ref, agent, action)
	if err != nil {
		return IndependenceWitness{}, err
	}
	past, err := e.pastBased(ctx, ref)
	if err != nil {
		return IndependenceWitness{}, err
	}
	return IndependenceWitness{
		Deterministic: det,
		PastBased:     past,
		Independent:   report.Independent,
	}, nil
}

// pastBased is logic.IsPastBased for a prepared fact, memoized per fact
// key in the engine's pasts table: the verdict is a pure function of
// (system, fact), and without the memo every independence query
// rescans every point. The scan evaluates the fact with its epistemic
// nodes bound to the engine's memo tables, checks ctx every
// indepCtxInterval runs, and never memoizes an abort.
func (e *Engine) pastBased(ctx context.Context, ref factRef) (bool, error) {
	compute := func() (bool, error) {
		f, b := e.scanFact(ctx, ref)
		past, err := logic.IsPastBasedCtx(ctx, e.sys, f, indepCtxInterval)
		if b != nil && b.err != nil {
			return false, b.err
		}
		if err != nil {
			return false, fmt.Errorf("core: past-based scan aborted: %w", abortCause(ctx))
		}
		return past, nil
	}
	if !ref.cacheable {
		return compute()
	}
	return e.pasts.getCtx(ctx, ref.key, compute)
}
