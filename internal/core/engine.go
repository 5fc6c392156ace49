// Package core implements the paper's belief calculus and its main
// results, Sections 3-7: subjective probabilistic beliefs β_i(φ), the
// φ@ℓ_i and φ@α notations, proper actions, local-state independence
// (Definition 4.1), the expected degree of belief (Definition 6.1), and
// machine checkers for Theorem 4.2, Lemma 4.3, Lemma 5.1, Theorem 6.2,
// Theorem 7.1, Corollary 7.2 and Lemma F.1 (the probabilistic Knowledge of
// Preconditions principle).
//
// The central type is Engine, a query layer bound to a single validated
// pps. All quantities are computed exactly over *big.Rat: the engine is an
// exact epistemic-probabilistic model checker, so the paper's numeric
// claims (0.99, 0.991, (p-ε)/(1-ε), ...) are reproduced as rational
// identities rather than floating-point approximations.
package core

import (
	"errors"
	"fmt"
	"math/big"
	"sort"
	"sync"

	"pak/internal/pps"
	"pak/internal/runset"
)

// Sentinel errors returned (wrapped) by Engine methods.
var (
	// ErrUnknownAgent indicates an agent name that does not exist in the
	// system.
	ErrUnknownAgent = errors.New("core: unknown agent")
	// ErrUnknownLocal indicates a local state that never occurs in the
	// system (β_i is undefined there: µ_T(ℓ_i) would be 0).
	ErrUnknownLocal = errors.New("core: local state does not occur in the system")
	// ErrNotProper indicates an action that is not proper for the agent:
	// either it is never performed, or some run performs it more than once
	// (Section 3.1 requires at least once in T, at most once per run).
	ErrNotProper = errors.New("core: action is not proper")
	// ErrBadPoint indicates a (run, time) pair outside the system.
	ErrBadPoint = errors.New("core: point out of range")
)

// actKey identifies an (agent, action) pair for the engine's caches.
type actKey struct {
	agent  pps.AgentID
	action string
}

// perfInfo caches where an action is performed.
type perfInfo struct {
	// times[r] is the time at which the agent performs the action in run
	// r, or -1 if it does not.
	times []int
	// set is R_α, the event of runs in which the action is performed.
	set *runset.Set
	// multiple is true if some run performs the action more than once
	// (in which case the action is not proper and times records the first
	// occurrence).
	multiple bool
	// locals is L_i[α]: the local states at which the action is ever
	// performed, sorted.
	locals []string
	// atLocal indexes set by the local state at the performance point:
	// atLocal[ℓ] is the event of runs performing the action AT ℓ (the
	// runs of set whose performance-time local state is ℓ). It is the
	// occurrence index the Definition 4.1 scan folds over instead of
	// re-deciding does_i(α) per (state, run); locals are exactly its
	// keys. Shared cache entries: treat the sets as immutable.
	atLocal map[string]*runset.Set
	// detOnce/det lazily hold IsDeterministicAction's verdict. Like the
	// rest of the entry it reads only labels, so seeded engines share it.
	detOnce sync.Once
	det     bool
}

// eventKind distinguishes the two cached fact-extension shapes.
type eventKind byte

const (
	// eventAtLocal caches φ@ℓ extensions; at is the local state.
	eventAtLocal eventKind = 'l'
	// eventAtAction caches φ@α extensions; at is the action name.
	eventAtAction eventKind = 'a'
	// eventIndep caches Definition 4.1 reports; at is the action name.
	eventIndep eventKind = 'i'
)

// eventKey identifies a cached fact extension. Facts are keyed by the
// unambiguous rendering of their structural spec (logic.FactSpec.Key),
// under which distinct facts never render equal (display strings can:
// does_a(b(c) is both Does("a(b","c") and Does("a","b(c")). Facts
// containing opaque predicates (logic.Atom, LocalPred, EnvPred) have no
// structural spec, and a display name need not identify the closure, so
// they are never cached (see refOf).
type eventKey struct {
	fact  string
	agent pps.AgentID
	kind  eventKind
	at    string
}

// beliefKey identifies a cached belief β_i(φ) at a local state.
type beliefKey struct {
	fact  string
	agent pps.AgentID
	local string
}

// Engine answers belief and constraint queries over a single pps. It is
// safe for concurrent use, and it memoizes shared work behind
// singleflight-style caches: the per-(agent, action) performance index,
// the fact extensions φ@ℓ and φ@α, the beliefs β_i(φ) at each local
// state, the Definition 4.1 reports and the past-based verdicts.
// Epistemic subfacts of a scanned fact read the same caches (see
// bind.go). Concurrent batches (see internal/query.EvalBatch) therefore
// share work instead of recomputing it, and distinct cache keys are
// computed in parallel rather than serialized behind one lock.
type Engine struct {
	sys *pps.System

	// The memo tables are held by pointer so that engines over
	// SameShape-equal systems can share the measure-independent ones
	// live (see NewSeeded): perf and events are pure functions of the
	// label shape, while mevents (the extensions of facts containing
	// believes), beliefs and indeps depend on µ_T and are always
	// per-engine. So is pasts, Lemma 4.3(b)'s verdict per fact key: it
	// reads which runs share a tree node, which SameShape does not
	// compare (and a believes fact's verdict reads µ_T as well).
	perf    *memo[actKey, *perfInfo]
	events  *memo[eventKey, *runset.Set]
	mevents *memo[eventKey, *runset.Set]
	beliefs *memo[beliefKey, *big.Rat]
	indeps  *memo[eventKey, IndependenceReport]
	pasts   *memo[string, bool]
}

// New returns an Engine bound to sys with fresh memo tables.
func New(sys *pps.System) *Engine {
	return &Engine{
		sys:     sys,
		perf:    &memo[actKey, *perfInfo]{},
		events:  &memo[eventKey, *runset.Set]{},
		mevents: &memo[eventKey, *runset.Set]{},
		beliefs: &memo[beliefKey, *big.Rat]{},
		indeps:  &memo[eventKey, IndependenceReport]{},
		pasts:   &memo[string, bool]{},
	}
}

// NewSeeded returns an Engine bound to sys that shares its
// measure-independent memoization with neighbour — the structure-sharing
// constructor for sweep families, whose assignments differ only in
// adversary weights.
//
// The soundness line, precisely: an entry of the perf table (where an
// action is performed, and at which local states) is a pure function of
// the system's LABELS — the per-(run, time) env/locals/acts/envAct
// tuples and the run lengths. So is an entry of the events table, the
// fact-extension sets φ@ℓ and φ@α of label-pure facts. The rule: a fact
// is label-pure unless its spec contains believes. Every other operator
// reads only labels, and knows reads only the occurrence sets, which
// the labels fix (the prior has full support). A belief reads µ_T, so
// the extensions of a fact containing believes go to the mevents table
// instead. Opaque predicates are never cached (see refOf).
// pps.SameShape compares exactly the labels, so when it holds, both
// engines would compute bit-identical entries for every shared key, and
// the two tables are shared LIVE: whichever engine scans first, the
// other inherits the entry, in either order and concurrently. The
// mevents, beliefs and indeps tables condition on µ_T — the one thing
// SameShape deliberately ignores — so they are always fresh, and so is
// the pasts table (see Engine).
//
// shared reports whether sharing engaged; it is false (and the engine
// is simply New(sys)) when neighbour is nil or the shapes differ, so
// callers can seed opportunistically and count what stuck.
func NewSeeded(sys *pps.System, neighbour *Engine) (e *Engine, shared bool) {
	if neighbour == nil || !pps.SameShape(sys, neighbour.sys) {
		return New(sys), false
	}
	return &Engine{
		sys:     sys,
		perf:    neighbour.perf,
		events:  neighbour.events,
		mevents: &memo[eventKey, *runset.Set]{},
		beliefs: &memo[beliefKey, *big.Rat]{},
		indeps:  &memo[eventKey, IndependenceReport]{},
		pasts:   &memo[string, bool]{},
	}, true
}

// CacheStats reports the engine's memoization sizes: the number of cached
// (agent, action) performance indexes, fact extensions (label-pure and
// measure-dependent together), and beliefs. It is exposed for tests,
// diagnostics and capacity planning.
func (e *Engine) CacheStats() (perf, events, beliefs int) {
	return e.perf.len(), e.events.len() + e.mevents.len(), e.beliefs.len()
}

// System returns the underlying system.
func (e *Engine) System() *pps.System { return e.sys }

// agent resolves an agent name.
func (e *Engine) agent(name string) (pps.AgentID, error) {
	id, ok := e.sys.AgentIndex(name)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownAgent, name)
	}
	return id, nil
}

// perfFor computes (and caches) where agent a performs action. The cached
// perfInfo is shared and must be treated as immutable by callers.
func (e *Engine) perfFor(a pps.AgentID, action string) *perfInfo {
	info, _ := e.perf.get(actKey{a, action}, func() (*perfInfo, error) {
		info := &perfInfo{
			times:   make([]int, e.sys.NumRuns()),
			set:     e.sys.NewSet(),
			atLocal: make(map[string]*runset.Set),
		}
		for r := 0; r < e.sys.NumRuns(); r++ {
			run := pps.RunID(r)
			info.times[r] = -1
			for t := 0; t < e.sys.RunLen(run); t++ {
				act, ok := e.sys.Action(run, t, a)
				if !ok || act != action {
					continue
				}
				if info.times[r] >= 0 {
					info.multiple = true
					continue
				}
				info.times[r] = t
				info.set.Add(r)
				local := e.sys.Local(run, t, a)
				at, seen := info.atLocal[local]
				if !seen {
					at = e.sys.NewSet()
					info.atLocal[local] = at
				}
				at.Add(r)
			}
		}
		info.locals = make([]string, 0, len(info.atLocal))
		for l := range info.atLocal {
			info.locals = append(info.locals, l)
		}
		sort.Strings(info.locals)
		return info, nil
	})
	return info
}

// IsProper reports whether action is a proper action for agent in the
// system: performed at least once in T, and at most once in every run
// (Section 3.1). A nil error means proper.
func (e *Engine) IsProper(agent, action string) error {
	a, err := e.agent(agent)
	if err != nil {
		return err
	}
	info := e.perfFor(a, action)
	if info.set.IsEmpty() {
		return fmt.Errorf("%w: %s never performs %q", ErrNotProper, agent, action)
	}
	if info.multiple {
		return fmt.Errorf("%w: %s performs %q more than once in some run", ErrNotProper, agent, action)
	}
	return nil
}

// properFor resolves agent and requires the action to be proper.
func (e *Engine) properFor(agent, action string) (pps.AgentID, *perfInfo, error) {
	a, err := e.agent(agent)
	if err != nil {
		return 0, nil, err
	}
	info := e.perfFor(a, action)
	if info.set.IsEmpty() {
		return 0, nil, fmt.Errorf("%w: %s never performs %q", ErrNotProper, agent, action)
	}
	if info.multiple {
		return 0, nil, fmt.Errorf("%w: %s performs %q more than once in some run", ErrNotProper, agent, action)
	}
	return a, info, nil
}

// PerformedSet returns R_α: the event of runs in which agent performs
// action (at least once). The action need not be proper.
func (e *Engine) PerformedSet(agent, action string) (*runset.Set, error) {
	a, err := e.agent(agent)
	if err != nil {
		return nil, err
	}
	return e.perfFor(a, action).set.Clone(), nil
}

// PerformanceTime returns the time at which agent performs action in run
// r, with ok=false if it does not. For improper actions that repeat, the
// first occurrence is reported.
func (e *Engine) PerformanceTime(agent, action string, r pps.RunID) (time int, ok bool, err error) {
	a, err := e.agent(agent)
	if err != nil {
		return 0, false, err
	}
	if r < 0 || int(r) >= e.sys.NumRuns() {
		return 0, false, fmt.Errorf("%w: run %d", ErrBadPoint, r)
	}
	t := e.perfFor(a, action).times[r]
	if t < 0 {
		return 0, false, nil
	}
	return t, true, nil
}

// ActionStates returns L_i[α], the set of local states at which agent ever
// performs action, sorted lexicographically. The action must be proper.
func (e *Engine) ActionStates(agent, action string) ([]string, error) {
	_, info, err := e.properFor(agent, action)
	if err != nil {
		return nil, err
	}
	return append([]string(nil), info.locals...), nil
}

// IsDeterministicAction reports whether action is a deterministic action
// for agent in the system: does_i(α) is a function of i's local state,
// i.e. at every local state the agent either performs α in all runs
// through it or in none (Section 4).
func (e *Engine) IsDeterministicAction(agent, action string) (bool, error) {
	a, err := e.agent(agent)
	if err != nil {
		return false, err
	}
	info := e.perfFor(a, action)
	info.detOnce.Do(func() { info.det = e.deterministic(a, action, info) })
	return info.det, nil
}

// deterministic computes IsDeterministicAction's verdict once per perf
// entry: at each local state where the agent performs the action, the
// runs through it that perform the action there must be all or none.
func (e *Engine) deterministic(a pps.AgentID, action string, info *perfInfo) bool {
	for _, local := range info.locals {
		occ, tm, ok := e.sys.OccursShared(a, local)
		if !ok {
			continue // unreachable: locals come from occurrences
		}
		performed := 0
		occ.ForEach(func(r int) bool {
			if act, ok := e.sys.Action(pps.RunID(r), tm, a); ok && act == action {
				performed++
			}
			return true
		})
		if performed != 0 && performed != occ.Count() {
			return false
		}
	}
	return true
}
