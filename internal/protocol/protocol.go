// Package protocol implements the paper's Section 2.2: probabilistic
// protocols P_i : L_i → ∆(Act_i) for agents and the environment, joint
// protocols, and the bounded unfolding of a joint protocol (together with
// a distribution over initial global states) into a purely probabilistic
// system.
//
// A Model describes a synchronous joint protocol that terminates within a
// bounded number of rounds. At every non-final point each agent chooses an
// action from a distribution determined by its local state (a mixed action
// step when the support has more than one element), the environment
// chooses an action from a distribution determined by the global state and
// the agents' choices (e.g. a message-delivery pattern), and the next
// global state is a deterministic function of all the choices — matching
// the paper's requirement that every tuple of actions performed at a
// global state determines a unique successor.
//
// Unfold enumerates all joint outcomes breadth-first and produces the pps
// T whose runs are exactly the executions of the protocol. Local states
// are automatically prefixed with the current time ("t2|..."), which
// realizes the paper's synchrony assumption (every local state contains
// the variable time_i) without burdening model authors.
package protocol

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"strconv"
	"strings"

	"pak/internal/pps"
	"pak/internal/ratutil"
)

// Sentinel errors returned (wrapped) by Unfold and distribution helpers.
var (
	// ErrBadDist indicates a distribution whose probabilities are not in
	// (0,1] or do not sum to 1.
	ErrBadDist = errors.New("protocol: invalid probability distribution")
	// ErrBadModel indicates a structurally invalid model (no agents, no
	// initial states, non-positive horizon, arity mismatches).
	ErrBadModel = errors.New("protocol: invalid model")
	// ErrTooLarge indicates that unfolding exceeded the node budget.
	ErrTooLarge = errors.New("protocol: unfolded system exceeds node budget")
)

// Weighted pairs a value with a rational probability.
type Weighted[T any] struct {
	Value T
	Pr    *big.Rat
}

// W is a convenience constructor for Weighted values.
func W[T any](v T, pr *big.Rat) Weighted[T] { return Weighted[T]{Value: v, Pr: pr} }

// Det returns the deterministic distribution on a single action.
func Det(action string) []Weighted[string] {
	return []Weighted[string]{{Value: action, Pr: ratutil.One()}}
}

// Mix returns a mixed distribution over the given weighted actions.
func Mix(outcomes ...Weighted[string]) []Weighted[string] { return outcomes }

// ValidateDist checks that the probabilities of dist are in (0,1] and sum
// to exactly 1.
func ValidateDist[T any](dist []Weighted[T]) error {
	if len(dist) == 0 {
		return fmt.Errorf("%w: empty distribution", ErrBadDist)
	}
	for _, w := range dist {
		if w.Pr == nil || !ratutil.IsPositiveProb(w.Pr) {
			return fmt.Errorf("%w: probability %v not in (0,1]", ErrBadDist, w.Pr)
		}
	}
	if !ratutil.SumIsOne(len(dist), func(i int) *big.Rat { return dist[i].Pr }) {
		total := new(big.Rat)
		for _, w := range dist {
			total.Add(total, w.Pr)
		}
		return fmt.Errorf("%w: probabilities sum to %s", ErrBadDist, total.RatString())
	}
	return nil
}

// Global is a global state: an environment component plus one local state
// per agent.
type Global struct {
	Env    string
	Locals []string
}

// Clone returns a deep copy of g.
func (g Global) Clone() Global {
	return Global{Env: g.Env, Locals: append([]string(nil), g.Locals...)}
}

// Model describes a synchronous joint protocol with bounded horizon.
// Implementations must be deterministic functions of their arguments (all
// randomness is expressed through the returned distributions). Returned
// distributions are read-only for both sides: the caller never modifies
// them, and an implementation may hand out the same slice (and the same
// probabilities) on every call, as msgnet's shared pattern tables do.
type Model interface {
	// Agents returns the agent names, fixing the agent indexing.
	Agents() []string
	// Initials returns the distribution over initial global states.
	Initials() []Weighted[Global]
	// AgentStep returns agent i's mixed action at the given (unstamped)
	// local state and time: the protocol function P_i(ℓ_i). Because it
	// is a function of its arguments, callers may memoise it by
	// (agent, local, t); Unfold calls it once per distinct triple.
	AgentStep(agent int, local string, t int) []Weighted[string]
	// EnvStep returns the environment's mixed action at the global state,
	// given the agents' chosen actions (e.g. which messages to deliver).
	EnvStep(g Global, acts []string, t int) []Weighted[string]
	// Next returns the unique successor state determined by the joint
	// action and the environment action.
	Next(g Global, acts []string, envAct string, t int) (Global, error)
	// Horizon returns the number of rounds executed; runs have points
	// 0..Horizon (inclusive), i.e. Horizon transitions.
	Horizon() int
}

// Stamp prefixes a local state with its time ("t2|..."), realizing the
// synchrony assumption. Unfold applies it to every local state it stores.
func Stamp(t int, local string) string { return "t" + strconv.Itoa(t) + "|" + local }

// Unstamp strips the time prefix added by Stamp; it returns the input
// unchanged if no prefix is present.
func Unstamp(stamped string) string {
	if i := strings.Index(stamped, "|"); i >= 0 && strings.HasPrefix(stamped, "t") {
		return stamped[i+1:]
	}
	return stamped
}

// maxNodes bounds the size of unfolded systems to keep mistakes (e.g. an
// accidentally huge horizon) from exhausting memory.
const maxNodes = 2_000_000

// unfoldCtxInterval is the coarse cancellation granularity of the
// breadth-first unfolding: the context is consulted once per this many
// dequeued nodes (and before the first), so small models pay nothing
// while a deadline can cut a runaway unfolding within a bounded amount
// of extra work — the same every-64-items discipline as the engine's
// deep scans.
const unfoldCtxInterval = 64

// Unfold expands the joint protocol into the purely probabilistic system
// containing exactly its executions.
func Unfold(m Model) (*pps.System, error) {
	return UnfoldCtx(context.Background(), m)
}

// UnfoldCtx is Unfold bound to a context: the enumeration checks ctx
// every unfoldCtxInterval dequeued nodes and aborts with an error
// wrapping the context's cause, so a pre-cancelled or expired context
// cuts even a cold unfolding promptly instead of enumerating the whole
// tree first.
func UnfoldCtx(ctx context.Context, m Model) (*pps.System, error) {
	agents := m.Agents()
	if len(agents) == 0 {
		return nil, fmt.Errorf("%w: no agents", ErrBadModel)
	}
	if m.Horizon() <= 0 {
		return nil, fmt.Errorf("%w: horizon %d", ErrBadModel, m.Horizon())
	}
	inits := m.Initials()
	if err := ValidateDist(inits); err != nil {
		return nil, fmt.Errorf("initial distribution: %w", err)
	}

	u := unfolder{m: m, agents: len(agents), locals: make([]string, len(agents))}
	b := pps.NewBuilder(agents...)
	type item struct {
		id pps.NodeID
		g  Global
		t  int
	}
	var queue []item
	for _, init := range inits {
		if len(init.Value.Locals) != len(agents) {
			return nil, fmt.Errorf("%w: initial state has %d locals for %d agents",
				ErrBadModel, len(init.Value.Locals), len(agents))
		}
		id := b.Init(init.Pr, init.Value.Env, u.stampAll(0, init.Value.Locals)...)
		queue = append(queue, item{id, init.Value.Clone(), 0})
	}

	nodes := len(queue)
	dists := make([][]Weighted[string], len(agents))
	var joints []jointChoice
	for dequeued := 0; len(queue) > 0; dequeued++ {
		if dequeued%unfoldCtxInterval == 0 {
			if cause := context.Cause(ctx); cause != nil {
				return nil, fmt.Errorf("protocol: unfold aborted after %d nodes: %w", nodes, cause)
			}
		}
		it := queue[0]
		queue = queue[1:]
		if it.t >= m.Horizon() {
			continue // leaf
		}
		// Enumerate the agents' joint mixed action.
		for a := range agents {
			d, err := u.agentStep(a, it.g.Locals[a], it.t)
			if err != nil {
				return nil, fmt.Errorf("agent %s at t=%d state %q: %w", agents[a], it.t, it.g.Locals[a], err)
			}
			dists[a] = d
		}
		joints = cartesian(joints[:0], dists)
		for _, joint := range joints {
			envDist := m.EnvStep(it.g, joint.acts, it.t)
			if err := ValidateDist(envDist); err != nil {
				return nil, fmt.Errorf("environment at t=%d: %w", it.t, err)
			}
			for _, env := range envDist {
				next, err := m.Next(it.g, joint.acts, env.Value, it.t)
				if err != nil {
					return nil, fmt.Errorf("transition at t=%d: %w", it.t, err)
				}
				if len(next.Locals) != len(agents) {
					return nil, fmt.Errorf("%w: Next returned %d locals for %d agents",
						ErrBadModel, len(next.Locals), len(agents))
				}
				// The builder copies the probability, so a joint action
				// of probability 1 hands over the environment's own.
				pr := env.Pr
				if !ratutil.IsOne(joint.pr) {
					pr = ratutil.Mul(joint.pr, env.Pr)
				}
				id := b.Child(it.id, pps.Step{
					Pr:     pr,
					Acts:   joint.acts,
					EnvAct: env.Value,
					Env:    next.Env,
					Locals: u.stampAll(it.t+1, next.Locals),
				})
				nodes++
				if nodes > maxNodes {
					return nil, fmt.Errorf("%w: more than %d nodes", ErrTooLarge, maxNodes)
				}
				queue = append(queue, item{id, next, it.t + 1})
			}
		}
	}
	sys, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("protocol unfolding produced an invalid system: %w", err)
	}
	return sys, nil
}

// unfolder holds one unfold's memo tables. P_i is a function of the
// local state, so each distinct (agent, t, local) is stepped and
// validated once; each distinct (t, local) is stamped once, and every
// node holding it shares the one string.
type unfolder struct {
	m       Model
	agents  int
	steps   []map[string][]Weighted[string] // by t·agents + agent, then local
	stamped []map[string]string             // by t, then local
	locals  []string                        // stampAll's scratch; the builder copies it
}

// memoAt returns the i-th map of tables, growing tables to reach it.
func memoAt[V any](tables *[]map[string]V, i int) map[string]V {
	for len(*tables) <= i {
		*tables = append(*tables, make(map[string]V))
	}
	return (*tables)[i]
}

// agentStep returns the validated P_agent(local) at time t.
func (u *unfolder) agentStep(agent int, local string, t int) ([]Weighted[string], error) {
	steps := memoAt(&u.steps, t*u.agents+agent)
	if d, ok := steps[local]; ok {
		return d, nil
	}
	d := u.m.AgentStep(agent, local, t)
	if err := ValidateDist(d); err != nil {
		return nil, err
	}
	steps[local] = d
	return d, nil
}

// stampAll stamps every local with time t into the shared scratch slice.
func (u *unfolder) stampAll(t int, locals []string) []string {
	stamped := memoAt(&u.stamped, t)
	for i, l := range locals {
		s, ok := stamped[l]
		if !ok {
			s = Stamp(t, l)
			stamped[l] = s
		}
		u.locals[i] = s
	}
	return u.locals
}

// jointChoice is one element of the cartesian product of agent action
// distributions.
type jointChoice struct {
	acts []string
	pr   *big.Rat
}

// ratOne is the probability of a deterministic joint action. It is
// shared and never modified.
var ratOne = ratutil.One()

// cartesian appends the product of the per-agent distributions to dst.
// Every choice gets a fresh acts slice, since models see it.
func cartesian(dst []jointChoice, dists [][]Weighted[string]) []jointChoice {
	if allDeterministic(dists) {
		acts := make([]string, len(dists))
		for a, dist := range dists {
			acts[a] = dist[0].Value
		}
		return append(dst, jointChoice{acts: acts, pr: ratOne})
	}
	out := []jointChoice{{acts: nil, pr: ratutil.One()}}
	for _, dist := range dists {
		next := make([]jointChoice, 0, len(out)*len(dist))
		for _, partial := range out {
			for _, w := range dist {
				acts := make([]string, len(partial.acts)+1)
				copy(acts, partial.acts)
				acts[len(partial.acts)] = w.Value
				next = append(next, jointChoice{acts: acts, pr: ratutil.Mul(partial.pr, w.Pr)})
			}
		}
		out = next
	}
	return append(dst, out...)
}

// allDeterministic reports whether every distribution has a single
// outcome; a validated one then has probability exactly 1.
func allDeterministic(dists [][]Weighted[string]) bool {
	for _, dist := range dists {
		if len(dist) != 1 {
			return false
		}
	}
	return true
}

// FuncModel adapts plain functions into a Model, for lightweight protocol
// definitions in tests and examples. Step and Trans are required; Env
// defaults to a single empty environment action.
type FuncModel struct {
	// AgentNames fixes the agent indexing.
	AgentNames []string
	// Init is the distribution over initial global states.
	Init []Weighted[Global]
	// Step is the agents' protocol: P_i(ℓ_i) at time t.
	Step func(agent int, local string, t int) []Weighted[string]
	// Env is the environment's protocol; nil means a deterministic empty
	// environment action.
	Env func(g Global, acts []string, t int) []Weighted[string]
	// Trans computes the unique successor state.
	Trans func(g Global, acts []string, envAct string, t int) (Global, error)
	// Bound is the horizon (number of transitions per run).
	Bound int
}

var _ Model = FuncModel{}

// Agents implements Model.
func (f FuncModel) Agents() []string { return f.AgentNames }

// Initials implements Model.
func (f FuncModel) Initials() []Weighted[Global] { return f.Init }

// AgentStep implements Model.
func (f FuncModel) AgentStep(agent int, local string, t int) []Weighted[string] {
	return f.Step(agent, local, t)
}

// EnvStep implements Model.
func (f FuncModel) EnvStep(g Global, acts []string, t int) []Weighted[string] {
	if f.Env == nil {
		return Det("")
	}
	return f.Env(g, acts, t)
}

// Next implements Model.
func (f FuncModel) Next(g Global, acts []string, envAct string, t int) (Global, error) {
	return f.Trans(g, acts, envAct, t)
}

// Horizon implements Model.
func (f FuncModel) Horizon() int { return f.Bound }
