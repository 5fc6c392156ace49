// Package pps implements the paper's model of a finite purely probabilistic
// system (Section 2.1): a finite labelled directed tree T = (V, E, π) whose
// non-root nodes carry global states and whose edges carry transition
// probabilities in (0, 1] that sum to 1 at every internal node.
//
// The root λ exists only to define a distribution over the initial global
// states (its children). Every path from a child of the root to a leaf is a
// run; the prior probability µ_T of a run is the product of the edge
// probabilities along it, and the induced probability space is
// X_T = (R_T, 2^{R_T}, µ_T), with every subset of runs measurable.
//
// A global state is a tuple (ℓ_e, ℓ_1, ..., ℓ_n) of an environment state
// and one local state per agent. Following the paper we restrict attention
// to synchronous systems: every local state implicitly contains the current
// time, which we enforce structurally by rejecting systems in which the
// same local-state string appears at two different times (for the same
// agent). Consequently a given local state occurs at most once in any run,
// which is what makes the belief notation φ@ℓ_i well defined (Section 3).
//
// Actions are recorded on edges, mirroring the paper's convention that the
// environment's history component records which agent performed which
// action at which time: the fact does_i(α) holds at point (r, t) exactly if
// the edge from r(t) to r(t+1) records α for agent i.
//
// All probabilities are exact rationals (*math/big.Rat).
package pps

import (
	"errors"
	"fmt"
	"math/big"
	"slices"
	"sort"
	"strings"
	"sync"

	"pak/internal/ratutil"
	"pak/internal/runset"
)

// NodeID identifies a node of the tree. The root λ is node 0; it carries no
// global state.
type NodeID int

// Root is the NodeID of the distinguished root node λ.
const Root NodeID = 0

// RunID identifies a run (a root-child-to-leaf path), in the order runs
// were completed during Build (leftmost leaf first).
type RunID int

// AgentID indexes an agent within a system, in the order agents were given
// to NewBuilder.
type AgentID int

// Sentinel errors returned (wrapped) by Builder.Build and Builder methods.
var (
	// ErrNoInitial indicates the tree has no initial global states.
	ErrNoInitial = errors.New("pps: system has no initial global states")
	// ErrBadProb indicates an edge probability outside (0, 1].
	ErrBadProb = errors.New("pps: edge probability must be in (0,1]")
	// ErrProbSum indicates a node whose outgoing probabilities do not sum to 1.
	ErrProbSum = errors.New("pps: outgoing edge probabilities do not sum to 1")
	// ErrArity indicates a locals or acts slice whose length does not match
	// the number of agents.
	ErrArity = errors.New("pps: locals/acts arity does not match agent count")
	// ErrSynchrony indicates a local state that appears at two different
	// times, violating the synchrony assumption.
	ErrSynchrony = errors.New("pps: local state appears at two different times")
	// ErrBadParent indicates a Child call with an unknown or root parent in
	// an invalid position.
	ErrBadParent = errors.New("pps: invalid parent node")
	// ErrNoAgents indicates a builder constructed with no agents.
	ErrNoAgents = errors.New("pps: system must have at least one agent")
	// ErrDuplicateAgent indicates two agents with the same name.
	ErrDuplicateAgent = errors.New("pps: duplicate agent name")
)

// node is the internal representation of a tree node.
type node struct {
	parent   NodeID
	pr       *big.Rat // probability of the edge from parent; nil for the root
	children []NodeID
	depth    int // root = 0; a node at depth d corresponds to time d-1
	env      string
	locals   []string // one per agent; nil for the root
	acts     []string // actions performed at the parent state; nil for depth <= 1
	envAct   string   // environment action taken at the parent state
}

// localKey identifies a local state of a particular agent.
type localKey struct {
	agent AgentID
	local string
}

// occInfo records where a local state occurs: the set of runs containing it
// and the unique time at which it appears (unique by synchrony).
type occInfo struct {
	set  *runset.Set
	time int
}

// System is an immutable, validated purely probabilistic system. Create one
// with a Builder. All methods are safe for concurrent use.
type System struct {
	agents   []string
	agentIdx map[string]AgentID
	nodes    []node
	runs     [][]NodeID // runs[r][t] = node of run r at time t
	runPr    []*big.Rat
	occ      map[localKey]occInfo
	maxTime  int

	// kernelOnce/kernel lazily cache the exact-arithmetic measure kernel:
	// the shared-denominator integer view of runPr that Measure, Cond and
	// the fused set-measure ops sum over (see measure.go).
	kernelOnce sync.Once
	kernel     *measureKernel

	// shapeOnce/shapeSig lazily cache the canonical shape signature that
	// SameShape compares (see shape.go).
	shapeOnce sync.Once
	shapeSig  string
}

// Step describes one child of an existing node: the transition probability,
// the joint action that produced it, and the new global state.
type Step struct {
	// Pr is the transition probability, required to be in (0, 1].
	Pr *big.Rat
	// Acts holds the action performed by each agent at the parent state,
	// indexed like the builder's agent list.
	Acts []string
	// EnvAct is the action taken by the environment at the parent state
	// (e.g. a message-delivery pattern). It may be empty.
	EnvAct string
	// Env is the environment component of the new global state.
	Env string
	// Locals holds the new local state of each agent.
	Locals []string
}

// Builder incrementally constructs a System. Errors encountered during
// construction are sticky: the first error is remembered and returned by
// Build, so construction code can chain calls without per-call checks.
type Builder struct {
	agents []string
	nodes  []node
	err    error

	// Nodes are immutable once added, so equal values share one copy:
	// prs holds the edge probabilities seen so far whose numerator and
	// denominator fit an int64, and lastActs is the previous node's acts
	// copy, which siblings of one joint action reuse.
	prs      map[[2]int64]*big.Rat
	lastActs []string
}

// NewBuilder returns a Builder for a system over the given agents. Agent
// names must be non-empty and distinct.
func NewBuilder(agents ...string) *Builder {
	b := &Builder{nodes: []node{{parent: -1, depth: 0}}}
	if len(agents) == 0 {
		b.fail(fmt.Errorf("%w", ErrNoAgents))
		return b
	}
	seen := make(map[string]bool, len(agents))
	for _, a := range agents {
		if a == "" {
			b.fail(fmt.Errorf("%w: empty agent name", ErrDuplicateAgent))
			return b
		}
		if seen[a] {
			b.fail(fmt.Errorf("%w: %q", ErrDuplicateAgent, a))
			return b
		}
		seen[a] = true
	}
	b.agents = append([]string(nil), agents...)
	return b
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Err returns the first construction error, if any.
func (b *Builder) Err() error { return b.err }

// Init adds an initial global state (a child of the root λ) chosen with
// probability pr, and returns its NodeID.
func (b *Builder) Init(pr *big.Rat, env string, locals ...string) NodeID {
	return b.addChild(Root, Step{Pr: pr, Env: env, Locals: locals})
}

// Child adds a successor of parent described by s and returns its NodeID.
// The parent must be an existing non-root node (use Init for children of
// the root).
func (b *Builder) Child(parent NodeID, s Step) NodeID {
	if parent == Root {
		b.fail(fmt.Errorf("%w: use Init for children of the root", ErrBadParent))
		return -1
	}
	return b.addChild(parent, s)
}

func (b *Builder) addChild(parent NodeID, s Step) NodeID {
	if b.err != nil {
		return -1
	}
	if parent < 0 || int(parent) >= len(b.nodes) {
		b.fail(fmt.Errorf("%w: node %d does not exist", ErrBadParent, parent))
		return -1
	}
	if s.Pr == nil || !ratutil.IsPositiveProb(s.Pr) {
		b.fail(fmt.Errorf("%w: got %v (parent %d)", ErrBadProb, s.Pr, parent))
		return -1
	}
	if len(s.Locals) != len(b.agents) {
		b.fail(fmt.Errorf("%w: %d locals for %d agents", ErrArity, len(s.Locals), len(b.agents)))
		return -1
	}
	depth := b.nodes[parent].depth + 1
	var acts []string
	if depth >= 2 {
		if len(s.Acts) != len(b.agents) {
			b.fail(fmt.Errorf("%w: %d acts for %d agents", ErrArity, len(s.Acts), len(b.agents)))
			return -1
		}
		if !slices.Equal(s.Acts, b.lastActs) {
			b.lastActs = append([]string(nil), s.Acts...)
		}
		acts = b.lastActs
	} else if len(s.Acts) != 0 {
		b.fail(fmt.Errorf("%w: initial states cannot record actions", ErrArity))
		return -1
	}
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, node{
		parent: parent,
		pr:     b.sharedPr(s.Pr),
		depth:  depth,
		env:    s.Env,
		locals: append([]string(nil), s.Locals...),
		acts:   acts,
		envAct: s.EnvAct,
	})
	b.nodes[parent].children = append(b.nodes[parent].children, id)
	return id
}

// sharedPr returns an immutable copy of pr, shared with every earlier
// node of equal probability when its numerator and denominator fit an
// int64.
func (b *Builder) sharedPr(pr *big.Rat) *big.Rat {
	num, den := pr.Num(), pr.Denom()
	if !num.IsInt64() || !den.IsInt64() {
		return ratutil.Copy(pr)
	}
	key := [2]int64{num.Int64(), den.Int64()}
	c, ok := b.prs[key]
	if !ok {
		if b.prs == nil {
			b.prs = make(map[[2]int64]*big.Rat)
		}
		c = ratutil.Copy(pr)
		b.prs[key] = c
	}
	return c
}

// Build validates the tree and returns the immutable System. The builder
// must not be reused afterwards.
func (b *Builder) Build() (*System, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.nodes[Root].children) == 0 {
		return nil, ErrNoInitial
	}
	// Outgoing probabilities at every internal node (including the root)
	// must sum to exactly 1.
	for id, n := range b.nodes {
		if len(n.children) == 0 {
			continue
		}
		if !ratutil.SumIsOne(len(n.children), func(i int) *big.Rat { return b.nodes[n.children[i]].pr }) {
			total := new(big.Rat)
			for _, c := range n.children {
				total.Add(total, b.nodes[c].pr)
			}
			return nil, fmt.Errorf("%w: node %d sums to %s", ErrProbSum, id, total.RatString())
		}
	}

	sys := &System{
		agents:   b.agents,
		agentIdx: make(map[string]AgentID, len(b.agents)),
		nodes:    b.nodes,
	}
	for i, a := range b.agents {
		sys.agentIdx[a] = AgentID(i)
	}

	// One depth-first traversal (leftmost leaf first) enumerates the runs,
	// computes their probabilities and builds the local-state occurrence
	// index. The first pass sizes it: a run per leaf, a point per node on
	// its path.
	nRuns, nPoints := 0, 0
	for _, n := range sys.nodes[1:] {
		if len(n.children) == 0 {
			nRuns++
			nPoints += n.depth
		}
	}
	sys.runs = make([][]NodeID, 0, nRuns)
	sys.runPr = make([]*big.Rat, 0, nRuns)
	sys.occ = make(map[localKey]occInfo)
	points := make([]NodeID, 0, nPoints) // backs every run's path
	var path []NodeID
	var onPath []*runset.Set // occurrence sets of the path's locals, by depth then agent
	// visit carries the cumulative product of the edge probabilities down
	// the tree: each node pays at most one Mul, and an edge of probability
	// 1 shares its parent's product (µ_T values are never modified). It
	// checks synchrony — every local-state string at a single time — as it
	// first meets each node; preorder is the order in which a run-by-run
	// scan first meets them, so the first conflict reported is that scan's.
	var visit func(id NodeID, pr *big.Rat) error
	visit = func(id NodeID, pr *big.Rat) error {
		n := &sys.nodes[id]
		t := n.depth - 1
		if !ratutil.IsOne(n.pr) {
			pr = ratutil.Mul(pr, n.pr)
		}
		path = append(path, id)
		for a, local := range n.locals {
			key := localKey{AgentID(a), local}
			info, seen := sys.occ[key]
			if !seen {
				info = occInfo{set: runset.New(nRuns), time: t}
				sys.occ[key] = info
			} else if info.time != t {
				return fmt.Errorf("%w: agent %q state %q at times %d and %d",
					ErrSynchrony, sys.agents[a], local, info.time, t)
			}
			onPath = append(onPath, info.set)
		}
		if len(n.children) == 0 {
			r := len(sys.runs)
			start := len(points)
			points = append(points, path...)
			sys.runs = append(sys.runs, points[start:len(points):len(points)])
			sys.runPr = append(sys.runPr, pr)
			sys.maxTime = max(sys.maxTime, t)
			for _, set := range onPath {
				set.Add(r)
			}
		}
		for _, c := range n.children {
			if err := visit(c, pr); err != nil {
				return err
			}
		}
		path = path[:len(path)-1]
		onPath = onPath[:len(onPath)-len(n.locals)]
		return nil
	}
	one := ratutil.One()
	for _, c := range sys.nodes[Root].children {
		if err := visit(c, one); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// Agents returns a copy of the agent names in index order.
func (s *System) Agents() []string { return append([]string(nil), s.agents...) }

// NumAgents returns the number of agents.
func (s *System) NumAgents() int { return len(s.agents) }

// AgentName returns the name of agent a.
func (s *System) AgentName(a AgentID) string { return s.agents[a] }

// AgentIndex resolves an agent name to its AgentID.
func (s *System) AgentIndex(name string) (AgentID, bool) {
	id, ok := s.agentIdx[name]
	return id, ok
}

// NumRuns returns |R_T|.
func (s *System) NumRuns() int { return len(s.runs) }

// NumNodes returns the number of tree nodes, including the root λ.
func (s *System) NumNodes() int { return len(s.nodes) }

// MaxTime returns the largest time index of any point in the system (i.e.
// the depth of the deepest leaf minus one).
func (s *System) MaxTime() int { return s.maxTime }

// RunLen returns the number of global states of run r (its points are
// times 0 .. RunLen(r)-1).
func (s *System) RunLen(r RunID) int { return len(s.runs[r]) }

// NodeAt returns the tree node of run r at time t. Two runs share a node
// exactly when they agree up to time t, which is the paper's notion used to
// define past-based facts.
func (s *System) NodeAt(r RunID, t int) NodeID { return s.runs[r][t] }

// RunProb returns µ_T(r) as a fresh rational.
func (s *System) RunProb(r RunID) *big.Rat { return ratutil.Copy(s.runPr[r]) }

// Env returns the environment state of run r at time t.
func (s *System) Env(r RunID, t int) string { return s.nodes[s.runs[r][t]].env }

// Local returns agent a's local state in run r at time t.
func (s *System) Local(r RunID, t int, a AgentID) string {
	return s.nodes[s.runs[r][t]].locals[a]
}

// Action returns the action performed by agent a at time t of run r, if
// any: does_a(α) holds at (r, t) exactly when Action(r, t, a) = (α, true).
// The second result is false when t is the final point of the run.
func (s *System) Action(r RunID, t int, a AgentID) (string, bool) {
	if t+1 >= len(s.runs[r]) {
		return "", false
	}
	return s.nodes[s.runs[r][t+1]].acts[a], true
}

// EnvAction returns the environment action taken at time t of run r, if
// any. The second result is false when t is the final point of the run.
func (s *System) EnvAction(r RunID, t int) (string, bool) {
	if t+1 >= len(s.runs[r]) {
		return "", false
	}
	return s.nodes[s.runs[r][t+1]].envAct, true
}

// NewSet returns an empty event (set of runs) over this system's runs.
func (s *System) NewSet() *runset.Set { return runset.New(len(s.runs)) }

// FullSet returns the event R_T containing every run.
func (s *System) FullSet() *runset.Set { return runset.Full(len(s.runs)) }

// RunsWhere returns the event of all runs satisfying pred.
func (s *System) RunsWhere(pred func(r RunID) bool) *runset.Set {
	set := s.NewSet()
	for r := range s.runs {
		if pred(RunID(r)) {
			set.Add(r)
		}
	}
	return set
}

// Occurs reports where agent a's local state ℓ occurs: the event of runs
// containing it and the unique time at which it appears. ok is false if the
// state never occurs in the system.
func (s *System) Occurs(a AgentID, local string) (ev *runset.Set, time int, ok bool) {
	info, found := s.occ[localKey{a, local}]
	if !found {
		return nil, 0, false
	}
	return info.set.Clone(), info.time, true
}

// OccursShared is Occurs without the defensive clone: the returned set
// is the system's own occurrence index and MUST NOT be mutated. It
// exists for engine-internal read paths (belief conditioning, the
// Definition 4.1 scan, sampling-time lookups) that only iterate or
// intersect the event; public callers keep the clone-on-return Occurs.
func (s *System) OccursShared(a AgentID, local string) (ev *runset.Set, time int, ok bool) {
	info, found := s.occ[localKey{a, local}]
	if !found {
		return nil, 0, false
	}
	return info.set, info.time, true
}

// RunProbShared is RunProb without the defensive copy: the returned
// rational is the system's own µ_T(r) and MUST NOT be mutated. For
// engine-internal folds that only read the value (big.Rat arithmetic
// never mutates its operands); public callers keep RunProb.
func (s *System) RunProbShared(r RunID) *big.Rat { return s.runPr[r] }

// LocalStates returns all local states of agent a that occur anywhere in
// the system, sorted lexicographically.
func (s *System) LocalStates(a AgentID) []string {
	var out []string
	for key := range s.occ {
		if key.agent == a {
			out = append(out, key.local)
		}
	}
	sort.Strings(out)
	return out
}

// TotalMeasure returns µ_T(R_T); it equals 1 in every valid system and is
// exposed for validation and property tests.
func (s *System) TotalMeasure() *big.Rat { return s.Measure(s.FullSet()) }

// String returns a short human-readable summary of the system.
func (s *System) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pps{agents=%v, nodes=%d, runs=%d, maxTime=%d}",
		s.agents, len(s.nodes)-1, len(s.runs), s.maxTime)
	return b.String()
}
