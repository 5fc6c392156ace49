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
	"math/bits"
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

// node is the internal representation of a tree node. A node's local
// states, recorded actions and children live in flat per-system arrays
// (System.locals, System.acts, System.kids), not in per-node slices.
// Its indexes are int32: at 56 bytes a node, 2^31 nodes would take
// 120 GB, and the protocol unfold stops far below that.
type node struct {
	parent int32 // the parent's NodeID; -1 for the root
	depth  int32 // root = 0; a node at depth d corresponds to time d-1
	// acts locates the actions the agents performed at the parent state:
	// System.acts[acts : acts+n] for n agents; -1 for depth <= 1.
	// Siblings of one joint action share one entry.
	acts   int32
	pr     *big.Rat // probability of the edge from parent; nil for the root
	env    string
	envAct string // environment action taken at the parent state
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
//
// Storage is sized exactly to the tree and keeps none of the builder's
// growth slack: the nodes, their local states (locals), their recorded
// joint actions (acts) and their child lists (kids) are flat arrays,
// every run's path is a sub-slice of one array of points, and the
// word-sized run probabilities share one array of big.Rat.
type System struct {
	agents   []string
	agentIdx map[string]AgentID
	nodes    []node
	// locals holds node id's local states at locals[(id-1)*n : id*n],
	// for n agents; the root λ has none.
	locals []string
	// acts holds the recorded joint actions the nodes point into.
	acts []string
	// kids holds node id's children at kids[kidsAt[id]:kidsAt[id+1]], in
	// creation order.
	kids    []NodeID
	kidsAt  []int
	runs    [][]NodeID // runs[r][t] = node of run r at time t
	runPr   []*big.Rat
	occ     map[localKey]occInfo
	maxTime int

	// kernelOnce/kernel lazily cache the exact-arithmetic measure kernel:
	// the shared-denominator integer view of runPr that Measure, Cond and
	// the fused set-measure ops sum over (see measure.go). runWords is
	// Build's reduced machine-word form of every µ_T(r), {num, den}, kept
	// only while the kernel does not exist yet (nil when some run
	// product left the word tier); the kernel's construction consumes it.
	kernelOnce sync.Once
	kernel     *measureKernel
	runWords   [][2]uint64
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
	nodes  blocks[node]
	locals blocks[string] // every non-root node's local states, in node order
	acts   blocks[string] // the recorded joint actions, one entry per run of equal ones
	err    error

	// Nodes are immutable once added, so equal values share one copy:
	// prs holds the edge probabilities seen so far whose numerator and
	// denominator fit an int64, and lastActs is the offset of the last
	// joint action stored, which siblings of one joint action reuse
	// (-1 before any).
	prs      map[[2]int64]*big.Rat
	lastActs int32
}

// NewBuilder returns a Builder for a system over the given agents. Agent
// names must be non-empty and distinct.
func NewBuilder(agents ...string) *Builder {
	b := &Builder{lastActs: -1}
	b.nodes.add(node{parent: -1, depth: 0, acts: -1})
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
	if parent < 0 || int(parent) >= b.nodes.n {
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
	depth := b.nodes.at(int(parent)).depth + 1
	acts := int32(-1)
	if depth >= 2 {
		if len(s.Acts) != len(b.agents) {
			b.fail(fmt.Errorf("%w: %d acts for %d agents", ErrArity, len(s.Acts), len(b.agents)))
			return -1
		}
		if !b.sameAsLastActs(s.Acts) {
			b.lastActs = int32(b.acts.n)
			b.acts.add(s.Acts...)
		}
		acts = b.lastActs
	} else if len(s.Acts) != 0 {
		b.fail(fmt.Errorf("%w: initial states cannot record actions", ErrArity))
		return -1
	}
	id := NodeID(b.nodes.n)
	b.nodes.add(node{
		parent: int32(parent),
		depth:  depth,
		acts:   acts,
		pr:     b.sharedPr(s.Pr),
		env:    s.Env,
		envAct: s.EnvAct,
	})
	b.locals.add(s.Locals...)
	return id
}

// sameAsLastActs reports whether acts equals the last joint action
// stored.
func (b *Builder) sameAsLastActs(acts []string) bool {
	if b.lastActs < 0 {
		return false
	}
	for a, act := range acts {
		if *b.acts.at(int(b.lastActs) + a) != act {
			return false
		}
	}
	return true
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
	sys := &System{
		agents:   b.agents,
		agentIdx: make(map[string]AgentID, len(b.agents)),
		nodes:    b.nodes.flat(),
		locals:   b.locals.flat(),
		acts:     b.acts.flat(),
	}
	for i, a := range b.agents {
		sys.agentIdx[a] = AgentID(i)
	}
	// The child lists are derived once from the parent array, by a
	// counting sort that keeps creation order among siblings.
	sys.kidsAt = make([]int, len(sys.nodes)+1)
	for _, n := range sys.nodes[1:] {
		sys.kidsAt[n.parent+1]++
	}
	for id := range sys.nodes {
		sys.kidsAt[id+1] += sys.kidsAt[id]
	}
	sys.kids = make([]NodeID, len(sys.nodes)-1)
	next := slices.Clone(sys.kidsAt[:len(sys.nodes)])
	for id, n := range sys.nodes[1:] {
		sys.kids[next[n.parent]] = NodeID(id + 1)
		next[n.parent]++
	}
	if len(sys.children(Root)) == 0 {
		return nil, ErrNoInitial
	}
	// Outgoing probabilities at every internal node (including the root)
	// must sum to exactly 1.
	for id := range sys.nodes {
		kids := sys.children(NodeID(id))
		if len(kids) == 0 {
			continue
		}
		if !ratutil.SumIsOne(len(kids), func(i int) *big.Rat { return sys.nodes[kids[i]].pr }) {
			total := new(big.Rat)
			for _, c := range kids {
				total.Add(total, sys.nodes[c].pr)
			}
			return nil, fmt.Errorf("%w: node %d sums to %s", ErrProbSum, id, total.RatString())
		}
	}

	// One depth-first traversal (leftmost leaf first) enumerates the runs,
	// computes their probabilities and builds the local-state occurrence
	// index. The first pass sizes it: a run per leaf, a point per node on
	// its path.
	nRuns, nPoints := 0, 0
	for id, n := range sys.nodes[1:] {
		if len(sys.children(NodeID(id+1))) == 0 {
			nRuns++
			nPoints += int(n.depth)
		}
	}
	sys.runs = make([][]NodeID, 0, nRuns)
	sys.runPr = make([]*big.Rat, 0, nRuns)
	sys.runWords = make([][2]uint64, 0, nRuns)
	sys.occ = make(map[localKey]occInfo)
	points := make([]NodeID, 0, nPoints) // backs every run's path
	var path []NodeID
	var onPath []*runset.Set // occurrence sets of the path's locals, by depth then agent
	// visit carries the cumulative product of the edge probabilities down
	// the tree (see runProduct): an edge of probability 1 shares its
	// parent's product, and µ_T values are never modified. It checks
	// synchrony — every local-state string at a single time — as it
	// first meets each node; preorder is the order in which a run-by-run
	// scan first meets them, so the first conflict reported is that scan's.
	var visit func(id NodeID, pr runProduct) error
	visit = func(id NodeID, pr runProduct) error {
		n := &sys.nodes[id]
		t := int(n.depth) - 1
		if !ratutil.IsOne(n.pr) {
			pr = pr.mul(n.pr)
		}
		path = append(path, id)
		locals := sys.localsOf(id)
		for a, local := range locals {
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
		kids := sys.children(id)
		if len(kids) == 0 {
			r := len(sys.runs)
			start := len(points)
			points = append(points, path...)
			sys.runs = append(sys.runs, points[start:len(points):len(points)])
			// A word-tier run's rational is filled in after the walk.
			sys.runPr = append(sys.runPr, pr.big)
			sys.runWords = append(sys.runWords, [2]uint64{pr.num, pr.den})
			sys.maxTime = max(sys.maxTime, t)
			for _, set := range onPath {
				set.Add(r)
			}
		}
		for _, c := range kids {
			if err := visit(c, pr); err != nil {
				return err
			}
		}
		path = path[:len(path)-1]
		onPath = onPath[:len(onPath)-len(locals)]
		return nil
	}
	for _, c := range sys.children(Root) {
		if err := visit(c, runProduct{num: 1, den: 1}); err != nil {
			return nil, err
		}
	}
	// The word-tier runs' rationals share one exactly sized array.
	words := 0
	for _, pr := range sys.runPr {
		if pr == nil {
			words++
		}
	}
	wordPr := make([]big.Rat, words)
	for r, w := range sys.runWords {
		if sys.runPr[r] == nil {
			sys.runPr[r] = setWords(&wordPr[0], w)
			wordPr = wordPr[1:]
		}
	}
	if words < nRuns {
		sys.runWords = nil // some run left the word tier
	}
	return sys, nil
}

// blocks is the builder's append-only storage: elements go into blocks
// that double in size (16, 16, 32, 64, …), so a growing tree never
// copies what it already holds, and flat concatenates them once into
// one exactly sized slice, so a System keeps no growth slack.
type blocks[T any] struct {
	full [][]T // the filled blocks, in order
	last []T   // the block being filled
	n    int   // the number of elements in all
}

// minBlock is the size of the first two blocks; block k ≥ 1 holds
// elements [minBlock·2^(k-1), minBlock·2^k).
const minBlock = 16

func (b *blocks[T]) add(vs ...T) {
	for len(vs) > 0 {
		if len(b.last) == cap(b.last) {
			if b.last != nil {
				b.full = append(b.full, b.last)
			}
			b.last = make([]T, 0, max(minBlock, b.n))
		}
		k := min(len(vs), cap(b.last)-len(b.last))
		b.last = append(b.last, vs[:k]...)
		vs = vs[k:]
		b.n += k
	}
}

// at returns element i (0 ≤ i < n).
func (b *blocks[T]) at(i int) *T {
	k, start := 0, 0
	if i >= minBlock {
		k = bits.Len(uint(i / minBlock))
		start = minBlock << (k - 1)
	}
	if k == len(b.full) {
		return &b.last[i-start]
	}
	return &b.full[k][i-start]
}

// flat returns every element in order, in a slice with no spare
// capacity.
func (b *blocks[T]) flat() []T {
	if b.full == nil && len(b.last) == cap(b.last) {
		return b.last
	}
	out := make([]T, 0, b.n)
	for _, blk := range b.full {
		out = append(out, blk...)
	}
	return append(out, b.last...)
}

// runProduct is a run-prefix product of edge probabilities: the reduced
// fraction num/den of machine words while both fit, and big (num = den
// = 0) once a product overflowed a word, for the rest of that subtree.
type runProduct struct {
	num, den uint64
	big      *big.Rat
}

// mul returns p·pr. In the word tier it cross-cancels before
// multiplying (gcd(num, pr's den) and gcd(pr's num, den)), so the
// product of two reduced fractions comes out reduced, and it leaves the
// tier only when a reduced factor does not fit a word.
func (p runProduct) mul(pr *big.Rat) runProduct {
	if p.big == nil {
		pn, pd := pr.Num(), pr.Denom()
		if pn.IsUint64() && pd.IsUint64() {
			a, d := p.num, pd.Uint64()
			g := gcd64(a, d)
			a, d = a/g, d/g
			b, c := pn.Uint64(), p.den
			g = gcd64(b, c)
			b, c = b/g, c/g
			hiN, num := bits.Mul64(a, b)
			hiD, den := bits.Mul64(c, d)
			if hiN == 0 && hiD == 0 {
				return runProduct{num: num, den: den}
			}
		}
		p.big = new(big.Rat).SetFrac(new(big.Int).SetUint64(p.num), new(big.Int).SetUint64(p.den))
	}
	return runProduct{big: ratutil.Mul(p.big, pr)}
}

// setWords sets z to the word-tier product w = {num, den} and returns
// it. num/den is already in lowest terms, so it is written through Num
// and Denom (references once z is initialized) without big.Rat's GCD
// normalization.
func setWords(z *big.Rat, w [2]uint64) *big.Rat {
	z.SetUint64(w[0])
	if w[1] != 1 {
		z.Denom().SetUint64(w[1])
	}
	return z
}

// gcd64 returns the greatest common divisor of a and b (gcd(0, b) = b).
func gcd64(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// localsOf returns node id's local states, one per agent (nil for the
// root), as a sub-slice of the system's own storage.
func (s *System) localsOf(id NodeID) []string {
	if id == Root {
		return nil
	}
	n := len(s.agents)
	return s.locals[(int(id)-1)*n : int(id)*n : int(id)*n]
}

// actsOf returns the joint action recorded on the edge into node id
// (nil at depth <= 1), as a sub-slice of the system's own storage.
func (s *System) actsOf(id NodeID) []string {
	at := int(s.nodes[id].acts)
	if at < 0 {
		return nil
	}
	n := len(s.agents)
	return s.acts[at : at+n : at+n]
}

// children returns node id's children in creation order, as a
// sub-slice of the system's own storage.
func (s *System) children(id NodeID) []NodeID {
	return s.kids[s.kidsAt[id]:s.kidsAt[id+1]:s.kidsAt[id+1]]
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
	return s.localsOf(s.runs[r][t])[a]
}

// Action returns the action performed by agent a at time t of run r, if
// any: does_a(α) holds at (r, t) exactly when Action(r, t, a) = (α, true).
// The second result is false when t is the final point of the run.
func (s *System) Action(r RunID, t int, a AgentID) (string, bool) {
	if t+1 >= len(s.runs[r]) {
		return "", false
	}
	return s.actsOf(s.runs[r][t+1])[a], true
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
