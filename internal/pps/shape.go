package pps

import "slices"

// SameShape reports whether two systems are label-identical: same agents
// (names and order), same number of runs, same per-run lengths, and the
// same environment state, local states, actions and environment action at
// every point (r, t). Probabilities are deliberately NOT compared — two
// systems of the same shape may weight their runs arbitrarily
// differently.
//
// SameShape is the soundness gate for structure sharing between engines
// (core.NewSeeded). A fact is label-pure unless it contains believes:
// every other operator of the structural grammar evaluates
// Holds(sys, r, t) by reading only the labels SameShape compares (env,
// locals, acts, envAct, the time index and run lengths — never µ_T, and
// never tree-node identity), and knows reads only which runs share a
// local state, which those labels fix. So the perf index and the φ@ℓ /
// φ@α extension sets of label-pure facts are identical across
// SameShape-equal systems. A believes fact reads µ_T through the
// agent's posterior, so its extensions are measure-dependent, like the
// beliefs and the independence reports; none of those may be shared,
// and core.NewSeeded keeps them per-engine.
//
// Tree sharing (which runs pass through the same node) is also not
// compared: label-equal systems can differ there, which is why
// node-identity classifiers such as logic.IsPastBased are computed per
// system and are not candidates for sharing.
//
// The comparison allocates nothing and keeps nothing on either system.
// When both trees have the same parent array — as every assignment of a
// sweep does, since its systems differ only in edge probabilities — it
// compares node by node: children keep creation order, so equal parent
// arrays enumerate the same runs, and every node lies on some run, so
// node-label equality is exactly point-label equality. Otherwise it
// compares point by point over (r, t), which is what keeps label-equal
// systems with different trees equal.
func SameShape(a, b *System) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a == b {
		return true
	}
	if !slices.Equal(a.agents, b.agents) || len(a.runs) != len(b.runs) {
		return false
	}
	if sameTree(a, b) {
		if !slices.Equal(a.locals, b.locals) {
			return false
		}
		for id := NodeID(1); int(id) < len(a.nodes); id++ {
			if !sameEdgeLabels(a, b, id, id) {
				return false
			}
		}
		return true
	}
	n := len(a.agents)
	for r, run := range a.runs {
		other := b.runs[r]
		if len(run) != len(other) {
			return false
		}
		for t, ia := range run {
			ib := other[t]
			if !sameEdgeLabels(a, b, ia, ib) ||
				!slices.Equal(a.locals[(int(ia)-1)*n:int(ia)*n], b.locals[(int(ib)-1)*n:int(ib)*n]) {
				return false
			}
		}
	}
	return true
}

// sameTree reports whether a and b have the same parent array.
func sameTree(a, b *System) bool {
	if len(a.nodes) != len(b.nodes) {
		return false
	}
	for id := range a.nodes {
		if a.nodes[id].parent != b.nodes[id].parent {
			return false
		}
	}
	return true
}

// sameEdgeLabels compares the labels node ia of a and node ib of b carry
// besides their local states: the environment state, the environment
// action and the agents' actions (none at depth ≤ 1, one per agent
// deeper).
func sameEdgeLabels(a, b *System, ia, ib NodeID) bool {
	na, nb := &a.nodes[ia], &b.nodes[ib]
	return na.env == nb.env && na.envAct == nb.envAct && slices.Equal(a.actsOf(ia), b.actsOf(ib))
}
