package pps

import (
	"fmt"
	"math/big"
	"strings"

	"pak/internal/ratutil"
)

// Node-level accessors. These expose the tree structure itself (rather than
// the run/point view) and are used by the JSON codec, the tree printer and
// the random-system generator. NodeIDs are dense: 0 is the root λ and
// 1..NumNodes-1 are the remaining nodes in insertion order.

// ParentOf returns the parent of node id. The root's parent is -1.
func (s *System) ParentOf(id NodeID) NodeID { return NodeID(s.nodes[id].parent) }

// ChildrenOf returns a copy of the children of node id in order.
func (s *System) ChildrenOf(id NodeID) []NodeID {
	return append([]NodeID(nil), s.children(id)...)
}

// ChildrenShared is ChildrenOf without the defensive copy: the returned
// slice is the system's own and MUST NOT be mutated. For internal read
// paths (the montecarlo sampler reads one child per step).
func (s *System) ChildrenShared(id NodeID) []NodeID { return s.children(id) }

// DepthOf returns the depth of node id (root = 0). A node at depth d
// corresponds to time d-1.
func (s *System) DepthOf(id NodeID) int { return int(s.nodes[id].depth) }

// EdgeProb returns π(parent, id), the probability of the edge into node id,
// as a fresh rational. It returns nil for the root.
func (s *System) EdgeProb(id NodeID) *big.Rat {
	if id == Root {
		return nil
	}
	return ratutil.Copy(s.nodes[id].pr)
}

// EdgeProbShared is EdgeProb without the defensive copy: the returned
// rational is the system's own π(parent, id) and MUST NOT be mutated.
// For internal read paths (the montecarlo cumulative-table build reads
// one float per edge); public callers keep EdgeProb.
func (s *System) EdgeProbShared(id NodeID) *big.Rat {
	if id == Root {
		return nil
	}
	return s.nodes[id].pr
}

// EnvOf returns the environment state of node id (empty for the root).
func (s *System) EnvOf(id NodeID) string { return s.nodes[id].env }

// LocalsOf returns a copy of the local states of node id (nil for the root).
func (s *System) LocalsOf(id NodeID) []string {
	return append([]string(nil), s.localsOf(id)...)
}

// ActsOf returns a copy of the joint agent actions recorded on the edge
// into node id (nil for the root and for initial states).
func (s *System) ActsOf(id NodeID) []string {
	return append([]string(nil), s.actsOf(id)...)
}

// EnvActOf returns the environment action recorded on the edge into node
// id (empty for the root and for initial states).
func (s *System) EnvActOf(id NodeID) string { return s.nodes[id].envAct }

// IsLeaf reports whether node id has no children.
func (s *System) IsLeaf(id NodeID) bool { return len(s.children(id)) == 0 }

// Dump renders the full tree as an indented multi-line string, one node per
// line, for debugging and the CLI tools. Probabilities are shown in exact
// fraction form.
func (s *System) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "λ (agents: %s)\n", strings.Join(s.agents, ", "))
	var walk func(id NodeID, indent string)
	walk = func(id NodeID, indent string) {
		n := &s.nodes[id]
		fmt.Fprintf(&b, "%s[%s] t=%d env=%q locals=%v", indent, n.pr.RatString(), n.depth-1, n.env, s.localsOf(id))
		if acts := s.actsOf(id); acts != nil {
			fmt.Fprintf(&b, " acts=%v", acts)
		}
		if n.envAct != "" {
			fmt.Fprintf(&b, " envAct=%q", n.envAct)
		}
		b.WriteByte('\n')
		for _, c := range s.children(id) {
			walk(c, indent+"  ")
		}
	}
	for _, c := range s.children(Root) {
		walk(c, "  ")
	}
	return b.String()
}
