package pps

import (
	"strconv"
	"strings"
)

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
// The comparison itself is a memcmp of cached canonical signatures, so
// after each side's first call the per-call cost is tiny. A sweep that
// seeds each assignment's engine from its neighbour (core.NewSeeded)
// calls SameShape once per assignment against the same seed; the
// signature cache keeps that gate from eating the savings the sharing
// buys.
func SameShape(a, b *System) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a == b {
		return true
	}
	return a.shapeSignature() == b.shapeSignature()
}

// shapeSignature renders every label SameShape compares into one
// canonical byte string and caches it on the System. Each label is
// length-prefixed, so the encoding is injective on shapes — two systems
// share a signature exactly when a direct label-by-label walk finds
// them equal (sameShapeWalk, the differential shape_test.go pins). Signature equality is a single
// memcmp; the walk it replaces re-touches every node label on every
// call.
func (s *System) shapeSignature() string {
	s.shapeOnce.Do(func() {
		var b strings.Builder
		field := func(label string) {
			b.WriteString(strconv.Itoa(len(label)))
			b.WriteByte(':')
			b.WriteString(label)
		}
		b.WriteString(strconv.Itoa(len(s.agents)))
		b.WriteByte(';')
		for _, a := range s.agents {
			field(a)
		}
		b.WriteString(strconv.Itoa(len(s.runs)))
		b.WriteByte(';')
		for _, run := range s.runs {
			b.WriteString(strconv.Itoa(len(run)))
			b.WriteByte(';')
			for _, id := range run {
				n := &s.nodes[id]
				field(n.env)
				field(n.envAct)
				for _, l := range n.locals {
					field(l)
				}
				// acts is nil at depth ≤ 1 (t = 0) by construction;
				// deeper nodes record one action per agent.
				b.WriteString(strconv.Itoa(len(n.acts)))
				b.WriteByte(';')
				for _, act := range n.acts {
					field(act)
				}
			}
		}
		s.shapeSig = b.String()
	})
	return s.shapeSig
}
