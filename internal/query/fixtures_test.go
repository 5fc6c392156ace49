package query_test

// Shared fixtures for the package's external tests: wire rendering and
// a standard belief-bound batch derived from a system's own structure.
// They live in package query_test because their callers consume the
// registry, which itself sits above package query in the import graph.

import (
	"encoding/json"
	"sort"
	"testing"

	"pak/internal/epistemic"
	"pak/internal/logic"
	"pak/internal/pps"
	"pak/internal/query"
	"pak/internal/ratutil"
)

// wireJSON renders a Result exactly as the pakd service would put it on
// the wire; two results that agree here are indistinguishable to any
// client.
func wireJSON(t testing.TB, res query.Result) string {
	t.Helper()
	data, err := json.Marshal(query.DocOf(res))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// properPairs discovers the system's proper (agent, action) pairs — the
// pairs every run performs exactly once — by direct scan, independent
// of either engine's properness bookkeeping.
func properPairs(sys *pps.System) [][2]string {
	var pairs [][2]string
	for _, name := range sys.Agents() {
		id, ok := sys.AgentIndex(name)
		if !ok {
			continue
		}
		acts := make(map[string]bool)
		for r := 0; r < sys.NumRuns(); r++ {
			for t := 0; t < sys.RunLen(pps.RunID(r)); t++ {
				if a, performed := sys.Action(pps.RunID(r), t, id); performed && a != "" {
					acts[a] = true
				}
			}
		}
		names := make([]string, 0, len(acts))
		for a := range acts {
			names = append(names, a)
		}
		sort.Strings(names)
		for _, a := range names {
			proper := true
			for r := 0; r < sys.NumRuns() && proper; r++ {
				count := 0
				for t := 0; t < sys.RunLen(pps.RunID(r)); t++ {
					if got, performed := sys.Action(pps.RunID(r), t, id); performed && got == a {
						count++
					}
				}
				proper = count == 1
			}
			if proper {
				pairs = append(pairs, [2]string{name, a})
			}
		}
	}
	return pairs
}

// agentLocals returns the agent's local-state alphabet.
func agentLocals(sys *pps.System, agent string) []string {
	id, ok := sys.AgentIndex(agent)
	if !ok {
		return nil
	}
	return sys.LocalStates(id)
}

// supportedBatch assembles, from the system's own structure, a batch of
// belief-bound queries — every shape (belief at a local, belief by
// acting states, constraint with and without threshold, threshold at
// the probability extremes) over a spread of past-based facts, plus
// deliberate error shapes (unknown agent, unknown local) whose failures
// must also match byte for byte.
func supportedBatch(t testing.TB, sys *pps.System) []query.Query {
	t.Helper()
	agents := sys.Agents()
	if len(agents) == 0 {
		t.Fatal("system has no agents")
	}
	a0 := agents[0]
	locals := agentLocals(sys, a0)
	if len(locals) == 0 {
		t.Fatalf("agent %q has no local states", a0)
	}

	facts := []logic.Fact{
		logic.True(),
		logic.False(),
		logic.LocalIs(a0, locals[0]),
		logic.Not(logic.LocalContains(a0, locals[0][:1])),
		logic.Once(logic.LocalIs(a0, locals[len(locals)-1])),
		logic.SoFar(logic.Not(logic.LocalContains(a0, "\x00"))),
		logic.Or(logic.TimeIs(0), logic.TimeIs(sys.MaxTime())),
		epistemic.Knows(a0, logic.LocalIs(a0, locals[0])),
	}
	if len(agents) > 1 {
		facts = append(facts, epistemic.Believes(agents[1], ratutil.R(1, 2), logic.LocalIs(a0, locals[0])))
	}

	var qs []query.Query
	for _, f := range facts {
		qs = append(qs, query.BeliefQuery{Fact: f, Agent: a0, Local: locals[0]})
	}
	for _, pair := range properPairs(sys) {
		agent, action := pair[0], pair[1]
		for _, f := range facts[:4] {
			qs = append(qs,
				query.BeliefQuery{Fact: f, Agent: agent, Action: action},
				query.ConstraintQuery{Fact: f, Agent: agent, Action: action},
				query.ConstraintQuery{Fact: f, Agent: agent, Action: action, Threshold: ratutil.R(1, 2)},
			)
			for _, p := range []*big2{{0, 1}, {1, 2}, {1, 1}} {
				qs = append(qs, query.ThresholdQuery{Fact: f, Agent: agent, Action: action, P: ratutil.R(p.a, p.b)})
			}
		}
	}
	// Error shapes: every evaluation mode must fail these slots
	// identically.
	qs = append(qs,
		query.BeliefQuery{Fact: logic.True(), Agent: "no-such-agent", Local: locals[0]},
		query.BeliefQuery{Fact: logic.True(), Agent: a0, Local: "no-such-local"},
	)
	return qs
}

// big2 is a numerator/denominator pair (a local helper; big.Rat values
// must not be shared across query slots, so thresholds are minted per
// use).
type big2 struct{ a, b int64 }
