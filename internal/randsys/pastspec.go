package randsys

import (
	"math/rand"

	"pak/internal/epistemic"
	"pak/internal/logic"
	"pak/internal/pps"
	"pak/internal/ratutil"
)

// StructuredPastFact returns a random past-based fact with a structural
// spec, drawn from the serializable grammar: localIs / localContains /
// timeIs leaves over the system's actual agents and local states,
// composed under not / and / or / once / soFar, with occasional
// believes / knows wrappers (epistemic facts are past-based regardless
// of their inner fact, which may even mention the future).
//
// Unlike PastFact — whose node labelling is past-based by construction
// but opaque (logic.Atom, no spec) — these facts carry a spec, so they
// reach the engine's spec-keyed memo paths that opaque facts bypass.
func StructuredPastFact(sys *pps.System, seed int64) logic.Fact {
	rng := rand.New(rand.NewSource(seed))
	return structuredPast(sys, rng, 2)
}

// randLocal picks an agent and one of its local states; the bogus
// fallback only triggers on systems with an agent that has no recorded
// local states, which Generate never produces.
func randLocal(sys *pps.System, rng *rand.Rand) (string, string) {
	agents := sys.Agents()
	name := agents[rng.Intn(len(agents))]
	id, ok := sys.AgentIndex(name)
	if !ok {
		return name, "?"
	}
	locals := sys.LocalStates(id)
	if len(locals) == 0 {
		return name, "?"
	}
	return name, locals[rng.Intn(len(locals))]
}

func structuredPast(sys *pps.System, rng *rand.Rand, depth int) logic.Fact {
	if depth == 0 || rng.Intn(3) == 0 {
		switch rng.Intn(5) {
		case 0:
			return logic.True()
		case 1:
			return logic.False()
		case 2:
			agent, local := randLocal(sys, rng)
			return logic.LocalIs(agent, local)
		case 3:
			agent, local := randLocal(sys, rng)
			// A substring of a real local state, so the fact is sometimes
			// true without being localIs in disguise.
			if len(local) > 1 {
				local = local[:1+rng.Intn(len(local)-1)]
			}
			return logic.LocalContains(agent, local)
		default:
			return logic.TimeIs(rng.Intn(sys.MaxTime() + 1))
		}
	}
	switch rng.Intn(6) {
	case 0:
		return logic.Not(structuredPast(sys, rng, depth-1))
	case 1:
		return logic.And(structuredPast(sys, rng, depth-1), structuredPast(sys, rng, depth-1))
	case 2:
		return logic.Or(structuredPast(sys, rng, depth-1), structuredPast(sys, rng, depth-1))
	case 3:
		return logic.Once(structuredPast(sys, rng, depth-1))
	case 4:
		return logic.SoFar(structuredPast(sys, rng, depth-1))
	default:
		agent, _ := randLocal(sys, rng)
		p := ratutil.R(int64(rng.Intn(5)), 4)
		inner := structuredPast(sys, rng, depth-1)
		if rng.Intn(3) == 0 {
			// Epistemic facts stay past-based over ANY inner fact; mix in a
			// future-reading one so the gate's believes/knows whitelisting
			// is exercised, not just assumed.
			inner = logic.Does(sys.Agents()[0], DesignatedAction)
		}
		if rng.Intn(2) == 0 {
			return epistemic.Knows(agent, inner)
		}
		return epistemic.Believes(agent, p, inner)
	}
}
