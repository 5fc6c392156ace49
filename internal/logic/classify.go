package logic

import (
	"context"

	"pak/internal/pps"
	"pak/internal/runset"
)

// Semantic classifiers. The paper's Lemma 4.3 gives two sufficient
// conditions for local-state independence: the action is deterministic, or
// the fact is past-based. These functions decide the relevant semantic
// properties of a fact by exhaustive evaluation over the (finite) system.

// IsRunBased reports whether f is a fact about runs in sys: for every run
// r and all times t, t', (sys, r, t) |= f iff (sys, r, t') |= f.
func IsRunBased(sys *pps.System, f Fact) bool {
	for r := 0; r < sys.NumRuns(); r++ {
		run := pps.RunID(r)
		first := f.Holds(sys, run, 0)
		for t := 1; t < sys.RunLen(run); t++ {
			if f.Holds(sys, run, t) != first {
				return false
			}
		}
	}
	return true
}

// IsPastBased reports whether f is past-based in sys: whenever two runs
// agree up to time t (equivalently, pass through the same tree node at
// time t), f has the same truth value at time t in both. Facts about the
// current global state, such as "A is attacking" or "the critical section
// is empty", are past-based (paper, Section 4).
func IsPastBased(sys *pps.System, f Fact) bool {
	past, _ := IsPastBasedCtx(context.Background(), sys, f, 0)
	return past
}

// IsPastBasedCtx is IsPastBased bound to a context: every `every` runs
// (never, when every ≤ 0) it checks ctx, and once ctx is done it stops
// with ctx's cause instead of a verdict.
func IsPastBasedCtx(ctx context.Context, sys *pps.System, f Fact, every int) (bool, error) {
	// Two runs agree up to time t iff they share the node at time t, so f
	// is past-based iff its value at time t is a function of the node.
	const (
		unseen byte = iota
		holds
		fails
	)
	byNode := make([]byte, sys.NumNodes())
	for r := 0; r < sys.NumRuns(); r++ {
		if every > 0 && r%every == every-1 {
			if cause := context.Cause(ctx); cause != nil {
				return false, cause
			}
		}
		run := pps.RunID(r)
		for t := 0; t < sys.RunLen(run); t++ {
			v := fails
			if f.Holds(sys, run, t) {
				v = holds
			}
			node := sys.NodeAt(run, t)
			switch byNode[node] {
			case unseen:
				byNode[node] = v
			case v:
			default:
				return false, nil
			}
		}
	}
	return true, nil
}

// RunsSatisfying returns the event of runs r with (sys, r) |= f, treating
// f as a fact about runs evaluated at time 0. For genuinely run-based
// facts the choice of time is immaterial; for transient facts the caller
// should lift with Sometime or Always first.
func RunsSatisfying(sys *pps.System, f Fact) *runset.Set {
	return sys.RunsWhere(func(r pps.RunID) bool {
		return f.Holds(sys, r, 0)
	})
}

// PointsSatisfying returns, for each run, the sorted times at which f
// holds. It is useful for debugging and for displaying where a transient
// fact is true.
func PointsSatisfying(sys *pps.System, f Fact) map[pps.RunID][]int {
	out := make(map[pps.RunID][]int)
	for r := 0; r < sys.NumRuns(); r++ {
		run := pps.RunID(r)
		for t := 0; t < sys.RunLen(run); t++ {
			if f.Holds(sys, run, t) {
				out[run] = append(out[run], t)
			}
		}
	}
	return out
}
