package query

// The sampled-first envelope sweep. An adversary envelope only needs
// exact values at the assignments that set its min and max; everywhere
// else the exact unfold is wasted work. EvalEnvelopeSampled therefore
// runs a coarse approx pass over every assignment first (per-assignment
// seeds derived from one base seed, so the pass is deterministic), and
// spends exact evaluation only on assignments whose confidence interval
// shows they could still move the envelope:
//
//	keep i  iff  Lo_i ≤ min_j Hi_j   (could attain the minimum)
//	         or  Hi_i ≥ max_j Lo_j   (could attain the maximum)
//
// Every assignment whose coarse estimate failed (error, dead context)
// is kept too — pruning only ever acts on a sound interval. The
// argmin/argmax of min_j Hi_j and max_j Lo_j always keep themselves, so
// the candidate set is never empty and — conditional on every interval
// covering its true value — contains every assignment attaining the
// true bounds, including all ties; the exact sub-sweep's lowest-index
// tie-break therefore reproduces the full sweep's witnesses exactly.
//
// This is the one place the approximate tier is load-bearing rather
// than advisory: a pruned assignment is never exactly evaluated, so the
// envelope is correct with probability at least 1 - Nδ (union bound
// over the N coarse intervals), not with certainty. Callers that need
// certainty run EvalEnvelope; callers sweeping spaces too large for
// exhaustive exact evaluation trade δ for the skipped work.

import (
	"math/big"

	"pak/internal/montecarlo"
)

// SampledEnvelope is EvalEnvelopeSampled's answer: the exact envelope
// folded from the surviving candidates, plus the pruning ledger.
type SampledEnvelope struct {
	// Range is the envelope over the candidate assignments. Total counts
	// the full space; Visited counts only assignments exactly evaluated,
	// so Total - Visited - len(Skipped-overlap) accounting shows the
	// exact work the coarse pass saved.
	Range Range
	// Pruned lists assignments whose coarse interval proved they cannot
	// move either bound, in assignment order. They were never exactly
	// evaluated.
	Pruned []string
	// Estimates holds the coarse pass's per-assignment estimates (nil
	// where the approx evaluation failed and the slot fell through to
	// the exact sweep).
	Estimates []*Estimate
	// Err joins the exact sub-sweep's hard failures, exactly as
	// EvalEnvelope reports them (nil when every candidate evaluated or
	// skipped cleanly).
	Err error
	// Status is how the exact sub-sweep ended.
	Status StreamStatus
}

// EvalEnvelopeSampled runs the sampled-first sweep described in the
// package comment. A non-approximable inner query falls back to the
// plain exhaustive EvalEnvelope (Pruned stays nil). The spec's base
// seed derives one seed per assignment, so the coarse pass — and hence
// the pruning decision and the final envelope — is a deterministic
// function of (query, spec).
func EvalEnvelopeSampled(q EnvelopeQuery, spec ApproxSpec, opts ...Option) (SampledEnvelope, error) {
	if err := q.Validate(); err != nil {
		return SampledEnvelope{}, err
	}
	if !CanApprox(q.Inner) {
		out, err := EvalEnvelope(q, opts...)
		if err != nil {
			return SampledEnvelope{}, err
		}
		return SampledEnvelope{Range: *out.Result.Envelope, Err: out.Result.Err, Status: out.Status}, nil
	}
	norm, err := spec.Normalized()
	if err != nil {
		return SampledEnvelope{}, err
	}

	cfg := newConfig(opts)
	cfg.approx = &norm

	// Coarse pass: one sampled estimate per assignment. The assignment
	// index doubles as the seed-mixing "system" coordinate, mirroring how
	// EnvelopeStream compiles assignments to MultiItems.
	ests := make([]*Estimate, len(q.Items))
	coarseErrs := make([]error, len(q.Items))
	runPool(len(q.Items), cfg.parallelism, func(i int) {
		item := MultiItem{Engine: q.Items[i].Engine, Source: q.Items[i].Source, Queries: []Query{q.Inner}}
		st := itemState{item: &item}
		mat := MultiItem{Queries: item.Queries}
		var model *montecarlo.Model
		// Same discipline as streamItems: a dead context never triggers a
		// build (evalApproxSlot's own context check fails the slot first).
		// Lazy items resolve here too, so a coarse estimate prices a lazy
		// assignment's build once; the exact sub-sweep's source call hits
		// whatever cache backs the source (service sources are memoized).
		if ctxErr(cfg.ctx, q.Inner) == nil {
			var err error
			mat, model, err = st.resolve(cfg)
			if err != nil {
				ests[i], coarseErrs[i] = nil, err
				return
			}
		}
		res := evalApproxSlot(mat, model, i, 0, cfg)
		ests[i], coarseErrs[i] = res.Estimate, res.Err
	})

	// The certain bounds: whatever the truth, the envelope min is at
	// most min_j Hi_j and the max at least max_j Lo_j.
	var minHi, maxLo *big.Rat
	for i, est := range ests {
		if coarseErrs[i] != nil || est == nil {
			continue
		}
		if minHi == nil || est.Hi.Cmp(minHi) < 0 {
			minHi = est.Hi
		}
		if maxLo == nil || est.Lo.Cmp(maxLo) > 0 {
			maxLo = est.Lo
		}
	}

	var candIdx []int
	var pruned []string
	for i := range q.Items {
		switch {
		case coarseErrs[i] != nil || ests[i] == nil || minHi == nil:
			candIdx = append(candIdx, i)
		case ests[i].Lo.Cmp(minHi) <= 0 || ests[i].Hi.Cmp(maxLo) >= 0:
			candIdx = append(candIdx, i)
		default:
			pruned = append(pruned, q.Items[i].Assignment)
		}
	}

	sub := EnvelopeQuery{Inner: q.Inner, Items: make([]EnvelopeItem, len(candIdx))}
	for j, i := range candIdx {
		sub.Items[j] = q.Items[i]
	}
	out, err := EvalEnvelope(sub, opts...)
	if err != nil {
		return SampledEnvelope{}, err
	}
	r := *out.Result.Envelope
	// Remap the sub-sweep's coordinates back to the full space: witness
	// indices through the candidate table, the total to all assignments.
	// Witness names and skip labels are assignment strings, already
	// global.
	if r.MinIndex >= 0 {
		r.MinIndex = candIdx[r.MinIndex]
	}
	if r.MaxIndex >= 0 {
		r.MaxIndex = candIdx[r.MaxIndex]
	}
	r.Total = len(q.Items)
	return SampledEnvelope{Range: r, Pruned: pruned, Estimates: ests, Err: out.Result.Err, Status: out.Status}, nil
}
