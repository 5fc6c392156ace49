package core

import (
	"context"
	"fmt"
	"math/big"
	"sort"

	"pak/internal/logic"
	"pak/internal/pps"
	"pak/internal/ratutil"
)

// Jeffrey conditionalization (Section 6.1). The proof of Theorem 6.2
// partitions the event R_α by the local state at which α is performed and
// applies the law of total probability:
//
//	µ(φ@α | α) = Σ_ℓ µ(α@ℓ | α) · µ(φ@α | α@ℓ)
//
// and, under local-state independence, µ(φ@α | α@ℓ) = µ(φ@ℓ | ℓ) = β_i(φ)
// at ℓ (Lemma B.1), which turns the sum into the expected belief. The
// Decompose query exposes this structure: each cell carries the partition
// weight, the posterior belief, and the conditional constraint value, so
// the theorem's proof can be inspected — and re-verified — numerically on
// any system.

// JeffreyCell is one cell of the partition of R_α by acting local state.
type JeffreyCell struct {
	// Local is the local state ℓ ∈ L_i[α].
	Local string
	// Weight is µ(α@ℓ | α), the cell's share of the acting runs.
	Weight *big.Rat
	// Posterior is β_i(φ) at ℓ, i.e. µ(φ@ℓ | ℓ).
	Posterior *big.Rat
	// CellConstraint is µ(φ@α | α@ℓ), the constraint value within the
	// cell. Under local-state independence it equals Posterior
	// (Lemma B.1); comparing the two localizes independence failures.
	CellConstraint *big.Rat
}

// String renders the cell.
func (c JeffreyCell) String() string {
	return fmt.Sprintf("ℓ=%q w=%s β=%s µ|cell=%s",
		c.Local, c.Weight.RatString(), c.Posterior.RatString(), c.CellConstraint.RatString())
}

// JeffreyDecomposition is the full partition with its aggregates.
type JeffreyDecomposition struct {
	// Cells are ordered by local state.
	Cells []JeffreyCell
	// ExpectedBelief is Σ_ℓ Weight·Posterior = E[β_i(φ)@α | α].
	ExpectedBelief *big.Rat
	// ConstraintProb is µ(φ@α | α) = Σ_ℓ Weight·CellConstraint.
	ConstraintProb *big.Rat
}

// WeightsSumToOne reports whether the partition weights add to exactly 1
// (they must, for a proper action).
func (d JeffreyDecomposition) WeightsSumToOne() bool {
	total := new(big.Rat)
	for _, c := range d.Cells {
		total.Add(total, c.Weight)
	}
	return ratutil.IsOne(total)
}

// LemmaB1Holds reports whether every cell satisfies Lemma B.1
// (CellConstraint = Posterior), which is exactly local-state independence
// restricted to the acting states.
func (d JeffreyDecomposition) LemmaB1Holds() bool {
	for _, c := range d.Cells {
		if !ratutil.Eq(c.CellConstraint, c.Posterior) {
			return false
		}
	}
	return true
}

// Decompose computes the Jeffrey conditionalization of µ(φ@α | α) by the
// acting local states. The action must be proper.
func (e *Engine) Decompose(f logic.Fact, agent, action string) (JeffreyDecomposition, error) {
	a, info, err := e.properFor(agent, action)
	if err != nil {
		return JeffreyDecomposition{}, err
	}

	var d JeffreyDecomposition
	d.ExpectedBelief = new(big.Rat)
	d.ConstraintProb = new(big.Rat)
	ctx := context.Background()
	ref := refOf(f)
	fb, b := e.scanFact(ctx, ref)
	locals := append([]string(nil), info.locals...)
	sort.Strings(locals)
	for _, local := range locals {
		occ, tm, ok := e.sys.OccursShared(a, local)
		if !ok {
			continue // unreachable: locals come from occurrences
		}
		// The cell: runs performing α at ℓ.
		cell := e.sys.NewSet()
		factInCell := e.sys.NewSet()
		occ.ForEach(func(r int) bool {
			if info.times[r] != tm {
				return true // α performed elsewhere (or not at all) in r
			}
			cell.Add(r)
			if fb.Holds(e.sys, pps.RunID(r), tm) {
				factInCell.Add(r)
			}
			return b == nil || b.err == nil
		})
		if b != nil && b.err != nil {
			return JeffreyDecomposition{}, b.err
		}
		if cell.IsEmpty() {
			continue
		}
		// Fused kernel conditionals: µ(α@ℓ|α) and µ(φ@α|α@ℓ) as integer
		// numerator ratios, one reduction each.
		weight, okW := e.sys.Cond(cell, info.set)
		if !okW {
			continue // unreachable: properFor guarantees µ(α) > 0
		}
		posterior, berr := e.belief(ctx, ref, a, local)
		if berr != nil {
			return JeffreyDecomposition{}, berr
		}
		posterior = ratutil.Copy(posterior)
		cellConstraint, okC := e.sys.Cond(factInCell, cell)
		if !okC {
			continue // unreachable: cell is nonempty
		}
		d.Cells = append(d.Cells, JeffreyCell{
			Local:          local,
			Weight:         weight,
			Posterior:      posterior,
			CellConstraint: cellConstraint,
		})
		d.ExpectedBelief.Add(d.ExpectedBelief, ratutil.Mul(weight, posterior))
		d.ConstraintProb.Add(d.ConstraintProb, ratutil.Mul(weight, cellConstraint))
	}
	return d, nil
}
