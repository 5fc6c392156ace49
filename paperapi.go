package pak

import (
	"math/big"

	"pak/internal/encode"
	"pak/internal/paper"
	"pak/internal/randsys"
)

// The paper's concrete systems, re-exported.

// FSVariant selects the firing-squad variant.
type FSVariant = paper.FSVariant

const (
	// FSOriginal is Example 1's FS protocol.
	FSOriginal = paper.FSOriginal
	// FSImproved is the Section 8 refinement (never fire on 'No').
	FSImproved = paper.FSImproved
)

// Figure1 builds the paper's Figure 1 mixed-action counterexample system.
func Figure1() (*System, error) { return paper.Figure1() }

// That builds the pps T-hat(p, ε) of Figure 2 / Theorem 5.2 (requires
// 0 < ε < p < 1).
func That(p, eps *big.Rat) (*System, error) { return paper.That(p, eps) }

// FiringSquad unfolds Example 1's relaxed firing squad with the given
// per-message loss probability (the paper uses 1/10) and variant.
func FiringSquad(loss *big.Rat, variant FSVariant) (*System, error) {
	return paper.FiringSquad(loss, variant)
}

// FiringSquadModel returns Example 1's joint protocol without unfolding,
// for direct simulation.
func FiringSquadModel(loss *big.Rat, variant FSVariant) (Model, error) {
	return paper.FiringSquadModel(loss, variant)
}

// Serialization, re-exported.

// MarshalSystem renders sys as JSON.
func MarshalSystem(sys *System) ([]byte, error) { return encode.Marshal(sys) }

// UnmarshalSystem parses system JSON and rebuilds the validated System.
func UnmarshalSystem(data []byte) (*System, error) { return encode.Unmarshal(data) }

// ParseFact parses a fact expression document (see internal/encode for the
// operator list).
func ParseFact(data []byte) (Fact, error) { return encode.ParseFact(data) }

// Random system generation for testing and benchmarking, re-exported.

// RandConfig parameterizes random system generation.
type RandConfig = randsys.Config

// RandDefault returns a moderate random-system configuration.
func RandDefault(seed int64) RandConfig { return randsys.Default(seed) }

// RandSystem generates a random system with a designated proper action
// (randsys.DesignatedAction) for agent "a0".
func RandSystem(cfg RandConfig) (*System, error) { return randsys.Generate(cfg) }

// RandPastFact returns a random past-based fact over sys.
func RandPastFact(sys *System, seed int64) Fact { return randsys.PastFact(sys, seed) }

// RandRunFact returns a random run-based (generally not past-based) fact.
func RandRunFact(sys *System, seed int64) Fact { return randsys.RunFact(sys, seed) }
