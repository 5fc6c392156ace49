package pak

import (
	"math/big"

	"pak/internal/commonbelief"
	"pak/internal/montecarlo"
	"pak/internal/msgnet"
	"pak/internal/protocol"
)

// Protocol layer (paper Section 2.2), re-exported.
type (
	// Model is a synchronous joint protocol with bounded horizon.
	Model = protocol.Model
	// FuncModel adapts plain functions into a Model.
	FuncModel = protocol.FuncModel
	// Global is a global state: environment plus per-agent locals.
	Global = protocol.Global
	// WeightedAction pairs an action with its probability in a mixed step.
	WeightedAction = protocol.Weighted[string]
	// WeightedGlobal pairs an initial global state with its probability.
	WeightedGlobal = protocol.Weighted[protocol.Global]
)

// Unfold expands a joint protocol into the pps containing exactly its
// executions, with local states automatically time-stamped for synchrony.
func Unfold(m Model) (*System, error) { return protocol.Unfold(m) }

// Det returns the deterministic action distribution on a single action.
func Det(action string) []WeightedAction { return protocol.Det(action) }

// Mix returns a mixed action distribution.
func Mix(outcomes ...WeightedAction) []WeightedAction { return protocol.Mix(outcomes...) }

// WithProb pairs an action with a probability for use in Mix.
func WithProb(action string, pr *big.Rat) WeightedAction { return protocol.W(action, pr) }

// InitialState pairs an initial global state with a probability.
func InitialState(g Global, pr *big.Rat) WeightedGlobal { return protocol.W(g, pr) }

// Lossy message network substrate (Example 1's channel).
type (
	// Net is a synchronous network losing each message independently with
	// a fixed probability.
	Net = msgnet.Net
	// Msg is a message in flight during one round.
	Msg = msgnet.Msg
)

// NewNet returns a network with the given per-message loss probability.
func NewNet(loss *big.Rat) (Net, error) { return msgnet.New(loss) }

// DeliveryPatterns returns the environment's mixed action for a round in
// which msgs are sent: a distribution over delivery-pattern strings. The
// result is the network's shared table for len(msgs) and is read-only.
func DeliveryPatterns(n Net, msgs []Msg) []WeightedAction { return n.Patterns(msgs) }

// Inbox returns the payloads delivered to an agent under a pattern.
func Inbox(msgs []Msg, envAct string, to int) ([]string, error) {
	return msgnet.Inbox(msgs, envAct, to)
}

// Monte-Carlo estimation, re-exported.
type (
	// Sampler draws runs from a System according to µ_T.
	Sampler = montecarlo.Sampler
	// ProtocolSampler simulates a Model without unfolding it.
	ProtocolSampler = montecarlo.ProtocolSampler
	// Trace is one simulated protocol execution.
	Trace = montecarlo.Trace
	// Estimate is a sampled probability with a Hoeffding confidence radius.
	Estimate = montecarlo.Estimate
)

// NewSampler returns a seeded run sampler over sys.
func NewSampler(sys *System, seed int64) *Sampler { return montecarlo.NewSampler(sys, seed) }

// NewProtocolSampler returns a seeded execution sampler for m.
func NewProtocolSampler(m Model, seed int64) *ProtocolSampler {
	return montecarlo.NewProtocolSampler(m, seed)
}

// Probabilistic common belief (Monderer–Samet), re-exported.

// Slice is a fixed-time epistemic view of a System supporting B_i^p,
// E_G^p and C_G^p queries.
type Slice = commonbelief.Slice

// NewSlice builds the time-t epistemic view of sys.
func NewSlice(sys *System, t int) (*Slice, error) { return commonbelief.NewSlice(sys, t) }
