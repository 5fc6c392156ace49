// Package msgnet implements the synchronous lossy message network used by
// the paper's Example 1 (the relaxed firing squad): each message sent in a
// round is, independently of all others, delivered within the round with
// probability 1−loss and lost with probability loss; no message is
// delivered late.
//
// The network is expressed as an environment protocol in the sense of
// package protocol: given the multiset of messages sent in a round, the
// environment's mixed action is a distribution over delivery patterns,
// where a pattern fixes for each message whether it was delivered. Pattern
// probabilities are products of the per-message probabilities; patterns
// with probability zero (when loss is 0 or 1) are omitted, matching the
// pps requirement that all transition probabilities be positive.
package msgnet

import (
	"errors"
	"fmt"
	"math/big"
	"strings"
	"sync"

	"pak/internal/protocol"
	"pak/internal/ratutil"
)

// ErrBadLoss indicates a loss probability outside [0, 1].
var ErrBadLoss = errors.New("msgnet: loss probability must be in [0,1]")

// ErrBadPattern indicates a malformed delivery-pattern action string.
var ErrBadPattern = errors.New("msgnet: malformed delivery pattern")

// patternPrefix tags environment actions produced by this package.
const patternPrefix = "deliver:"

// Msg is a message in flight during one round.
type Msg struct {
	// From and To are agent indices.
	From, To int
	// Payload is the message content.
	Payload string
}

// String renders the message for debugging.
func (m Msg) String() string { return fmt.Sprintf("%d→%d:%q", m.From, m.To, m.Payload) }

// Net is a lossy synchronous network with a fixed per-message loss
// probability. Copies of a Net share one pattern-table cache, so a model
// holding a Net by value still builds each table once.
type Net struct {
	loss   *big.Rat
	tables *patternTables
}

// patternTables caches Patterns' output per message count: the
// distribution depends only on len(msgs) and the loss, so it is built
// once and shared by every call. The mutex makes the cache safe for the
// concurrent callers a shared model sees (parallel unfolds, samplers).
type patternTables struct {
	mu      sync.Mutex
	byCount [][]protocol.Weighted[string] // nil until built
}

// New returns a network losing each message independently with the given
// probability.
func New(loss *big.Rat) (Net, error) {
	if loss == nil || !ratutil.IsProb(loss) {
		return Net{}, fmt.Errorf("%w: %v", ErrBadLoss, loss)
	}
	return Net{loss: ratutil.Copy(loss), tables: new(patternTables)}, nil
}

// MustNew is New, panicking on error; for constants in tests and examples.
func MustNew(loss *big.Rat) Net {
	n, err := New(loss)
	if err != nil {
		panic(err)
	}
	return n
}

// Loss returns the per-message loss probability.
func (n Net) Loss() *big.Rat { return ratutil.Copy(n.loss) }

// Patterns returns the environment's mixed action for a round in which the
// given messages are sent: a distribution over delivery-pattern action
// strings. With no messages it returns the single empty pattern. Patterns
// of probability zero are omitted.
//
// The result depends only on len(msgs), so it is the Net's shared table
// for that count: it is read-only, and neither the slice nor its
// probabilities may be modified.
func (n Net) Patterns(msgs []Msg) []protocol.Weighted[string] {
	c, k := n.tables, len(msgs)
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.byCount) <= k {
		c.byCount = append(c.byCount, nil)
	}
	if c.byCount[k] == nil {
		c.byCount[k] = n.buildPatterns(k)
	}
	return c.byCount[k]
}

// buildPatterns enumerates the delivery patterns of k messages, most
// deliveries first.
func (n Net) buildPatterns(k int) []protocol.Weighted[string] {
	deliverPr := ratutil.OneMinus(n.loss)
	var out []protocol.Weighted[string]
	mask := make([]byte, k)
	var rec func(i int, pr *big.Rat)
	rec = func(i int, pr *big.Rat) {
		if pr.Sign() == 0 {
			return
		}
		if i == k {
			out = append(out, protocol.W(patternPrefix+string(mask), ratutil.Copy(pr)))
			return
		}
		mask[i] = '1'
		rec(i+1, ratutil.Mul(pr, deliverPr))
		mask[i] = '0'
		rec(i+1, ratutil.Mul(pr, n.loss))
	}
	rec(0, ratutil.One())
	return out
}

// Delivered reports whether message index i was delivered under the given
// pattern action string.
func Delivered(envAct string, i int) (bool, error) {
	bits, ok := strings.CutPrefix(envAct, patternPrefix)
	if !ok {
		return false, fmt.Errorf("%w: %q", ErrBadPattern, envAct)
	}
	if i < 0 || i >= len(bits) {
		return false, fmt.Errorf("%w: index %d in pattern of %d messages", ErrBadPattern, i, len(bits))
	}
	switch bits[i] {
	case '1':
		return true, nil
	case '0':
		return false, nil
	default:
		return false, fmt.Errorf("%w: bit %q", ErrBadPattern, bits[i])
	}
}

// Inbox returns the payloads delivered to agent `to` under the pattern,
// in send order.
func Inbox(msgs []Msg, envAct string, to int) ([]string, error) {
	var inbox []string
	for i, m := range msgs {
		if m.To != to {
			continue
		}
		ok, err := Delivered(envAct, i)
		if err != nil {
			return nil, err
		}
		if ok {
			inbox = append(inbox, m.Payload)
		}
	}
	return inbox, nil
}

// IsPattern reports whether envAct is a delivery pattern produced by this
// package (useful when an environment mixes network and other actions).
func IsPattern(envAct string) bool { return strings.HasPrefix(envAct, patternPrefix) }
