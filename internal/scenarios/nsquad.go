package scenarios

import (
	"fmt"
	"math/big"
	"strconv"
	"strings"

	"pak/internal/logic"
	"pak/internal/msgnet"
	"pak/internal/pps"
	"pak/internal/protocol"
	"pak/internal/ratutil"
)

// The n-agent relaxed firing squad: the natural generalization of the
// paper's Example 1 from {Alice, Bob} to a general plus n−1 soldiers. The
// general broadcasts two wake-up messages to every soldier; soldiers ack
// with Yes/No; the general fires at time 2 (in the improved variant, only
// if no 'No' arrived), and each soldier fires iff it was woken.
//
// The closed forms generalize Example 1's analysis and are pinned in the
// tests:
//
//	µ(all fire | general fires), original  = (1−ℓ²)^(n−1)
//	µ(all fire | general fires), improved  = (1−ℓ²)^(n−1) / (1−ℓ²(1−ℓ))^(n−1)
//
// and the general's belief when firing is 0 if any 'No' arrived, and
// (1−ℓ²)^s when s soldiers stayed silent and the rest acked Yes.

// General is the broadcasting agent's name; soldiers are "s1", "s2", ...
const General = "General"

// ActFire is the firing action (shared with Example 1's naming).
const ActFire = "fire"

// nSquadModel implements the n-agent protocol.
type nSquadModel struct {
	n       int // total number of agents, including the general
	net     msgnet.Net
	improve bool
}

var _ protocol.Model = nSquadModel{}

// NFiringSquad returns the n-agent relaxed firing squad (n ≥ 2 agents
// total) over a channel with the given per-message loss probability.
// improved selects the Section 8-style refinement (the general refrains
// when any 'No' arrives). Beware of tree growth: the go=1 branch has
// 2^(2(n−1)) delivery patterns in round 0 alone; n ≤ 5 stays comfortable.
func NFiringSquad(n int, loss *big.Rat, improved bool) (protocol.Model, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: need n ≥ 2 agents, got %d", ErrBadParam, n)
	}
	net, err := msgnet.New(loss)
	if err != nil {
		return nil, fmt.Errorf("scenarios.NFiringSquad: %w", err)
	}
	return nSquadModel{n: n, net: net, improve: improved}, nil
}

// NFiringSquadSystem unfolds the n-agent squad into its pps.
func NFiringSquadSystem(n int, loss *big.Rat, improved bool) (*pps.System, error) {
	m, err := NFiringSquad(n, loss, improved)
	if err != nil {
		return nil, err
	}
	sys, err := protocol.Unfold(m)
	if err != nil {
		return nil, fmt.Errorf("scenarios.NFiringSquadSystem: %w", err)
	}
	return sys, nil
}

func (m nSquadModel) Agents() []string {
	out := make([]string, m.n)
	out[0] = General
	for i := 1; i < m.n; i++ {
		out[i] = fmt.Sprintf("s%d", i)
	}
	return out
}

func (m nSquadModel) Initials() []protocol.Weighted[protocol.Global] {
	mk := func(goVal string) protocol.Global {
		locals := make([]string, m.n)
		locals[0] = "go=" + goVal
		for i := 1; i < m.n; i++ {
			locals[i] = "start"
		}
		return protocol.Global{Env: "init", Locals: locals}
	}
	half := ratutil.R(1, 2)
	return []protocol.Weighted[protocol.Global]{
		protocol.W(mk("0"), half),
		protocol.W(mk("1"), ratutil.Copy(half)),
	}
}

func (m nSquadModel) Horizon() int { return 3 }

// msgsAt reconstructs the round's messages from the agents' actions.
func (m nSquadModel) msgsAt(acts []string, t int) []msgnet.Msg {
	var msgs []msgnet.Msg
	switch t {
	case 0:
		if acts[0] == "broadcast" {
			msgs = make([]msgnet.Msg, 0, 2*(m.n-1))
			for i := 1; i < m.n; i++ {
				msgs = append(msgs,
					msgnet.Msg{From: 0, To: i, Payload: "wake"},
					msgnet.Msg{From: 0, To: i, Payload: "wake"})
			}
		}
	case 1:
		msgs = make([]msgnet.Msg, 0, m.n-1)
		for i := 1; i < m.n; i++ {
			switch acts[i] {
			case "sendYes":
				msgs = append(msgs, msgnet.Msg{From: i, To: 0, Payload: "Yes"})
			case "sendNo":
				msgs = append(msgs, msgnet.Msg{From: i, To: 0, Payload: "No"})
			}
		}
	}
	return msgs
}

func (m nSquadModel) AgentStep(agent int, local string, t int) []protocol.Weighted[string] {
	goFlag := strings.Contains(local, "go=1")
	switch t {
	case 0:
		if agent == 0 && goFlag {
			return protocol.Det("broadcast")
		}
		return protocol.Det("noop")
	case 1:
		if agent != 0 {
			if strings.HasPrefix(local, "woken") {
				return protocol.Det("sendYes")
			}
			return protocol.Det("sendNo")
		}
		return protocol.Det("noop")
	default: // t == 2
		if agent == 0 {
			fire := goFlag
			if m.improve && strings.Contains(local, "no=y") {
				fire = false
			}
			if fire {
				return protocol.Det(ActFire)
			}
			return protocol.Det("noop")
		}
		if strings.HasPrefix(local, "woken") {
			return protocol.Det(ActFire)
		}
		return protocol.Det("noop")
	}
}

func (m nSquadModel) EnvStep(g protocol.Global, acts []string, t int) []protocol.Weighted[string] {
	return m.net.Patterns(m.msgsAt(acts, t))
}

// Next reads the delivery pattern message by message: the messages of
// each round are grouped by recipient in agent order, so this is the
// order in which per-recipient inboxes would read them.
func (m nSquadModel) Next(g protocol.Global, acts []string, envAct string, t int) (protocol.Global, error) {
	msgs := m.msgsAt(acts, t)
	next := g.Clone()
	switch t {
	case 0:
		for i := 1; i < m.n; i++ {
			next.Locals[i] = "asleep"
		}
		for k, msg := range msgs {
			ok, err := msgnet.Delivered(envAct, k)
			if err != nil {
				return protocol.Global{}, err
			}
			if ok {
				next.Locals[msg.To] = "woken"
			}
		}
		if acts[0] == "broadcast" {
			next.Locals[0] = g.Locals[0] + ",sent"
		}
		next.Env = "round1"
	case 1:
		yes, no := 0, 0
		for k, msg := range msgs {
			ok, err := msgnet.Delivered(envAct, k)
			if err != nil {
				return protocol.Global{}, err
			}
			switch {
			case !ok:
			case msg.Payload == "Yes":
				yes++
			default:
				no++
			}
		}
		noFlag := "n"
		if no > 0 {
			noFlag = "y"
		}
		next.Locals[0] = g.Locals[0] + ",yes=" + strconv.Itoa(yes) + ",no=" + noFlag +
			",silent=" + strconv.Itoa(m.n-1-yes-no)
		for i := 1; i < m.n; i++ {
			next.Locals[i] = g.Locals[i] + ",acked"
		}
		next.Env = "round2"
	default:
		for i := range next.Locals {
			next.Locals[i] = g.Locals[i] + ",end"
		}
		next.Env = "done"
	}
	return next, nil
}

// AllFireFact holds when every agent of an n-agent squad is currently
// firing.
func AllFireFact(n int) logic.Fact {
	fs := make([]logic.Fact, n)
	fs[0] = logic.Does(General, ActFire)
	for i := 1; i < n; i++ {
		fs[i] = logic.Does(fmt.Sprintf("s%d", i), ActFire)
	}
	return logic.And(fs...)
}
