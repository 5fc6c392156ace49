// Package encode provides a JSON representation of purely probabilistic
// systems and of facts, so systems can be stored, exchanged and analyzed
// by the command-line tools.
//
// A system document lists its agents and its non-root nodes. Node ids are
// dense and parents precede children; probabilities are exact rational
// strings ("1/2", "81/100"). A fact document is a small expression tree
// mirroring package logic's combinators.
package encode

import (
	"encoding/json"
	"errors"
	"fmt"

	"pak/internal/epistemic"
	"pak/internal/logic"
	"pak/internal/pps"
	"pak/internal/ratutil"
)

// Sentinel errors returned (wrapped) by this package.
var (
	// ErrBadDocument indicates malformed system JSON.
	ErrBadDocument = errors.New("encode: malformed system document")
	// ErrBadFact indicates malformed fact JSON.
	ErrBadFact = errors.New("encode: malformed fact document")
)

// nodeDoc is the JSON form of one tree node.
type nodeDoc struct {
	// ID is the node's identifier; ids are dense, start at 1 and a parent
	// always precedes its children.
	ID int `json:"id"`
	// Parent is the parent's id; 0 denotes the root λ.
	Parent int `json:"parent"`
	// Pr is the edge probability as an exact rational string.
	Pr string `json:"pr"`
	// Env is the environment component of the global state.
	Env string `json:"env,omitempty"`
	// Locals holds one local state per agent.
	Locals []string `json:"locals"`
	// Acts holds the joint action that produced this state (absent for
	// initial states).
	Acts []string `json:"acts,omitempty"`
	// EnvAct is the environment action that produced this state.
	EnvAct string `json:"envAct,omitempty"`
}

// systemDoc is the JSON form of a system.
type systemDoc struct {
	Agents []string  `json:"agents"`
	Nodes  []nodeDoc `json:"nodes"`
}

// Marshal renders sys as indented JSON.
func Marshal(sys *pps.System) ([]byte, error) {
	doc := systemDoc{Agents: sys.Agents()}
	for id := pps.NodeID(1); int(id) < sys.NumNodes(); id++ {
		doc.Nodes = append(doc.Nodes, nodeDoc{
			ID:     int(id),
			Parent: int(sys.ParentOf(id)),
			Pr:     ratutil.String(sys.EdgeProb(id)),
			Env:    sys.EnvOf(id),
			Locals: sys.LocalsOf(id),
			Acts:   sys.ActsOf(id),
			EnvAct: sys.EnvActOf(id),
		})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("encode.Marshal: %w", err)
	}
	return out, nil
}

// Unmarshal parses a system document and rebuilds the validated System.
func Unmarshal(data []byte) (*pps.System, error) {
	var doc systemDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDocument, err)
	}
	if len(doc.Agents) == 0 {
		return nil, fmt.Errorf("%w: no agents", ErrBadDocument)
	}
	b := pps.NewBuilder(doc.Agents...)
	// idMap maps document ids to builder NodeIDs; the root is 0 in both.
	idMap := map[int]pps.NodeID{0: pps.Root}
	for _, n := range doc.Nodes {
		pr, err := ratutil.Parse(n.Pr)
		if err != nil {
			return nil, fmt.Errorf("%w: node %d: %v", ErrBadDocument, n.ID, err)
		}
		parent, ok := idMap[n.Parent]
		if !ok {
			return nil, fmt.Errorf("%w: node %d references unknown parent %d (parents must precede children)",
				ErrBadDocument, n.ID, n.Parent)
		}
		if _, dup := idMap[n.ID]; dup {
			return nil, fmt.Errorf("%w: duplicate node id %d", ErrBadDocument, n.ID)
		}
		step := pps.Step{Pr: pr, Env: n.Env, Locals: n.Locals, Acts: n.Acts, EnvAct: n.EnvAct}
		var id pps.NodeID
		if parent == pps.Root {
			id = b.Init(pr, n.Env, n.Locals...)
		} else {
			id = b.Child(parent, step)
		}
		idMap[n.ID] = id
	}
	sys, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDocument, err)
	}
	return sys, nil
}

// factDoc is the JSON expression form of a fact.
type factDoc struct {
	Op     string            `json:"op"`
	Agent  string            `json:"agent,omitempty"`
	Action string            `json:"action,omitempty"`
	Local  string            `json:"local,omitempty"`
	Substr string            `json:"substr,omitempty"`
	Env    string            `json:"env,omitempty"`
	Time   int               `json:"time,omitempty"`
	P      string            `json:"p,omitempty"`
	Arg    json.RawMessage   `json:"arg,omitempty"`
	Args   []json.RawMessage `json:"args,omitempty"`
}

// ParseFact parses a fact expression document into a logic.Fact.
//
// Supported operators:
//
//	{"op":"true"} / {"op":"false"}
//	{"op":"does","agent":A,"action":X}
//	{"op":"performed","agent":A,"action":X}
//	{"op":"localIs","agent":A,"local":L}
//	{"op":"localContains","agent":A,"substr":S}
//	{"op":"envIs","env":E}
//	{"op":"timeIs","time":T}
//	{"op":"not","arg":F} / {"op":"sometime","arg":F} / {"op":"always","arg":F}
//	{"op":"once","arg":F} / {"op":"soFar","arg":F}
//	{"op":"eventually","arg":F} / {"op":"henceforth","arg":F}
//	{"op":"atTime","time":T,"arg":F}
//	{"op":"and","args":[F...]} / {"op":"or","args":[F...]}
//	{"op":"implies","args":[P,Q]} / {"op":"iff","args":[P,Q]}
//	{"op":"believes","agent":A,"p":"9/10","arg":F}  (B_A^p(F))
//	{"op":"knows","agent":A,"arg":F}                (K_A(F))
func ParseFact(data []byte) (logic.Fact, error) {
	var doc factDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFact, err)
	}
	s := logic.FactSpec{
		Op:     doc.Op,
		Agent:  doc.Agent,
		Action: doc.Action,
		Local:  doc.Local,
		Substr: doc.Substr,
		Env:    doc.Env,
		Time:   doc.Time,
		P:      doc.P,
	}
	// Check the node before its subfacts, so the error reported is the
	// first one in document order; subfacts the operator does not read
	// are never parsed.
	readArg, readArgs, err := logic.CheckNode(s, doc.Arg != nil, len(doc.Args))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFact, err)
	}
	var arg logic.Fact
	var args []logic.Fact
	if readArg {
		if arg, err = ParseFact(doc.Arg); err != nil {
			return nil, err
		}
	}
	if readArgs {
		args = make([]logic.Fact, len(doc.Args))
		for i, raw := range doc.Args {
			if args[i], err = ParseFact(raw); err != nil {
				return nil, err
			}
		}
	}
	f, err := logic.BuildNode(s, arg, args, epistemic.Ops{})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFact, err)
	}
	return f, nil
}

// Query is a full analysis request for the pakcheck tool: a probabilistic
// constraint µ(φ@α | α) ≥ p together with the belief analyses to run.
type Query struct {
	// Agent and Action identify the proper action α.
	Agent  string `json:"agent"`
	Action string `json:"action"`
	// Fact is the condition φ as a fact expression.
	Fact json.RawMessage `json:"fact"`
	// Threshold is the constraint threshold p as a rational string
	// (optional; empty means only report the measured values).
	Threshold string `json:"threshold,omitempty"`
}

// ParseQuery parses a Query document and resolves its fact.
func ParseQuery(data []byte) (Query, logic.Fact, error) {
	var q Query
	if err := json.Unmarshal(data, &q); err != nil {
		return Query{}, nil, fmt.Errorf("%w: %v", ErrBadFact, err)
	}
	if q.Agent == "" || q.Action == "" {
		return Query{}, nil, fmt.Errorf("%w: query requires agent and action", ErrBadFact)
	}
	if len(q.Fact) == 0 {
		return Query{}, nil, fmt.Errorf("%w: query requires a fact", ErrBadFact)
	}
	f, err := ParseFact(q.Fact)
	if err != nil {
		return Query{}, nil, err
	}
	return q, f, nil
}

// ErrOpaqueFact indicates a fact that cannot be serialized because it
// (or a subfact) is an opaque Go predicate (logic.Atom, LocalPred,
// EnvPred).
var ErrOpaqueFact = errors.New("encode: fact contains an opaque predicate and cannot be serialized")

// specToDoc converts a structural fact spec to its JSON document form.
func specToDoc(s logic.FactSpec) (factDoc, error) {
	doc := factDoc{
		Op:     s.Op,
		Agent:  s.Agent,
		Action: s.Action,
		Local:  s.Local,
		Substr: s.Substr,
		Env:    s.Env,
		Time:   s.Time,
		P:      s.P,
	}
	if s.Arg != nil {
		argDoc, err := specToDoc(*s.Arg)
		if err != nil {
			return factDoc{}, err
		}
		raw, err := json.Marshal(argDoc)
		if err != nil {
			return factDoc{}, fmt.Errorf("encode.MarshalFact: %w", err)
		}
		doc.Arg = raw
	}
	for _, arg := range s.Args {
		argDoc, err := specToDoc(arg)
		if err != nil {
			return factDoc{}, err
		}
		raw, err := json.Marshal(argDoc)
		if err != nil {
			return factDoc{}, fmt.Errorf("encode.MarshalFact: %w", err)
		}
		doc.Args = append(doc.Args, raw)
	}
	return doc, nil
}

// MarshalFact renders a fact as a JSON expression document, the inverse
// of ParseFact. Facts built from the structural combinators (everything
// except logic.Atom, LocalPred and EnvPred) serialize; opaque predicates
// return ErrOpaqueFact.
func MarshalFact(f logic.Fact) ([]byte, error) {
	spec, ok := logic.SpecOf(f)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrOpaqueFact, f)
	}
	doc, err := specToDoc(spec)
	if err != nil {
		return nil, err
	}
	out, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("encode.MarshalFact: %w", err)
	}
	return out, nil
}
