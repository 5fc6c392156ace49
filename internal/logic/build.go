package logic

import (
	"errors"
	"fmt"
	"math/big"

	"pak/internal/ratutil"
)

// Building facts from specs. The grammar table below is the one place
// that maps an operator name to its parameters and its constructor. The
// JSON fact parser (internal/encode) checks and builds each document
// node through it (CheckNode, BuildNode), and the engine (internal/core)
// rebuilds a fact's spec with its own epistemic operators before
// scanning it (FromSpec). Besides the operators SpecOf reports, the
// grammar accepts three abbreviations a document may use: performed
// (sometime(does)), implies and iff.

// Epistemic constructs the two epistemic operators, which live above
// this package. Package epistemic supplies self-contained ones
// (epistemic.Ops); the engine in internal/core supplies ones that read
// its memo tables. arg is the built subfact and argSpec its spec, which
// FromSpec always supplies and BuildNode's callers may leave nil.
type Epistemic interface {
	Believes(agent string, p *big.Rat, arg Fact, argSpec *FactSpec) Fact
	Knows(agent string, arg Fact, argSpec *FactSpec) Fact
}

// arity says where an operator keeps its subfacts.
type arity byte

const (
	leaf     arity = iota // none
	unary                 // Arg
	variadic              // Args, any number
	binary                // Args, exactly two
)

// opRule is one operator of the grammar.
type opRule struct {
	arity arity
	// check enforces the parameters a document must supply (nil: none).
	// FromSpec does not apply it: a fact built in Go may legally carry
	// an empty name, and its spec must still rebuild.
	check func(s FactSpec) error
	build builder
}

// builder constructs a node from its built subfacts: arg for a unary
// operator, args for the others.
type builder func(s FactSpec, arg Fact, args []Fact, ep Epistemic) (Fact, error)

// params adapts a constructor that reads only the node's parameters.
func params(build func(FactSpec) Fact) builder {
	return func(s FactSpec, _ Fact, _ []Fact, _ Epistemic) (Fact, error) { return build(s), nil }
}

// sub adapts a constructor of the one subfact.
func sub(build func(Fact) Fact) builder {
	return func(_ FactSpec, arg Fact, _ []Fact, _ Epistemic) (Fact, error) { return build(arg), nil }
}

// subs adapts a constructor of the subfact list.
func subs(build func([]Fact) Fact) builder {
	return func(_ FactSpec, _ Fact, args []Fact, _ Epistemic) (Fact, error) { return build(args), nil }
}

func needAgent(s FactSpec) error {
	if s.Agent == "" {
		return fmt.Errorf("%s requires agent", s.Op)
	}
	return nil
}

func needAgentAction(s FactSpec) error {
	if s.Agent == "" || s.Action == "" {
		return fmt.Errorf("op %q requires agent and action", s.Op)
	}
	return nil
}

// level parses a believes spec's probability.
func level(s FactSpec) (*big.Rat, error) {
	p, err := ratutil.Parse(s.P)
	if err != nil || !ratutil.IsProb(p) {
		return nil, fmt.Errorf("believes requires p in [0,1], got %q", s.P)
	}
	return p, nil
}

var errNoEpistemic = errors.New("epistemic operator without an Epistemic constructor")

var grammar = map[string]opRule{
	"true":      {build: params(func(FactSpec) Fact { return True() })},
	"false":     {build: params(func(FactSpec) Fact { return False() })},
	"does":      {check: needAgentAction, build: params(func(s FactSpec) Fact { return Does(s.Agent, s.Action) })},
	"performed": {check: needAgentAction, build: params(func(s FactSpec) Fact { return Performed(s.Agent, s.Action) })},
	"localIs":   {check: needAgent, build: params(func(s FactSpec) Fact { return LocalIs(s.Agent, s.Local) })},
	"localContains": {
		check: func(s FactSpec) error {
			if s.Agent == "" || s.Substr == "" {
				return errors.New("localContains requires agent and substr")
			}
			return nil
		},
		build: params(func(s FactSpec) Fact { return LocalContains(s.Agent, s.Substr) }),
	},
	"envIs":      {build: params(func(s FactSpec) Fact { return EnvIs(s.Env) })},
	"timeIs":     {build: params(func(s FactSpec) Fact { return TimeIs(s.Time) })},
	"not":        {arity: unary, build: sub(Not)},
	"sometime":   {arity: unary, build: sub(Sometime)},
	"always":     {arity: unary, build: sub(Always)},
	"once":       {arity: unary, build: sub(Once)},
	"soFar":      {arity: unary, build: sub(SoFar)},
	"eventually": {arity: unary, build: sub(Eventually)},
	"henceforth": {arity: unary, build: sub(Henceforth)},
	"atTime": {arity: unary, build: func(s FactSpec, arg Fact, _ []Fact, _ Epistemic) (Fact, error) {
		return AtTime(s.Time, arg), nil
	}},
	"and":     {arity: variadic, build: subs(func(fs []Fact) Fact { return And(fs...) })},
	"or":      {arity: variadic, build: subs(func(fs []Fact) Fact { return Or(fs...) })},
	"implies": {arity: binary, build: subs(func(fs []Fact) Fact { return Implies(fs[0], fs[1]) })},
	"iff":     {arity: binary, build: subs(func(fs []Fact) Fact { return Iff(fs[0], fs[1]) })},
	"believes": {
		arity: unary,
		check: func(s FactSpec) error {
			if err := needAgent(s); err != nil {
				return err
			}
			_, err := level(s)
			return err
		},
		build: func(s FactSpec, arg Fact, _ []Fact, ep Epistemic) (Fact, error) {
			p, err := level(s)
			if err != nil {
				return nil, err
			}
			if ep == nil {
				return nil, errNoEpistemic
			}
			return ep.Believes(s.Agent, p, arg, s.Arg), nil
		},
	},
	"knows": {
		arity: unary,
		check: needAgent,
		build: func(s FactSpec, arg Fact, _ []Fact, ep Epistemic) (Fact, error) {
			if ep == nil {
				return nil, errNoEpistemic
			}
			return ep.Knows(s.Agent, arg, s.Arg), nil
		},
	},
}

// lookup finds op's rule.
func lookup(op string) (opRule, error) {
	r, ok := grammar[op]
	if !ok {
		return opRule{}, fmt.Errorf("unknown op %q", op)
	}
	return r, nil
}

// subfacts checks that op's node has the subfacts the operator needs:
// hasArg says whether Arg is given, nargs how many Args are.
func (r opRule) subfacts(op string, hasArg bool, nargs int) error {
	switch {
	case r.arity == unary && !hasArg:
		return fmt.Errorf("op %q requires \"arg\"", op)
	case r.arity == binary && nargs != 2:
		return fmt.Errorf("op %q requires exactly 2 args", op)
	}
	return nil
}

// CheckNode checks one node of a fact document before its subfacts are
// decoded: the operator exists, the parameters a document must give are
// present, and the subfacts it needs are given (hasArg: an "arg"; nargs:
// the number of "args"; s.Arg and s.Args are ignored). A parser that
// checks each node before decoding its children reports the first error
// in document order. arg and args say which subfacts the operator reads:
// the parser builds only those and hands them to BuildNode.
func CheckNode(s FactSpec, hasArg bool, nargs int) (arg, args bool, err error) {
	r, err := lookup(s.Op)
	if err != nil {
		return false, false, err
	}
	if r.check != nil {
		if err := r.check(s); err != nil {
			return false, false, err
		}
	}
	if err := r.subfacts(s.Op, hasArg, nargs); err != nil {
		return false, false, err
	}
	return r.arity == unary, r.arity == variadic || r.arity == binary, nil
}

// BuildNode builds one node from its built subfacts, arg or args as
// CheckNode reported, with ep constructing the epistemic operators. It
// hands s.Arg to ep as argSpec, so a parser that builds node by node and
// has no spec tree passes nil there.
func BuildNode(s FactSpec, arg Fact, args []Fact, ep Epistemic) (Fact, error) {
	r, err := lookup(s.Op)
	if err != nil {
		return nil, err
	}
	return r.build(s, arg, args, ep)
}

// FromSpec builds the fact a spec describes, with ep constructing the
// epistemic operators (nil is fine for a spec without them). For every
// fact f with a spec s = SpecOf(f), FromSpec(s, ep) evaluates like f
// when ep's operators evaluate like package epistemic's. Errors name
// the offending operator; callers add their own context.
func FromSpec(s FactSpec, ep Epistemic) (Fact, error) {
	r, err := lookup(s.Op)
	if err != nil {
		return nil, err
	}
	if err := r.subfacts(s.Op, s.Arg != nil, len(s.Args)); err != nil {
		return nil, err
	}
	var arg Fact
	var args []Fact
	switch r.arity {
	case unary:
		if arg, err = FromSpec(*s.Arg, ep); err != nil {
			return nil, err
		}
	case variadic, binary:
		args = make([]Fact, len(s.Args))
		for i := range s.Args {
			if args[i], err = FromSpec(s.Args[i], ep); err != nil {
				return nil, err
			}
		}
	}
	return r.build(s, arg, args, ep)
}
