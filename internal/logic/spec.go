package logic

// Structural fact specs: the serialization-friendly form of a fact.
// Every combinator in this package (and the epistemic operators built on
// it) can describe itself as a FactSpec tree, which internal/encode maps
// to and from the JSON fact-expression schema. Only the opaque
// escape-hatch predicates (Atom, LocalPred with an arbitrary predicate,
// EnvPred) cannot: their behaviour lives in a Go closure.

import (
	"strconv"
	"sync"
)

// FactSpec is the structural form of a serializable fact. Op names match
// the JSON schema of internal/encode (see encode.ParseFact); the other
// fields carry the operator's parameters, and Arg/Args carry subfacts.
type FactSpec struct {
	// Op is the operator name ("does", "and", "sometime", ...).
	Op string
	// Agent and Action parameterize agent/action operators.
	Agent  string
	Action string
	// Local is the localIs state; Substr is the localContains substring.
	Local  string
	Substr string
	// Env is the envIs environment state.
	Env string
	// Time is the timeIs/atTime time index.
	Time int
	// P is a probability threshold as an exact rational string
	// (epistemic believes).
	P string
	// Arg is the single subfact of unary operators.
	Arg *FactSpec
	// Args are the subfacts of variadic/binary operators.
	Args []FactSpec
}

// Speccer is implemented by facts that can report their structural form.
// The bool result is false when the fact (or one of its subfacts) is an
// opaque predicate that cannot be serialized.
type Speccer interface {
	Spec() (FactSpec, bool)
}

// SpecOf returns the structural form of f, with ok = false when f does
// not implement Speccer or contains an opaque subfact.
func SpecOf(f Fact) (FactSpec, bool) {
	s, ok := f.(Speccer)
	if !ok {
		return FactSpec{}, false
	}
	return s.Spec()
}

// specOfAll converts a subfact slice, failing if any subfact is opaque.
func specOfAll(fs []Fact) ([]FactSpec, bool) {
	out := make([]FactSpec, len(fs))
	for i, f := range fs {
		s, ok := SpecOf(f)
		if !ok {
			return nil, false
		}
		out[i] = s
	}
	return out, true
}

// specOfArg converts a single subfact for unary operators.
func specOfArg(op string, f Fact) (FactSpec, bool) {
	s, ok := SpecOf(f)
	if !ok {
		return FactSpec{}, false
	}
	return FactSpec{Op: op, Arg: &s}, true
}

func (trueFact) Spec() (FactSpec, bool)  { return FactSpec{Op: "true"}, true }
func (falseFact) Spec() (FactSpec, bool) { return FactSpec{Op: "false"}, true }

func (f doesFact) Spec() (FactSpec, bool) {
	return FactSpec{Op: "does", Agent: f.agent, Action: f.action}, true
}

func (f localIsFact) Spec() (FactSpec, bool) {
	return FactSpec{Op: "localIs", Agent: f.agent, Local: f.local}, true
}

func (f localContainsFact) Spec() (FactSpec, bool) {
	return FactSpec{Op: "localContains", Agent: f.agent, Substr: f.substr}, true
}

func (f envIsFact) Spec() (FactSpec, bool) { return FactSpec{Op: "envIs", Env: f.env}, true }

func (f timeIsFact) Spec() (FactSpec, bool) { return FactSpec{Op: "timeIs", Time: f.t0}, true }

func (f notFact) Spec() (FactSpec, bool) { return specOfArg("not", f.f) }

func (f andFact) Spec() (FactSpec, bool) {
	args, ok := specOfAll(f.fs)
	return FactSpec{Op: "and", Args: args}, ok
}

func (f orFact) Spec() (FactSpec, bool) {
	args, ok := specOfAll(f.fs)
	return FactSpec{Op: "or", Args: args}, ok
}

func (f sometimeFact) Spec() (FactSpec, bool) { return specOfArg("sometime", f.f) }
func (f alwaysFact) Spec() (FactSpec, bool)   { return specOfArg("always", f.f) }
func (f onceFact) Spec() (FactSpec, bool)     { return specOfArg("once", f.f) }
func (f soFarFact) Spec() (FactSpec, bool)    { return specOfArg("soFar", f.f) }

func (f eventuallyFact) Spec() (FactSpec, bool) { return specOfArg("eventually", f.f) }
func (f henceforthFact) Spec() (FactSpec, bool) { return specOfArg("henceforth", f.f) }

func (f atTimeFact) Spec() (FactSpec, bool) {
	s, ok := SpecOf(f.f)
	if !ok {
		return FactSpec{}, false
	}
	return FactSpec{Op: "atTime", Time: f.t0, Arg: &s}, true
}

// Key renders the spec as an unambiguous identity string for cache
// keys: every string parameter is quoted and subfacts are bracketed, so
// distinct specs never render equal (unlike display strings, where
// unquoted names such as does_a(b(c) can collide across operators).
func (s FactSpec) Key() string {
	return string(s.appendKey(make([]byte, 0, 64)))
}

// appendKey appends the Key rendering: op(agent,action,local,substr,
// env,time,p[,[arg]][,[args]...]) with every string quoted.
func (s *FactSpec) appendKey(b []byte) []byte {
	b = append(b, s.Op...)
	b = append(b, '(')
	for _, str := range [...]string{s.Agent, s.Action, s.Local, s.Substr, s.Env} {
		b = strconv.AppendQuote(b, str)
		b = append(b, ',')
	}
	b = strconv.AppendInt(b, int64(s.Time), 10)
	b = append(b, ',')
	b = strconv.AppendQuote(b, s.P)
	if s.Arg != nil {
		b = append(b, ",["...)
		b = s.Arg.appendKey(b)
		b = append(b, ']')
	}
	for i := range s.Args {
		b = append(b, ",["...)
		b = s.Args[i].appendKey(b)
		b = append(b, ']')
	}
	return append(b, ')')
}

// EpistemicOps reports which epistemic operators s contains: believes
// (whose extensions depend on the prior µ_T), and believes or knows
// (which the engine binds to its memo tables before a scan).
func (s *FactSpec) EpistemicOps() (believes, epistemic bool) {
	switch s.Op {
	case "believes":
		return true, true
	case "knows":
		epistemic = true
	}
	if s.Arg != nil {
		b, e := s.Arg.EpistemicOps()
		believes, epistemic = believes || b, epistemic || e
	}
	for i := range s.Args {
		b, e := s.Args[i].EpistemicOps()
		believes, epistemic = believes || b, epistemic || e
	}
	return believes, epistemic
}

// Prepared is a fact whose structural form is derived once: its spec
// and EpistemicOps bits at preparation, the spec's Key and the fact's
// display string on first use. A parsed fact (encode.ParseFact)
// arrives prepared, so the engine calls of a request find its memo
// entries without walking the spec tree and rendering the key on every
// call, and its result labels render it once. (Key and String wait for
// first use because a request answered from the result store reads
// only the spec.) A Prepared evaluates, renders and reports its spec
// exactly as the fact it wraps; it is safe for concurrent use.
type Prepared struct {
	Fact
	spec                FactSpec
	believes, epistemic bool

	keyOnce, strOnce sync.Once
	key, str         string
}

// Prepare returns f prepared, or f itself when it is already prepared
// or has no structural form (an opaque predicate).
func Prepare(f Fact) Fact {
	if _, ok := f.(*Prepared); ok {
		return f
	}
	spec, ok := SpecOf(f)
	if !ok {
		return f
	}
	p := &Prepared{Fact: f, spec: spec}
	p.believes, p.epistemic = spec.EpistemicOps()
	return p
}

// Spec implements Speccer with the spec derived at preparation. The
// returned spec shares its subtrees with the prepared one, so callers
// must not mutate them.
func (p *Prepared) Spec() (FactSpec, bool) { return p.spec, true }

// EpistemicOps is the spec's EpistemicOps.
func (p *Prepared) EpistemicOps() (believes, epistemic bool) { return p.believes, p.epistemic }

// Key is the spec's Key, rendered once.
func (p *Prepared) Key() string {
	p.keyOnce.Do(func() { p.key = p.spec.Key() })
	return p.key
}

// String is the wrapped fact's String, rendered once.
func (p *Prepared) String() string {
	p.strOnce.Do(func() { p.str = p.Fact.String() })
	return p.str
}
