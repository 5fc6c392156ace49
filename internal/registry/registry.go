// Package registry is the name → builder scenario registry: every
// ready-made system of the repository (the paper's own constructions and
// the motivating distributed-computing workloads) addressable by a
// compact textual spec such as "fsquad", "nsquad(5)" or
// "random(seed=42,agents=3)". A scenario is self-describing — name,
// description, the paper construct it exercises, and a typed parameter
// list with defaults — so the CLIs, the pakd service and the generated
// SCENARIOS.md catalog all draw from one source of truth and system
// construction lives in one place.
package registry

import (
	"errors"
	"fmt"
	"math/big"
	"sort"
	"strconv"
	"sync"

	"pak/internal/pps"
	"pak/internal/ratutil"
)

// Errors reported by the registry. ErrUnknownScenario and ErrBadSpec are
// the two the service layer maps to client-side HTTP statuses.
var (
	// ErrUnknownScenario indicates a spec naming no registered scenario.
	ErrUnknownScenario = errors.New("registry: unknown scenario")
	// ErrBadSpec indicates a malformed spec string or parameters outside
	// their declared kind/domain.
	ErrBadSpec = errors.New("registry: invalid scenario spec")
	// ErrDuplicate indicates a Register call reusing a taken name.
	ErrDuplicate = errors.New("registry: duplicate scenario name")
)

// ParamKind is the type of a scenario parameter value.
type ParamKind string

// The parameter kinds. Rationals accept "1/10", "0.25" and "3"; bools
// accept "true"/"false".
const (
	KindRat    ParamKind = "rat"
	KindInt    ParamKind = "int"
	KindBool   ParamKind = "bool"
	KindString ParamKind = "string"
)

// Param declares one scenario parameter: its name, kind, default value
// (rendered as the spec string that would produce it) and what it means.
type Param struct {
	Name    string    `json:"name"`
	Kind    ParamKind `json:"kind"`
	Default string    `json:"default"`
	Doc     string    `json:"doc"`
}

// Scenario is one registered system family.
type Scenario struct {
	// Name is the spec name (lowercase identifier).
	Name string `json:"name"`
	// Doc is a one-line description of the system.
	Doc string `json:"doc"`
	// Construct names the paper construct the scenario exercises
	// (example, figure, theorem or extension).
	Construct string `json:"construct"`
	// Params declares the accepted parameters, in positional order.
	Params []Param `json:"params,omitempty"`
	// Sweep, when nonempty, is an example space-valued spec for the
	// scenario (the sweep(...) grammar of ParseSpaceSpec): the catalog
	// and GET /v1/scenarios advertise it so clients can discover
	// envelope requests. Register validates that it parses and names
	// this scenario.
	Sweep string `json:"sweep,omitempty"`
	// Differential lists the spec instances the differential tests
	// evaluate for this scenario: internal/query's
	// TestLazyMatchesEagerEverywhere requires source-built engines to
	// answer byte-identically to prebuilt ones over a standard query
	// batch on each, and the root kernel ≡ naive sweep checks the
	// measure kernel on each. Register validates that each entry parses,
	// names this scenario and binds its declared parameters; the catalog
	// and GET /v1/scenarios advertise the list so new scenarios are
	// visibly expected to enroll in the cross-checks.
	Differential []string `json:"differential,omitempty"`
	// Build constructs the system from validated arguments. It is never
	// nil for a registered scenario and is not serialized.
	Build func(Args) (*pps.System, error) `json:"-"`
	// ServeGuard, when non-nil, vets resolved arguments for exposure
	// through an unauthenticated service: the pakd service consults it
	// before building, so one wire request cannot demand an unbounded
	// unfold, while trusted local callers (the CLIs, library users)
	// bypass it and keep the builder's full domain.
	ServeGuard func(Args) error `json:"-"`
}

// Args is a scenario's validated argument set: every declared parameter
// is present (explicit or default) and parses under its declared kind.
type Args struct {
	scenario string
	vals     map[string]string
	order    []Param
}

// Raw returns the raw string value of the named parameter.
func (a Args) Raw(name string) string { return a.vals[name] }

// Rat returns a rational parameter. It panics on undeclared names or
// non-rat kinds — a registry programming error, not a user input error —
// because validation already proved declared values parse.
func (a Args) Rat(name string) *big.Rat {
	a.mustKind(name, KindRat)
	return ratutil.MustParse(a.vals[name])
}

// Int returns an integer parameter narrowed to the platform int.
// Builders must range-check via Int64 BEFORE narrowing: on 32-bit
// platforms int(x) aliases huge client-supplied values onto small ones,
// which would dodge any bounds check done after the conversion.
func (a Args) Int(name string) int { return int(a.Int64(name)) }

// Int64 returns an integer parameter at full width (KindInt values are
// validated as 64-bit, so seeds and other large integers survive 32-bit
// platforms).
func (a Args) Int64(name string) int64 {
	a.mustKind(name, KindInt)
	n, err := strconv.ParseInt(a.vals[name], 10, 64)
	if err != nil {
		panic(fmt.Sprintf("registry: validated int %q did not parse: %v", name, err))
	}
	return n
}

// Bool returns a boolean parameter.
func (a Args) Bool(name string) bool {
	a.mustKind(name, KindBool)
	return a.vals[name] == "true"
}

// String returns a string parameter.
func (a Args) String(name string) string {
	a.mustKind(name, KindString)
	return a.vals[name]
}

func (a Args) mustKind(name string, want ParamKind) {
	for _, p := range a.order {
		if p.Name == name {
			if p.Kind != want {
				panic(fmt.Sprintf("registry: scenario %q param %q is %s, accessed as %s",
					a.scenario, name, p.Kind, want))
			}
			return
		}
	}
	panic(fmt.Sprintf("registry: scenario %q has no param %q", a.scenario, name))
}

// Canonical renders the fully resolved spec, with every parameter named
// and in declared order: the cache key the service layer shares engines
// under, so "nsquad(3)", "nsquad(n=3)" and "nsquad(n=3,loss=1/10,
// improved=false)" all address one engine.
func (a Args) Canonical() string {
	if len(a.order) == 0 {
		return a.scenario
	}
	out := a.scenario + "("
	for i, p := range a.order {
		if i > 0 {
			out += ","
		}
		out += p.Name + "=" + a.vals[p.Name]
	}
	return out + ")"
}

// Registry maps scenario names to builders. The zero value is not ready;
// use New. A Registry is safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]Scenario
}

// New returns an empty registry.
func New() *Registry { return &Registry{byName: make(map[string]Scenario)} }

// Register adds a scenario. The name must be a nonempty identifier not
// already taken, the builder must be non-nil, and parameter declarations
// must be well-formed (distinct names, parseable defaults).
func (r *Registry) Register(s Scenario) error {
	if s.Name == "" || !validIdent(s.Name) {
		return fmt.Errorf("%w: scenario name %q", ErrBadSpec, s.Name)
	}
	if s.Name == SweepHead {
		return fmt.Errorf("%w: scenario name %q is reserved for space-valued specs", ErrBadSpec, s.Name)
	}
	if s.Build == nil {
		return fmt.Errorf("%w: scenario %q has no builder", ErrBadSpec, s.Name)
	}
	if s.Sweep != "" {
		ss, err := ParseSpaceSpec(s.Sweep)
		if err != nil {
			return fmt.Errorf("registry: scenario %q sweep example: %w", s.Name, err)
		}
		if ss.Scenario != s.Name {
			return fmt.Errorf("%w: scenario %q sweep example names %q", ErrBadSpec, s.Name, ss.Scenario)
		}
	}
	for _, d := range s.Differential {
		name, pos, named, err := parseSpec(d)
		if err != nil {
			return fmt.Errorf("registry: scenario %q differential example: %w", s.Name, err)
		}
		if name != s.Name {
			return fmt.Errorf("%w: scenario %q differential example names %q", ErrBadSpec, s.Name, name)
		}
		if _, err := bind(s, pos, named); err != nil {
			return fmt.Errorf("registry: scenario %q differential example %q: %w", s.Name, d, err)
		}
	}
	// Normalizing writes back into s.Params, so copy the slices first:
	// Register must not mutate the caller's Scenario value.
	s.Differential = append([]string(nil), s.Differential...)
	s.Params = append([]Param(nil), s.Params...)
	seen := make(map[string]bool, len(s.Params))
	for i, p := range s.Params {
		if p.Name == "" || !validIdent(p.Name) {
			return fmt.Errorf("%w: scenario %q param name %q", ErrBadSpec, s.Name, p.Name)
		}
		if seen[p.Name] {
			return fmt.Errorf("%w: scenario %q repeats param %q", ErrBadSpec, s.Name, p.Name)
		}
		seen[p.Name] = true
		// Normalize declared defaults too, so the catalog's example specs
		// and Args.Canonical always agree on one spelling.
		norm, err := normalize(p.Kind, p.Default)
		if err != nil {
			return fmt.Errorf("registry: scenario %q param %q default: %w", s.Name, p.Name, err)
		}
		s.Params[i].Default = norm
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, taken := r.byName[s.Name]; taken {
		return fmt.Errorf("%w: %q", ErrDuplicate, s.Name)
	}
	r.byName[s.Name] = s
	return nil
}

// Names returns the registered scenario names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.byName))
	for name := range r.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Lookup returns the named scenario's metadata. The Params slice is a
// copy — mutating it cannot corrupt the registry (the mirror of
// Register's defensive copy on the way in).
func (r *Registry) Lookup(name string) (Scenario, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.byName[name]
	if ok {
		s.Params = append([]Param(nil), s.Params...)
	}
	return s, ok
}

// Scenarios returns every registered scenario, sorted by name.
func (r *Registry) Scenarios() []Scenario {
	names := r.Names()
	out := make([]Scenario, 0, len(names))
	for _, name := range names {
		s, _ := r.Lookup(name)
		out = append(out, s)
	}
	return out
}

// Resolve parses a spec against the registry: it finds the named
// scenario, binds positional and named arguments to its declared
// parameters, fills defaults, and validates every value under its kind.
// The returned Args are ready for the scenario's builder.
func (r *Registry) Resolve(spec string) (Scenario, Args, error) {
	name, pos, named, err := parseSpec(spec)
	if err != nil {
		return Scenario{}, Args{}, err
	}
	s, ok := r.Lookup(name)
	if !ok {
		return Scenario{}, Args{}, fmt.Errorf("%w: %q (have %v)", ErrUnknownScenario, name, r.Names())
	}
	args, err := bind(s, pos, named)
	if err != nil {
		return Scenario{}, Args{}, err
	}
	return s, args, nil
}

// Canonical resolves a spec to its canonical form — every parameter
// named, in declared order, values normalized — without building the
// system. It is the engine-cache key plumbing: the service layer, the
// load harness and tests all derive cache identities through this one
// call, so two spellings of a system can never address two engines.
func (r *Registry) Canonical(spec string) (string, error) {
	_, args, err := r.Resolve(spec)
	if err != nil {
		return "", err
	}
	return args.Canonical(), nil
}

// Build resolves the spec and constructs its system.
func (r *Registry) Build(spec string) (*pps.System, error) {
	s, args, err := r.Resolve(spec)
	if err != nil {
		return nil, err
	}
	sys, err := s.Build(args)
	if err != nil {
		return nil, fmt.Errorf("registry: build %s: %w", args.Canonical(), err)
	}
	if sys == nil {
		// Register accepts arbitrary builders; a (nil, nil) return here
		// would otherwise surface as a nil-pointer panic at first use.
		return nil, fmt.Errorf("registry: build %s: builder returned a nil system", args.Canonical())
	}
	return sys, nil
}

// bind assigns positional then named argument values to the scenario's
// declared parameters, fills defaults, and validates kinds.
func bind(s Scenario, pos []string, named map[string]string) (Args, error) {
	if len(pos) > len(s.Params) {
		return Args{}, fmt.Errorf("%w: %s takes at most %d parameter(s), got %d positional",
			ErrBadSpec, s.Name, len(s.Params), len(pos))
	}
	vals := make(map[string]string, len(s.Params))
	for i, v := range pos {
		vals[s.Params[i].Name] = v
	}
	declared := make(map[string]Param, len(s.Params))
	for _, p := range s.Params {
		declared[p.Name] = p
	}
	for name, v := range named {
		p, ok := declared[name]
		if !ok {
			known := make([]string, 0, len(s.Params))
			for _, q := range s.Params {
				known = append(known, q.Name)
			}
			return Args{}, fmt.Errorf("%w: %s has no parameter %q (have %v)", ErrBadSpec, s.Name, name, known)
		}
		if _, dup := vals[p.Name]; dup {
			return Args{}, fmt.Errorf("%w: %s parameter %q given both positionally and by name",
				ErrBadSpec, s.Name, name)
		}
		vals[name] = v
	}
	for _, p := range s.Params {
		v, ok := vals[p.Name]
		if !ok {
			v = p.Default
		}
		norm, err := normalize(p.Kind, v)
		if err != nil {
			return Args{}, fmt.Errorf("%w: %s parameter %q: %v", ErrBadSpec, s.Name, p.Name, err)
		}
		vals[p.Name] = norm
	}
	return Args{scenario: s.Name, vals: vals, order: s.Params}, nil
}

// maxServeValueLen bounds a normalized parameter value on the service
// path (it does not bind Resolve/Build — trusted local callers keep
// the builders' full domain). Values are canonical renderings, so this
// one cap covers magnitude too: big.Rat's compact exponent forms
// ("1e1000000" is 9 characters but a 3.3-Mbit integer) expand to full
// digits at normalization, a ≤ 64-char "N/D" keeps every numerator and
// denominator under ~210 bits, and the canonical engine-cache keys
// stay small.
const maxServeValueLen = 64

// VetForService applies the generic bound every scenario shares when
// exposed through an unauthenticated service. The pakd service calls
// it (alongside any per-scenario ServeGuard) before building; local
// callers bypass it.
func (a Args) VetForService() error {
	for _, p := range a.order {
		if v := a.vals[p.Name]; len(v) > maxServeValueLen {
			return fmt.Errorf("%w: %s parameter %q is %d characters, above the service limit of %d",
				ErrBadSpec, a.scenario, p.Name, len(v), maxServeValueLen)
		}
	}
	return nil
}

// normalize validates a rendered value under a parameter kind and
// returns its canonical rendering, so equivalent spellings ("0.1" and
// "1/10", "03" and "3") bind to one value — and hence to one canonical
// spec, the identity the service shares engines under.
func normalize(kind ParamKind, v string) (string, error) {
	switch kind {
	case KindRat:
		// The spec grammar for rationals is digits, '.', '/' and a sign —
		// deliberately narrower than big.Rat.SetString, whose exponent
		// forms ("1e999999", 8 characters) expand to megabyte strings
		// the moment they are parsed and re-rendered. Rejecting them
		// here keeps bind cost proportional to the spec's length.
		for _, c := range v {
			switch {
			case c >= '0' && c <= '9', c == '.', c == '/', c == '+', c == '-':
			default:
				return "", fmt.Errorf("want a rational (digits, '.', '/'), got %q", v)
			}
		}
		rat, err := ratutil.Parse(v)
		if err != nil {
			return "", fmt.Errorf("want a rational, got %q: %v", v, err)
		}
		return rat.RatString(), nil
	case KindInt:
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return "", fmt.Errorf("want an integer, got %q", v)
		}
		return strconv.FormatInt(n, 10), nil
	case KindBool:
		if v != "true" && v != "false" {
			return "", fmt.Errorf("want true or false, got %q", v)
		}
		return v, nil
	case KindString:
		if v == "" {
			return "", errors.New("want a nonempty string")
		}
		return v, nil
	default:
		return "", fmt.Errorf("unknown param kind %q", kind)
	}
}
