package registry

// Space-valued scenario specs: the textual form of an adversary space
// over a registered scenario family, so envelope requests address whole
// sweeps the way plain specs address one system.
//
// Grammar (whitespace around tokens is ignored):
//
//	space  := "sweep" "(" scenario ("," param "=" (range | value))* ")"
//	range  := lo ".." hi [ "/" step ]
//
// The head is the reserved word "sweep"; the first argument names the
// registered scenario; every further argument is named. A value
// containing ".." sweeps that parameter; any other value fixes it, with
// the scenario's declared defaults filling the rest — exactly the
// binding rules of a plain spec.
//
// Range bounds and the step are exact rationals. lo sits before ".."
// and may use any rational spelling ("0", "0.25", "1/2"). The part
// after ".." splits on "/" into 1–4 tokens of sign/digit/dot form:
//
//	hi            → step defaults to 1
//	hi/step       → both plain ("0.5/0.1")
//	hi/sn/sd      → integral hi, fractional step ("5/1/10" = to 5 by 1/10)
//	hn/hd/sn/sd   → both fractional ("1/2/1/10" = to 1/2 by 1/10)
//
// so the ISSUE-style "loss=0.0..0.5/0.1" and the canonical all-rational
// "loss=0..1/2/1/10" name the same sweep. The canonical rendering
// (ResolvedSpace.Canonical) always writes lo..hi/step with RatString
// values — and num/den step tokens whenever hi is fractional — which
// re-parses to itself: the fixed point FuzzParseSpaceSpec pins.
//
// Resolution (Registry.ResolveSpace) expands every range under its
// parameter's declared kind — integer ranges need integral bounds and
// step — into one choice per swept parameter, in declared order, and
// enumerates the complete assignments: the adversaries of the paper's
// Section 2, each fixing every nondeterministic choice. Every
// assignment binds against the scenario exactly like a plain spec and
// yields its canonical system spec: the engine-cache key, so a sweep's
// instances flow through the same shared EngineCache/singleflight
// machinery as any other request.

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"pak/internal/ratutil"
)

// SweepHead is the reserved head of every space-valued spec; no
// scenario may register under it.
const SweepHead = "sweep"

// Expansion bounds: a single swept parameter may enumerate at most
// MaxRangeValues values, and a space at most MaxSpaceAssignments
// complete assignments. Both bind every caller (the spec grammar is
// client-reachable through the service, and even a trusted local sweep
// beyond these sizes is a mistake, not a workload).
const (
	MaxRangeValues      = 512
	MaxSpaceAssignments = 4096
)

// SweepRange is one swept parameter's lo..hi/step progression.
type SweepRange struct {
	Lo, Hi, Step *big.Rat
}

// Values enumerates the progression lo, lo+step, ... capped at hi,
// honouring MaxRangeValues (enforced at parse time, re-checked here).
func (r SweepRange) Values() []*big.Rat {
	var out []*big.Rat
	for v := ratutil.Copy(r.Lo); ratutil.Leq(v, r.Hi) && len(out) < MaxRangeValues; v = ratutil.Add(v, r.Step) {
		out = append(out, v)
	}
	return out
}

// count computes the progression's length without materializing it:
// floor((hi-lo)/step) + 1.
func (r SweepRange) count() int {
	q := ratutil.Div(ratutil.Sub(r.Hi, r.Lo), r.Step)
	n := new(big.Int).Quo(q.Num(), q.Denom())
	if !n.IsInt64() || n.Int64() >= MaxRangeValues {
		return MaxRangeValues + 1
	}
	return int(n.Int64()) + 1
}

// String renders the range canonically: lo..hi/step, RatString values,
// with the step in num/den token form whenever hi is fractional so the
// rendering re-parses to itself (see the grammar note above).
func (r SweepRange) String() string {
	step := r.Step.RatString()
	if !r.Hi.IsInt() && r.Step.IsInt() {
		step = r.Step.Num().String() + "/" + r.Step.Denom().String()
	}
	return r.Lo.RatString() + ".." + r.Hi.RatString() + "/" + step
}

// SpaceParam is one argument of a space spec: a fixed value or a range.
type SpaceParam struct {
	// Name is the scenario parameter the argument binds.
	Name string
	// Value is the fixed value when Range is nil.
	Value string
	// Range, when non-nil, sweeps the parameter.
	Range *SweepRange
}

// SpaceSpec is the parsed (grammar-level) form of a space-valued spec,
// before binding against a registry.
type SpaceSpec struct {
	// Scenario names the swept scenario family.
	Scenario string
	// Params holds the arguments in input order.
	Params []SpaceParam
}

// Swept reports whether any parameter is a range.
func (ss SpaceSpec) Swept() bool {
	for _, p := range ss.Params {
		if p.Range != nil {
			return true
		}
	}
	return false
}

// String renders the spec in the sweep grammar, parameters in their
// current order, ranges canonical.
func (ss SpaceSpec) String() string {
	var b strings.Builder
	b.WriteString(SweepHead + "(" + ss.Scenario)
	for _, p := range ss.Params {
		b.WriteString("," + p.Name + "=")
		if p.Range != nil {
			b.WriteString(p.Range.String())
		} else {
			b.WriteString(p.Value)
		}
	}
	b.WriteString(")")
	return b.String()
}

// ParseSpaceSpec parses a space-valued spec at the grammar level,
// without consulting any registry — the sweep analogue of ParseSpec,
// exported for tooling and the fuzz harness. For any input it either
// errors or returns a well-formed SpaceSpec; it never panics.
func ParseSpaceSpec(spec string) (SpaceSpec, error) {
	s := strings.TrimSpace(spec)
	if s == "" {
		return SpaceSpec{}, fmt.Errorf("%w: empty space spec", ErrBadSpec)
	}
	open := strings.IndexByte(s, '(')
	if open < 0 || strings.TrimSpace(s[:open]) != SweepHead {
		return SpaceSpec{}, fmt.Errorf("%w: a space spec is %s(scenario,param=lo..hi/step,...), got %q",
			ErrBadSpec, SweepHead, spec)
	}
	if !strings.HasSuffix(s, ")") {
		return SpaceSpec{}, fmt.Errorf("%w: %q is missing the closing parenthesis", ErrBadSpec, spec)
	}
	body := strings.TrimSpace(s[open+1 : len(s)-1])
	if strings.ContainsAny(body, "()") {
		return SpaceSpec{}, fmt.Errorf("%w: nested parentheses in %q", ErrBadSpec, spec)
	}
	if body == "" {
		return SpaceSpec{}, fmt.Errorf("%w: %s() names no scenario", ErrBadSpec, SweepHead)
	}
	parts := strings.Split(body, ",")
	name := strings.TrimSpace(parts[0])
	if !validIdent(name) {
		return SpaceSpec{}, fmt.Errorf("%w: bad scenario name %q in %q", ErrBadSpec, name, spec)
	}
	out := SpaceSpec{Scenario: name}
	seen := make(map[string]bool)
	for _, part := range parts[1:] {
		part = strings.TrimSpace(part)
		if part == "" {
			return SpaceSpec{}, fmt.Errorf("%w: empty argument in %q", ErrBadSpec, spec)
		}
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			return SpaceSpec{}, fmt.Errorf("%w: sweep arguments are named; %q in %q is not",
				ErrBadSpec, part, spec)
		}
		key := strings.TrimSpace(part[:eq])
		val := strings.TrimSpace(part[eq+1:])
		if !validIdent(key) {
			return SpaceSpec{}, fmt.Errorf("%w: bad parameter name %q in %q", ErrBadSpec, key, spec)
		}
		if val == "" {
			return SpaceSpec{}, fmt.Errorf("%w: parameter %q has no value in %q", ErrBadSpec, key, spec)
		}
		if seen[key] {
			return SpaceSpec{}, fmt.Errorf("%w: parameter %q repeated in %q", ErrBadSpec, key, spec)
		}
		seen[key] = true
		p := SpaceParam{Name: key}
		if strings.Contains(val, "..") {
			rg, err := parseSweepRange(val)
			if err != nil {
				return SpaceSpec{}, fmt.Errorf("%w: parameter %q: %v", ErrBadSpec, key, err)
			}
			p.Range = rg
		} else {
			p.Value = val
		}
		out.Params = append(out.Params, p)
	}
	return out, nil
}

// parseSweepRange parses one lo..hi[/step] range per the grammar note.
func parseSweepRange(s string) (*SweepRange, error) {
	dots := strings.Index(s, "..")
	lo, rest := strings.TrimSpace(s[:dots]), strings.TrimSpace(s[dots+2:])
	if strings.Contains(rest, "..") {
		return nil, fmt.Errorf("a range has exactly one '..', got %q", s)
	}
	loRat, err := rangeRat(lo)
	if err != nil {
		return nil, fmt.Errorf("range start: %v", err)
	}
	toks := strings.Split(rest, "/")
	for i, t := range toks {
		toks[i] = strings.TrimSpace(t)
	}
	var hi, step *big.Rat
	switch len(toks) {
	case 1:
		hi, err = plainTok(toks[0])
		step = ratutil.One()
	case 2:
		if hi, err = plainTok(toks[0]); err == nil {
			step, err = plainTok(toks[1])
		}
	case 3:
		if hi, err = plainTok(toks[0]); err == nil {
			step, err = fracTok(toks[1], toks[2])
		}
	case 4:
		if hi, err = fracTok(toks[0], toks[1]); err == nil {
			step, err = fracTok(toks[2], toks[3])
		}
	default:
		return nil, fmt.Errorf("range end %q has too many '/' tokens", rest)
	}
	if err != nil {
		return nil, fmt.Errorf("range end %q: %v", rest, err)
	}
	if step.Sign() <= 0 {
		return nil, fmt.Errorf("range step %s is not positive", step.RatString())
	}
	if ratutil.Greater(loRat, hi) {
		return nil, fmt.Errorf("range start %s is above its end %s", loRat.RatString(), hi.RatString())
	}
	rg := &SweepRange{Lo: loRat, Hi: hi, Step: step}
	if n := rg.count(); n > MaxRangeValues {
		return nil, fmt.Errorf("range enumerates more than %d values", MaxRangeValues)
	}
	return rg, nil
}

// plainTok parses one sign/digit/dot token ("-3", "0.25").
func plainTok(tok string) (*big.Rat, error) {
	if tok == "" {
		return nil, fmt.Errorf("empty number")
	}
	for _, c := range tok {
		switch {
		case c >= '0' && c <= '9', c == '.', c == '+', c == '-':
		default:
			return nil, fmt.Errorf("bad number %q (digits, '.', sign)", tok)
		}
	}
	return ratutil.Parse(tok)
}

// fracTok parses a num/den token pair into one rational.
func fracTok(num, den string) (*big.Rat, error) {
	n, err := plainTok(num)
	if err != nil {
		return nil, err
	}
	d, err := plainTok(den)
	if err != nil {
		return nil, err
	}
	if d.Sign() == 0 {
		return nil, fmt.Errorf("zero denominator in %q/%q", num, den)
	}
	return ratutil.Div(n, d), nil
}

// rangeRat parses the lo bound, which may use the full rational grammar
// (it is delimited by "..", so "1/2" is unambiguous there).
func rangeRat(tok string) (*big.Rat, error) {
	if tok == "" {
		return nil, fmt.Errorf("empty number")
	}
	for _, c := range tok {
		switch {
		case c >= '0' && c <= '9', c == '.', c == '/', c == '+', c == '-':
		default:
			return nil, fmt.Errorf("bad number %q (digits, '.', '/', sign)", tok)
		}
	}
	return ratutil.Parse(tok)
}

// Assignment fixes every swept parameter of a space: one complete
// adversary, parameter name → registry-normalized value.
type Assignment map[string]string

// String renders the assignment deterministically, sorted by name:
// "loss=1/10,n=3". It labels envelope slots and witnesses on the wire.
func (a Assignment) String() string {
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n + "=" + a[n])
	}
	return b.String()
}

// choice is one swept parameter with its normalized option values.
type choice struct {
	name    string
	options []string
}

// forEachAssignment calls fn for every complete assignment of choices in
// lexicographic option order (the first choice varies slowest) and stops
// at fn's first error. No choices yield one empty assignment.
func forEachAssignment(choices []choice, fn func(Assignment) error) error {
	idx := make([]int, len(choices))
	for {
		a := make(Assignment, len(choices))
		for i, c := range choices {
			a[c.name] = c.options[idx[i]]
		}
		if err := fn(a); err != nil {
			return err
		}
		i := len(choices) - 1
		for ; i >= 0; i-- {
			if idx[i]++; idx[i] < len(choices[i].options) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return nil
		}
	}
}

// SpaceInstance is one enumerated assignment of a resolved space with
// the canonical system spec it binds to — the engine-cache key its
// engine is shared under.
type SpaceInstance struct {
	// Assignment fixes every swept parameter.
	Assignment Assignment
	// Canonical is the assignment's fully resolved system spec.
	Canonical string
}

// ResolvedSpace is a space spec bound against a registry: the
// enumerated, validated instances of its swept parameters.
type ResolvedSpace struct {
	scenario  string
	params    []SpaceParam // declared order, fixed values normalized
	instances []SpaceInstance
}

// ScenarioName returns the swept scenario's name.
func (rs *ResolvedSpace) ScenarioName() string { return rs.scenario }

// Size returns the number of complete assignments.
func (rs *ResolvedSpace) Size() int { return len(rs.instances) }

// Instances returns the enumerated assignments in canonical order (a
// copy; the canonical specs are the engine-cache keys).
func (rs *ResolvedSpace) Instances() []SpaceInstance {
	return append([]SpaceInstance(nil), rs.instances...)
}

// Canonical renders the resolved space's canonical spec: every declared
// parameter present (defaults filled), in declared order, fixed values
// normalized and ranges in canonical form. Like a plain spec's
// canonical form it is a fixed point: resolving it again yields the
// same rendering.
func (rs *ResolvedSpace) Canonical() string {
	return SpaceSpec{Scenario: rs.scenario, Params: rs.params}.String()
}

// ResolveSpace parses a space-valued spec and binds it against the
// registry: ranges expand under their parameters' declared kinds, the
// swept parameters become the space's choices, and every complete
// assignment is validated by binding it exactly like a plain spec,
// yielding its canonical system spec. The instances are enumerated in
// the space's canonical order (declared parameter order, progression
// option order).
func (r *Registry) ResolveSpace(spec string) (*ResolvedSpace, error) {
	ss, err := ParseSpaceSpec(spec)
	if err != nil {
		return nil, err
	}
	sc, ok := r.Lookup(ss.Scenario)
	if !ok {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownScenario, ss.Scenario, r.Names())
	}
	declared := make(map[string]Param, len(sc.Params))
	for _, p := range sc.Params {
		declared[p.Name] = p
	}
	byName := make(map[string]SpaceParam, len(ss.Params))
	for _, p := range ss.Params {
		dp, ok := declared[p.Name]
		if !ok {
			known := make([]string, 0, len(sc.Params))
			for _, q := range sc.Params {
				known = append(known, q.Name)
			}
			return nil, fmt.Errorf("%w: %s has no parameter %q (have %v)", ErrBadSpec, sc.Name, p.Name, known)
		}
		if p.Range != nil {
			if err := vetRangeKind(dp, p.Range); err != nil {
				return nil, err
			}
		}
		byName[p.Name] = p
	}

	// Reassemble in declared order with defaults filled, normalizing
	// fixed values now so Canonical() needs no second pass.
	ordered := make([]SpaceParam, 0, len(sc.Params))
	fixed := make(map[string]string)
	var choices []choice
	for _, dp := range sc.Params {
		p, ok := byName[dp.Name]
		if !ok {
			p = SpaceParam{Name: dp.Name, Value: dp.Default}
		}
		if p.Range == nil {
			norm, err := normalize(dp.Kind, p.Value)
			if err != nil {
				return nil, fmt.Errorf("%w: %s parameter %q: %v", ErrBadSpec, sc.Name, dp.Name, err)
			}
			p.Value = norm
			fixed[dp.Name] = norm
			ordered = append(ordered, p)
			continue
		}
		values := p.Range.Values()
		options := make([]string, len(values))
		for i, v := range values {
			norm, err := normalize(dp.Kind, v.RatString())
			if err != nil {
				return nil, fmt.Errorf("%w: %s parameter %q value %s: %v",
					ErrBadSpec, sc.Name, dp.Name, v.RatString(), err)
			}
			options[i] = norm
		}
		choices = append(choices, choice{name: dp.Name, options: options})
		ordered = append(ordered, p)
	}
	// Multiply the option counts only until the product passes the cap:
	// enough swept parameters would overflow an int otherwise.
	size := 1
	for i, c := range choices {
		if size *= len(c.options); size > MaxSpaceAssignments {
			bound := ""
			if i < len(choices)-1 {
				bound = "at least "
			}
			return nil, fmt.Errorf("%w: %s enumerates %s%d assignments, above the bound of %d",
				ErrBadSpec, ss.String(), bound, size, MaxSpaceAssignments)
		}
	}

	rs := &ResolvedSpace{scenario: sc.Name, params: ordered}
	err = forEachAssignment(choices, func(a Assignment) error {
		named := make(map[string]string, len(fixed)+len(a))
		for k, v := range fixed {
			named[k] = v
		}
		for k, v := range a {
			named[k] = v
		}
		args, err := bind(sc, nil, named)
		if err != nil {
			return fmt.Errorf("assignment %v: %w", a, err)
		}
		rs.instances = append(rs.instances, SpaceInstance{Assignment: a, Canonical: args.Canonical()})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rs, nil
}

// vetRangeKind checks a range against its parameter's declared kind:
// only rationals and integers sweep, and integer ranges must have
// integral bounds and step.
func vetRangeKind(p Param, rg *SweepRange) error {
	switch p.Kind {
	case KindRat:
		return nil
	case KindInt:
		if !rg.Lo.IsInt() || !rg.Hi.IsInt() || !rg.Step.IsInt() {
			return fmt.Errorf("%w: integer parameter %q needs an integral range, got %s",
				ErrBadSpec, p.Name, rg)
		}
		return nil
	default:
		return fmt.Errorf("%w: parameter %q is %s; only rat and int parameters sweep",
			ErrBadSpec, p.Name, p.Kind)
	}
}
