package registry

import (
	"fmt"
	"strings"
)

// Markdown renders the registry as the SCENARIOS.md catalog: one section
// per scenario with its description, the paper construct it exercises,
// its parameter table and a ready-to-run spec example. The document is
// generated (make docs → cmd/pakd -catalog) and CI fails when it drifts
// from the code, so the catalog below is always the registry's truth.
func (r *Registry) Markdown() string {
	var b strings.Builder
	b.WriteString("# SCENARIOS — the registered system catalog\n\n")
	b.WriteString("Generated by `go run ./cmd/pakd -catalog` (`make docs`); do not edit by\n")
	b.WriteString("hand — CI regenerates the catalog and fails on any diff.\n\n")
	b.WriteString("Every scenario is addressable by a spec string — `name`,\n")
	b.WriteString("`name(positional,...)` or `name(key=value,...)` — anywhere a system is\n")
	b.WriteString("consumed: `pakcheck -scenario`, the `pakd` service's `/v1/eval`\n")
	b.WriteString("endpoint, and `pak.BuildScenario`. Omitted parameters take the defaults\n")
	b.WriteString("below; rationals are exact (`1/10`, `0.25`, `3`).\n\n")
	b.WriteString("Scenarios also sweep: a space-valued spec\n")
	b.WriteString("`sweep(name,param=lo..hi/step,...)` names the whole adversary space of\n")
	b.WriteString("systems obtained by ranging rat/int parameters (fixed values and\n")
	b.WriteString("defaults fill the rest), and is what `pakcheck -sweep`, the `pakload`\n")
	b.WriteString("`envelope` mix and the service's `/v1/envelope` endpoints evaluate\n")
	b.WriteString("min/max envelopes over. Each scenario's section below shows a\n")
	b.WriteString("ready-to-run sweep where one makes sense.\n\n")

	scs := r.Scenarios()
	b.WriteString("| scenario | paper construct | parameters |\n")
	b.WriteString("| --- | --- | --- |\n")
	for _, s := range scs {
		names := make([]string, 0, len(s.Params))
		for _, p := range s.Params {
			names = append(names, p.Name)
		}
		params := "—"
		if len(names) > 0 {
			params = "`" + strings.Join(names, "`, `") + "`"
		}
		fmt.Fprintf(&b, "| [`%s`](#%s) | %s | %s |\n", s.Name, s.Name, s.Construct, params)
	}
	b.WriteString("\n")

	for _, s := range scs {
		fmt.Fprintf(&b, "## %s\n\n", s.Name)
		fmt.Fprintf(&b, "%s.\n\n", strings.TrimSuffix(s.Doc, "."))
		fmt.Fprintf(&b, "*Exercises: %s.*\n\n", strings.TrimSuffix(s.Construct, "."))
		if len(s.Params) == 0 {
			fmt.Fprintf(&b, "No parameters.\n\n```\n%s\n```\n\n", s.Name)
		} else {
			b.WriteString("| param | kind | default | meaning |\n")
			b.WriteString("| --- | --- | --- | --- |\n")
			for _, p := range s.Params {
				fmt.Fprintf(&b, "| `%s` | %s | `%s` | %s |\n", p.Name, p.Kind, p.Default, p.Doc)
			}
			fmt.Fprintf(&b, "\n```\n%s\n```\n\n", exampleSpec(s))
			if s.Sweep != "" {
				fmt.Fprintf(&b, "Sweep example (an envelope over the whole space):\n\n```\n%s\n```\n\n", s.Sweep)
			}
		}
		if len(s.Differential) > 0 {
			fmt.Fprintf(&b, "Differential instances (lazy ≡ eager engines and kernel ≡ naive measures, checked on every CI run): `%s`.\n\n",
				strings.Join(s.Differential, "`, `"))
		}
	}
	return b.String()
}

// exampleSpec renders the scenario's fully named default spec, which is
// also its canonical engine-cache key.
func exampleSpec(s Scenario) string {
	parts := make([]string, 0, len(s.Params))
	for _, p := range s.Params {
		parts = append(parts, p.Name+"="+p.Default)
	}
	return s.Name + "(" + strings.Join(parts, ",") + ")"
}
