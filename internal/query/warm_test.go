package query_test

import (
	"fmt"
	"strings"
	"testing"

	"pak/internal/core"
	"pak/internal/montecarlo"
	"pak/internal/query"
	"pak/internal/ratutil"
	"pak/internal/registry"
)

// standardBatch is the service benchmark's standard batch against the
// n-squad's General, as the wire sends it: constraint, expectation,
// Theorem 6.2 and a threshold at 9/10 on "all fire", and the
// independence of s1's firing from the General's.
func standardBatch(n int) string {
	does := func(agent string) string {
		return fmt.Sprintf(`{"op":"does","agent":%q,"action":"fire"}`, agent)
	}
	args := []string{does("General")}
	for i := 1; i < n; i++ {
		args = append(args, does(fmt.Sprintf("s%d", i)))
	}
	all := `{"op":"and","args":[` + strings.Join(args, ",") + `]}`
	q := func(kind, extra, fact string) string {
		return fmt.Sprintf(`{"kind":%q,"agent":"General","action":"fire"%s,"fact":%s}`, kind, extra, fact)
	}
	return "[" + strings.Join([]string{
		q("constraint", "", all),
		q("expectation", "", all),
		q("theorem", `,"theorem":"expectation"`, all),
		q("threshold", `,"threshold":"9/10"`, all),
		q("independence", "", does("s1")),
	}, ",") + "]"
}

// maxWarmBatchAllocs is the allocation ceiling of one warm pass of the
// standard batch on a resident nsquad(3) engine and sampling model: the
// batch evaluated exactly, then again under a 32-sample approx spec.
// Everything pure is memoized by then, so the pass measures 1,219
// allocations on linux/amd64 with Go 1.24 (1,256 under -race).
// It took 3,955 while every engine call re-derived a parsed fact's spec
// and key, every estimate re-derived ln(2/δ) as a big.Rat series, and
// sampled believes facts rescanned the agent's local state, and 1,243
// while the independence and theorem queries re-derived
// IsDeterministicAction's verdict. The ceiling leaves 7% (3.9% under
// -race): re-deriving the keys alone costs 151 more, ln(2/δ) per
// estimate 283 more, and the determinism verdict per query 24 more.
// (The past-based memo saves scan time, not allocations:
// TestPastBasedScanCtxCut in internal/core pins it.)
const maxWarmBatchAllocs = 1_305

func TestWarmBatchAllocationCeiling(t *testing.T) {
	sys, err := registry.Default().Build("nsquad(3)")
	if err != nil {
		t.Fatal(err)
	}
	qs, err := query.ParseBatch([]byte(standardBatch(3)))
	if err != nil {
		t.Fatal(err)
	}
	// A resident engine with its resident sampling model, as the
	// service's engine cache holds them.
	items := []query.MultiItem{{Engine: core.New(sys), Model: montecarlo.NewModel(sys), Queries: qs}}
	approx := query.WithApprox(query.ApproxSpec{Samples: 32, Delta: ratutil.R(1, 100), Seed: 7})
	pass := func() {
		for _, opts := range [][]query.Option{nil, {approx}} {
			results, err := query.MultiBatch(items, append(opts, query.WithParallelism(1))...)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results[0] {
				if r.Err != nil {
					t.Fatalf("%s: %v", r.Query, r.Err)
				}
			}
		}
	}
	pass() // fill the memo tables
	allocs := testing.AllocsPerRun(20, pass)
	t.Logf("warm standard batch, exact then approx: %.0f allocations", allocs)
	if allocs > maxWarmBatchAllocs {
		t.Errorf("a warm standard batch allocates %.0f times, ceiling %d", allocs, maxWarmBatchAllocs)
	}
}

// BenchmarkApproxBelievesFact prices the approximate tier on a fact
// containing believes: a constraint on "s1 believes at 9/10 that all
// fire" at the General's firing, on a resident nsquad(4) engine and
// model, answered from 32 samples alone ("approx") and exactly by the
// engine ("exact"). The sampled estimator evaluates the fact at each
// sampled point through core.Engine.Bind, so its believes node reads
// the engine's belief memo; with package epistemic's self-contained
// operators, which rescan the agent's local state at every point, the
// approx side took 1.24 ms and 893 allocations per request.
func BenchmarkApproxBelievesFact(b *testing.B) {
	sys, err := registry.Default().Build("nsquad(4)")
	if err != nil {
		b.Fatal(err)
	}
	all := `{"op":"and","args":[{"op":"does","agent":"General","action":"fire"},{"op":"does","agent":"s1","action":"fire"},{"op":"does","agent":"s2","action":"fire"},{"op":"does","agent":"s3","action":"fire"}]}`
	qs, err := query.ParseBatch([]byte(`[{"kind":"constraint","agent":"General","action":"fire","fact":` +
		`{"op":"believes","agent":"s1","p":"9/10","arg":` + all + `}}]`))
	if err != nil {
		b.Fatal(err)
	}
	items := []query.MultiItem{{Engine: core.New(sys), Model: montecarlo.NewModel(sys), Queries: qs}}
	for _, c := range []struct {
		name string
		opts []query.Option
	}{
		{"approx", []query.Option{query.WithApprox(query.ApproxSpec{Samples: 32, Seed: 7, Only: true})}},
		{"exact", nil},
	} {
		b.Run(c.name, func(b *testing.B) {
			eval := func() {
				results, err := query.MultiBatch(items, append(c.opts, query.WithParallelism(1))...)
				if err != nil || results[0][0].Err != nil {
					b.Fatal(err, results[0][0].Err)
				}
			}
			eval()
			b.ReportAllocs()
			for b.Loop() {
				eval()
			}
		})
	}
}
