package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"pak/internal/core"
	"pak/internal/registry"
)

func testBench(t *testing.T, seed int64) *bench {
	t.Helper()
	reg := registry.Default()
	return &bench{seed: seed, workdir: t.TempDir(), reg: reg, dur: time.Second, stderr: os.Stderr,
		lib: &refLib{reg: reg, engines: map[string]*core.Engine{}}}
}

// sequenceBytes renders the first n requests of a workload.
func sequenceBytes(t *testing.T, name string, seed int64, n int) []string {
	t.Helper()
	w, err := newWorkload(testBench(t, seed), name)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for i := 0; i < n; i++ {
		r := w.at(i)
		if r == nil {
			t.Fatalf("%s: sequence ends at %d", name, i)
		}
		out = append(out, r.path+" "+string(r.body))
	}
	return out
}

// TestSeedDeterminesRequests checks that one seed always gives the same
// request bytes, and that another seed gives another order of the same
// requests: over a whole number of blocks (240 is a multiple of every
// workload's block size) the work does not depend on the seed.
func TestSeedDeterminesRequests(t *testing.T) {
	const n = 240
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a := sequenceBytes(t, name, 1, n)
			b := sequenceBytes(t, name, 1, n)
			c := sequenceBytes(t, name, 2, n)
			if strings.Join(a, "\n") != strings.Join(b, "\n") {
				t.Fatal("one seed gave two different request sequences")
			}
			if strings.Join(a, "\n") == strings.Join(c, "\n") {
				t.Fatal("two seeds gave the same request sequence")
			}
			sort.Strings(a)
			sort.Strings(c)
			if strings.Join(a, "\n") != strings.Join(c, "\n") {
				t.Fatal("two seeds gave different requests, not only another order")
			}
		})
	}
}

// TestSweepLossTier pins the tier check and the sweep-cold loss bound:
// denominators up to sweepLossMaxDen keep nsquad(4) in the uint64 tier,
// the next one already leaves it.
func TestSweepLossTier(t *testing.T) {
	reg := registry.Default()
	var tier tierCount
	for _, tc := range []struct {
		loss *big.Rat
		big  bool
	}{
		{big.NewRat(1, sweepLossMaxDen), false},
		{big.NewRat(sweepLossMaxDen-1, sweepLossMaxDen), false},
		{big.NewRat(1, sweepLossMaxDen+1), true},
		{big.NewRat(1, 1000003), true},
	} {
		for _, improved := range []bool{false, true} {
			sys, err := reg.Build(squadSpec(4, tc.loss, improved))
			if err != nil {
				t.Fatal(err)
			}
			before := tier.big
			tier.add(sys)
			if got := tier.big > before; got != tc.big {
				t.Errorf("nsquad(4) at loss %s improved=%t: big tier %t, want %t (%d bits)",
					tc.loss.RatString(), improved, got, tc.big, sharedDenominatorBits(sys))
			}
		}
	}
	if tier.share() != 0.5 {
		t.Errorf("big-tier share %v, want 0.5", tier.share())
	}
}

// TestSweepSpecsCanonical checks the generator's assignment specs
// against the registry's own resolution of the sweep.
func TestSweepSpecsCanonical(t *testing.T) {
	reg := registry.Default()
	seq := sweepSequence(3)
	seen := map[string]bool{}
	for i := 0; i < 480; i++ {
		r := seq.at(i)
		it := r.item.(*sweepItem)
		rs, err := reg.ResolveSpace(it.space)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, inst := range rs.Instances() {
			got = append(got, inst.Canonical)
		}
		if strings.Join(got, ";") != strings.Join(it.specs, ";") {
			t.Fatalf("specs %v, registry resolves %v", it.specs, got)
		}
		for _, s := range got {
			if seen[s] {
				t.Fatalf("spec %s repeats", s)
			}
			seen[s] = true
		}
	}
}

func frame(system, index int, stage, result string) string {
	st := ""
	if stage != "" {
		st = fmt.Sprintf(`,"stage":%q`, stage)
	}
	return fmt.Sprintf(`{"frame":"result","system":%d,"spec":"s","canonical":"c","index":%d%s,"result":%s}`, system, index, st, result)
}

const terminal = `{"frame":"status","status":"complete"}`

func TestStreamChecker(t *testing.T) {
	want := slots{
		{0, 0, ""}: []byte(`{"kind":"constraint","value":"1/2","witnessRuns":-1}`),
		{0, 1, ""}: []byte(`{"kind":"expectation","value":"3/4","witnessRuns":-1}`),
		{1, 0, ""}: []byte(`{"kind":"constraint","value":"1","witnessRuns":2}`),
	}
	f00 := frame(0, 0, "", `{"kind":"constraint","value":"1/2","witnessRuns":-1}`)
	f01 := frame(0, 1, "", `{"kind":"expectation","value":"3/4","witnessRuns":-1}`)
	f10 := frame(1, 0, "", `{"kind":"constraint","value":"1","witnessRuns":2}`)
	check := func(lines ...string) error {
		body := []byte(strings.Join(lines, "\n") + "\n")
		got, err := parseEval(200, body, true)
		if err != nil {
			return err
		}
		return compareSlots(got, want)
	}
	if err := check(f10, f01, f00, terminal); err != nil {
		t.Errorf("out-of-order complete stream rejected: %v", err)
	}
	if err := check(f10, f00, terminal); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("stream with a missing slot: got %v, want a missing-slot error", err)
	}
	if err := check(f10, f01, f00, f00, terminal); err == nil {
		t.Error("stream answering a slot twice accepted")
	}
	if err := check(f10, f01, frame(0, 0, "", `{"kind":"constraint","value":"1/3","witnessRuns":-1}`), terminal); err == nil {
		t.Error("stream with a wrong answer accepted")
	}
	if err := check(f10, f01, f00); err == nil {
		t.Error("stream without a terminal frame accepted")
	}

	// The proven-bytes cache accepts a reordering of a proven stream.
	c := newVerifiedCache([]slots{want})
	proved := []byte(strings.Join([]string{f00, f01, f10, terminal}, "\n") + "\n")
	if err := c.prove(0, 200, proved, true); err != nil {
		t.Fatal(err)
	}
	if err := c.check(0, 200, []byte(strings.Join([]string{f01, f10, f00, terminal}, "\n")+"\n"), true); err != nil {
		t.Errorf("reordered stream rejected: %v", err)
	}
	if err := c.check(0, 200, []byte(strings.Join([]string{f01, f00, terminal}, "\n")+"\n"), true); err == nil {
		t.Error("stream missing a slot passed the cache")
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload briefly, untraced and traced, and
// checks the result line against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		for trace, metrics := range [][]struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}{spec.EndToEnd, spec.PerLayer} {
			if testing.Short() && trace == 1 {
				continue
			}
			t.Run(fmt.Sprintf("%s/trace=%d", name, trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"-workload", name, "-seed", "7", "-seconds", "0.4",
					"-trace", fmt.Sprint(trace), "-workdir", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%t attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				var want, got []string
				for _, m := range metrics {
					want = append(want, m.Name+" "+m.Unit)
				}
				for k, m := range res.Metrics {
					got = append(got, k+" "+m.Unit)
				}
				sort.Strings(want)
				sort.Strings(got)
				if strings.Join(got, ",") != strings.Join(want, ",") {
					t.Fatalf("metrics\n got %v\nwant %v", got, want)
				}
			})
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nosuch", "-seconds", "0.1", "-workdir", t.TempDir()}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload accepted")
	}
	if code := run([]string{"-workload", "eval-warm", "-trace", "2"}, &stdout, &stderr); code == 0 {
		t.Error("-trace 2 accepted")
	}
	if stdout.Len() != 0 {
		t.Errorf("a failed run printed a result: %s", stdout.String())
	}
}

// TestSpreadSample checks that the reference sample takes one retained
// reply from each segment of the window, including its last.
func TestSpreadSample(t *testing.T) {
	var kept []outcome
	for i := 999; i >= 0; i -= 5 {
		kept = append(kept, outcome{idx: i})
	}
	got := spreadSample(kept, 1000, 16, 3)
	if len(got) != 16 {
		t.Fatalf("%d outcomes, want 16", len(got))
	}
	for seg, o := range got {
		if lo, hi := seg*1000/16, (seg+1)*1000/16; o.idx < lo || o.idx >= hi {
			t.Errorf("outcome %d is request %d, outside segment [%d, %d)", seg, o.idx, lo, hi)
		}
	}
	few := []outcome{{idx: 999}, {idx: 3}, {idx: 4}, {idx: 500}}
	if got := spreadSample(few, 1000, 16, 3); len(got) != 3 || got[2].idx != 999 {
		t.Errorf("retained replies in 3 segments gave %v", got)
	}
}

// TestRefUnit checks that the reference unit allocates nothing (so it
// stays out of the allocation metrics), repeats its checksum, and that
// the scale reads a unit of refNominal as 1.
func TestRefUnit(t *testing.T) {
	k := newRefKernel()
	if allocs := testing.AllocsPerRun(5, func() { k.timed() }); allocs != 0 {
		t.Errorf("a unit allocated %v times", allocs)
	}
	if got := k.unit(); got != k.sum {
		t.Errorf("checksum %x, first unit's %x", got, k.sum)
	}
	refs := []refSample{{0, refNominal / 2, 0}, {0, refNominal, 0}, {0, 4 * refNominal, 0}}
	if got := scale(refs); got != 1 {
		t.Errorf("scale %v, want 1 (the median unit took refNominal)", got)
	}
	if got := scale(nil); got != 1 {
		t.Errorf("scale without units %v, want 1", got)
	}
	// Two slices: the first ran its unit at half speed, the second has
	// none and takes the window's median.
	f := speeds([]refSample{{0, 2 * refNominal, 0}, {refSlice / 2, 2 * refNominal, 0}, {refSlice / 4, refNominal, 0}}, refSlice+1)
	if len(f) != 2 || f[0] != 0.5 || f[1] != 0.5 {
		t.Errorf("speeds %v, want [0.5 0.5]", f)
	}
	var wr windowResult
	wr.recs = []rec{{at: 10, lat: 2, check: 1}, {at: 20, lat: 4, failed: true}, {at: 1500, lat: 8}}
	if lat, _ := wr.latencies([]float64{0.5, 0.25}); len(lat) != 2 || lat[0] != 1 || lat[1] != 2 {
		t.Errorf("scaled latencies %v, want [1 2]", lat)
	}
	if got := wr.busy(nil); got != 15 {
		t.Errorf("busy %v ms, want 15", got)
	}
}
