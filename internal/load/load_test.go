package load

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pak/internal/service"
)

// stressServer is an in-process pakd tuned so the hardened paths stay
// busy: a tiny engine cache (constant eviction under the heavy mix), a
// real request deadline, bounded parallelism.
func stressServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(service.New(nil,
		service.WithEngineCacheSize(3),
		service.WithRequestTimeout(30*time.Second),
		service.WithMaxParallelism(4),
	).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestLoadSmoke is the short-mode stress gate CI runs under -race: the
// mixed workload (happy paths plus deliberate 4xx probes) against an
// in-process pakd with an eviction-sized cache, asserting a clean
// taxonomy — every request lands in a designed outcome class, nothing
// in transport/timeout/bad_json/unexpected_status.
func TestLoadSmoke(t *testing.T) {
	ts := stressServer(t)
	requests := 150
	concurrency := 8
	if testing.Short() {
		requests, concurrency = 60, 4
	}
	mix, err := BuiltinMix("mixed")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Concurrency: concurrency,
		Requests:    requests,
		Timeout:     time.Minute,
		Seed:        1,
		Mix:         mix,
	})
	if err != nil {
		t.Fatal(err)
	}

	if rep.Total != requests {
		t.Errorf("completed %d requests, want %d", rep.Total, requests)
	}
	if rep.OK != rep.Total {
		t.Errorf("taxonomy not clean: ok=%d of %d, errors=%v", rep.OK, rep.Total, rep.Errors)
	}
	for _, bad := range []string{outcomeTransport, outcomeTimeout, outcomeBadJSON, outcomeBadStatus} {
		if n := rep.Outcomes[bad]; n > 0 {
			t.Errorf("%d requests classified %q", n, bad)
		}
	}
	// The deliberate error probes must have fired and answered their
	// designed statuses (they classify as ok via ExpectStatus).
	sum := 0
	for _, code := range []string{"404", "400"} {
		sum += rep.StatusCounts[code]
	}
	if sum == 0 {
		t.Error("mixed mix provoked no 4xx probes — error paths unexercised")
	}
	if rep.Latency.MaxMS <= 0 || rep.Latency.P50MS <= 0 {
		t.Errorf("latency summary empty: %+v", rep.Latency)
	}
	count := 0
	for _, b := range rep.Latency.Histogram {
		count += b.Count
	}
	if count != rep.Total {
		t.Errorf("histogram counts %d, want %d", count, rep.Total)
	}

	// The report is the wire artifact: it must round-trip JSON.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("report does not marshal: %v", err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Total != rep.Total || back.OK != rep.OK {
		t.Errorf("round-trip lost counts: %+v", back)
	}
}

// TestLoadHeavyMixEvicts: the heavy mix's random(seed=…) churn forces
// LRU evictions in a small cache while every response stays correct.
func TestLoadHeavyMixEvicts(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy mix in -short")
	}
	srv := service.New(nil,
		service.WithEngineCacheSize(3),
		service.WithMaxParallelism(4),
	)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	mix, err := BuiltinMix("heavy")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Concurrency: 6,
		Requests:    120,
		Timeout:     time.Minute,
		Seed:        7,
		Mix:         mix,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != rep.Total {
		t.Errorf("heavy mix not clean: ok=%d of %d, errors=%v", rep.OK, rep.Total, rep.Errors)
	}
	st := srv.Cache().Stats()
	if st.Evictions == 0 {
		t.Errorf("heavy mix caused no evictions: %+v", st)
	}
	if st.Len > 3 {
		t.Errorf("cache exceeded its bound: %+v", st)
	}
}

// TestLoadDurationStop: a duration-bounded run stops near its budget
// instead of running forever.
func TestLoadDurationStop(t *testing.T) {
	ts := stressServer(t)
	mix, err := BuiltinMix("squad")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Concurrency: 2,
		Duration:    200 * time.Millisecond,
		Timeout:     10 * time.Second,
		Seed:        3,
		Mix:         mix,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("duration run took %v", elapsed)
	}
	if rep.Total == 0 {
		t.Error("duration run completed no requests")
	}
}

// TestLoadConfigValidation: unusable configs fail fast with an error,
// never a hung run.
func TestLoadConfigValidation(t *testing.T) {
	mix, _ := BuiltinMix("squad")
	cases := []Config{
		{Concurrency: 1, Requests: 1, Mix: mix}, // no BaseURL
		{BaseURL: "http://x", Requests: 1},      // no mix
		{BaseURL: "http://x", Mix: mix},         // no stop condition
	}
	for i, cfg := range cases {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	if _, err := BuiltinMix("nosuch"); err == nil {
		t.Error("unknown mix accepted")
	}
}

// TestLoadSmokeApprox is the approximate-tier gate, run under -race in
// make load-smoke: the approx mix (buffered approx evals, approx
// streams under full CheckApproxStream validation, bad-spec probes)
// against the eviction-sized in-process pakd, with soak mode on — the
// stats trajectory must have sampled the cache's hit/miss counters
// during the run and survive the report's JSON round-trip.
func TestLoadSmokeApprox(t *testing.T) {
	ts := stressServer(t)
	requests := 120
	concurrency := 8
	if testing.Short() {
		requests, concurrency = 48, 4
	}
	mix, err := BuiltinMix("approx")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{
		BaseURL:       ts.URL,
		Concurrency:   concurrency,
		Requests:      requests,
		Timeout:       time.Minute,
		Seed:          1,
		Mix:           mix,
		StatsInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != requests {
		t.Errorf("completed %d requests, want %d", rep.Total, requests)
	}
	if rep.OK != rep.Total {
		t.Errorf("approx taxonomy not clean: ok=%d of %d, errors=%v", rep.OK, rep.Total, rep.Errors)
	}
	if n := rep.Outcomes[outcomeBadStream]; n > 0 {
		t.Errorf("%d approx streams violated the frame contract", n)
	}
	for _, name := range []string{"approx-eval-nsquad2", "approx-stream-nsquad2", "approx-only-stream"} {
		if st := rep.Scenarios[name]; st == nil || st.Requests == 0 {
			t.Errorf("scenario %s never ran", name)
		}
	}

	// Soak accounting: at least one trajectory sample landed (a run of
	// 48+ eval requests takes well past one 20ms tick), each stamped
	// inside the run and carrying the stats document.
	if len(rep.StatsTrajectory) == 0 {
		t.Fatal("soak mode recorded no stats samples")
	}
	for i, s := range rep.StatsTrajectory {
		if s.Error != "" {
			t.Errorf("trajectory[%d] errored: %s", i, s.Error)
		}
		if s.AtMS <= 0 {
			t.Errorf("trajectory[%d] has no timestamp: %+v", i, s)
		}
		var doc struct {
			EngineCache *json.RawMessage `json:"engineCache"`
		}
		if err := json.Unmarshal(s.Stats, &doc); err != nil || doc.EngineCache == nil {
			t.Errorf("trajectory[%d] stats = %s, want an engineCache document", i, s.Stats)
		}
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("report does not marshal: %v", err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if len(back.StatsTrajectory) != len(rep.StatsTrajectory) {
		t.Errorf("round-trip lost trajectory: %d of %d samples",
			len(back.StatsTrajectory), len(rep.StatsTrajectory))
	}
}

// TestLoadSmokeEnvelope is the envelope-mix gate: buffered and streamed
// sweeps (full envelope frame validation, hole-free assignment indices,
// fully visited envelopes on 200) plus the sweep grammar's deliberate
// error probes, against the eviction-sized in-process pakd — a clean
// taxonomy or exit 1, exactly like the other smoke gates. Runs under
// -race in make load-smoke.
func TestLoadSmokeEnvelope(t *testing.T) {
	ts := stressServer(t)
	requests := 120
	concurrency := 8
	if testing.Short() {
		requests, concurrency = 48, 4
	}
	mix, err := BuiltinMix("envelope")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Concurrency: concurrency,
		Requests:    requests,
		Timeout:     time.Minute,
		Seed:        1,
		Mix:         mix,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != requests {
		t.Errorf("completed %d requests, want %d", rep.Total, requests)
	}
	if rep.OK != rep.Total {
		t.Errorf("taxonomy not clean: ok=%d of %d, errors=%v", rep.OK, rep.Total, rep.Errors)
	}
	for _, name := range []string{"envelope-nsquad2", "envelope-stream-nsquad2"} {
		if st := rep.Scenarios[name]; st == nil || st.Requests == 0 {
			t.Errorf("scenario %s never ran", name)
		}
	}
}

// TestBuiltinMixLPRemoved: there is no lp mix; asking for it is the
// ordinary unknown-mix error, which names every mix that exists.
func TestBuiltinMixLPRemoved(t *testing.T) {
	_, err := BuiltinMix("lp")
	if err == nil {
		t.Fatal(`BuiltinMix("lp") succeeded`)
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown mix "lp"`) {
		t.Errorf("error %q is not the unknown-mix error", msg)
	}
	for _, name := range MixNames() {
		if name == "lp" {
			t.Fatal("MixNames still lists lp")
		}
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not list the mix %q", msg, name)
		}
	}
}
