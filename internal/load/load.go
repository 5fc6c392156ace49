// Package load is the pakd load/stress harness: a self-contained
// generator that drives a pakd-compatible HTTP endpoint (live or
// in-process) with a weighted scenario mix under configurable
// concurrency, records exact latency and outcome accounting, and emits
// a JSON report. It is the measurement half of the service-hardening
// work: the deadline, eviction and singleflight paths are only trusted
// because this harness exercises them under contention (TestLoadSmoke,
// the race stress tests, cmd/pakload).
//
// Accounting is deliberately simple and lossless: every request records
// its wall-clock latency and lands in exactly one outcome class — "ok",
// "http_<code>", "timeout", "transport", "bad_json" or
// "unexpected_status" — so a report's counts always sum to the total
// and an error taxonomy shift between runs is a behaviour change, not
// noise.
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Scenario is one weighted request shape in the mix.
type Scenario struct {
	// Name labels the scenario in the report.
	Name string `json:"name"`
	// Path is the request path (e.g. "/v1/eval", "/v1/scenarios").
	Path string `json:"path"`
	// Body, when non-nil, is POSTed as application/json; nil means GET.
	Body []byte `json:"-"`
	// Weight is the scenario's relative frequency (≤ 0 counts as 1).
	Weight int `json:"weight"`
	// ExpectStatus, when nonzero, is the status this scenario must
	// answer; any other status classifies as "unexpected_status". Zero
	// accepts any status (it still lands in its http_<code> class).
	ExpectStatus int `json:"expectStatus,omitempty"`
	// CheckJSON requires the response body to be valid JSON; violations
	// classify as "bad_json".
	CheckJSON bool `json:"checkJson,omitempty"`
	// CheckStream requires the response body to be a well-formed
	// /v1/eval/stream NDJSON stream: every line a frame, exactly one
	// terminal status frame in final position, result-frame
	// (system, index) coordinates forming a set with no holes, and — on
	// a deadline/cancelled terminal — every unfinished slot carrying the
	// context error while finished slots stay clean (the prefix-on-
	// timeout contract). Violations classify as "bad_stream".
	CheckStream bool `json:"checkStream,omitempty"`
	// ExpectFrames is the result-frame count a stream of this scenario
	// must carry — the service emits one frame per query even under a
	// deadline, so the count is exact, not a lower bound (0 skips the
	// check).
	ExpectFrames int `json:"expectFrames,omitempty"`
	// CheckEnvelope requires the response to honour the envelope wire
	// contract: for an NDJSON /v1/envelope/stream body, result frames
	// with hole-free assignment indices, running envelopes, and one
	// terminal status frame carrying the final envelope whose visited
	// count matches the finished slots (partial only under
	// deadline/cancelled); for a buffered /v1/envelope 200 body, a fully
	// visited envelope. Violations classify as "bad_stream".
	CheckEnvelope bool `json:"checkEnvelope,omitempty"`
	// CheckApproxStream requires the response body to be a well-formed
	// approximate-tier NDJSON stream: slots may emit up to two frames
	// (stage "approx" strictly before stage "exact", never duplicated),
	// hole-free slot coordinates, approx frames carrying estimates, and
	// the deadline contract — a slot whose stream was cut after its
	// approx frame keeps the estimate as a clean final answer.
	// ExpectFrames then counts SLOTS, not frames (a slot's frame count
	// is 1 or 2 by design). Violations classify as "bad_stream".
	CheckApproxStream bool `json:"checkApproxStream,omitempty"`
}

// Config parameterizes one load run.
type Config struct {
	// BaseURL is the target server's root (no trailing slash).
	BaseURL string
	// Client is the HTTP client (nil means a fresh client; its Timeout
	// is overridden by Timeout when set).
	Client *http.Client
	// Concurrency is the worker count (≤ 0 means 1).
	Concurrency int
	// Requests stops the run after this many total requests. One of
	// Requests/Duration must be positive; with both, whichever trips
	// first stops the run.
	Requests int
	// Duration stops the run after this wall-clock time.
	Duration time.Duration
	// Timeout bounds each request (0 = no per-request bound).
	Timeout time.Duration
	// Seed makes the scenario-mix sequence deterministic per worker.
	Seed int64
	// Mix is the weighted scenario set (required).
	Mix []Scenario
	// StatsInterval, when positive, samples the target's GET /v1/stats
	// every interval for the run's duration (soak mode): the report then
	// carries the cache hit/miss trajectory, not just the final
	// snapshot, so a soak run shows warmup, steady state and eviction
	// churn over time.
	StatsInterval time.Duration
}

// Report is the JSON-serializable outcome of one run.
type Report struct {
	// Target echoes the base URL; Concurrency/Requested/Seed echo the
	// config.
	Target      string `json:"target"`
	Concurrency int    `json:"concurrency"`
	Requested   int    `json:"requested,omitempty"`
	Seed        int64  `json:"seed"`

	// Total counts completed requests; ElapsedMS the run wall clock;
	// Throughput the achieved requests/second.
	Total      int     `json:"total"`
	ElapsedMS  float64 `json:"elapsedMs"`
	Throughput float64 `json:"throughputRps"`

	// OK counts requests in the "ok" class. Outcomes maps every
	// outcome class to its count (including "ok"); the values sum to
	// Total. Errors is Outcomes minus "ok" — the error taxonomy.
	OK       int            `json:"ok"`
	Outcomes map[string]int `json:"outcomes"`
	Errors   map[string]int `json:"errors,omitempty"`

	// StatusCounts maps observed HTTP status codes (as strings) to
	// counts; transport failures never reach a status.
	StatusCounts map[string]int `json:"statusCounts,omitempty"`

	// Latency summarizes the full latency distribution.
	Latency LatencySummary `json:"latency"`

	// LatencyCold summarizes only the run's first-touch requests — the
	// first request of each scenario, the ones that pay cold engine
	// builds on the server — and LatencyWarm the rest, so a report no
	// longer conflates one-off build cost with steady-state latency.
	// Latency stays the combined view; both phases are omitted when the
	// run produced no samples for them.
	LatencyCold *LatencySummary `json:"latencyCold,omitempty"`
	LatencyWarm *LatencySummary `json:"latencyWarm,omitempty"`

	// Scenarios breaks the outcome classes down per mix entry.
	Scenarios map[string]*ScenarioStats `json:"scenarios"`

	// ServerStats, when the target exposes GET /v1/stats, snapshots the
	// server's engine-cache counters after the run — the soak-mode
	// accounting ROADMAP asked for (see FetchServerStats).
	ServerStats json.RawMessage `json:"serverStats,omitempty"`

	// StatsTrajectory is the periodic GET /v1/stats samples recorded
	// when Config.StatsInterval is set, in capture order: the cache
	// counters' evolution across the run.
	StatsTrajectory []StatsSample `json:"statsTrajectory,omitempty"`
}

// StatsSample is one soak-mode stats capture.
type StatsSample struct {
	// AtMS is the capture time relative to the run start.
	AtMS float64 `json:"atMs"`
	// Stats is the GET /v1/stats document verbatim; Error records a
	// failed capture instead (the trajectory keeps its cadence either
	// way).
	Stats json.RawMessage `json:"stats,omitempty"`
	Error string          `json:"error,omitempty"`
}

// FetchServerStats reads the target's GET /v1/stats document so a
// report can record the server-side cache counters next to the
// client-side taxonomy. Callers driving a non-pakd target may ignore
// the error. A nil client gets a bounded one — a stats snapshot must
// never hang a finished run on an unresponsive target.
func FetchServerStats(client *http.Client, baseURL string) (json.RawMessage, error) {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	resp, err := client.Get(baseURL + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("load: GET /v1/stats answered %d", resp.StatusCode)
	}
	if !isJSON(body) {
		return nil, errors.New("load: GET /v1/stats body is not JSON")
	}
	return json.RawMessage(bytes.TrimSpace(body)), nil
}

// ScenarioStats is one scenario's slice of the report.
type ScenarioStats struct {
	Requests int            `json:"requests"`
	Outcomes map[string]int `json:"outcomes"`
}

// LatencySummary carries the distribution stats plus a fixed log-scale
// histogram, all in milliseconds.
type LatencySummary struct {
	// Count is the number of samples the summary covers.
	Count  int     `json:"count"`
	MinMS  float64 `json:"minMs"`
	MeanMS float64 `json:"meanMs"`
	P50MS  float64 `json:"p50Ms"`
	P90MS  float64 `json:"p90Ms"`
	P99MS  float64 `json:"p99Ms"`
	MaxMS  float64 `json:"maxMs"`
	// Histogram counts latencies at or under each bucket's upper bound;
	// the last bucket is unbounded.
	Histogram []HistogramBucket `json:"histogram"`
}

// HistogramBucket is one latency bucket.
type HistogramBucket struct {
	// UpperMS is the bucket's inclusive upper bound in milliseconds;
	// 0 marks the final unbounded bucket.
	UpperMS float64 `json:"upperMs"`
	Count   int     `json:"count"`
}

// bucketBounds is the fixed log-scale histogram ladder (milliseconds).
var bucketBounds = []float64{0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// outcome classes.
const (
	outcomeOK         = "ok"
	outcomeTimeout    = "timeout"
	outcomeTransport  = "transport"
	outcomeBadJSON    = "bad_json"
	outcomeBadStream  = "bad_stream"
	outcomeBadStatus  = "unexpected_status"
	outcomeHTTPPrefix = "http_"
)

// sample is one completed request's accounting record.
type sample struct {
	scenario string
	outcome  string
	status   int
	latency  time.Duration
	// cold marks the run's first request of this scenario — the one
	// that pays the server's cold engine build when the scenario names
	// a system no earlier request touched.
	cold bool
}

// firstTouch classifies each scenario's first request of the run as
// cold; everything after is warm. Shared across workers, so exactly one
// request per scenario is cold regardless of which worker drew it.
type firstTouch struct {
	mu   sync.Mutex
	seen map[string]bool
}

func (f *firstTouch) cold(name string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.seen[name] {
		return false
	}
	f.seen[name] = true
	return true
}

// Run drives the target with the configured mix and returns the report.
// It returns an error only for unusable configuration; request-level
// failures are data, recorded in the report's taxonomy.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("load: BaseURL is required")
	}
	if len(cfg.Mix) == 0 {
		return nil, errors.New("load: the scenario mix is empty")
	}
	if cfg.Requests <= 0 && cfg.Duration <= 0 {
		return nil, errors.New("load: set Requests and/or Duration")
	}
	workers := cfg.Concurrency
	if workers < 1 {
		workers = 1
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	if cfg.Timeout > 0 {
		// Copy before mutating: the caller's client must keep its own
		// timeout.
		c := *client
		c.Timeout = cfg.Timeout
		client = &c
	}

	// The weighted pick table: scenario index repeated weight times.
	// Mixes are tiny, so the flat table beats alias-method cleverness.
	var pick []int
	for i, sc := range cfg.Mix {
		w := sc.Weight
		if w < 1 {
			w = 1
		}
		for j := 0; j < w; j++ {
			pick = append(pick, i)
		}
	}

	// runCtx is always cancellable (not only under a Duration budget) so
	// the soak-mode stats sampler has a reliable stop signal when a
	// request-budget run drains its tickets.
	var runCtx context.Context
	var cancel context.CancelFunc
	if cfg.Duration > 0 {
		runCtx, cancel = context.WithTimeout(ctx, cfg.Duration)
	} else {
		runCtx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	// tickets dispenses request slots: with a request budget it closes
	// after Requests sends; duration-only runs draw until the context
	// expires.
	tickets := make(chan struct{})
	go func() {
		defer close(tickets)
		for n := 0; cfg.Requests <= 0 || n < cfg.Requests; n++ {
			select {
			case tickets <- struct{}{}:
			case <-runCtx.Done():
				return
			}
		}
	}()

	samplesPer := make([][]sample, workers)
	touch := &firstTouch{seen: make(map[string]bool, len(cfg.Mix))}
	var wg sync.WaitGroup
	start := time.Now()

	// Soak mode: sample the server's stats endpoint on a fixed cadence
	// until the run ends. The sampler uses its own bounded client so a
	// wedged stats endpoint can't stall the trajectory forever, but the
	// bound gets a floor well above the tick: an aggressive cadence
	// against a server saturated by the workload itself must produce
	// late samples (the loop is serial, missed ticks drop), not
	// timeout-errored ones.
	var trajectory []StatsSample
	statsDone := make(chan struct{})
	if cfg.StatsInterval > 0 {
		go func() {
			defer close(statsDone)
			statsTimeout := cfg.StatsInterval
			if floor := 2 * time.Second; statsTimeout < floor {
				statsTimeout = floor
			}
			statsClient := &http.Client{Timeout: statsTimeout}
			ticker := time.NewTicker(cfg.StatsInterval)
			defer ticker.Stop()
			for {
				select {
				case <-runCtx.Done():
					return
				case <-ticker.C:
					doc, err := FetchServerStats(statsClient, cfg.BaseURL)
					s := StatsSample{AtMS: float64(time.Since(start).Microseconds()) / 1000, Stats: doc}
					if err != nil {
						s.Error = err.Error()
					}
					trajectory = append(trajectory, s)
				}
			}
		}()
	} else {
		close(statsDone)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			for range tickets {
				sc := cfg.Mix[pick[rng.Intn(len(pick))]]
				// The cold bit is claimed BEFORE the request fires: under
				// concurrency, the claimant is the request that actually
				// races the engine build, not whichever finished first.
				cold := touch.cold(sc.Name)
				// Requests run under the PARENT context, not the duration
				// budget: expiry stops issuing tickets, while requests
				// already in flight drain normally — a healthy server must
				// never earn "timeout" classifications just because the run
				// ended around it.
				s := doRequest(ctx, client, cfg.BaseURL, sc)
				s.cold = cold
				samplesPer[w] = append(samplesPer[w], s)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	cancel()
	<-statsDone

	var all []sample
	for _, s := range samplesPer {
		all = append(all, s...)
	}
	rep := summarize(cfg, workers, all, elapsed)
	rep.StatsTrajectory = trajectory
	return rep, nil
}

// doRequest performs one request and classifies its outcome.
func doRequest(ctx context.Context, client *http.Client, base string, sc Scenario) sample {
	s := sample{scenario: sc.Name}
	var (
		req *http.Request
		err error
	)
	if sc.Body != nil {
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, base+sc.Path, bytes.NewReader(sc.Body))
		if req != nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+sc.Path, nil)
	}
	if err != nil {
		s.outcome = outcomeTransport
		return s
	}

	t0 := time.Now()
	resp, err := client.Do(req)
	s.latency = time.Since(t0)
	if err != nil {
		s.outcome = classifyTransport(err)
		return s
	}
	body, readErr := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.status = resp.StatusCode
	switch {
	case readErr != nil:
		s.outcome = classifyTransport(readErr)
	case sc.ExpectStatus != 0 && resp.StatusCode != sc.ExpectStatus:
		s.outcome = outcomeBadStatus
	case sc.CheckStream && checkStream(body, sc.ExpectFrames) != "":
		s.outcome = outcomeBadStream
	case sc.CheckApproxStream && checkApproxStream(body, sc.ExpectFrames) != "":
		s.outcome = outcomeBadStream
	case sc.CheckEnvelope && checkEnvelope(body, resp.StatusCode, sc.ExpectFrames) != "":
		s.outcome = outcomeBadStream
	case sc.CheckJSON && !isJSON(body):
		s.outcome = outcomeBadJSON
	case resp.StatusCode == http.StatusOK:
		s.outcome = outcomeOK
	case sc.ExpectStatus == resp.StatusCode:
		// An error status this scenario deliberately provokes counts as
		// its success: the error path answered as designed.
		s.outcome = outcomeOK
	default:
		s.outcome = fmt.Sprintf("%s%d", outcomeHTTPPrefix, resp.StatusCode)
	}
	return s
}

// classifyTransport separates deadline expiry from other transport
// failures.
func classifyTransport(err error) string {
	var ne interface{ Timeout() bool }
	if errors.Is(err, context.DeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
		return outcomeTimeout
	}
	return outcomeTransport
}

// isJSON reports whether data parses as a JSON document. A hand-rolled
// first-byte probe would accept truncated bodies; real decoding keeps
// "bad_json" honest.
func isJSON(data []byte) bool {
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return false
	}
	var v any
	return json.Unmarshal(trimmed, &v) == nil
}

// summarize folds the samples into the report.
func summarize(cfg Config, workers int, all []sample, elapsed time.Duration) *Report {
	rep := &Report{
		Target:       cfg.BaseURL,
		Concurrency:  workers,
		Requested:    cfg.Requests,
		Seed:         cfg.Seed,
		Total:        len(all),
		ElapsedMS:    float64(elapsed.Microseconds()) / 1000,
		Outcomes:     make(map[string]int),
		Errors:       make(map[string]int),
		StatusCounts: make(map[string]int),
		Scenarios:    make(map[string]*ScenarioStats),
	}
	if elapsed > 0 {
		rep.Throughput = float64(len(all)) / elapsed.Seconds()
	}

	latencies := make([]float64, 0, len(all))
	var coldMS, warmMS []float64
	for _, s := range all {
		rep.Outcomes[s.outcome]++
		if s.outcome == outcomeOK {
			rep.OK++
		} else {
			rep.Errors[s.outcome]++
		}
		if s.status != 0 {
			rep.StatusCounts[fmt.Sprintf("%d", s.status)]++
		}
		st := rep.Scenarios[s.scenario]
		if st == nil {
			st = &ScenarioStats{Outcomes: make(map[string]int)}
			rep.Scenarios[s.scenario] = st
		}
		st.Requests++
		st.Outcomes[s.outcome]++
		if s.latency > 0 {
			ms := float64(s.latency.Microseconds()) / 1000
			latencies = append(latencies, ms)
			if s.cold {
				coldMS = append(coldMS, ms)
			} else {
				warmMS = append(warmMS, ms)
			}
		}
	}
	if len(rep.Errors) == 0 {
		rep.Errors = nil
	}
	if len(rep.StatusCounts) == 0 {
		rep.StatusCounts = nil
	}
	rep.Latency = summarizeLatency(latencies)
	if len(coldMS) > 0 {
		cold := summarizeLatency(coldMS)
		rep.LatencyCold = &cold
	}
	if len(warmMS) > 0 {
		warm := summarizeLatency(warmMS)
		rep.LatencyWarm = &warm
	}
	return rep
}

// summarizeLatency computes the distribution stats and histogram.
func summarizeLatency(ms []float64) LatencySummary {
	sum := LatencySummary{Count: len(ms)}
	buckets := make([]HistogramBucket, len(bucketBounds)+1)
	for i, b := range bucketBounds {
		buckets[i].UpperMS = b
	}
	sum.Histogram = buckets
	if len(ms) == 0 {
		return sum
	}
	sort.Float64s(ms)
	total := 0.0
	for _, v := range ms {
		total += v
		placed := false
		for i, b := range bucketBounds {
			if v <= b {
				buckets[i].Count++
				placed = true
				break
			}
		}
		if !placed {
			buckets[len(buckets)-1].Count++
		}
	}
	sum.MinMS = ms[0]
	sum.MaxMS = ms[len(ms)-1]
	sum.MeanMS = total / float64(len(ms))
	sum.P50MS = percentile(ms, 0.50)
	sum.P90MS = percentile(ms, 0.90)
	sum.P99MS = percentile(ms, 0.99)
	return sum
}

// percentile reads the p-quantile from a sorted slice (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
