// Command pakload is the load/stress driver for pakd: it fires a
// weighted scenario mix at a pakd endpoint — a live one via -url, or a
// self-contained in-process server by default — under configurable
// concurrency, and emits a JSON latency/error report on stdout (or to
// -out). It is how the service-hardening work is measured: cache
// eviction, singleflight cold builds and request deadlines under real
// concurrent traffic.
//
// Usage:
//
//	pakload [-url http://host:8371] [-mix squad|mixed|heavy|stream|envelope|approx]
//	        [-c 8] [-n 200] [-duration 0] [-timeout 30s] [-seed 1]
//	        [-engine-cache 8] [-eval-timeout 0] [-store-dir DIR]
//	        [-stats-interval 0] [-cache-sweep 1,2,4,8] [-out report.json]
//
// -cache-sweep runs the latency-vs-engine-cache-size experiment: the
// same mix and budget against one fresh in-process server per listed
// cache size, reported as one row per size (p50/p99/throughput plus the
// server's cache counters), so eviction churn under a too-small bound
// is measured rather than guessed.
//
// Reports separate cold and warm latency: each scenario's first request
// of the run — the one that pays the server's cold engine build — lands
// in "latencyCold", everything after in "latencyWarm", with "latency"
// the combined view. Without the split a handful of one-off build
// latencies would silently dominate the tail percentiles of a short
// run.
//
// -store-dir hands the in-process server a persistent result store
// (pakd's -store-dir); a second run over the same directory then
// measures the stored-answer path — byte-identical replies without
// recomputation, visible as store hits in "serverStats".
//
// The "envelope" mix drives the adversary-sweep endpoints: buffered
// /v1/envelope requests (fully visited envelopes on 200) and
// /v1/envelope/stream sweeps under full NDJSON frame validation
// (hole-free assignment indices, running envelopes, a terminal frame
// whose final envelope accounts for every finished slot), plus the
// sweep grammar's deliberate 4xx probes.
//
// The "approx" mix drives the approximate tier: /v1/eval with the
// "approx" knob (seeded estimates attached to refined results) and
// /v1/eval/stream under the approx frame contract — per slot an approx
// frame (carrying its exact-rational confidence interval) strictly
// before the exact frame, approx-only requests answered by estimates
// alone — plus the bad-spec 4xx probes.
//
// -stats-interval enables soak mode: the run samples the target's GET
// /v1/stats on that cadence and records the trajectory (engine-cache
// hit/miss/eviction counters over time) under "statsTrajectory" in the
// report, so a long -duration run shows how the cache converges.
//
// Without -url, pakload starts an in-process pakd over the built-in
// registry (engine cache bounded by -engine-cache, per-request deadline
// from -eval-timeout) and drives that — zero setup, one process, same
// code paths as the real daemon.
//
// The exit status is 0 only when every request landed in a designed
// outcome class ("ok", which includes error probes answering their
// expected 4xx); any transport failure, timeout, unexpected status or
// undecodable body exits 1, so CI can gate on a smoke run directly.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"pak/internal/load"
	"pak/internal/service"
	"pak/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pakload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	url := fs.String("url", "", "target pakd base URL (empty = start an in-process pakd)")
	mixName := fs.String("mix", "squad", fmt.Sprintf("workload mix: one of %v", load.MixNames()))
	concurrency := fs.Int("c", 8, "concurrent workers")
	requests := fs.Int("n", 200, "total requests (0 = unlimited, use -duration)")
	duration := fs.Duration("duration", 0, "wall-clock budget (0 = run until -n requests)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request client timeout")
	seed := fs.Int64("seed", 1, "mix-sequence seed (deterministic per worker)")
	engineCache := fs.Int("engine-cache", 8, "in-process server: engine-cache bound (0 = unbounded)")
	evalTimeout := fs.Duration("eval-timeout", 0, "in-process server: per-request eval deadline (0 = none)")
	storeDir := fs.String("store-dir", "", "in-process server: persistent result store directory — a second run over the same directory measures the warm store path (empty = off)")
	statsInterval := fs.Duration("stats-interval", 0, "soak mode: sample GET /v1/stats on this cadence into the report (0 = off)")
	cacheSweep := fs.String("cache-sweep", "", "latency-vs-engine-cache-size sweep: comma-separated sizes (e.g. 1,2,4,8); runs the mix once per size against a fresh in-process server and reports one row per size (in-process only)")
	out := fs.String("out", "-", "report destination ('-' = stdout)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "Usage: pakload [-url URL] [-mix %s] [-c N] [-n N | -duration D] [-out report.json]\n\nFlags:\n",
			strings.Join(load.MixNames(), "|"))
		fs.PrintDefaults()
		fmt.Fprintf(stderr, `
Examples:
  pakload -n 500 -c 16                      stress an in-process pakd, report to stdout
  pakload -mix heavy -engine-cache 4        force engine-cache eviction churn
  pakload -mix stream -n 200                drive /v1/eval/stream with full NDJSON
                                            frame validation (set, no holes, terminal)
  pakload -mix envelope -n 200              drive /v1/envelope[/stream]: adversary
                                            sweeps with envelope frame validation
  pakload -mix approx -n 200                drive the approximate tier: seeded
                                            estimates first, exact refinements after,
                                            validated per slot on the wire
  pakload -mix approx -duration 30s -stats-interval 1s
                                            soak: record the engine-cache counter
                                            trajectory alongside the latency report
  pakload -mix heavy -cache-sweep 1,2,4,8   latency vs engine-cache size: one fresh
                                            in-process server per size, one report row
                                            per size (eviction churn made measurable)
  pakload -url http://localhost:8371 -mix mixed -duration 30s
                                            drive a live pakd for 30s, 4xx probes included
  pakload -n 200 -store-dir /tmp/pak && pakload -n 200 -store-dir /tmp/pak
                                            populate the persistent result store, then
                                            measure the stored-answer path (store hits
                                            in serverStats, zero recomputation)
  pakload -n 100 -out report.json           write the JSON report to a file

Exit status is 0 only when every request landed in its designed outcome
class; transport errors, timeouts, malformed streams or unexpected
statuses exit 1. When the target exposes GET /v1/stats the report
records the server's engine-cache counters under "serverStats".
`)
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *requests <= 0 && *duration <= 0 {
		fmt.Fprintln(stderr, "pakload: set -n and/or -duration")
		return 2
	}

	mix, err := load.BuiltinMix(*mixName)
	if err != nil {
		fmt.Fprintf(stderr, "pakload: %v\n", err)
		return 2
	}

	cfg := load.Config{
		Concurrency:   *concurrency,
		Requests:      *requests,
		Duration:      *duration,
		Timeout:       *timeout,
		Seed:          *seed,
		Mix:           mix,
		StatsInterval: *statsInterval,
	}
	if *cacheSweep != "" {
		if *url != "" {
			fmt.Fprintln(stderr, "pakload: -cache-sweep restarts the in-process server per size; drop -url")
			return 2
		}
		if *storeDir != "" {
			fmt.Fprintln(stderr, "pakload: -cache-sweep measures engine-cache pressure; a persistent store would mask it, drop -store-dir")
			return 2
		}
		return runCacheSweep(*cacheSweep, *mixName, cfg, *evalTimeout, *out, stdout, stderr)
	}

	target := *url
	if target == "" {
		opts := []service.Option{service.WithEngineCacheSize(*engineCache)}
		if *evalTimeout > 0 {
			opts = append(opts, service.WithRequestTimeout(*evalTimeout))
		}
		if *storeDir != "" {
			st, err := store.OpenDisk(*storeDir)
			if err != nil {
				fmt.Fprintf(stderr, "pakload: %v\n", err)
				return 2
			}
			opts = append(opts, service.WithResultStore(st))
		}
		ts := httptest.NewServer(service.New(nil, opts...).Handler())
		defer ts.Close()
		target = ts.URL
		fmt.Fprintf(stderr, "pakload: in-process pakd at %s (engine-cache %d)\n", target, *engineCache)
	} else if *storeDir != "" {
		fmt.Fprintln(stderr, "pakload: -store-dir only configures the in-process server; drop -url or start pakd with -store-dir")
		return 2
	}

	cfg.BaseURL = strings.TrimSuffix(target, "/")
	rep, err := load.Run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "pakload: %v\n", err)
		return 2
	}

	// Soak accounting: snapshot the server's engine-cache counters into
	// the report when the target exposes /v1/stats (a non-pakd target
	// simply omits the field). The run's client timeout bounds the
	// snapshot too.
	statsClient := &http.Client{Timeout: *timeout}
	if stats, statsErr := load.FetchServerStats(statsClient, strings.TrimSuffix(target, "/")); statsErr == nil {
		rep.ServerStats = stats
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "pakload: marshal report: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if *out == "-" {
		_, _ = stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintf(stderr, "pakload: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "pakload: report written to %s\n", *out)
	}

	if rep.OK != rep.Total {
		fmt.Fprintf(stderr, "pakload: %d of %d requests failed their outcome class: %v\n",
			rep.Total-rep.OK, rep.Total, rep.Errors)
		return 1
	}
	fmt.Fprintf(stderr, "pakload: %d requests ok, p50 %.2fms p99 %.2fms, %.1f req/s\n",
		rep.Total, rep.Latency.P50MS, rep.Latency.P99MS, rep.Throughput)
	if rep.LatencyCold != nil && rep.LatencyWarm != nil {
		fmt.Fprintf(stderr, "pakload: cold (first-touch, n=%d) p50 %.2fms, warm (n=%d) p50 %.2fms\n",
			rep.LatencyCold.Count, rep.LatencyCold.P50MS, rep.LatencyWarm.Count, rep.LatencyWarm.P50MS)
	}
	if ss := decodeStatsSummary(rep.ServerStats); ss != nil {
		fmt.Fprintf(stderr, "pakload: server engine cache hits=%d misses=%d evictions=%d, builds avoided=%d, memo-seeded=%d\n",
			ss.EngineCache.Hits, ss.EngineCache.Misses, ss.EngineCache.Evictions, ss.EngineBuildsAvoided, ss.MemoSeeded)
	}
	return 0
}

// statsSummary is the slice of GET /v1/stats the summary lines quote:
// the engine-cache counters plus the lazy-build ledger. The report
// itself carries the stats document verbatim under "serverStats".
type statsSummary struct {
	EngineCache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
	} `json:"engineCache"`
	EngineBuildsAvoided int64 `json:"engineBuildsAvoided"`
	MemoSeeded          int64 `json:"memoSeeded"`
}

func decodeStatsSummary(raw json.RawMessage) *statsSummary {
	if len(raw) == 0 {
		return nil
	}
	var ss statsSummary
	if err := json.Unmarshal(raw, &ss); err != nil {
		return nil
	}
	return &ss
}

// CacheSweepRow is one engine-cache size's slice of a -cache-sweep
// report: the size, the run's headline latency numbers, and the
// server's stats document after the run.
type CacheSweepRow struct {
	EngineCache   int             `json:"engineCache"`
	Total         int             `json:"total"`
	OK            int             `json:"ok"`
	P50MS         float64         `json:"p50Ms"`
	P99MS         float64         `json:"p99Ms"`
	ThroughputRPS float64         `json:"throughputRps"`
	ServerStats   json.RawMessage `json:"serverStats,omitempty"`
}

// CacheSweepReport is the -cache-sweep JSON document: one row per
// engine-cache size, same mix and request budget throughout.
type CacheSweepReport struct {
	Mix  string          `json:"mix"`
	Rows []CacheSweepRow `json:"rows"`
}

// runCacheSweep is the latency-vs-engine-cache-size mode: one fresh
// in-process pakd per size (so every run starts cold and the cache
// bound is the only variable), the same mix and budget against each,
// and one report row per size. Small caches surface eviction churn —
// rebuild latency and eviction counters climbing as the working set
// exceeds the bound — while a cache at least as large as the mix's
// distinct canonical specs converges to pure hits.
func runCacheSweep(sizes, mixName string, cfg load.Config, evalTimeout time.Duration, out string, stdout, stderr io.Writer) int {
	var rep CacheSweepReport
	rep.Mix = mixName
	allOK := true
	for _, field := range strings.Split(sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || n < 0 {
			fmt.Fprintf(stderr, "pakload: -cache-sweep wants non-negative sizes, got %q\n", field)
			return 2
		}
		opts := []service.Option{service.WithEngineCacheSize(n)}
		if evalTimeout > 0 {
			opts = append(opts, service.WithRequestTimeout(evalTimeout))
		}
		ts := httptest.NewServer(service.New(nil, opts...).Handler())
		runCfg := cfg
		runCfg.BaseURL = ts.URL
		r, err := load.Run(context.Background(), runCfg)
		if err != nil {
			ts.Close()
			fmt.Fprintf(stderr, "pakload: cache=%d: %v\n", n, err)
			return 2
		}
		row := CacheSweepRow{
			EngineCache:   n,
			Total:         r.Total,
			OK:            r.OK,
			P50MS:         r.Latency.P50MS,
			P99MS:         r.Latency.P99MS,
			ThroughputRPS: r.Throughput,
		}
		if stats, statsErr := load.FetchServerStats(&http.Client{Timeout: cfg.Timeout}, ts.URL); statsErr == nil {
			row.ServerStats = stats
		}
		ts.Close()
		rep.Rows = append(rep.Rows, row)
		allOK = allOK && r.OK == r.Total
		line := fmt.Sprintf("pakload: cache=%-4d p50 %8.2fms  p99 %8.2fms  %7.1f req/s", n, row.P50MS, row.P99MS, row.ThroughputRPS)
		if ss := decodeStatsSummary(row.ServerStats); ss != nil {
			line += fmt.Sprintf("  hits=%d misses=%d evictions=%d", ss.EngineCache.Hits, ss.EngineCache.Misses, ss.EngineCache.Evictions)
		}
		fmt.Fprintln(stderr, line)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "pakload: marshal report: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if out == "-" {
		_, _ = stdout.Write(data)
	} else {
		if err := os.WriteFile(out, data, 0o644); err != nil {
			fmt.Fprintf(stderr, "pakload: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "pakload: report written to %s\n", out)
	}
	if !allOK {
		fmt.Fprintln(stderr, "pakload: some sweep runs had requests outside their outcome class")
		return 1
	}
	return 0
}
