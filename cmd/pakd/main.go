// Command pakd serves the scenario registry and the unified query layer
// over HTTP/JSON: the repository's systems, addressable by name + params,
// evaluated by the same exact engine the CLIs use — one engine per
// scenario, shared and memoizing across requests, with cross-system
// fan-out through the query layer's MultiBatch.
//
// Usage:
//
//	pakd [-addr :8371] [-parallel N] [-max-queries N] [-max-systems N]
//	     [-timeout D] [-engine-cache N] [-store-dir DIR] [-client-quota N]
//	pakd -catalog > SCENARIOS.md
//
// Endpoints:
//
//	GET  /v1/scenarios         list every registered scenario with its
//	                           params, defaults, description and sweep
//	                           example (the space-valued spec form)
//	GET  /v1/scenarios/{name}  one scenario's metadata
//	POST /v1/eval              evaluate a query-batch document (the format
//	                           of pak.ParseQueryBatch / pakrand -batch)
//	                           against one or more named systems; an
//	                           optional "approx" object ({"eps": "1/10",
//	                           "delta": "1/100"} or {"samples": N},
//	                           "seed", "only") answers supported queries
//	                           approx-first — each refined result carries
//	                           its seeded estimate (exact-rational
//	                           confidence interval) and a ciCovered
//	                           self-check, and a deadline mid-refinement
//	                           returns the standing estimates as a sound
//	                           504 payload
//	POST /v1/eval/stream       the same request, answered as an NDJSON
//	                           stream: one result frame per query the
//	                           moment it finishes, closed by a terminal
//	                           status frame (complete|deadline|cancelled);
//	                           under "approx" each supported slot emits
//	                           its estimate frame (stage "approx")
//	                           strictly before its refined frame (stage
//	                           "exact")
//	POST /v1/envelope          evaluate ONE query's min/max envelope over
//	                           an adversary space: {"space":
//	                           "sweep(nsquad,loss=0.0..0.5/0.1)",
//	                           "query": {...}} answers the exact bounds,
//	                           witness assignments and per-assignment
//	                           results; a deadline yields a partial
//	                           envelope labeled with the visited count
//	POST /v1/envelope/stream   the same request as NDJSON: one frame per
//	                           assignment with the running envelope, the
//	                           terminal frame carrying the final one
//	GET  /v1/stats             the engine cache's hit/miss/eviction
//	                           counters and — with -store-dir — the
//	                           persistent store's hit/miss/corrupt/write
//	                           counters ("store": {...}) as JSON
//
// Hardening knobs (see DESIGN.md "Service hardening" and "Streaming
// results" for the contracts): -timeout bounds each eval request's wall
// clock — on expiry /v1/eval answers 504 carrying every finished result
// plus per-slot deadline errors (the finished prefix is never lost),
// and /v1/eval/stream closes with a "deadline" terminal frame;
// -engine-cache bounds the engines retained across requests (LRU over
// canonical specs — eviction is invisible, rebuilt engines return
// byte-identical results); cold engines named by one request build
// concurrently, and concurrent requests for one spec share a single
// build. cmd/pakload is the matching load driver.
//
// Persistence knobs (see DESIGN.md "Persistent results"): -store-dir
// enables the content-addressed result store — every deterministic
// complete exact result is persisted under (canonical system spec ×
// canonical query document), a restarted pakd on the same directory
// serves stored answers byte-identically with zero engine rebuilds,
// and entries failing their integrity re-hash are counted and
// recomputed, never served (cmd/pakstore inspects, verifies and
// garbage-collects the directory). -client-quota is the first
// admission-control knob for multi-client fleets: each client
// (X-Client-ID header, else source host) may hold at most N in-flight
// evaluation requests; the N+1-th answers a deterministic 429.
//
// Example (two systems, one batch, one request):
//
//	pakrand -batch batch.json
//	curl -s localhost:8371/v1/eval -d '{
//	  "systems": ["fsquad", "fsquad(improved=true)"],
//	  "queries": '"$(cat batch.json)"'}'
//
// See examples/service for the full walkthrough and SCENARIOS.md for the
// catalog. With -catalog, pakd prints that catalog (generated from the
// registry, so it can never drift from the code) and exits; `make docs`
// redirects it into SCENARIOS.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"pak/internal/registry"
	"pak/internal/service"
	"pak/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pakd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8371", "listen address")
	parallel := fs.Int("parallel", 0, "max evaluation workers per request (0 = GOMAXPROCS)")
	maxQueries := fs.Int("max-queries", 0, "max (system, query) pairs per request (0 = server default)")
	maxSystems := fs.Int("max-systems", 0, "max named systems per request — bounds per-request build work (0 = server default)")
	timeout := fs.Duration("timeout", 0, "per-request eval deadline; expiry answers 504 (0 = none)")
	engineCache := fs.Int("engine-cache", 0, "engines retained across requests, LRU over canonical specs (0 = server default, negative = unbounded)")
	storeDir := fs.String("store-dir", "", "persistent result store directory: stored answers survive restarts and serve byte-identically without recomputation (empty = off)")
	clientQuota := fs.Int("client-quota", 0, "max concurrent in-flight evaluation requests per client (X-Client-ID or source host); excess answers 429 (0 = unlimited)")
	catalog := fs.Bool("catalog", false, "print the generated SCENARIOS.md catalog and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "Usage: pakd [-addr :8371] [-parallel N] [-max-queries N] [-max-systems N] [-timeout D] [-engine-cache N] [-store-dir DIR] [-client-quota N]\n")
		fmt.Fprintf(stderr, "       pakd -catalog > SCENARIOS.md\n\nFlags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, `
Examples:
  pakd -addr :8371 -parallel 8    serve the registry with 8 workers/request
  pakd -timeout 30s               bound each eval request; late answers become 504
  pakd -engine-cache 64           retain at most 64 engines (LRU; eviction is
                                  invisible — rebuilt engines answer identically)
  pakd -store-dir /var/lib/pak    persist results: a restart serves stored answers
                                  byte-identically, zero recomputation (inspect the
                                  directory with pakstore -dir /var/lib/pak -list)
  pakd -client-quota 4            admit at most 4 in-flight eval requests per
                                  client (X-Client-ID or source host); excess 429s
  pakd -catalog > SCENARIOS.md    regenerate the scenario catalog (make docs)
  curl -s localhost:8371/v1/scenarios | jq '.[].name'
  curl -s localhost:8371/v1/eval -d '{"systems":["fsquad","nsquad(3)"],"queries":[...]}'
  curl -s localhost:8371/v1/envelope -d '{"space":"sweep(nsquad,loss=0.0..0.5/0.1)","query":{...}}'
                                  a constraint's min/max envelope over the loss sweep
  curl -s localhost:8371/v1/eval -d '{"systems":["nsquad(3)"],"queries":[...],"approx":{"eps":"1/10","delta":"1/100","seed":7}}'
                                  approx-first: seeded estimates with exact-rational
                                  confidence intervals, refined to exact in one response
  go run ./cmd/pakload -url http://localhost:8371 -mix envelope -duration 30s
                                  drive the envelope endpoints with the load harness
`)
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *catalog {
		fmt.Fprint(stdout, registry.Default().Markdown())
		return 0
	}

	opts := []service.Option{}
	if *parallel > 0 {
		opts = append(opts, service.WithMaxParallelism(*parallel))
	}
	if *maxQueries > 0 {
		opts = append(opts, service.WithMaxQueries(*maxQueries))
	}
	if *maxSystems > 0 {
		opts = append(opts, service.WithMaxSystems(*maxSystems))
	}
	if *timeout > 0 {
		opts = append(opts, service.WithRequestTimeout(*timeout))
	}
	if *engineCache != 0 {
		opts = append(opts, service.WithEngineCacheSize(*engineCache))
	}
	if *storeDir != "" {
		st, err := store.OpenDisk(*storeDir)
		if err != nil {
			fmt.Fprintf(stderr, "pakd: %v\n", err)
			return 2
		}
		opts = append(opts, service.WithResultStore(st))
	}
	if *clientQuota > 0 {
		opts = append(opts, service.WithClientQuota(*clientQuota))
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: service.New(registry.Default(), opts...).Handler(),
		// Bound every connection phase, not just the headers: without
		// ReadTimeout a client that trickles its body holds a goroutine
		// open forever. WriteTimeout is generous because large evals
		// legitimately compute for a while before responding.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       60 * time.Second,
		WriteTimeout:      10 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	fmt.Fprintf(stdout, "pakd: serving %d scenarios on %s\n",
		len(registry.Default().Names()), *addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(stderr, "pakd: %v\n", err)
		return 1
	}
	return 0
}
