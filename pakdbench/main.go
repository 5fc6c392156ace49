// Command pakdbench is the repository's end-to-end benchmark: it drives
// an in-process pakd (service.New(...).Handler() on loopback HTTP, the
// handler cmd/pakd serves) with one of four seeded workloads, verifies
// every answer, and prints the end-to-end metrics, or with -trace 1 the
// per-layer split from an in-process replay of the same requests.
// README.md documents the workloads, metrics and how to read a trace.
//
//	go run . -workload eval-warm -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is the result object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{...}}
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"pak/internal/core"
	"pak/internal/registry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A run sets up a fresh server at least minSetupRounds times, and more
// while the rounds have taken less than setupBudget in all, up to
// maxSetupRounds; setup_s is the median of the rounds. A set-up of a
// few tens of milliseconds is moved by single scheduling stalls of the
// host, so short set-ups are repeated more often. The first round's
// server serves the heap probe; the last one's is measured in the
// window.
const (
	minSetupRounds = 5
	maxSetupRounds = 25
	setupBudget    = 3 * time.Second
)

// heapRequests is the request count after which heap_live_mb is read:
// a multiple of the block sizes of the one-off sequences (12 and 16
// requests) and of store-replay's (6), so every seed sends the same
// requests, only in another order (eval-warm's set-up already sent every
// body of its block of 40). sweep-cold's 96 assignments and its set-up's
// 6 fit the server's 128-engine cache, so nothing is evicted in an order
// the seed would decide.
const heapRequests = 48

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pakdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed of the request sequence")
	seconds := fs.Float64("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 = report the per-layer metrics of a traced replay")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "pakdbench"), "scratch directory for result stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "pakdbench: -trace must be 0 or 1")
		return 2
	}
	res, env, err := runBench(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *workdir, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "pakdbench:", err)
		return 1
	}
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "# env %s\n", envJSON)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "pakdbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

func runBench(name string, seed int64, dur time.Duration, traced bool, workdir string, stderr io.Writer) (*result, *envRecord, error) {
	if dur <= 0 {
		return nil, nil, errors.New("-seconds must be positive")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	workdir = filepath.Join(workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(workdir)
	reg := registry.Default()
	b := &bench{seed: seed, workdir: workdir, reg: reg, dur: dur, stderr: stderr,
		lib: &refLib{reg: reg, engines: map[string]*core.Engine{}}}
	w, err := newWorkload(b, name)
	if err != nil {
		return nil, nil, err
	}

	// The heap probe's requests are drawn, and the references' library
	// engines dropped, before the baseline is read, so the benchmark's
	// own memory is the same on both sides of the difference.
	var probe []*request
	for i := 0; i < heapRequests; i++ {
		r := w.at(i)
		if r == nil {
			return nil, nil, fmt.Errorf("the sequence ends after %d requests", i)
		}
		probe = append(probe, r)
	}
	b.lib.engines = map[string]*core.Engine{}
	ref := newRefKernel()
	baseline := heapLiveBytes()

	var setups, rawSetups []float64
	var srv *server
	var heapLive uint64
	var spent time.Duration
	for round := 0; srv == nil; round++ {
		runtime.GC()
		k := setupScale(ref)
		t0 := time.Now()
		s, err := w.setup(round)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t0)
		spent += took
		rawSetups = append(rawSetups, took.Seconds())
		setups = append(setups, took.Seconds()*k)
		last := round+1 >= maxSetupRounds || (round+1 >= minSetupRounds && spent >= setupBudget)
		switch {
		case round == 0:
			live, err := heapAfter(s, probe, w.check)
			s.close()
			if err != nil {
				return nil, nil, fmt.Errorf("heap probe: %w", err)
			}
			heapLive = live - min(live, baseline)
		case last:
			srv = s
		default:
			s.close()
		}
	}
	defer srv.close()
	if w.prime != nil {
		if err := w.prime(srv); err != nil {
			return nil, nil, fmt.Errorf("prime: %w", err)
		}
	}

	d := &driver{url: srv.url, clients: clients, at: w.at, check: w.check, keep: w.keep, ref: ref}
	win := &window{at: w.at}
	if win.before, err = srv.stats(); err != nil {
		return nil, nil, err
	}
	capacity := int(dur.Seconds()*recordsPerClientSecond)*clients + 1
	runtime.GC()
	wr := d.run(dur, capacity)
	s0, s1 := wr.start, wr.end
	if win.after, err = srv.stats(); err != nil {
		return nil, nil, err
	}
	win.n = len(wr.recs)
	memo := srv.memoEntries(w.keys())

	res := &result{Attempted: len(wr.recs), Failed: wr.failed, Correct: true}
	for _, e := range wr.errs {
		fmt.Fprintf(stderr, "%s %s\n", name, e)
	}
	if w.verify != nil {
		failed, err := w.verify(spreadSample(wr.kept, win.n, verifySample, b.seed))
		if err != nil {
			return nil, nil, fmt.Errorf("reference: %w", err)
		}
		res.Failed += failed
	}
	if err := w.shape(win); err != nil {
		fmt.Fprintf(stderr, "%s: workload-shape check failed: %v\n", name, err)
		res.Correct = false
	}
	if res.Failed > 0 || res.Attempted == 0 {
		res.Correct = false
	}
	if res.Attempted == 0 {
		res.Attempted = 1 // the contract wants at least one; the run is already incorrect
	}
	if wr.exhausted {
		// A short window would read as a faster or slower program.
		fmt.Fprintf(stderr, "%s: the window ran out of requests before its time was up\n", name)
		res.Correct = false
	}

	env := &envRecord{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), Clients: clients, GCCycles: s1.gcCycles - s0.gcCycles,
		StealTicks: s1.steal - s0.steal, HostTicks: s1.hostTotal - s0.hostTotal,
		WindowS: wr.elapsed.Seconds(), Requests: len(wr.recs), SetupS: rawSetups,
		HeapBaselineMB: float64(baseline) / (1 << 20), RefUnits: len(wr.refs), RefUnitMs: refUnitMs(wr.refs),
		Raw: times(wr, nil, 1, rawSetups),
	}
	for _, r := range wr.recs {
		if r.stream {
			env.Streamed++
		}
	}
	fmt.Fprintf(stderr, "%s seed %d: %d requests (%d failed) in %.2fs; %d memo entries\n",
		name, seed, len(wr.recs), res.Failed, wr.elapsed.Seconds(), memo)

	if !traced {
		res.Metrics = endToEnd(wr, heapLive, setups)
		return res, env, nil
	}
	layers, err := traceRun(b, w, srv.url, win, wr, s0, s1, memo)
	if err != nil {
		return nil, nil, fmt.Errorf("trace: %w", err)
	}
	res.Metrics = layers
	return res, env, nil
}

// procs is the GOMAXPROCS of a run: client and server share one P.
// With one P per vCPU of a 2-vCPU VM (five runs per workload, seeds
// 1–5 or 11–15, 10 or 20 s, times scaled as in calib.go), eval-warm's
// time spreads were 0.07–0.11 run to run, the same seed included; with
// one P they were 0.03–0.05, and sweep-cold's and belief-flood's 0.02–
// 0.04. The server's fan-out over slots, systems and sweep assignments
// still runs, as goroutines on that P, so its cost is measured but not
// the speed-up a second CPU gives it: a run would measure where the
// hypervisor placed the second vCPU as much as the program.
const procs = 1

// clients is the number of closed-loop clients. One, not one per CPU:
// with two clients on a 2-vCPU VM, belief-flood's median latency jumped
// between 6.2 and 9.4 ms from run to run (spread 0.35 over ten runs)
// while its single-threaded set-up stayed within 0.09 (likely the two
// vCPUs landing on separate cores or on two hyperthreads of one); with
// one client the window's spread fell to 0.06.
const clients = 1

// recordsPerClientSecond sizes the window's record array, several times
// the fastest rate one client reaches (eval-warm, about 2300 requests a
// second on a 2-vCPU host). A window that runs out of records is
// incorrect.
const recordsPerClientSecond = 10000

// verifySample is how many retained replies of a one-off workload are
// checked against library references after the window.
const verifySample = 16

// endToEnd computes the user-visible metrics over the whole window,
// times at the reference speed (calib.go).
func endToEnd(wr *windowResult, heapLive uint64, setups []float64) map[string]metric {
	s0, s1 := wr.start, wr.end
	perReq := float64(max(len(wr.recs), 1))
	m := map[string]metric{
		"alloc_kb_per_req": {float64(s1.allocBytes-s0.allocBytes) / 1024 / perReq, "KiB"},
		"allocs_per_req":   {float64(s1.allocObjs-s0.allocObjs) / perReq, "count"},
		"heap_live_mb":     {float64(heapLive) / (1 << 20), "MiB"},
	}
	for name, v := range times(wr, speeds(wr.refs, wr.elapsed), cpuScale(wr.refs), setups) {
		m[name] = metric{v, timeUnits[name]}
	}
	return m
}

var timeUnits = map[string]string{
	"throughput_rps": "1/s", "latency_p50_ms": "ms", "first_frame_p50_ms": "ms",
	"cpu_ms_per_req": "ms", "setup_s": "s",
}

// times computes the time metrics, the window's times multiplied by
// their slices' factors f (nil: raw) and its CPU time by kCPU; setups
// are already scaled as wanted.
func times(wr *windowResult, f []float64, kCPU float64, setups []float64) map[string]float64 {
	lat, first := wr.latencies(f)
	return map[string]float64{
		"throughput_rps":     float64(len(lat)) / (wr.busy(f) / 1000),
		"latency_p50_ms":     quantile(lat, 0.50),
		"first_frame_p50_ms": quantile(first, 0.50),
		"cpu_ms_per_req":     ms(wr.cpu()) * kCPU / float64(max(len(wr.recs), 1)),
		"setup_s":            quantile(setups, 0.50),
	}
}

// heapAfter sends reqs to s in order over one keep-alive connection,
// checks each reply, and returns the live heap after a forced
// collection, with the server and its connection still up.
func heapAfter(s *server, reqs []*request, check func(*request, int, []byte) error) (uint64, error) {
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	defer client.CloseIdleConnections()
	for _, r := range reqs {
		status, body, _, err := send(client, s.url, r)
		if err != nil {
			return 0, err
		}
		if err := check(r, status, body); err != nil {
			return 0, fmt.Errorf("request %d: %w", r.idx, err)
		}
	}
	return heapLiveBytes(), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
