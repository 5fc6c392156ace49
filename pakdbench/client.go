package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// request is one element of a workload's seeded request sequence.
type request struct {
	// idx is the request's position in a drawn sequence.
	idx    int
	path   string
	body   []byte
	stream bool
	// group names the distinct body a repeated workload reuses (its
	// verified response is cached per group); -1 for a one-off body.
	group int
	// item carries the workload's own description of the request (the
	// sweep's parameters, the flood's facts) for checks and replay.
	item any
}

// rec is one completed request of the window, at its sequence index.
// Records live in one array allocated before the window, so recording
// allocates nothing inside it.
type rec struct {
	at                float32 // ms from the window's start to the send
	lat, first, check float32 // ms: send to last byte, to first result frame, verification
	stream, failed    bool
}

// outcome is a reply retained for verification after the window.
type outcome struct {
	idx    int
	req    *request
	status int
	body   []byte
}

// windowResult is what the timed window produced.
type windowResult struct {
	recs []rec // one per completed request, by sequence index
	// refs are the reference units run in the window and refCPU the
	// process CPU time they took (calib.go).
	refs    []refSample
	refCPU  time.Duration
	kept    []outcome
	errs    []string // the first few failures
	failed  int
	elapsed time.Duration // until the last reply was read
	// start and end are the process and host state around the window.
	start, end snapshot
	// exhausted reports that the window ran out of sequence or record
	// space before its time was up.
	exhausted bool
}

// latencies returns the full-response latencies of the verified-OK
// requests, and the times to their first result frame for the streamed
// ones, in ms, each multiplied by the factor of its slice (f from
// speeds; nil: raw).
func (wr *windowResult) latencies(f []float64) (lat, first []float64) {
	for _, r := range wr.recs {
		if r.failed {
			continue
		}
		k := factor(f, r)
		lat = append(lat, float64(r.lat)*k)
		if r.stream {
			first = append(first, float64(r.first)*k)
		}
	}
	return lat, first
}

// busy is the time the client spent on requests (sending, waiting,
// checking) in ms, scaled like latencies; the units are left out.
func (wr *windowResult) busy(f []float64) float64 {
	var t float64
	for _, r := range wr.recs {
		t += float64(r.lat+r.check) * factor(f, r)
	}
	return t
}

// factor is the factor of the slice r was sent in.
func factor(f []float64, r rec) float64 {
	if f == nil {
		return 1
	}
	return f[min(int(float64(r.at)/ms(refSlice)), len(f)-1)]
}

// cpu is the process CPU time of the window less the units'.
func (wr *windowResult) cpu() time.Duration {
	return wr.end.cpu - wr.start.cpu - wr.refCPU
}

// driver is the closed-loop load generator: clients each hold one
// keep-alive connection and send their next request only after the
// previous reply has been read and checked, the way pakd's callers
// (pakcheck, sweeps, pakload) use it.
type driver struct {
	url     string
	clients int
	// at returns the i-th request of the sequence, nil past its end.
	at func(i int) *request
	// check verifies a reply inside the window; its time is load.check_ms.
	check func(r *request, status int, body []byte) error
	// keep reports whether a reply is retained for verification after
	// the window (a seed-chosen sample).
	keep func(r *request) bool
	// ref is the reference unit the first client runs every refEvery.
	ref *refKernel
}

// run drives the sequence for dur, recording at most capacity requests.
// Clients take sequence indices in order and finish every index they
// take, so the completed requests are always a prefix of the sequence.
func (d *driver) run(dur time.Duration, capacity int) *windowResult {
	wr := &windowResult{recs: make([]rec, capacity), refs: make([]refSample, 0, int(dur/refEvery)+2)}
	var next, done atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	wr.start = takeSnapshot()
	start := wr.start.at
	deadline := start.Add(dur)
	for c := 0; c < d.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			var lastRef time.Time
			for now := time.Now(); now.Before(deadline); now = time.Now() {
				if c == 0 && d.ref != nil && now.Sub(lastRef) >= refEvery {
					c0 := processCPU()
					wall, cpu := d.ref.timed()
					wr.refs = append(wr.refs, refSample{now.Sub(start), wall, cpu})
					wr.refCPU += processCPU() - c0
					lastRef = now
					continue
				}
				i := int(next.Add(1) - 1)
				var r *request
				if i < capacity {
					r = d.at(i)
				}
				if r == nil {
					mu.Lock()
					wr.exhausted = true
					mu.Unlock()
					return
				}
				status, body, err := d.do(client, r, start, &wr.recs[i])
				done.Add(1)
				if err != nil || (d.keep != nil && d.keep(r)) {
					mu.Lock()
					if err != nil {
						wr.failed++
						if len(wr.errs) < 5 {
							wr.errs = append(wr.errs, fmt.Sprintf("request %d: %v", i, err))
						}
					} else {
						wr.kept = append(wr.kept, outcome{idx: i, req: r, status: status, body: body})
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	wr.end = takeSnapshot()
	wr.elapsed = wr.end.at.Sub(start)
	wr.recs = wr.recs[:done.Load()]
	return wr
}

var resultFrame = []byte(`"frame":"result"`)

// do sends one request, reads the whole reply (line by line for a
// stream, timing the first result frame), checks it and records it.
func (d *driver) do(client *http.Client, r *request, origin time.Time, out *rec) (int, []byte, error) {
	out.stream = r.stream
	start := time.Now()
	out.at = float32(ms(start.Sub(origin)))
	status, body, first, err := send(client, d.url, r)
	out.lat = float32(ms(time.Since(start)))
	out.first = float32(ms(first))
	if err == nil {
		t := time.Now()
		err = d.check(r, status, body)
		out.check = float32(ms(time.Since(t)))
	}
	out.failed = err != nil
	return status, body, err
}

// send posts r and reads the reply; first is the time to the first
// result frame of a stream.
func send(client *http.Client, url string, r *request) (status int, body []byte, first time.Duration, err error) {
	start := time.Now()
	resp, err := client.Post(url+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	if !r.stream {
		body, err = io.ReadAll(resp.Body)
		return resp.StatusCode, body, 0, err
	}
	var buf bytes.Buffer
	br := bufio.NewReader(resp.Body)
	for {
		line, rerr := br.ReadBytes('\n')
		if first == 0 && bytes.Contains(line, resultFrame) {
			first = time.Since(start)
		}
		buf.Write(line)
		if rerr == io.EOF {
			return resp.StatusCode, buf.Bytes(), first, nil
		}
		if rerr != nil {
			return resp.StatusCode, nil, first, rerr
		}
	}
}
