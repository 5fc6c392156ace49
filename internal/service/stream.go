// The /v1/eval pipeline and its two transports. evalFrames turns one
// vetted request into wire frames: a StreamResultFrame per slot (two
// under approx: the estimate, then the exact refinement) and exactly
// one terminal StreamStatusFrame. POST /v1/eval/stream writes them as
// newline-delimited JSON (NDJSON) over http.Flusher, one frame per
// line:
//
//	{"frame":"result","system":0,"spec":"nsquad(2)","canonical":"...","index":1,"result":{...}}
//	{"frame":"status","status":"complete"}
//
// POST /v1/eval folds the same frames into one EvalResponse, so a
// result frame carries exactly the ResultDoc the buffered response
// holds for its slot, by construction. Every stream ends with exactly
// one terminal status frame:
//
//	complete   every query evaluated (per-slot failures included)
//	deadline   the request deadline expired; frames already emitted are
//	           exact, the remaining slots carry per-slot deadline errors
//	cancelled  the request context was cancelled (client gone)
//	error      a request-level failure after streaming began (e.g. a
//	           mid-stream engine build failure); carries the HTTP status
//	           the failure would have had in "code"
//
// The buffered transport answers the same terminal with its status
// line: 200 on complete, 504 with the body's status/error set on a
// deadline or cancellation, and the failure's errorDoc under its code.
//
// Store-served frames come first, in (system, batch) order and under
// one flush; evaluated frames then arrive, each flushed on its own, in
// completion order across ALL systems at once (serial parallelism
// therefore streams in request order). Each finished exact slot is
// persisted as its frame arrives, while the request context is live.
// Engines are lazy: each system's engine builds when the evaluator's
// first worker reaches one of its slots, so a cold multi-system request
// starts answering as soon as its first engine is up — and systems the
// deadline cuts before any slot starts never build at all.
//
// Request-level failures BEFORE the first frame (bad body, unknown
// scenario, caps, a cold build failing while nothing has streamed) are
// ordinary JSON error responses with their own status line. After the
// first flushed frame the status line is spent: failures become the
// terminal "error" frame, never a second WriteHeader. The stream
// therefore ends at the first frame whose engine build genuinely
// failed; the buffered transport, which retracts nothing, lets the
// evaluation run out and reports the first failing system in target
// order, deterministic at any parallelism.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"pak/internal/query"
)

// Frame discriminators and the stream's media type.
const (
	frameResult = "result"
	frameStatus = "status"

	// streamStatusError is the terminal status for request-level
	// failures once streaming has begun; the query layer's
	// complete/deadline/cancelled statuses cover every other ending.
	streamStatusError = "error"

	contentTypeNDJSON = "application/x-ndjson"
)

// StreamResultFrame is one result line of a /v1/eval/stream response.
type StreamResultFrame struct {
	// Frame is always "result".
	Frame string `json:"frame"`
	// System is the index of the slot's system in the request; Spec and
	// Canonical echo that system's requested and resolved forms.
	System    int    `json:"system"`
	Spec      string `json:"spec"`
	Canonical string `json:"canonical"`
	// Index is the query's position within its system's batch.
	Index int `json:"index"`
	// Stage labels the frame's tier under an approx request: "approx"
	// for the sampled estimate, "exact" for the refined result. A
	// supported slot emits its approx frame strictly before its exact
	// frame; a deadline between the two leaves the approx frame as the
	// slot's final, sound answer. Absent on exact-only requests, so the
	// classic wire shape is byte-identical to before the tier existed.
	Stage string `json:"stage,omitempty"`
	// Result is the slot's wire result — identical to the entry the
	// buffered /v1/eval response would carry at [System][Index].
	Result query.ResultDoc `json:"result"`
}

// StreamStatusFrame is the terminal line of every /v1/eval/stream
// response.
type StreamStatusFrame struct {
	// Frame is always "status".
	Frame string `json:"frame"`
	// Status is "complete", "deadline", "cancelled" or "error".
	Status string `json:"status"`
	// Code is the HTTP status a mid-stream failure would have carried
	// (set only on "error" frames).
	Code int `json:"code,omitempty"`
	// Error is the request-level failure or timeout message (empty on
	// "complete").
	Error string `json:"error,omitempty"`
}

// streamWriter owns the one-status-line invariant of the streaming
// path: before the first frame it can still answer a plain JSON error
// with its own status code; from the first frame on, the status line is
// spent and every failure must travel as a terminal error frame. All
// writes funnel through it, so a double WriteHeader is structurally
// impossible rather than merely audited.
type streamWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher // nil when the ResponseWriter cannot flush
	started bool
	// err is the first failed write (the client is gone); every later
	// write returns it without writing.
	err error
}

func newStreamWriter(w http.ResponseWriter) *streamWriter {
	f, _ := w.(http.Flusher)
	return &streamWriter{w: w, flusher: f}
}

// frame writes one NDJSON line and flushes it to the client.
func (sw *streamWriter) frame(v any) error {
	if err := sw.write(v); err != nil {
		return err
	}
	sw.flush()
	return nil
}

// write writes one NDJSON line without flushing it, so that frames on
// hand at once reach the client in one flush. The first frame commits
// the 200 status line and the NDJSON content type.
func (sw *streamWriter) write(v any) error {
	if sw.err != nil {
		return sw.err
	}
	data, err := json.Marshal(v)
	if err != nil {
		// Frames are fully materialized value types; this cannot fail.
		// Guarded anyway so a future frame type can't commit a torn line.
		sw.err = err
		return err
	}
	if !sw.started {
		sw.w.Header().Set("Content-Type", contentTypeNDJSON)
		sw.w.WriteHeader(http.StatusOK)
		sw.started = true
	}
	_, sw.err = sw.w.Write(append(data, '\n'))
	return sw.err
}

// flush sends every written frame to the client.
func (sw *streamWriter) flush() {
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
}

// end writes a pipeline's terminal frame. A request-level failure
// (code != 0) that finds nothing flushed yet is still expressible as a
// plain JSON error with its own status line; once streaming has begun
// it travels as the terminal "error" frame itself.
func (sw *streamWriter) end(terminal any, code int, msg string) {
	if code != 0 && !sw.started {
		writeJSON(sw.w, code, errorDoc{Error: msg})
		return
	}
	_ = sw.frame(terminal)
}

// answer writes a buffered transport's response for its pipeline's
// terminal: the failure's errorDoc under its code, 504 with body for a
// deadline-cut or cancelled request (its finished prefix kept), 200
// with body on completion.
func answer(w http.ResponseWriter, t StreamStatusFrame, body any) {
	switch t.Status {
	case streamStatusError:
		writeJSON(w, t.Code, errorDoc{Error: t.Error})
	case string(query.StreamComplete):
		writeJSON(w, http.StatusOK, body)
	default:
		writeJSON(w, http.StatusGatewayTimeout, body)
	}
}

// failed is the terminal frame of a request-level failure, carrying
// the HTTP status the failure maps to.
func failed(err error) StreamStatusFrame {
	return StreamStatusFrame{Frame: frameStatus, Status: streamStatusError, Code: statusOfEvalErr(err), Error: err.Error()}
}

// ended is the terminal frame of a request that ran out: complete, or
// the context's cause as deadline/cancelled. The deadline message names
// the configured budget, not measured time, so clients (and the golden
// tests) can rely on its shape.
func (s *Server) ended(cause error) StreamStatusFrame {
	t := StreamStatusFrame{Frame: frameStatus, Status: string(query.StreamComplete)}
	switch {
	case cause == nil:
	case errors.Is(cause, context.DeadlineExceeded):
		t.Status = string(query.StreamDeadline)
		t.Error = fmt.Sprintf("request deadline exceeded: evaluation did not finish within the server's %v budget", s.timeout)
	case errors.Is(cause, context.Canceled):
		t.Status, t.Error = string(query.StreamCancelled), "request cancelled before evaluation finished"
	default:
		t.Status, t.Error = string(query.StreamCancelled), cause.Error()
	}
	return t
}

// evalFrames is the /v1/eval pipeline. It reads the plan through the
// result store and puts every stored slot's frame first, in (system,
// batch) order, then flushes; it then evaluates the remaining slots
// over lazy engine sources in one EvalMultiStream and puts each frame
// as it arrives, remapped to its original batch index, persisting
// finished exact slots while the context is live. It returns the
// request's one terminal frame. A put error (the client is gone) ends
// the pipeline at once with a zero frame. failFast ends it at the first
// frame of a system whose build genuinely failed; otherwise that
// failure is the first one in target order, found once evaluation has
// run out (sweepSources).
func (s *Server) evalFrames(ctx context.Context, plan evalPlan, failFast bool,
	put func(StreamResultFrame) error, flush func()) StreamStatusFrame {
	lookup := s.lookupStored(plan)
	evalView, slotMap := reducePlan(plan, lookup)
	states, items := s.lazyItems(evalView, lookup)
	frame := func(i, j int, stage query.Stage, doc query.ResultDoc) StreamResultFrame {
		return StreamResultFrame{Frame: frameResult, System: i, Spec: plan.specs[i],
			Canonical: plan.targets[i].key, Index: j, Stage: string(stage), Result: doc}
	}

	stored := false
	for i := range plan.targets {
		for j := range plan.batches[i] {
			if hit := lookup.hit(i, j); hit != nil {
				if put(frame(i, j, "", *hit)) != nil {
					return StreamStatusFrame{}
				}
				stored = true
			}
		}
	}
	if stored {
		flush()
	}
	for f := range query.EvalMultiStream(items, evalView.evalOptions(ctx)...) {
		if f.Terminal() {
			// The evaluator's terminal is folded into the request
			// terminal below, where the context cause names the ending.
			continue
		}
		if st := states[f.System]; failFast && st != nil {
			if err := st.genuineBuildErr(ctx); err != nil {
				return failed(err)
			}
		}
		orig := f.Index
		if slotMap != nil {
			orig = slotMap[f.System][f.Index]
		}
		doc := query.DocOf(f.Result)
		s.persistResult(ctx, lookup, plan.targets[f.System].key, f.System, orig, doc)
		if put(frame(f.System, orig, f.Stage, doc)) != nil {
			// The client is gone; the buffered query stream drains
			// itself, so just stop.
			return StreamStatusFrame{}
		}
		flush()
	}
	if err := s.sweepSources(ctx, states); err != nil {
		// A genuine build failure (bad spec, builder domain error — or a
		// context-flavoured error from a custom builder while the request
		// is still live), a batchless probe's included, is a request
		// error. Context-cut builds fall through: their slots already
		// carry per-slot deadline errors.
		return failed(err)
	}
	return s.ended(context.Cause(ctx))
}

// serveEvalStream is the NDJSON transport of /v1/eval/stream: each
// frame reaches the client as the pipeline yields it.
func (s *Server) serveEvalStream(ctx context.Context, w http.ResponseWriter, plan evalPlan) {
	sw := newStreamWriter(w)
	t := s.evalFrames(ctx, plan, true, func(f StreamResultFrame) error { return sw.write(f) }, sw.flush)
	sw.end(t, t.Code, t.Error)
}

// serveEval is the buffered transport of /v1/eval: it folds the
// pipeline's frames into one EvalResponse. The last frame for a slot
// wins, so an exact frame replaces its approx estimate. A request that
// outruns its deadline keeps its finished prefix: the 504 body carries
// every finished result plus per-slot deadline errors for the queries
// that never ran.
func (s *Server) serveEval(ctx context.Context, w http.ResponseWriter, plan evalPlan) {
	resp := EvalResponse{Results: make([]SystemResult, len(plan.targets))}
	for i := range plan.targets {
		resp.Results[i] = SystemResult{System: plan.specs[i], Canonical: plan.targets[i].key,
			Results: make([]query.ResultDoc, len(plan.batches[i]))}
	}
	t := s.evalFrames(ctx, plan, false, func(f StreamResultFrame) error {
		resp.Results[f.System].Results[f.Index] = f.Result
		return nil
	}, func() {})
	if t.Status != string(query.StreamComplete) {
		resp.Status, resp.Error = t.Status, t.Error
	}
	answer(w, t, resp)
}
