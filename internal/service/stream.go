// The streaming transport: POST /v1/eval/stream speaks newline-
// delimited JSON (NDJSON) over http.Flusher, one frame per line:
//
//	{"frame":"result","system":0,"spec":"nsquad(2)","canonical":"...","index":1,"result":{...}}
//	{"frame":"status","status":"complete"}
//
// Result frames carry exactly the ResultDoc the buffered /v1/eval path
// would have returned for the same slot — byte-identical, pinned by
// tests — and every stream ends with exactly one terminal status frame:
//
//	complete   every query evaluated (per-slot failures included)
//	deadline   the request deadline expired; frames already emitted are
//	           exact, the remaining slots carry per-slot deadline errors
//	cancelled  the request context was cancelled (client gone)
//	error      a request-level failure after streaming began (e.g. a
//	           mid-stream engine build failure); carries the HTTP status
//	           the failure would have had in "code"
//
// Store-served frames stream first, in (system, batch) order and under
// one flush; evaluated frames then arrive, each flushed on its own, in
// completion order across ALL systems at once (serial parallelism
// therefore streams in request order). Engines are lazy: each system's
// engine builds when the evaluator's first worker reaches one of its
// slots, so a cold multi-system request starts answering as soon as its
// first engine is up — and systems the deadline cuts before any slot
// starts never build at all.
//
// Request-level failures BEFORE the first frame (bad body, unknown
// scenario, caps, a cold build failing while nothing has streamed) are
// ordinary JSON error responses with their own status line. After the
// first flushed frame the status line is spent: failures become the
// terminal "error" frame, never a second WriteHeader.
package service

import (
	"context"
	"encoding/json"
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
	data, err := json.Marshal(v)
	if err != nil {
		// Frames are fully materialized value types; this cannot fail.
		// Guarded anyway so a future frame type can't commit a torn line.
		return err
	}
	if !sw.started {
		sw.w.Header().Set("Content-Type", contentTypeNDJSON)
		sw.w.WriteHeader(http.StatusOK)
		sw.started = true
	}
	_, err = sw.w.Write(append(data, '\n'))
	return err
}

// flush sends every written frame to the client.
func (sw *streamWriter) flush() {
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
}

// fail reports a request-level failure in whichever shape is still
// expressible: a plain JSON error with its own status line while
// nothing has been flushed, or a terminal "error" status frame once
// streaming has begun.
func (sw *streamWriter) fail(status int, err error) {
	if !sw.started {
		writeError(sw.w, status, err)
		return
	}
	_ = sw.frame(StreamStatusFrame{Frame: frameStatus, Status: streamStatusError, Code: status, Error: err.Error()})
}

// handleEvalStream serves POST /v1/eval/stream. It shares request
// decoding with the buffered path, then streams one EvalMultiStream
// over every system at once: each system's engine is a lazy source that
// builds when the evaluator's first worker reaches one of its slots, so
// system 0's results stream while system 3's engine is still unfolding,
// a finished result reaches the client the moment its worker completes,
// and a deadline mid-request leaves unreached builds unstarted —
// truncation can only ever cost unfinished work.
func (s *Server) handleEvalStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("%s not allowed; use POST", r.Method))
		return
	}
	release, admitted := s.admit(w, r)
	if !admitted {
		return
	}
	defer release()
	ctx := r.Context()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}

	plan, ok := s.decodeEvalRequest(w, r)
	if !ok {
		return
	}
	lookup := s.lookupStored(plan)
	evalView, slotMap := reducePlan(plan, lookup)
	s.countBackendSlots(evalView)

	states, items := s.lazyItems(evalView, lookup)
	sw := newStreamWriter(w)
	// Stored slots stream first, across every system in (system, batch)
	// order: they are on hand before any engine is, so they go out
	// back to back under one flush. Fully-hit systems are thereby
	// answered in full, engine-free.
	for i := range plan.targets {
		for j := range plan.batches[i] {
			hit := lookup.hit(i, j)
			if hit == nil {
				continue
			}
			err := sw.write(StreamResultFrame{
				Frame:     frameResult,
				System:    i,
				Spec:      plan.specs[i],
				Canonical: plan.targets[i].key,
				Index:     j,
				Result:    *hit,
			})
			if err != nil {
				return
			}
		}
	}
	if sw.started {
		sw.flush()
	}
	for f := range query.EvalMultiStream(items, evalView.evalOptions(ctx)...) {
		if f.Terminal() {
			// The evaluator's terminal is folded into the request
			// terminal below, where the context cause names the ending.
			continue
		}
		if st := states[f.System]; st != nil {
			if err := st.genuineBuildErr(ctx); err != nil {
				// A genuine mid-stream build failure (bad spec, builder
				// domain error) ends the stream request-level: a plain
				// error response while nothing has flushed, the terminal
				// "error" frame with its HTTP code otherwise.
				sw.fail(statusOfEvalErr(err), err)
				return
			}
		}
		orig := f.Index
		if slotMap != nil {
			orig = slotMap[f.System][f.Index]
		}
		doc := query.DocOf(f.Result)
		if f.Stage != query.StageApprox {
			s.persistResult(ctx, lookup, plan.targets[f.System].key, f.System, orig, doc)
		}
		err := sw.frame(StreamResultFrame{
			Frame:     frameResult,
			System:    f.System,
			Spec:      plan.specs[f.System],
			Canonical: plan.targets[f.System].key,
			Index:     orig,
			Stage:     string(f.Stage),
			Result:    doc,
		})
		if err != nil {
			// The client is gone; the buffered query stream drains
			// itself, so just stop writing.
			return
		}
	}
	if err := s.sweepSources(ctx, states); err != nil {
		// A batchless probe's builder error surfaces request-level, as
		// on the buffered path.
		sw.fail(statusOfEvalErr(err), err)
		return
	}

	terminal := StreamStatusFrame{Frame: frameStatus, Status: string(query.StreamComplete)}
	if cause := context.Cause(ctx); cause != nil {
		terminal.Status = string(streamStatusOf(cause))
		terminal.Error = evalErrMessage(cause, s.timeout).Error()
	}
	_ = sw.frame(terminal)
}
