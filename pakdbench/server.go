package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"pak/internal/core"
	"pak/internal/service"
)

// server is one in-process pakd: the handler cmd/pakd serves, mounted
// on a loopback listener. Every measured run starts a fresh one, so no
// run inherits engines, memo tables or heap from another.
type server struct {
	svc  *service.Server
	http *http.Server
	url  string
	done chan struct{}
}

// startServer listens on an ephemeral loopback port and serves the
// service until close.
func startServer(opts ...service.Option) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		svc:  service.New(nil, opts...),
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	s.http = &http.Server{Handler: s.svc.Handler(), ReadHeaderTimeout: time.Minute}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close stops the listener, drops idle connections and waits for the
// serving goroutine to exit.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.http.Shutdown(ctx); err != nil {
		_ = s.http.Close()
	}
	<-s.done
}

// statsDoc is the part of GET /v1/stats the benchmark reads. Decoded
// with its own struct, as an external client would.
type statsDoc struct {
	EngineCache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"engineCache"`
	MemoSeeded int64 `json:"memoSeeded"`
	Store      *struct {
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
		Corrupt int64 `json:"corrupt"`
	} `json:"store"`
}

// stats fetches /v1/stats over the wire.
func (s *server) stats() (statsDoc, error) {
	var doc statsDoc
	resp, err := http.Get(s.url + "/v1/stats")
	if err != nil {
		return doc, fmt.Errorf("stats: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return doc, fmt.Errorf("stats: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return doc, fmt.Errorf("stats: %w", err)
	}
	return doc, nil
}

// memoEntries sums Engine.CacheStats over the engines the server still
// retains under the given keys. Call it after the window: looking an
// engine up counts as a cache hit.
func (s *server) memoEntries(keys []string) int {
	cache := s.svc.Cache()
	total := 0
	for _, k := range keys {
		if !cache.Contains(k) {
			continue
		}
		e, err := cache.Get(k, func() (*core.Engine, error) {
			return nil, fmt.Errorf("evicted")
		})
		if err != nil || e == nil {
			continue
		}
		perf, events, beliefs := e.CacheStats()
		total += perf + events + beliefs
	}
	return total
}
