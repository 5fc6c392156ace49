// Admission control: a per-client concurrency quota in front of the
// evaluation endpoints (WithClientQuota / pakd -client-quota). The
// heavy requests — multi-system eval fan-outs and envelope sweeps — are the
// ones a single greedy client can starve a fleet with, so admission
// happens before any decode or engine work: over-quota requests cost
// the server one map lookup and answer a deterministic, golden-pinned
// 429.
//
// Client identity is the X-Client-ID header when present (the
// cooperative fleet case: replicas and load drivers name themselves),
// else the remote address's host — so an anonymous client is limited
// per source address rather than sharing one global bucket.
package service

import (
	"fmt"
	"net"
	"net/http"
	"sync"
)

// clientIDHeader names the requests' self-identification header.
const clientIDHeader = "X-Client-ID"

// clientQuota tracks in-flight evaluation requests per client.
type clientQuota struct {
	limit    int
	mu       sync.Mutex
	inflight map[string]int
}

func newClientQuota(limit int) *clientQuota {
	return &clientQuota{limit: limit, inflight: make(map[string]int)}
}

// acquire admits one request for id, reporting false at the limit.
func (q *clientQuota) acquire(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.inflight[id] >= q.limit {
		return false
	}
	q.inflight[id]++
	return true
}

// release returns one admitted slot. Entries drop out of the map at
// zero so the table stays proportional to concurrent clients, not to
// every client ever seen.
func (q *clientQuota) release(id string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if n := q.inflight[id]; n <= 1 {
		delete(q.inflight, id)
	} else {
		q.inflight[id] = n - 1
	}
}

// clientID extracts the request's admission identity.
func clientID(r *http.Request) string {
	if id := r.Header.Get(clientIDHeader); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// admit applies the per-client quota for one evaluation request. It
// reports (release, true) on admission — the caller must defer the
// release — or writes the 429 itself and reports false. With no quota
// configured every request admits for free.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (func(), bool) {
	if s.quota == nil {
		return func() {}, true
	}
	id := clientID(r)
	if !s.quota.acquire(id) {
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("client %q exceeds the per-client concurrency quota of %d in-flight evaluation requests",
				id, s.quota.limit))
		return nil, false
	}
	return func() { s.quota.release(id) }, true
}
