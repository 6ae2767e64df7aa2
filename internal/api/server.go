// Package api is the serving edge: an HTTP/JSON front door over a
// core.Peer exposing the full share lifecycle — register, attach,
// proof-carrying reads, writes, audit — plus the operational
// endpoints (/healthz, /readyz, /metrics) a deployment needs to put the
// node behind a load balancer and hold an SLO against it.
package api

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"medshare/internal/audit"
	"medshare/internal/contract/sharereg"
	"medshare/internal/core"
	"medshare/internal/node"
	"medshare/internal/reldb"
	"medshare/internal/store"
)

// Config configures a Server. Peer and Node are required.
type Config struct {
	Peer *core.Peer
	Node *node.Node
	// CoalesceWindow is ignored: each write proposes through
	// core.Peer.UpdateView at once, and concurrent writes share a block
	// through the node's producer kick.
	//
	// Deprecated: the HTTP edge no longer batches writes.
	CoalesceWindow time.Duration
	// Store is the peer's durable store, when it runs one; /metrics then
	// exports the medshare_store_* gauges (segments, live/tail bytes,
	// torn-tail and degraded-segment recovery telemetry).
	Store *store.Store
}

// Fixed serving limits.
const (
	// maxEventBacklog is the peer's event backlog (events delivered and
	// not yet dispatched, plus update requests inside unfinished receive
	// rounds) above which /readyz reports not-ready.
	maxEventBacklog = 256
	// requestTimeout bounds one API request's work, chain commits
	// included.
	requestTimeout = 30 * time.Second
)

// Server serves the API over one peer.
type Server struct {
	cfg     Config
	peer    *core.Peer
	node    *node.Node
	auditor *audit.Auditor
	mux     *http.ServeMux
	views   viewCache
	m       serverMetrics
}

// serverMetrics is the HTTP layer's own instrumentation: request and
// error counts plus a latency summary per request kind, exported at
// /metrics next to the peer's counters.
type serverMetrics struct {
	kinds map[string]*kindMetrics
	// notReady counts /readyz probes answered 503.
	notReady atomic.Uint64
}

type kindMetrics struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	latency  histogram
}

// requestKinds enumerates the instrumented request kinds, in the order
// /metrics exports them.
var requestKinds = []string{
	"health", "ready", "metrics",
	"shares_list", "register", "attach",
	"rows", "row", "update", "audit",
	"light_headers", "light_head", "light_row",
}

// New builds a Server over the peer.
func New(cfg Config) (*Server, error) {
	if cfg.Peer == nil || cfg.Node == nil {
		return nil, errors.New("api: Config.Peer and Config.Node are required")
	}
	s := &Server{
		cfg:     cfg,
		peer:    cfg.Peer,
		node:    cfg.Node,
		auditor: audit.New(cfg.Node.Store(), cfg.Node.Registry()),
		mux:     http.NewServeMux(),
		m:       serverMetrics{kinds: make(map[string]*kindMetrics, len(requestKinds))},
	}
	for _, k := range requestKinds {
		s.m.kinds[k] = &kindMetrics{}
	}
	s.routes()
	return s, nil
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.instrument("health", s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.instrument("ready", s.handleReadyz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /v1/shares", s.instrument("shares_list", s.handleSharesList))
	s.mux.HandleFunc("POST /v1/shares", s.instrument("register", s.handleRegister))
	s.mux.HandleFunc("POST /v1/shares/{id}/attach", s.instrument("attach", s.handleAttach))
	s.mux.HandleFunc("GET /v1/shares/{id}/rows", s.instrument("rows", s.handleRows))
	s.mux.HandleFunc("GET /v1/shares/{id}/row", s.instrument("row", s.handleRow))
	s.mux.HandleFunc("POST /v1/shares/{id}/update", s.instrument("update", s.handleUpdate))
	s.mux.HandleFunc("GET /v1/shares/{id}/audit", s.instrument("audit", s.handleAudit))
	s.mux.HandleFunc("GET /v1/light/headers", s.instrument("light_headers", s.handleLightHeaders))
	s.mux.HandleFunc("GET /v1/light/shares/{id}/head", s.instrument("light_head", s.handleLightHead))
	s.mux.HandleFunc("GET /v1/light/shares/{id}/row", s.instrument("light_row", s.handleLightRow))
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// CoalesceStats reports every HTTP write request as its own batch:
// batches and writes are both the update request count.
//
// Deprecated: the HTTP edge no longer batches writes.
func (s *Server) CoalesceStats() (batches, writes uint64) {
	n := s.m.kinds["update"].requests.Load()
	return n, n
}

// httpError carries a status code out of a handler.
type httpError struct {
	status int
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

// statusOf maps a handler error to its HTTP status: explicit statuses
// win; unknown shares and keys a row op or read names but the view does
// not hold are 404; a set on a key column is 400; a write the contract
// refused because the share's previous update is still pending is 409
// (the message names the pending seq); everything else is a 500.
func statusOf(err error) int {
	var he *httpError
	if errors.As(err, &he) {
		return he.status
	}
	switch {
	case errors.Is(err, core.ErrUnknownShare), errors.Is(err, reldb.ErrKeyNotFound):
		return http.StatusNotFound
	case errors.Is(err, reldb.ErrKeyImmutable):
		return http.StatusBadRequest
	case errors.Is(err, sharereg.ErrPending):
		return http.StatusConflict
	}
	return http.StatusInternalServerError
}

// instrument wraps a handler with per-kind request counting, latency
// recording, and uniform error rendering.
func (s *Server) instrument(kind string, fn func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	km := s.m.kinds[kind]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		km.requests.Add(1)
		ctx, cancel := context.WithTimeout(r.Context(), requestTimeout)
		defer cancel()
		err := fn(w, r.WithContext(ctx))
		km.latency.Record(time.Since(start))
		if err != nil {
			km.errors.Add(1)
			writeJSONStatus(w, statusOf(err), ErrorResponse{Error: err.Error()})
		}
	}
}
