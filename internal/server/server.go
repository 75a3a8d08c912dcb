// Package server is the HTTP serving subsystem: a thin frontend over
// gsketch.Engine — the one-handle facade owning the estimator, the batch
// ingest pipeline, snapshot persistence, live workload capture and
// adaptive repartitioning. The server contributes the wire protocol,
// request hygiene, HTTP error mapping and expvar counters; every stateful
// concern lives in the engine.
//
// Endpoints:
//
//	POST /ingest           NDJSON edge batch; 429 + typed JSON when the
//	                       pipeline sheds load (queue full)
//	POST /query            batched edge queries; estimates + error bounds +
//	                       confidence from the bound-carrying read path
//	POST /query/window     batched time-range queries (when a window store
//	                       is configured)
//	GET  /snapshot         stream the current sketch state (consistent
//	                       striped-read-lock snapshot)
//	POST /snapshot/save    persist a snapshot to disk (atomic rename)
//	POST /snapshot/restore swap in a snapshot from disk or request body
//	                       (409 while a window store is mounted — snapshots
//	                       carry no window state)
//	GET  /workload         the recorded query-workload sample, in the text
//	                       edge format BuildGSketch accepts
//	POST /repartition      rebuild the partitioning from live samples and
//	                       hot-swap it in as a new sketch generation (when
//	                       the engine is adaptive)
//	GET  /healthz          liveness (alive and not shutting down)
//	GET  /readyz           readiness: 503 during snapshot restores and
//	                       repartition swaps, and when a cluster
//	                       coordinator has zero healthy shards
//	GET  /metrics          Prometheus text exposition: request counters,
//	                       per-route and wire-frame latency histograms,
//	                       engine/cluster gauges
//	GET  /stats            JSON counters + live engine gauges (the same
//	                       registry /metrics renders)
//
// The server is embeddable: New + Handler slot into any http.Server or
// test harness; ListenAndServe/Serve + Shutdown run it standalone.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/cluster"
	"github.com/graphstream/gsketch/internal/obs"
	"github.com/graphstream/gsketch/internal/tenant"
)

// Config parameterizes a Server.
type Config struct {
	// Engine is the serving engine, constructed with gsketch.Open. Exactly
	// one of Engine, Cluster and Tenants must be set.
	Engine *gsketch.Engine

	// Cluster serves a shard topology instead of a local engine: the
	// coordinator fronts N remote engines behind the same HTTP+wire
	// surface, so clients cannot tell one node from a cluster.
	// Engine-only endpoints (/workload, /query/window, /repartition,
	// GET /snapshot streaming) are not mounted.
	Cluster *cluster.Coordinator

	// Tenants serves a multi-tenant registry instead of a single backend:
	// the data path moves under /t/{tenant}/... (plus the wire protocol's
	// tenant-select frame) and the admin API (PUT|DELETE|GET /t/{tenant},
	// GET /t) mounts beside it. The server owns the registry lifecycle:
	// Shutdown snapshots every resident tenant and closes it.
	Tenants *tenant.Registry

	// SnapshotOnShutdown saves a final snapshot to the backend's snapshot
	// path during Shutdown, after the adaptive loop stops and the ingest
	// queue drains.
	SnapshotOnShutdown bool

	// Logger receives the server's structured lifecycle events (slog).
	// Nil discards them; gsketch-serve passes its -log-level/-log-format
	// configured logger.
	Logger *slog.Logger

	// MaxBodyBytes bounds request bodies (default 32 MiB).
	MaxBodyBytes int64
	// FlushTimeout bounds the wait of sync requests (?sync=1 ingests and
	// {"sync":true} queries) on the pipeline drain, which under sustained
	// ingest traffic may not quiesce (default 30s).
	FlushTimeout time.Duration
	// Now overrides the clock, for tests.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.FlushTimeout == 0 {
		c.FlushTimeout = 30 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

// Server is the serving runtime. Create with New; all exported methods are
// safe for concurrent use.
type Server struct {
	cfg Config
	// be is the serving surface shared by every endpoint. eng is non-nil
	// only for engine backends (engine-only routes key off it); coord is
	// non-nil only in cluster mode.
	be      Backend
	eng     *gsketch.Engine
	coord   *cluster.Coordinator
	tenants *tenant.Registry
	mux     *http.ServeMux
	stats   *counters
	metrics *serverMetrics
	log     *slog.Logger

	// notReady counts in-flight state swaps (snapshot restores,
	// repartitions): /readyz answers 503 while it is non-zero, so a load
	// balancer routes around the latency cliff of a swap in progress.
	notReady atomic.Int32

	// httpSrv is created in New (not lazily in Serve) so a Shutdown racing
	// startup still stops the listener: http.Server.Shutdown before Serve
	// makes the later Serve return ErrServerClosed immediately.
	httpSrv *http.Server

	// Wire-protocol listeners and connections (ServeWire), closed during
	// Shutdown.
	wireMu    sync.Mutex
	wireLns   map[net.Listener]struct{}
	wireConns map[net.Conn]struct{}
	wireWg    sync.WaitGroup

	start     time.Time
	closing   atomic.Bool
	closeOnce sync.Once
	closeErr  error
}

// New builds a server around exactly one backend: an engine, a cluster
// coordinator or a tenant registry. The server owns the backend
// lifecycle: Shutdown stops the adaptive loop, drains the pipeline and
// optionally persists a final snapshot. Callers must not push to the
// estimator directly while the server runs.
func New(cfg Config) (*Server, error) {
	backends := 0
	for _, set := range []bool{cfg.Engine != nil, cfg.Cluster != nil, cfg.Tenants != nil} {
		if set {
			backends++
		}
	}
	if backends != 1 {
		return nil, fmt.Errorf("server: set exactly one of Config.Engine, Config.Cluster and Config.Tenants (got %d)", backends)
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		log:       cfg.Logger.With("component", "server"),
		start:     cfg.Now(),
		wireLns:   make(map[net.Listener]struct{}),
		wireConns: make(map[net.Conn]struct{}),
	}
	s.metrics = s.newServerMetrics()
	s.stats = newCounters(s.metrics.reg)
	switch {
	case cfg.Tenants != nil:
		// No process-wide backend: every request resolves its tenant's
		// handle (s.backend), and wire connections bind one per session.
		s.tenants = cfg.Tenants
		s.registerTenantMetrics(cfg.Tenants)
	case cfg.Cluster != nil:
		s.coord = cfg.Cluster
		s.be = cfg.Cluster
		s.registerClusterMetrics(cfg.Cluster)
	default:
		s.eng = cfg.Engine
		s.be = engineBackend{eng: cfg.Engine}
		s.registerEngineMetrics(cfg.Engine)
	}
	s.mux = s.routes()
	s.httpSrv = &http.Server{
		Handler: s.mux,
		// Slow-loris hygiene; response writes stay unbounded because
		// /snapshot streams an arbitrarily large sketch.
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s, nil
}

// Engine returns the serving engine, for embedders that want the
// programmatic surface next to the HTTP one. It is nil in cluster mode.
func (s *Server) Engine() *gsketch.Engine { return s.eng }

// Cluster returns the cluster coordinator, or nil for an engine backend.
func (s *Server) Cluster() *cluster.Coordinator { return s.coord }

// Handler returns the server's HTTP handler, for embedding in an existing
// http.Server or test harness.
func (s *Server) Handler() http.Handler { return s.mux }

// Vars returns the expvar counter map, for callers that want to publish it
// on the process-global /debug/vars.
func (s *Server) Vars() *expvar.Map { return s.stats.vars }

// Metrics returns the server's metrics registry — the source of
// GET /metrics — for embedders that want to add their own instruments
// or mount the exposition handler elsewhere.
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }

// ready reports why the server cannot take traffic right now, or nil
// when it can — the /readyz condition. Liveness (/healthz) only checks
// the process is up and not shutting down; readiness additionally
// fails during state swaps and when a cluster has no healthy shard
// left to answer from.
func (s *Server) ready() error {
	if s.closing.Load() {
		return errors.New("shutting down")
	}
	if s.notReady.Load() > 0 {
		return errors.New("state swap in progress")
	}
	if s.coord != nil {
		if st := s.coord.Stats(); st.Healthy == 0 {
			return fmt.Errorf("no healthy shards (%d configured)", len(st.Shards))
		}
	}
	return nil
}

// beginSwap marks a state swap (snapshot restore, repartition) in
// flight for /readyz; the returned func ends it.
func (s *Server) beginSwap() func() {
	s.notReady.Add(1)
	return func() { s.notReady.Add(-1) }
}

// Serve accepts connections on ln until Shutdown. It returns
// http.ErrServerClosed after a graceful shutdown, like net/http.
func (s *Server) Serve(ln net.Listener) error {
	return s.httpSrv.Serve(ln)
}

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Shutdown drains and stops the server gracefully: mark unhealthy, stop
// the listener (waiting for in-flight handlers), close the engine — which
// stops the adaptive auto-trigger loop first and then drains the ingest
// queue, so no rebuild can race what follows — and finally persist a
// snapshot when configured. Safe to call multiple times; later calls
// return the first result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.closing.Store(true)
		s.log.Info("shutdown started")
		if err := s.httpSrv.Shutdown(ctx); err != nil {
			s.closeErr = err
			// Fall through: the engine still drains below.
		}
		// Wire connections are long-lived streams with no request
		// boundary to wait for: stop the listeners and cut the
		// connections. Edges already accepted by the pipeline drain in
		// the backend Close below.
		s.closeWire()
		// A cluster snapshot must fan out before Close severs the shard
		// connections; an engine saves after Close (the closed engine's
		// read path still serializes, and the close drain guarantees the
		// snapshot covers every accepted edge).
		if s.tenants != nil {
			// Registry close snapshots every resident tenant to its own
			// directory; SnapshotOnShutdown adds nothing on top.
			if err := s.tenants.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		} else {
			saveFinal := func() {
				if !s.cfg.SnapshotOnShutdown || s.be.SnapshotPath() == "" {
					return
				}
				if _, err := s.be.SaveSnapshot(""); err != nil {
					if s.closeErr == nil {
						s.closeErr = err
					}
				} else {
					s.stats.snapshotsSaved.Add(1)
				}
			}
			if s.coord != nil {
				saveFinal()
			}
			if err := s.be.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
			if s.coord == nil {
				saveFinal()
			}
		}
		if s.closeErr != nil {
			s.log.Error("shutdown finished", "error", s.closeErr)
		} else {
			s.log.Info("shutdown finished")
		}
	})
	return s.closeErr
}

// Close is Shutdown without a deadline.
func (s *Server) Close() error { return s.Shutdown(context.Background()) }

// writeJSON writes v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// errorJSON is the error envelope of every non-2xx JSON reply: a human
// message plus a stable machine code, uniform across all handlers
// (including 404s from unknown tenants and routes).
type errorJSON struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// codeSlug maps an HTTP status to the default machine code of its error
// body. Handlers with a more specific cause use writeErrorCode instead.
func codeSlug(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusForbidden:
		return "forbidden"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusConflict:
		return "conflict"
	case http.StatusRequestEntityTooLarge:
		return "payload_too_large"
	case http.StatusTooManyRequests:
		return "too_many_requests"
	case http.StatusNotImplemented:
		return "not_implemented"
	case http.StatusBadGateway:
		return "bad_gateway"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "internal"
	}
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeErrorCode(w, status, codeSlug(status), format, args...)
}

// writeErrorCode is writeError with an explicit machine code, for
// statuses whose default slug is too coarse ("tenant_not_found" vs a
// route-level "not_found", say).
func writeErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorJSON{Error: fmt.Sprintf(format, args...), Code: code})
}
