// Package ops is the live operations plane of the DistScroll reproduction:
// a dependency-free HTTP server that exposes a running fleet's telemetry
// registry while the run is in flight. The paper measures DistScroll after
// the fact; a service pushing a million simulated devices needs to be
// watchable *during* the run — scrape progress, spot a stall, pull a
// profile — without stopping it.
//
// Endpoints:
//
//	/metrics       Prometheus text exposition of a registry snapshot
//	/vars          the same snapshot as indented JSON
//	/healthz       200 while the SLO watchdog is clean, 503 with the
//	               breach list as JSON once it fires (always 200 without one)
//	/api/history   retained telemetry history as JSON (?k=, ?series=, ?prefix=)
//	/dash          self-contained live HTML+SVG dashboard over /api/history
//	/debug/pprof/  the standard Go profiling endpoints
//
// Every scrape takes one registry snapshot: counters are atomics and the
// scale path's shard collector holds each stripe's lock only as long as a
// worker's per-sweep fold does, so scraping never waits on a tick loop. Overhead is bounded by snapshot cost times
// scrape rate, not by fleet size per request beyond the merge itself.
//
// The SLO watchdog samples nothing itself: it subscribes to the history
// store, the plane's one sampler, and judges each window the store
// appends, so /healthz and /dash always read the same windows.
package ops

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hcilab/distscroll/internal/history"
	"github.com/hcilab/distscroll/internal/telemetry"
)

// Config wires a server to its data sources.
type Config struct {
	// Registry is scraped on every /metrics and /vars request.
	Registry *telemetry.Registry
	// Watchdog, when set, drives /healthz: 503 once it has breached.
	Watchdog *Watchdog
	// History, when set, serves /api/history and feeds /dash.
	History *history.Store
}

// Server is a running ops HTTP server.
type Server struct {
	ln  net.Listener
	srv *http.Server
	wd  atomic.Pointer[Watchdog]

	// Close is idempotent: concurrent and repeated closes collapse to
	// one srv.Close, every caller seeing its error.
	closeOnce sync.Once
	closeErr  error
}

// Serve starts the ops plane on addr (host:port; port 0 picks a free one)
// and returns once the listener is bound, so the reported Addr is always
// scrapeable. The HTTP loop runs on its own goroutine until Close.
func Serve(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ops: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln}
	if cfg.Watchdog != nil {
		s.wd.Store(cfg.Watchdog)
	}
	s.srv = &http.Server{
		// /healthz reads its watchdog through the server so SetWatchdog
		// can attach one after the listener is already up (a fleet binds
		// its port at construction, its watchdog at run start).
		Handler:           handler(cfg.Registry, s.wd.Load, cfg.History),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// SetWatchdog points /healthz at w (nil detaches, making the endpoint
// always healthy). Safe while serving and safe on nil.
func (s *Server) SetWatchdog(w *Watchdog) {
	if s == nil {
		return
	}
	s.wd.Store(w)
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns the server's base URL.
func (s *Server) URL() string {
	if s == nil {
		return ""
	}
	return "http://" + s.Addr()
}

// Close stops the listener and the HTTP loop. Safe on nil, idempotent,
// and safe against concurrent callers and in-flight scrapes: every call
// returns the first close's result.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.closeOnce.Do(func() { s.closeErr = s.srv.Close() })
	return s.closeErr
}

// Handler builds the ops mux without binding a listener — the unit-test
// and embedding entry point.
func Handler(cfg Config) http.Handler {
	return handler(cfg.Registry, func() *Watchdog { return cfg.Watchdog }, cfg.History)
}

// healthzBody is the /healthz 503 JSON schema.
type healthzBody struct {
	Status   string   `json:"status"`
	Breaches []Breach `json:"breaches"`
}

// handler is the mux over a registry, a watchdog accessor (read per
// request, so a served fleet can attach its watchdog late) and the history
// store (nil disables /api/history and /dash).
func handler(reg *telemetry.Registry, watchdog func() *Watchdog, st *history.Store) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "distscroll ops plane\n\n"+
			"/metrics       Prometheus exposition\n"+
			"/vars          JSON snapshot\n"+
			"/healthz       SLO watchdog state\n"+
			"/api/history   retained telemetry history (JSON)\n"+
			"/dash          live dashboard\n"+
			"/debug/pprof/  Go profiling\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.Snapshot().WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := reg.Snapshot().WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		wd := watchdog()
		if wd.Healthy() {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, "ok\n")
			return
		}
		// Breached: structured JSON so tooling gets the rule, metric,
		// value, limit, and window without parsing prose.
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(healthzBody{Status: "slo breach", Breaches: wd.Breaches()}) //nolint:errcheck
	})
	mux.HandleFunc("/api/history", func(w http.ResponseWriter, r *http.Request) {
		if st == nil {
			http.Error(w, "history disabled (enable WithHistory / -history-windows)", http.StatusNotFound)
			return
		}
		var q history.Query
		if v := r.URL.Query().Get("k"); v != "" {
			k, err := strconv.Atoi(v)
			if err != nil || k < 0 {
				http.Error(w, "k must be a non-negative integer", http.StatusBadRequest)
				return
			}
			q.LastK = k
		}
		if v := r.URL.Query().Get("series"); v != "" {
			q.Series = strings.Split(v, ",")
		}
		if v := r.URL.Query().Get("prefix"); v != "" {
			q.Prefixes = strings.Split(v, ",")
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := st.WriteJSON(w, q); err != nil {
			// The encoder writes nothing on a marshal error, so the
			// status still reaches the client.
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/dash", func(w http.ResponseWriter, _ *http.Request) {
		if st == nil {
			http.Error(w, "history disabled (enable WithHistory / -history-windows)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		io.WriteString(w, dashHTML) //nolint:errcheck
	})
	// net/http/pprof self-registers on DefaultServeMux at import; wire its
	// handlers onto this private mux instead so the ops port is the only
	// place they appear.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
