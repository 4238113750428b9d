package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"webcluster/internal/journal"
	"webcluster/internal/lifecycle"
)

// AdminServer is the node-local observability endpoint: GET /metrics
// (Prometheus text exposition), /debug/vars (JSON registry snapshot),
// /debug/traces (recent spans oldest-first by start time, ?limit=N),
// /debug/journal (decision-journal events when a journal is attached,
// ?limit=N&since=SEQ), and /healthz. It serves read-only views —
// mutation stays on the management console.
type AdminServer struct {
	tel *Telemetry
	mux *http.ServeMux

	// mu orders Start against Close: a server starts at most once and
	// never after Close, the lifecycle.Group contract every other
	// listener in the tree keeps. net/http owns the connections.
	mu     sync.Mutex
	srv    *http.Server
	closed bool
	// wg joins the serve goroutine so Close does not return while it is
	// still running (it previously leaked past Close).
	wg sync.WaitGroup

	jmu sync.Mutex
	jnl *journal.Journal
}

// NewAdmin builds an admin server over t.
func NewAdmin(t *Telemetry) *AdminServer {
	a := &AdminServer{tel: t, mux: http.NewServeMux()}
	a.mux.HandleFunc("/metrics", a.handleMetrics)
	a.mux.HandleFunc("/debug/vars", a.handleVars)
	a.mux.HandleFunc("/debug/traces", a.handleTraces)
	a.mux.HandleFunc("/debug/journal", a.handleJournal)
	a.mux.HandleFunc("/healthz", a.handleHealthz)
	return a
}

// SetJournal attaches the node's decision journal so /debug/journal
// serves it. May be called before or after Start; nil detaches.
func (a *AdminServer) SetJournal(j *journal.Journal) {
	a.jmu.Lock()
	a.jnl = j
	a.jmu.Unlock()
}

// Start listens on addr and serves in the background; returns the bound
// address. Read/write timeouts bound every accepted connection so a
// wedged scraper can't pin a goroutine. Start after Close, or a second
// Start, fails and leaves no listener.
func (a *AdminServer) Start(addr string) (string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return "", fmt.Errorf("admin: listen: %w", lifecycle.ErrClosed)
	}
	if a.srv != nil {
		return "", errors.New("admin: listen: already listening")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{
		Handler:      a.mux,
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 30 * time.Second,
	}
	a.srv = srv
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// Close stops the listener and any in-flight handlers, then waits for
// the serve goroutine to exit. It is idempotent and safe before Start.
func (a *AdminServer) Close() error {
	a.mu.Lock()
	a.closed = true
	srv := a.srv
	a.mu.Unlock()
	if srv == nil {
		return nil
	}
	err := srv.Close()
	a.wg.Wait()
	return err
}

func (a *AdminServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = a.tel.Registry().WritePrometheus(w)
}

func (a *AdminServer) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(a.tel.Registry().Snapshot())
}

func (a *AdminServer) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if s := r.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		limit = n
	}
	// The span ring returns entries in ring order, which is arbitrary
	// once the ring has wrapped; sort by start time so readers see the
	// actual request chronology.
	spans := a.tel.Spans(limit)
	sort.SliceStable(spans, func(i, j int) bool {
		return spans[i].StartUnixNano < spans[j].StartUnixNano
	})
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(spans)
}

func (a *AdminServer) handleJournal(w http.ResponseWriter, r *http.Request) {
	a.jmu.Lock()
	jnl := a.jnl
	a.jmu.Unlock()
	if jnl == nil {
		http.Error(w, "no journal attached", http.StatusNotFound)
		return
	}
	limit := 0
	if s := r.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		limit = n
	}
	var since uint64
	if s := r.URL.Query().Get("since"); s != "" {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			http.Error(w, "bad since", http.StatusBadRequest)
			return
		}
		since = n
	}
	var evs []journal.Event
	if since > 0 {
		evs = jnl.Since(since, limit)
	} else {
		evs = jnl.Snapshot(limit)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(evs)
}

func (a *AdminServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	_, _ = w.Write([]byte("ok\n"))
}
