// Package l4router implements the paper's baseline front end (the authors'
// prior work [2]): a content-blind layer-4 TCP connection router. It picks
// a back end at connection-establishment time — before any HTTP bytes
// arrive — and splices the two TCP streams. Because the choice happens
// before the URL is visible, every back end must be able to serve every
// object, which is why this front end only works with full replication or
// a shared file system (§2.1, §5.3 configurations 1 and 2).
package l4router

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/conntrack"
	"webcluster/internal/faults"
	"webcluster/internal/lifecycle"
	"webcluster/internal/loadbal"
)

// dialTimeout bounds each back-end connect; a dead back end must fail
// fast so the client can retry, not absorb the accept goroutine.
const dialTimeout = 5 * time.Second

// Backend is one routable node: identity, static weight, dial address.
type Backend struct {
	ID     config.NodeID
	Weight float64
	Addr   string
}

// Router is the L4 front end. Construct with New.
type Router struct {
	picker loadbal.Picker

	mu       sync.Mutex
	backends []Backend
	active   map[config.NodeID]*atomic.Int64

	life lifecycle.Group

	routed atomic.Int64
	failed atomic.Int64

	faults *faults.Injector
}

// New returns a router over backends using picker (the paper's baseline
// uses Weighted Least Connection).
func New(picker loadbal.Picker, backends []Backend) (*Router, error) {
	if len(backends) == 0 {
		return nil, errors.New("l4router: no backends")
	}
	if picker == nil {
		picker = loadbal.WeightedLeastConn{}
	}
	r := &Router{
		picker:   picker,
		backends: append([]Backend(nil), backends...),
		active:   make(map[config.NodeID]*atomic.Int64, len(backends)),
	}
	for _, b := range backends {
		if b.Addr == "" {
			return nil, fmt.Errorf("l4router: backend %s has no address", b.ID)
		}
		r.active[b.ID] = &atomic.Int64{}
	}
	return r, nil
}

// SetFaults installs a fault injector consulted around each back-end
// dial (points "l4router.dial" and "l4router.server"). Call before
// Start. A nil injector disables injection.
func (r *Router) SetFaults(in *faults.Injector) { r.faults = in }

// Start listens on addr (":0" for ephemeral) and proxies in the
// background, returning the bound address.
func (r *Router) Start(addr string) (string, error) {
	bound, err := r.life.Listen(addr, r.proxy)
	if err != nil {
		return "", fmt.Errorf("l4router: listen: %w", err)
	}
	return bound, nil
}

// pick chooses a back end for a new connection.
func (r *Router) pick() (Backend, error) {
	r.mu.Lock()
	states := make([]loadbal.NodeState, len(r.backends))
	for i, b := range r.backends {
		states[i] = loadbal.NodeState{
			ID:     b.ID,
			Weight: b.Weight,
			Active: r.active[b.ID].Load(),
		}
	}
	backends := r.backends
	r.mu.Unlock()

	id, err := r.picker.Pick(states)
	if err != nil {
		return Backend{}, err
	}
	for _, b := range backends {
		if b.ID == id {
			return b, nil
		}
	}
	return Backend{}, fmt.Errorf("l4router: picker chose unknown node %s", id)
}

// proxy splices one client connection to one freshly dialed back-end
// connection — the layer-4 semantics: one back-end connection per client
// connection, no reuse, no request inspection.
func (r *Router) proxy(client net.Conn) {
	backend, err := r.pick()
	if err != nil {
		r.failed.Add(1)
		return
	}
	if err := r.faults.Fail("l4router.dial"); err != nil {
		r.failed.Add(1)
		return
	}
	server, err := net.DialTimeout("tcp", backend.Addr, dialTimeout)
	if err != nil {
		r.failed.Add(1)
		return
	}
	server = r.faults.Conn("l4router.server", server)
	// The splice is intentionally deadline-free: an idle but healthy
	// client may hold its connection open indefinitely, and lifetime
	// is bounded by Close/CloseWrite propagation from either side.
	// (Audited for relay v3: the suppression covers only this dialed
	// conn's deadline-before-I/O rule; the dial itself stays behind
	// DialTimeout and the l4router.dial fault point above.)
	//distlint:ignore deadlinecheck L4 splice lifetime is bounded by peer close, not deadlines
	release, ok := r.life.Track(server)
	if !ok {
		return
	}
	defer release()

	counter := r.active[backend.ID]
	counter.Add(1)
	defer counter.Add(-1)
	r.routed.Add(1)

	// Bidirectional splice; each direction half-closes when its source
	// reaches EOF, mirroring TCP FIN propagation through a L4 device.
	// With no fault injector both ends are bare *net.TCPConn values, so
	// SpliceStreams moves bytes via the kernel splice(2) fast path; a
	// wrapped end ("l4router.server") takes the pooled-buffer fallback
	// so injected faults stay observable.
	done := make(chan struct{}, 2)
	go func() {
		_, _ = conntrack.SpliceStreams(server, client)
		if tc, ok := server.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	go func() {
		_, _ = conntrack.SpliceStreams(client, server)
		if tc, ok := client.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	<-done
	<-done
}

// Active returns the instantaneous connection count for node.
func (r *Router) Active(node config.NodeID) int64 {
	c, ok := r.active[node]
	if !ok {
		return 0
	}
	return c.Load()
}

// Routed returns the lifetime count of proxied connections.
func (r *Router) Routed() int64 { return r.routed.Load() }

// Failed returns the lifetime count of connections that could not be
// proxied.
func (r *Router) Failed() int64 { return r.failed.Load() }

// Close stops the router and joins all goroutines.
func (r *Router) Close() error { return r.life.Close() }
