// Package lifecycle holds the only accept loop, the only connection set
// and the only ticker loop in the tree. Every long-lived component — the
// distributor, its replication feed, the back-end web server, the broker,
// the console server, the NFS and L4 baselines, the monitor, the
// auto-balancer, the flight recorder — embeds one Group and starts its
// goroutines through it, so "stop, and do not hang" is written once.
package lifecycle

import (
	"errors"
	"net"
	"sync"
	"time"

	"webcluster/internal/httpx"
)

// ErrClosed is returned by Listen on a Group that Close has already run on.
var ErrClosed = errors.New("lifecycle: closed")

// Group is what one component started and the one way to stop it. The zero
// value is ready to use; a Group must not be copied after first use.
//
// The contract, for every component that embeds one:
//
//   - Close is idempotent and safe before Listen or Every. It closes the
//     listener, closes every tracked connection, and returns once every
//     goroutine the Group started has returned. It must not be called from
//     one of those goroutines.
//   - Close is bounded provided a serve function returns once its
//     connection is closed and a ticker function returns by itself. The
//     tracked connection is the one serve reads (after Wrap): closing the
//     socket underneath a wrapper does not wake a reader the wrapper
//     itself is holding.
//   - A connection is registered under the lock Close sweeps under, with
//     the closed flag re-checked, so none can register after the sweep and
//     idle in a read nobody will interrupt.
//   - After Close, Listen fails and leaves no listener, an accepted
//     connection is closed unserved, and Every starts nothing.
type Group struct {
	// Wrap, when set, replaces each accepted connection before it is
	// tracked and served (fault injection). Set it before Listen. It is
	// handed the raw httpx.TCPConn the accept loop makes of a bare TCP
	// connection, so a wrapper always sits outside the raw socket.
	Wrap func(net.Conn) net.Conn

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	done     chan struct{}
	closed   bool
	wg       sync.WaitGroup
}

// lock takes mu and makes the zero value usable.
func (g *Group) lock() {
	g.mu.Lock()
	if g.done == nil {
		g.done = make(chan struct{})
		g.conns = make(map[net.Conn]struct{})
	}
}

// Done returns a channel that Close closes, for loops inside a serve
// function that wait on something other than their connection.
func (g *Group) Done() <-chan struct{} {
	g.lock()
	defer g.mu.Unlock()
	return g.done
}

// Listen binds addr (":0" for an ephemeral port) and serves each accepted
// connection on its own goroutine, returning the bound address. The
// connection is closed and forgotten when serve returns.
func (g *Group) Listen(addr string, serve func(net.Conn)) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	if err := g.accept(l, serve); err != nil {
		_ = l.Close()
		return "", err
	}
	return l.Addr().String(), nil
}

// accept starts the accept loop on l.
func (g *Group) accept(l net.Listener, serve func(net.Conn)) error {
	g.lock()
	defer g.mu.Unlock()
	if g.closed {
		return ErrClosed
	}
	if g.listener != nil {
		return errors.New("lifecycle: already listening")
	}
	g.listener = l
	g.wg.Add(1)
	go g.acceptLoop(l, serve)
	return nil
}

// acceptLoop accepts until the listener is closed. Any other Accept error
// (EMFILE, ECONNABORTED) is transient: it backs off 5 ms doubling to 1 s,
// as net/http does, and keeps accepting.
func (g *Group) acceptLoop(l net.Listener, serve func(net.Conn)) {
	defer g.wg.Done()
	var backoff time.Duration
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			select {
			case <-g.done:
				return
			case <-time.After(backoff):
				continue
			}
		}
		backoff = 0
		conn = httpx.WrapTCP(conn)
		if g.Wrap != nil {
			conn = g.Wrap(conn)
		}
		release, ok := g.track(conn)
		if !ok {
			return
		}
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			defer release()
			serve(conn)
		}()
	}
}

// track registers an accepted connection, so Close closes it too; release
// closes it and forgets it. After Close, track closes c and reports false.
func (g *Group) track(c net.Conn) (release func(), ok bool) {
	g.lock()
	if g.closed {
		g.mu.Unlock()
		_ = c.Close()
		return nil, false
	}
	g.conns[c] = struct{}{}
	g.mu.Unlock()
	return func() {
		_ = c.Close()
		g.mu.Lock()
		delete(g.conns, c)
		g.mu.Unlock()
	}, true
}

// Conns returns how many accepted connections are being served: each one
// counts from its accept until its serve function returns and it is closed.
func (g *Group) Conns() int {
	g.lock()
	defer g.mu.Unlock()
	return len(g.conns)
}

// Every runs fn once per interval on a goroutine of its own until Close.
func (g *Group) Every(interval time.Duration, fn func()) {
	g.lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-g.done:
				return
			case <-ticker.C:
				fn()
			}
		}
	}()
}

// Close stops everything the Group started and waits for it. It returns
// the listener's close error, on the first call only.
func (g *Group) Close() error {
	var err error
	g.lock()
	if !g.closed {
		g.closed = true
		close(g.done)
		if g.listener != nil {
			err = g.listener.Close()
		}
		for c := range g.conns {
			_ = c.Close()
		}
	}
	g.mu.Unlock()
	g.wg.Wait()
	return err
}
