// Package nfs provides the shared-file-server substrate for the paper's
// configuration 2 (§1.1, §5.3): all content lives on one central server and
// web nodes fetch it over the network per request miss. The protocol is a
// minimal framed RPC over TCP — enough to reproduce the two effects the
// paper measures: per-access remote-file-I/O latency and the shared
// server's bottleneck under load.
//
// Wire format (request):  VERB SP path LF [length LF bytes]
// Wire format (response): "OK" SP length LF bytes | "ERR" SP message LF
package nfs

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"webcluster/internal/backend"
	"webcluster/internal/faults"
	"webcluster/internal/lifecycle"
	"webcluster/internal/telemetry"
)

// Verbs of the file-access protocol.
const (
	verbFetch  = "FETCH"
	verbPut    = "PUT"
	verbDelete = "DELETE"
	verbHas    = "HAS"
	verbList   = "LIST"
)

// maxObjectBytes bounds one transferred object (64 MB covers the largest
// video file the workloads generate).
const maxObjectBytes = 64 << 20

// ErrRemote wraps a server-side failure reported over the wire.
var ErrRemote = errors.New("nfs: remote error")

// Server exports a Store over the network. Construct with NewServer.
type Server struct {
	store backend.Store
	life  lifecycle.Group

	// Requests counts protocol operations served (bottleneck telemetry).
	Requests telemetry.Counter
	// BytesOut counts payload bytes served.
	BytesOut telemetry.Counter
}

// NewServer returns a file server exporting store.
func NewServer(store backend.Store) *Server {
	return &Server{store: store}
}

// SetFaults attaches a fault injector to served connections (point
// "nfs.conn"). Call before Start.
func (s *Server) SetFaults(in *faults.Injector) {
	s.life.Wrap = func(c net.Conn) net.Conn { return in.Conn("nfs.conn", c) }
}

// Start listens on addr (":0" for ephemeral) and serves in the background.
func (s *Server) Start(addr string) (string, error) {
	bound, err := s.life.Listen(addr, s.serveConn)
	if err != nil {
		return "", fmt.Errorf("nfs: listen: %w", err)
	}
	return bound, nil
}

// serveConn handles a sequence of operations on one connection.
func (s *Server) serveConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimRight(line, "\r\n")
		verb, arg, _ := strings.Cut(line, " ")
		s.Requests.Inc()
		if err := s.dispatch(br, bw, verb, arg); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// dispatch executes one operation, writing the response to bw.
func (s *Server) dispatch(br *bufio.Reader, bw *bufio.Writer, verb, arg string) error {
	writeErr := func(msg string) error {
		_, err := fmt.Fprintf(bw, "ERR %s\n", strings.ReplaceAll(msg, "\n", " "))
		return err
	}
	switch verb {
	case verbFetch:
		data, err := s.store.Fetch(arg)
		if err != nil {
			return writeErr(err.Error())
		}
		if _, err := fmt.Fprintf(bw, "OK %d\n", len(data)); err != nil {
			return err
		}
		s.BytesOut.Add(int64(len(data)))
		_, err = bw.Write(data)
		return err
	case verbHas:
		has := "0"
		if s.store.Has(arg) {
			has = "1"
		}
		_, err := fmt.Fprintf(bw, "OK 1\n%s", has)
		return err
	case verbPut:
		lenLine, err := br.ReadString('\n')
		if err != nil {
			return err
		}
		n, err := strconv.ParseInt(strings.TrimRight(lenLine, "\r\n"), 10, 64)
		if err != nil || n < 0 || n > maxObjectBytes {
			return writeErr("bad length")
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(br, data); err != nil {
			return err
		}
		if err := s.store.Put(arg, data); err != nil {
			return writeErr(err.Error())
		}
		_, err = fmt.Fprintf(bw, "OK 0\n")
		return err
	case verbDelete:
		if err := s.store.Delete(arg); err != nil {
			return writeErr(err.Error())
		}
		_, err := fmt.Fprintf(bw, "OK 0\n")
		return err
	case verbList:
		payload := strings.Join(s.store.List(), "\n")
		if _, err := fmt.Fprintf(bw, "OK %d\n", len(payload)); err != nil {
			return err
		}
		_, err := bw.WriteString(payload)
		return err
	default:
		return writeErr("unknown verb " + verb)
	}
}

// Close shuts the server down and joins all goroutines.
func (s *Server) Close() error { return s.life.Close() }

// Client accesses a remote file server. It holds one connection per
// concurrent caller via a small free list. Construct with Dial.
type Client struct {
	addr string
	// timeout bounds each operation's network round trip (dial, send,
	// response) so a hung file server degrades a web node instead of
	// wedging it; DefaultClientTimeout unless SetTimeout overrides.
	timeout time.Duration
	faults  *faults.Injector

	mu    sync.Mutex
	free  []*clientConn
	close bool
}

type clientConn struct {
	conn net.Conn
	br   *bufio.Reader
}

// DefaultClientTimeout bounds client operations unless overridden.
const DefaultClientTimeout = 10 * time.Second

// Dial returns a client for the file server at addr. The connection is
// opened lazily per operation.
func Dial(addr string) *Client {
	return &Client{addr: addr, timeout: DefaultClientTimeout}
}

// SetTimeout overrides the per-operation deadline (0 disables).
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeout = d
}

// SetFaults attaches a fault injector at the dial path (point
// "nfs.dial").
func (c *Client) SetFaults(in *faults.Injector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.faults = in
}

// getConn pops a pooled connection or dials a new one.
func (c *Client) getConn() (*clientConn, error) {
	c.mu.Lock()
	if c.close {
		c.mu.Unlock()
		return nil, errors.New("nfs: client closed")
	}
	timeout, in := c.timeout, c.faults
	if n := len(c.free); n > 0 {
		cc := c.free[n-1]
		c.free = c.free[:n-1]
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()
	if err := in.Fail("nfs.dial"); err != nil {
		return nil, fmt.Errorf("nfs: dial %s: %w", c.addr, err)
	}
	dialTimeout := timeout
	if dialTimeout <= 0 {
		dialTimeout = DefaultClientTimeout
	}
	conn, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("nfs: dial %s: %w", c.addr, err)
	}
	return &clientConn{conn: conn, br: bufio.NewReader(conn)}, nil
}

// putConn returns a healthy connection to the free list.
func (c *Client) putConn(cc *clientConn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.close {
		_ = cc.conn.Close()
		return
	}
	c.free = append(c.free, cc)
}

// roundTrip performs one operation. body is the optional PUT payload.
func (c *Client) roundTrip(verb, path string, body []byte) ([]byte, error) {
	cc, err := c.getConn()
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if ok {
			c.putConn(cc)
		} else {
			_ = cc.conn.Close()
		}
	}()

	// Arm the operation deadline: a stalled or black-holed file server
	// turns into an error here rather than a wedged request goroutine.
	c.mu.Lock()
	timeout := c.timeout
	c.mu.Unlock()
	if timeout > 0 {
		if err := cc.conn.SetDeadline(time.Now().Add(timeout)); err != nil {
			return nil, fmt.Errorf("nfs: arming deadline: %w", err)
		}
		defer func() {
			if ok {
				// Clear before pooling so the next caller starts fresh.
				if err := cc.conn.SetDeadline(time.Time{}); err != nil {
					ok = false
					_ = cc.conn.Close()
				}
			}
		}()
	}

	var req strings.Builder
	fmt.Fprintf(&req, "%s %s\n", verb, path)
	if verb == verbPut {
		fmt.Fprintf(&req, "%d\n", len(body))
	}
	if _, err := cc.conn.Write([]byte(req.String())); err != nil {
		return nil, fmt.Errorf("nfs: send %s: %w", verb, err)
	}
	if verb == verbPut && len(body) > 0 {
		if _, err := cc.conn.Write(body); err != nil {
			return nil, fmt.Errorf("nfs: send body: %w", err)
		}
	}
	line, err := cc.br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("nfs: read response: %w", err)
	}
	line = strings.TrimRight(line, "\r\n")
	status, rest, _ := strings.Cut(line, " ")
	if status == "ERR" {
		ok = true
		return nil, fmt.Errorf("%w: %s", ErrRemote, rest)
	}
	if status != "OK" {
		return nil, fmt.Errorf("nfs: malformed response %q", line)
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || n < 0 || n > maxObjectBytes {
		return nil, fmt.Errorf("nfs: bad response length %q", rest)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(cc.br, data); err != nil {
		return nil, fmt.Errorf("nfs: read payload: %w", err)
	}
	ok = true
	return data, nil
}

// Fetch retrieves path's bytes from the file server.
func (c *Client) Fetch(path string) ([]byte, error) {
	return c.roundTrip(verbFetch, path, nil)
}

// Has reports whether the server stores path.
func (c *Client) Has(path string) (bool, error) {
	data, err := c.roundTrip(verbHas, path, nil)
	if err != nil {
		return false, err
	}
	return len(data) == 1 && data[0] == '1', nil
}

// Put stores data at path on the server.
func (c *Client) Put(path string, data []byte) error {
	_, err := c.roundTrip(verbPut, path, data)
	return err
}

// Delete removes path on the server.
func (c *Client) Delete(path string) error {
	_, err := c.roundTrip(verbDelete, path, nil)
	return err
}

// List returns all paths stored on the server.
func (c *Client) List() ([]string, error) {
	data, err := c.roundTrip(verbList, "/", nil)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, nil
	}
	return strings.Split(string(data), "\n"), nil
}

// Close closes pooled connections; in-flight operations fail afterwards.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.close = true
	var errs []error
	for _, cc := range c.free {
		if err := cc.conn.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	c.free = nil
	return errors.Join(errs...)
}

// RemoteStore adapts a Client to backend.Store, making a web node serve
// straight off the shared file server — the paper's configuration 2.
type RemoteStore struct {
	client *Client
}

var _ backend.Store = (*RemoteStore)(nil)

// NewRemoteStore wraps client as a Store.
func NewRemoteStore(client *Client) *RemoteStore {
	return &RemoteStore{client: client}
}

// Fetch implements backend.Store.
func (r *RemoteStore) Fetch(path string) ([]byte, error) {
	data, err := r.client.Fetch(path)
	if err != nil {
		if errors.Is(err, ErrRemote) {
			return nil, fmt.Errorf("%w: %q", backend.ErrNotStored, path)
		}
		return nil, err
	}
	return data, nil
}

// Has implements backend.Store.
func (r *RemoteStore) Has(path string) bool {
	has, err := r.client.Has(path)
	return err == nil && has
}

// Put implements backend.Store.
func (r *RemoteStore) Put(path string, data []byte) error {
	return r.client.Put(path, data)
}

// Replace implements backend.Store as Delete then Put: the protocol has no
// replace verb, so unlike the local stores this one is not atomic — a
// Fetch between the two round trips reports the path absent.
func (r *RemoteStore) Replace(path string, data []byte) error {
	if err := r.client.Delete(path); err != nil {
		if errors.Is(err, ErrRemote) {
			return fmt.Errorf("%w: %q", backend.ErrNotStored, path)
		}
		return err
	}
	return r.client.Put(path, data)
}

// Delete implements backend.Store.
func (r *RemoteStore) Delete(path string) error {
	return r.client.Delete(path)
}

// List implements backend.Store.
func (r *RemoteStore) List() []string {
	paths, err := r.client.List()
	if err != nil {
		return nil
	}
	return paths
}

// UsedBytes implements backend.Store; remote usage is not tracked.
func (r *RemoteStore) UsedBytes() int64 { return 0 }
