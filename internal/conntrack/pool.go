package conntrack

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"

	"webcluster/internal/config"
	"webcluster/internal/faults"
)

// ErrPoolClosed reports use of a closed pool.
var ErrPoolClosed = errors.New("conntrack: pool closed")

// Dialer opens a new connection to a back-end node.
type Dialer func(node config.NodeID) (net.Conn, error)

// PooledConn is one pre-forked persistent connection to a back end. It
// carries a buffered reader so response parsing never loses bytes across
// requests on the same connection. The reader is the connection's own:
// made at dial, backendReaderSize bytes, and dropped with the connection.
type PooledConn struct {
	Node   config.NodeID
	Conn   net.Conn
	Reader *bufio.Reader
	// Uses counts requests relayed over this connection.
	Uses int
}

// nodePool is the per-node idle list plus dial accounting.
type nodePool struct {
	node config.NodeID
	// The node's fault points, named once here so a checkout builds no
	// string whether or not an injector is attached.
	dialPoint, connPoint, checkoutPoint string

	mu     sync.Mutex
	cond   *sync.Cond
	idle   []*PooledConn
	total  int // idle + checked out
	max    int
	closed bool
}

// Pool manages pre-forked persistent connections to every back-end node
// (§2.2: "the distributor pre-forks a number of persistent connections to
// the backend nodes"). Acquire prefers an idle pre-forked connection,
// dials extra connections on demand up to a per-node maximum, and blocks
// when the node is saturated. The zero value is not usable; construct with
// NewPool.
type Pool struct {
	dial     Dialer
	prefork  int
	max      int
	faults   *faults.Injector
	mu       sync.Mutex
	nodes    map[config.NodeID]*nodePool
	closed   bool
	overflow int64 // dials beyond the pre-forked set
}

// NewPool returns a pool that pre-forks prefork connections per node and
// allows up to max concurrent connections per node (max < prefork is
// raised to prefork).
func NewPool(dial Dialer, prefork, max int) *Pool {
	if prefork < 0 {
		prefork = 0
	}
	if max < prefork {
		max = prefork
	}
	if max == 0 {
		max = 1
	}
	return &Pool{
		dial:    dial,
		prefork: prefork,
		max:     max,
		nodes:   make(map[config.NodeID]*nodePool),
	}
}

// SetFaults attaches a fault injector consulted at the dial and checkout
// paths (points "pool.dial/<node>", "pool.conn/<node>" and
// "pool.checkout/<node>"). Call before traffic; nil (the default) injects
// nothing.
func (p *Pool) SetFaults(in *faults.Injector) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.faults = in
}

// injector returns the attached injector (possibly nil).
func (p *Pool) injector() *faults.Injector {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.faults
}

// nodeFor returns (creating if needed) the per-node pool.
func (p *Pool) nodeFor(node config.NodeID) (*nodePool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	np, ok := p.nodes[node]
	if !ok {
		np = &nodePool{
			node:          node,
			dialPoint:     "pool.dial/" + string(node),
			connPoint:     "pool.conn/" + string(node),
			checkoutPoint: "pool.checkout/" + string(node),
			max:           p.max,
		}
		np.cond = sync.NewCond(&np.mu)
		p.nodes[node] = np
	}
	return np, nil
}

// Prefork eagerly establishes the configured number of persistent
// connections to each node. Failures are returned joined, after
// successfully dialed connections have been retained.
func (p *Pool) Prefork(nodes []config.NodeID) error {
	var errs []error
	for _, node := range nodes {
		np, err := p.nodeFor(node)
		if err != nil {
			return err
		}
		for i := 0; i < p.prefork; i++ {
			pc, err := p.dialNode(np)
			if err != nil {
				errs = append(errs, fmt.Errorf("prefork %s: %w", node, err))
				break
			}
			np.mu.Lock()
			np.idle = append(np.idle, pc)
			np.total++
			np.mu.Unlock()
		}
	}
	return errors.Join(errs...)
}

// backendReaderSize is a back-end connection's read buffer. The content
// model's small objects top out at 8 KiB, so a small response — header
// plus body, which a back end sends in one write — fits whole with room to
// spare: one read(2) takes it off the socket and the relay sends it on in
// one writev(2). Client-side and back-end-server readers stay at httpx's
// pooled 4 KiB: requests are small and idle keep-alive clients are many.
const backendReaderSize = 16 << 10

// dialNode opens one new connection to np's node.
func (p *Pool) dialNode(np *nodePool) (*PooledConn, error) {
	in := p.injector()
	if err := in.Fail(np.dialPoint); err != nil {
		return nil, fmt.Errorf("dialing %s: %w", np.node, err)
	}
	conn, err := p.dial(np.node)
	if err != nil {
		return nil, fmt.Errorf("dialing %s: %w", np.node, err)
	}
	conn = in.Conn(np.connPoint, conn)
	return &PooledConn{
		Node:   np.node,
		Conn:   conn,
		Reader: bufio.NewReaderSize(conn, backendReaderSize),
	}, nil
}

// Acquire checks out a connection to node, preferring an idle pre-forked
// one, dialing a fresh one when under the per-node maximum, and otherwise
// blocking until a connection is released.
func (p *Pool) Acquire(node config.NodeID) (*PooledConn, error) {
	np, err := p.nodeFor(node)
	if err != nil {
		return nil, err
	}
	if err := p.injector().Fail(np.checkoutPoint); err != nil {
		return nil, fmt.Errorf("checkout %s: %w", node, err)
	}
	np.mu.Lock()
	for {
		if np.closed {
			np.mu.Unlock()
			return nil, ErrPoolClosed
		}
		if n := len(np.idle); n > 0 {
			pc := np.idle[n-1]
			np.idle[n-1] = nil
			np.idle = np.idle[:n-1]
			np.mu.Unlock()
			return pc, nil
		}
		if np.total < np.max {
			np.total++
			np.mu.Unlock()
			pc, err := p.dialNode(np)
			if err != nil {
				np.mu.Lock()
				np.total--
				np.cond.Signal()
				np.mu.Unlock()
				return nil, err
			}
			p.mu.Lock()
			p.overflow++
			p.mu.Unlock()
			return pc, nil
		}
		np.cond.Wait()
	}
}

// Release returns a healthy connection to the idle list.
func (p *Pool) Release(pc *PooledConn) {
	np, err := p.nodeFor(pc.Node)
	if err != nil {
		_ = pc.Conn.Close()
		return
	}
	np.mu.Lock()
	defer np.mu.Unlock()
	if np.closed {
		_ = pc.Conn.Close()
		return
	}
	pc.Uses++
	np.idle = append(np.idle, pc)
	np.cond.Signal()
}

// Discard drops a broken connection, freeing its slot.
func (p *Pool) Discard(pc *PooledConn) {
	_ = pc.Conn.Close()
	np, err := p.nodeFor(pc.Node)
	if err != nil {
		return
	}
	np.mu.Lock()
	defer np.mu.Unlock()
	np.total--
	np.cond.Signal()
}

// IdleCount returns the number of idle connections to node.
func (p *Pool) IdleCount(node config.NodeID) int {
	p.mu.Lock()
	np, ok := p.nodes[node]
	p.mu.Unlock()
	if !ok {
		return 0
	}
	np.mu.Lock()
	defer np.mu.Unlock()
	return len(np.idle)
}

// OverflowDials returns how many connections were dialed beyond the
// pre-forked set (a sizing signal for the prefork parameter).
func (p *Pool) OverflowDials() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.overflow
}

// Close closes every idle connection and fails all future operations.
// Checked-out connections are closed by their holders via Discard.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	nodes := make([]*nodePool, 0, len(p.nodes))
	for _, np := range p.nodes {
		nodes = append(nodes, np)
	}
	p.mu.Unlock()

	var errs []error
	for _, np := range nodes {
		np.mu.Lock()
		np.closed = true
		for _, pc := range np.idle {
			if err := pc.Conn.Close(); err != nil {
				errs = append(errs, err)
			}
		}
		np.idle = nil
		np.cond.Broadcast()
		np.mu.Unlock()
	}
	return errors.Join(errs...)
}
