package conntrack

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"

	"webcluster/internal/config"
	"webcluster/internal/faults"
	"webcluster/internal/httpx"
)

// ErrPoolClosed reports use of a closed pool.
var ErrPoolClosed = errors.New("conntrack: pool closed")

// Dialer opens a new connection to a back-end node.
type Dialer func(node config.NodeID) (net.Conn, error)

// PooledConn is one pre-forked persistent connection to a back end. It
// carries a buffered reader so response parsing never loses bytes across
// requests on the same connection. The reader comes from the shared httpx
// pool and is returned to it when the connection is discarded, so a churn
// of back-end connections does not churn 4 KiB read buffers.
type PooledConn struct {
	Node   config.NodeID
	Conn   net.Conn
	Reader *bufio.Reader
	// Uses counts requests relayed over this connection.
	Uses int
}

// nodePool is the per-node idle list plus dial accounting.
type nodePool struct {
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
		np = &nodePool{max: p.max}
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
			pc, err := p.dialNode(node)
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

// dialNode opens one new connection to node.
func (p *Pool) dialNode(node config.NodeID) (*PooledConn, error) {
	in := p.injector()
	if err := in.Fail("pool.dial/" + string(node)); err != nil {
		return nil, fmt.Errorf("dialing %s: %w", node, err)
	}
	conn, err := p.dial(node)
	if err != nil {
		return nil, fmt.Errorf("dialing %s: %w", node, err)
	}
	conn = in.Conn("pool.conn/"+string(node), conn)
	return &PooledConn{Node: node, Conn: conn, Reader: httpx.AcquireReader(conn)}, nil
}

// releaseReader returns pc's buffered reader to the shared pool. Only safe
// once pc's connection is closed (any buffered bytes are dead).
func releaseReader(pc *PooledConn) {
	if pc.Reader != nil {
		httpx.ReleaseReader(pc.Reader)
		pc.Reader = nil
	}
}

// Acquire checks out a connection to node, preferring an idle pre-forked
// one, dialing a fresh one when under the per-node maximum, and otherwise
// blocking until a connection is released.
func (p *Pool) Acquire(node config.NodeID) (*PooledConn, error) {
	if err := p.injector().Fail("pool.checkout/" + string(node)); err != nil {
		return nil, fmt.Errorf("checkout %s: %w", node, err)
	}
	np, err := p.nodeFor(node)
	if err != nil {
		return nil, err
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
			pc, err := p.dialNode(node)
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
		releaseReader(pc)
		return
	}
	np.mu.Lock()
	defer np.mu.Unlock()
	if np.closed {
		_ = pc.Conn.Close()
		releaseReader(pc)
		return
	}
	pc.Uses++
	np.idle = append(np.idle, pc)
	np.cond.Signal()
}

// Discard drops a broken connection, freeing its slot.
func (p *Pool) Discard(pc *PooledConn) {
	_ = pc.Conn.Close()
	releaseReader(pc)
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
			releaseReader(pc)
		}
		np.idle = nil
		np.cond.Broadcast()
		np.mu.Unlock()
	}
	return errors.Join(errs...)
}
