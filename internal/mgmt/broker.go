package mgmt

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"webcluster/internal/lifecycle"
)

// Broker is the per-node management daemon (§3.1): it executes agents
// against the node's local environment. It starts with an empty agent
// registry — agents arrive from the controller on first use. Construct
// with NewBroker.
type Broker struct {
	env Env

	mu       sync.Mutex
	agents   map[string]Spec
	installs int64 // agent installations ("code downloads") served

	life lifecycle.Group
}

// NewBroker returns a broker for env.
func NewBroker(env Env) *Broker {
	env.peers = &peerClients{clients: make(map[string]*BrokerClient)}
	return &Broker{
		env:    env,
		agents: make(map[string]Spec),
	}
}

// Installs returns how many agent installations this broker performed —
// the visible trace of download-on-demand dispatch.
func (b *Broker) Installs() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.installs
}

// InstalledAgents returns the names of agents currently installed.
func (b *Broker) InstalledAgents() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.agents))
	for name := range b.agents {
		out = append(out, name)
	}
	return out
}

// Start listens on addr (":0" for ephemeral) and serves in the background,
// returning the bound address.
func (b *Broker) Start(addr string) (string, error) {
	bound, err := b.life.Listen(addr, b.serveConn)
	if err != nil {
		return "", fmt.Errorf("broker %s: listen: %w", b.env.Node, err)
	}
	return bound, nil
}

// serveConn handles one controller connection's request stream.
func (b *Broker) serveConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	var f framer
	for {
		var req request
		payload, err := f.read(br, &req, nil)
		if err != nil {
			refuseMismatch(conn, err)
			return
		}
		if req.Payload && req.Args != nil {
			req.Args.Data = payload
		}
		resp := b.handle(req)
		var data []byte
		if resp.Result != nil {
			data = resp.Result.Data
			resp.Payload = data != nil
		}
		if err := f.write(conn, &resp, data); err != nil {
			return
		}
	}
}

// handle executes one request.
func (b *Broker) handle(req request) response {
	if req.Install != nil {
		b.mu.Lock()
		if _, exists := b.agents[req.Install.Name]; !exists {
			b.agents[req.Install.Name] = *req.Install
			b.installs++
		}
		b.mu.Unlock()
		return response{ID: req.ID, OK: true, Result: &Result{Message: "installed " + req.Install.Name}}
	}
	b.mu.Lock()
	spec, ok := b.agents[req.Agent]
	b.mu.Unlock()
	if !ok {
		return response{
			ID:       req.ID,
			OK:       false,
			Error:    fmt.Sprintf("agent %q not installed", req.Agent),
			NeedCode: true,
		}
	}
	var args Args
	if req.Args != nil {
		args = *req.Args
	}
	result, err := ExecuteOp(spec.Op, b.env, args)
	if err != nil {
		return response{ID: req.ID, OK: false, Error: err.Error()}
	}
	return response{ID: req.ID, OK: true, Result: &result}
}

// Close stops the broker and joins all goroutines.
func (b *Broker) Close() error {
	err := b.life.Close()
	// No handler is left to use them.
	b.env.peers.close()
	return err
}

// peerClients is a broker's connections to the brokers it has pulled files
// from: one BrokerClient per address, connected by its first call and kept,
// dropped and redialed by the rules every BrokerClient follows.
type peerClients struct {
	mu      sync.Mutex
	clients map[string]*BrokerClient
}

// peerTimeout bounds one fetch from a peer. It is shorter than
// DefaultBrokerTimeout so that a source that stops answering fails the pull
// at the target, which names it, before the controller's own deadline on
// the target drops that connection and the reason with it. That ordering
// holds for the default only: a controller whose SetTimeout is below
// peerTimeout gives up on the target first and reports its own deadline,
// not the source. Either way the whole pull — fetch and store — has to fit
// inside the controller's one deadline on the target.
const peerTimeout = DefaultBrokerTimeout / 2

// fetch returns path's bytes from the broker at addr, installing the
// fetch-file agent there first if that broker has never served one.
func (p *peerClients) fetch(addr, path string) ([]byte, error) {
	if p == nil {
		return nil, errors.New("no broker to fetch through")
	}
	p.mu.Lock()
	client := p.clients[addr]
	if client == nil {
		client = &BrokerClient{addr: addr, timeout: peerTimeout}
		p.clients[addr] = client
	}
	p.mu.Unlock()
	spec := Spec{Name: OpFetchFile.String(), Op: OpFetchFile}
	res, _, err := client.run(spec.Name, Args{Path: path}, func() (Spec, bool) { return spec, true })
	if err != nil {
		return nil, fmt.Errorf("from broker %s: %w", addr, err)
	}
	return res.Data, nil
}

// close disconnects every peer.
func (p *peerClients) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, client := range p.clients {
		_ = client.Close()
	}
}

// DefaultBrokerTimeout bounds one broker call (send + response) unless
// SetTimeout overrides it. A broker that stops answering — crashed node,
// black-holed network — fails the call instead of wedging the
// controller's management loop.
const DefaultBrokerTimeout = 10 * time.Second

// BrokerClient is the controller's connection to one broker. Construct
// with DialBroker. Calls are serialized per client. A call that fails in
// transport or framing (deadline, short read, reset, broker restart)
// leaves the stream at an unknown offset, so the client drops the
// connection and the next call redials the remembered address.
type BrokerClient struct {
	mu   sync.Mutex
	addr string
	// conn and br are nil between a failed call and the next call's
	// redial, and after Close.
	conn    net.Conn
	br      *bufio.Reader
	f       framer
	closed  bool
	nextID  int64
	timeout time.Duration
	// onRedial, when set (Controller.AddNode), hears the outcome of
	// every redial so the controller can journal it.
	onRedial func(err error)
}

// DialBroker connects to a broker at addr.
func DialBroker(addr string) (*BrokerClient, error) {
	conn, err := dialRaw(addr, DefaultBrokerTimeout)
	if err != nil {
		return nil, fmt.Errorf("mgmt: dialing broker %s: %w", addr, err)
	}
	return &BrokerClient{
		addr:    addr,
		conn:    conn,
		br:      bufio.NewReader(conn),
		timeout: DefaultBrokerTimeout,
	}, nil
}

// SetTimeout overrides the per-call deadline (0 disables).
func (c *BrokerClient) SetTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeout = d
}

// call performs one request/response exchange under one deadline, which
// also covers the redial when the previous call lost the connection.
func (c *BrokerClient) call(req request) (response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var deadline time.Time // zero: no deadline
	if c.timeout > 0 {
		deadline = time.Now().Add(c.timeout)
	}
	if c.conn == nil {
		if err := c.redial(deadline); err != nil {
			return response{}, err
		}
	}
	c.nextID++
	req.ID = c.nextID
	resp, err := c.exchange(req, deadline)
	if err != nil {
		_ = c.conn.Close()
		c.conn, c.br = nil, nil
		return response{}, err
	}
	return resp, nil
}

// redial replaces a dropped connection: one attempt, within the call's
// deadline.
func (c *BrokerClient) redial(deadline time.Time) error {
	if c.closed {
		return errors.New("mgmt: broker client is closed")
	}
	timeout := DefaultBrokerTimeout
	if !deadline.IsZero() {
		timeout = time.Until(deadline)
	}
	conn, err := dialRaw(c.addr, timeout)
	if c.onRedial != nil {
		c.onRedial(err)
	}
	if err != nil {
		return fmt.Errorf("mgmt: redialing broker %s: %w", c.addr, err)
	}
	c.conn, c.br = conn, bufio.NewReader(conn)
	return nil
}

// exchange sends req and reads its reply on the current connection.
func (c *BrokerClient) exchange(req request, deadline time.Time) (response, error) {
	if err := c.conn.SetDeadline(deadline); err != nil {
		return response{}, fmt.Errorf("mgmt: arming deadline: %w", err)
	}
	var data []byte
	if req.Args != nil {
		data = req.Args.Data
		req.Payload = data != nil
	}
	if err := c.f.write(c.conn, &req, data); err != nil {
		return response{}, err
	}
	var resp response
	payload, err := c.f.read(c.br, &resp, nil)
	if err != nil {
		return response{}, fmt.Errorf("mgmt: reading broker response: %w", err)
	}
	if resp.ID != req.ID {
		return response{}, fmt.Errorf("mgmt: response id %d for request %d", resp.ID, req.ID)
	}
	if resp.Payload && resp.Result != nil {
		resp.Result.Data = payload
	}
	return resp, nil
}

// Invoke runs agent with args on the broker. The needCode flag is
// reported so the caller (controller) can install and retry.
func (c *BrokerClient) Invoke(agent string, args Args) (Result, bool, error) {
	resp, err := c.call(request{Agent: agent, Args: &args})
	if err != nil {
		return Result{}, false, err
	}
	if !resp.OK {
		if resp.NeedCode {
			return Result{}, true, fmt.Errorf("mgmt: %s", resp.Error)
		}
		return Result{}, false, fmt.Errorf("mgmt: agent %s: %s", agent, resp.Error)
	}
	if resp.Result == nil {
		return Result{}, false, nil
	}
	return *resp.Result, false, nil
}

// run invokes agent with the download-on-demand retry: when the broker
// lacks the agent, the spec repo returns for it is installed and the
// invocation repeated once. installed reports that a spec was shipped.
func (c *BrokerClient) run(agent string, args Args, repo func() (Spec, bool)) (res Result, installed bool, err error) {
	res, needCode, err := c.Invoke(agent, args)
	if err == nil || !needCode {
		return res, false, err
	}
	spec, ok := repo()
	if !ok {
		return Result{}, false, errors.New("agent not in repository")
	}
	if err := c.Install(spec); err != nil {
		return Result{}, false, err
	}
	res, _, err = c.Invoke(agent, args)
	if err != nil {
		return Result{}, true, fmt.Errorf("after install: %w", err)
	}
	return res, true, nil
}

// Install ships an agent spec to the broker.
func (c *BrokerClient) Install(spec Spec) error {
	resp, err := c.call(request{Install: &spec})
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("mgmt: installing %s: %s", spec.Name, resp.Error)
	}
	return nil
}

// Close closes the underlying connection; later calls fail without
// redialing.
func (c *BrokerClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn, c.br = nil, nil
	return err
}
