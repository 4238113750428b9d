package mgmt

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/doctree"
	"webcluster/internal/journal"
	"webcluster/internal/lifecycle"
	"webcluster/internal/monitor"
	"webcluster/internal/respcache"
	"webcluster/internal/telemetry"
)

// The remote console (§3.1/§3.2). The paper ships a Java-applet GUI; this
// reproduction exposes the same operations over framed messages (wire.go:
// a JSON envelope, file bytes raw behind it) so cmd/console (and tests)
// can drive the controller remotely, preserving the property that
// administration happens against a single system image from anywhere on
// the network.

// ConsoleRequest is one console command.
type ConsoleRequest struct {
	Op       string          `json:"op"`
	Path     string          `json:"path,omitempty"`
	NewPath  string          `json:"newPath,omitempty"`
	Size     int64           `json:"size,omitempty"`
	Priority int             `json:"priority,omitempty"`
	Node     config.NodeID   `json:"node,omitempty"`
	Source   config.NodeID   `json:"source,omitempty"`
	Target   config.NodeID   `json:"target,omitempty"`
	Nodes    []config.NodeID `json:"nodes,omitempty"`
	// Data is the file's bytes for insert and update. It travels as the
	// frame's payload, never inside the JSON envelope.
	Data []byte `json:"-"`
	// loadsite parameters.
	Objects  int    `json:"objects,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Workload string `json:"workload,omitempty"`
	Policy   string `json:"policy,omitempty"`
	// Limit caps list-shaped replies (traces); 0 means the default.
	Limit int `json:"limit,omitempty"`
}

// consoleEnvelope is a ConsoleRequest as it crosses the wire: its JSON
// fields plus the flag that the frame's payload is Data.
type consoleEnvelope struct {
	ConsoleRequest
	Payload bool `json:"payload,omitempty"`
}

// ConsoleResponse is the controller's reply.
type ConsoleResponse struct {
	OK      bool                `json:"ok"`
	Error   string              `json:"error,omitempty"`
	Tree    string              `json:"tree,omitempty"`
	Status  *monitor.NodeStatus `json:"status,omitempty"`
	Nodes   []config.NodeID     `json:"nodes,omitempty"`
	Actions []string            `json:"actions,omitempty"`
	Message string              `json:"message,omitempty"`
	// Cache carries the front-end response-cache counters (cache-stats).
	Cache *respcache.Stats `json:"cache,omitempty"`
	// Stats carries the merged cluster-wide telemetry view (stats).
	Stats *telemetry.ClusterStats `json:"stats,omitempty"`
	// Traces carries the slowest recent spans across all nodes (traces).
	Traces []telemetry.Span `json:"traces,omitempty"`
	// Journal carries merged decision-journal events (journal).
	Journal []journal.Event `json:"journal,omitempty"`
	// Explain carries the placement explanation for one path (explain).
	Explain *ExplainReport `json:"explain,omitempty"`
}

// SiteLoader services the console's loadsite command: generate a synthetic
// site and place it through the controller. Wired by the embedding
// deployment (core or cmd/distributor) because placement policies live
// above this package.
type SiteLoader func(req ConsoleRequest) (string, error)

// ConsoleServer exposes a controller to remote consoles. Construct with
// NewConsoleServer.
type ConsoleServer struct {
	controller *Controller
	// balancer, when set, backs the balance-now command.
	balancer *AutoBalancer
	// siteLoader, when set, backs the loadsite command.
	siteLoader SiteLoader

	life lifecycle.Group
}

// NewConsoleServer returns a console endpoint for controller; balancer may
// be nil.
func NewConsoleServer(controller *Controller, balancer *AutoBalancer) *ConsoleServer {
	return &ConsoleServer{
		controller: controller,
		balancer:   balancer,
	}
}

// SetSiteLoader wires the loadsite command. Call before Start.
func (s *ConsoleServer) SetSiteLoader(fn SiteLoader) { s.siteLoader = fn }

// Start listens on addr (":0" for ephemeral), returning the bound address.
func (s *ConsoleServer) Start(addr string) (string, error) {
	bound, err := s.life.Listen(addr, s.serveConn)
	if err != nil {
		return "", fmt.Errorf("console: listen: %w", err)
	}
	return bound, nil
}

// staging recycles the buffers console payloads are read into. A file is
// staged only while its request runs: the controller writes the slice to
// each target broker's socket and keeps no reference, so the buffer goes
// back once the reply is written. It is not kept on the connection — an
// idle console session must pin no file-sized memory in the distributor's
// process.
var staging sync.Pool // of *[]byte

// serveConn handles one console session.
func (s *ConsoleServer) serveConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	for s.serveRequest(conn, br) {
	}
}

// serveRequest reads one command, executes it and writes the reply; false
// ends the session.
func (s *ConsoleServer) serveRequest(conn net.Conn, br *bufio.Reader) bool {
	var env consoleEnvelope
	var buf *[]byte
	payload, err := readFrameInto(br, &env, func(n int) []byte {
		if buf, _ = staging.Get().(*[]byte); buf == nil || cap(*buf) < n {
			fresh := make([]byte, n)
			buf = &fresh
		}
		return (*buf)[:n]
	})
	if buf != nil {
		defer staging.Put(buf)
	}
	if err != nil {
		refuseMismatch(conn, err)
		return false
	}
	if env.Payload {
		env.Data = payload
	}
	return writeFrame(conn, s.handle(env.ConsoleRequest), nil) == nil
}

// handle executes one console command.
func (s *ConsoleServer) handle(req ConsoleRequest) ConsoleResponse {
	fail := func(err error) ConsoleResponse {
		return ConsoleResponse{OK: false, Error: err.Error()}
	}
	switch req.Op {
	case "tree":
		return ConsoleResponse{OK: true, Tree: doctree.Render(s.controller.View())}
	case "nodes":
		return ConsoleResponse{OK: true, Nodes: s.controller.Nodes()}
	case "insert":
		obj := content.Object{
			Path:     req.Path,
			Size:     req.Size,
			Class:    content.Classify(req.Path),
			Priority: req.Priority,
		}
		if obj.Size == 0 && req.Data != nil {
			obj.Size = int64(len(req.Data))
		}
		if err := s.controller.Insert(obj, req.Data, req.Nodes...); err != nil {
			return fail(err)
		}
		return ConsoleResponse{OK: true, Message: "inserted " + req.Path}
	case "delete":
		if err := s.controller.Delete(req.Path); err != nil {
			return fail(err)
		}
		return ConsoleResponse{OK: true, Message: "deleted " + req.Path}
	case "rename":
		if err := s.controller.Rename(req.Path, req.NewPath); err != nil {
			return fail(err)
		}
		return ConsoleResponse{OK: true, Message: "renamed " + req.Path}
	case "replicate":
		if err := s.controller.Replicate(req.Path, req.Source, req.Target); err != nil {
			return fail(err)
		}
		return ConsoleResponse{OK: true, Message: "replicated " + req.Path}
	case "offload":
		if err := s.controller.Offload(req.Path, req.Node); err != nil {
			return fail(err)
		}
		return ConsoleResponse{OK: true, Message: "offloaded " + req.Path}
	case "assign":
		if err := s.controller.Assign(req.Path, req.Nodes...); err != nil {
			return fail(err)
		}
		return ConsoleResponse{OK: true, Message: "assigned " + req.Path}
	case "priority":
		if err := s.controller.SetPriority(req.Path, req.Priority); err != nil {
			return fail(err)
		}
		return ConsoleResponse{OK: true, Message: "priority set"}
	case "verify":
		consistent, sums, err := s.controller.Verify(req.Path)
		if err != nil {
			return fail(err)
		}
		lines := make([]string, 0, len(sums)+1)
		for node, sum := range sums {
			lines = append(lines, fmt.Sprintf("%s %s", node, sum))
		}
		sort.Strings(lines)
		msg := "CONSISTENT"
		if !consistent {
			msg = "INCONSISTENT"
		}
		return ConsoleResponse{OK: true, Message: msg, Actions: lines}
	case "update":
		if err := s.controller.Update(req.Path, req.Data); err != nil {
			return fail(err)
		}
		return ConsoleResponse{OK: true, Message: "updated " + req.Path}
	case "pin":
		if err := s.controller.Pin(req.Path, true); err != nil {
			return fail(err)
		}
		return ConsoleResponse{OK: true, Message: "pinned " + req.Path}
	case "unpin":
		if err := s.controller.Pin(req.Path, false); err != nil {
			return fail(err)
		}
		return ConsoleResponse{OK: true, Message: "unpinned " + req.Path}
	case "status":
		st, err := s.controller.Status(req.Node)
		if err != nil {
			return fail(err)
		}
		return ConsoleResponse{OK: true, Status: &st}
	case "purge":
		if req.Path == "" {
			return fail(fmt.Errorf("console: purge requires a path (or *)"))
		}
		n, err := s.controller.Purge(req.Path)
		if err != nil {
			return fail(err)
		}
		return ConsoleResponse{OK: true, Message: fmt.Sprintf("purged %s (%d entries)", req.Path, n)}
	case "cache-stats":
		stats, ok := s.controller.CacheStats()
		if !ok {
			return fail(fmt.Errorf("console: no response cache attached"))
		}
		return ConsoleResponse{OK: true, Cache: &stats}
	case "stats":
		stats, missing := s.controller.ClusterStats()
		resp := ConsoleResponse{OK: true, Stats: &stats}
		if len(missing) > 0 {
			resp.Message = fmt.Sprintf("unreachable: %v", missing)
		}
		return resp
	case "traces":
		spans, missing := s.controller.ClusterTraces(req.Limit)
		resp := ConsoleResponse{OK: true, Traces: spans}
		if len(missing) > 0 {
			resp.Message = fmt.Sprintf("unreachable: %v", missing)
		}
		return resp
	case "journal":
		var events []journal.Event
		var missing []config.NodeID
		if req.Node != "" {
			// Single-node scrape, bypassing the merge.
			res, err := s.controller.Dispatch(req.Node, OpJournal.String(), Args{})
			if err != nil {
				return fail(err)
			}
			events = res.Journal
			if req.Limit > 0 && len(events) > req.Limit {
				events = events[len(events)-req.Limit:]
			}
		} else {
			events, missing = s.controller.ClusterJournal("", req.Limit)
		}
		resp := ConsoleResponse{OK: true, Journal: events}
		if len(missing) > 0 {
			resp.Message = fmt.Sprintf("unreachable: %v", missing)
		}
		return resp
	case "dump":
		reason := req.Path
		if reason == "" {
			reason = "console dump"
		}
		path, err := s.controller.DumpFlight(reason)
		if err != nil {
			return fail(err)
		}
		return ConsoleResponse{OK: true, Message: "dumped " + path}
	case "explain":
		if req.Path == "" {
			return fail(fmt.Errorf("console: explain requires a path"))
		}
		rep, missing, err := s.controller.Explain(req.Path, req.Limit)
		if err != nil {
			return fail(err)
		}
		resp := ConsoleResponse{OK: true, Explain: rep}
		if len(missing) > 0 {
			resp.Message = fmt.Sprintf("unreachable: %v", missing)
		}
		return resp
	case "loadsite":
		if s.siteLoader == nil {
			return fail(fmt.Errorf("console: no site loader configured"))
		}
		msg, err := s.siteLoader(req)
		if err != nil {
			return fail(err)
		}
		return ConsoleResponse{OK: true, Message: msg}
	case "balance":
		if s.balancer == nil {
			return fail(fmt.Errorf("console: no balancer configured"))
		}
		decs := s.balancer.RunOnce()
		out := make([]string, len(decs))
		for i, d := range decs {
			out[i] = d.Action.String() + ": " + d.Outcome()
		}
		return ConsoleResponse{OK: true, Actions: out}
	default:
		return fail(fmt.Errorf("console: unknown op %q", req.Op))
	}
}

// Close stops the console server and joins its goroutines.
func (s *ConsoleServer) Close() error { return s.life.Close() }

// DefaultConsoleTimeout bounds console dials and round trips until
// overridden with SetTimeout.
const DefaultConsoleTimeout = 5 * time.Second

// Console is the remote-console client. Construct with DialConsole.
type Console struct {
	mu      sync.Mutex
	conn    net.Conn
	br      *bufio.Reader
	timeout time.Duration
}

// DialConsole connects to a console server at addr.
func DialConsole(addr string) (*Console, error) {
	conn, err := net.DialTimeout("tcp", addr, DefaultConsoleTimeout)
	if err != nil {
		return nil, fmt.Errorf("console: dialing %s: %w", addr, err)
	}
	return &Console{
		conn:    conn,
		br:      bufio.NewReader(conn),
		timeout: DefaultConsoleTimeout,
	}, nil
}

// SetTimeout changes the per-command deadline (ignored if d <= 0).
func (c *Console) SetTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.timeout = d
	}
}

// Do performs one console command.
func (c *Console) Do(req ConsoleRequest) (ConsoleResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// A wedged or partitioned console server must surface as a timeout,
	// not a hung administrative client.
	if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return ConsoleResponse{}, fmt.Errorf("console: arming deadline: %w", err)
	}
	defer func() { _ = c.conn.SetDeadline(time.Time{}) }()
	var resp ConsoleResponse
	err := writeFrame(c.conn, consoleEnvelope{req, req.Data != nil}, req.Data)
	if err == nil {
		_, err = readFrame(c.br, &resp)
	}
	if err != nil {
		// A frame cut short leaves the stream at an unknown offset:
		// every later command fails rather than misreads it.
		_ = c.conn.Close()
		return ConsoleResponse{}, fmt.Errorf("console: exchange failed, connection closed: %w", err)
	}
	if !resp.OK {
		return resp, fmt.Errorf("console: %s", resp.Error)
	}
	return resp, nil
}

// Close closes the console connection.
func (c *Console) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}
