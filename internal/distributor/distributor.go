// Package distributor implements the paper's content-aware distributor
// (§2.2): the layer-7 front end that completes the client's TCP handshake,
// reads the HTTP request, consults the URL table for the nodes holding the
// requested content, binds the client connection to a pre-forked
// persistent back-end connection, and relays the exchange. It also hosts
// the primary/backup fault-tolerance mechanism (§2.3).
package distributor

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"webcluster/internal/admission"
	"webcluster/internal/config"
	"webcluster/internal/conntrack"
	"webcluster/internal/faults"
	"webcluster/internal/httpx"
	"webcluster/internal/journal"
	"webcluster/internal/lifecycle"
	"webcluster/internal/loadbal"
	"webcluster/internal/respcache"
	"webcluster/internal/telemetry"
	"webcluster/internal/urltable"
)

// Errors.
var (
	// ErrNoBackend reports content whose replica set is empty or whose
	// nodes are all unknown.
	ErrNoBackend = errors.New("distributor: no backend for content")
)

// Options configures a distributor.
type Options struct {
	// Table is the URL table to route by. Required.
	Table *urltable.Table
	// Cluster describes the back-end nodes; node Addr fields must be
	// set. Required.
	Cluster config.ClusterSpec
	// Picker selects among a content's replicas; defaults to
	// WeightedLeastConn over the candidate replicas.
	Picker loadbal.Picker
	// PreforkPerNode is the number of persistent connections opened to
	// each node up front (§2.2); default 4.
	PreforkPerNode int
	// MaxConnsPerNode caps concurrent back-end connections per node;
	// default 64.
	MaxConnsPerNode int
	// Weights configures the §3.3 load-metric constants; zero value
	// means the paper's constants.
	Weights loadbal.CostWeights
	// AccessLog, when non-nil, receives one Common Log Format line per
	// completed request (the distributor sees every request, so this is
	// the natural place to record the site's traffic for later replay).
	AccessLog io.Writer
	// ExchangeTimeout bounds each back-end exchange attempt (write +
	// response read) so one stalled back end cannot hang a relay
	// goroutine; default 10s, negative disables.
	ExchangeTimeout time.Duration
	// ExchangeRetries is how many additional pooled connections one
	// exchange tries after a failure before reporting it (each retry
	// waits RetryBackoff, doubling); default 1.
	ExchangeRetries int
	// RetryBackoff is the initial pause before an exchange retry;
	// default 5ms, negative disables.
	RetryBackoff time.Duration
	// Faults, when non-nil, injects connection faults at the pool dial
	// and relay paths (tests only).
	Faults *faults.Injector
	// Cache, when non-nil, serves cacheable GET/HEAD responses straight
	// from the front end (hits never touch a back end); the management
	// plane must purge it on every content mutation — wire the same
	// cache into the controller.
	Cache *respcache.Cache
	// Telemetry, when non-nil, enables request-scoped tracing: every
	// request gets a pooled span (parse → route → cache → backend →
	// reply) captured into the telemetry ring, and trace IDs propagate
	// to back ends via the X-Dist-Trace header. Nil means untraced; the
	// per-class stats registry exists either way.
	Telemetry *telemetry.Telemetry
	// Journal, when non-nil, receives structured decision events from
	// the error paths only: replica failovers, exhausted retries, and
	// admission-ladder shifts. The happy relay path records nothing, so
	// journaling costs the fast path zero allocations.
	Journal *journal.Journal
	// Admission, when non-nil, enables SLO-class overload control:
	// requests are classified (critical/interactive/batch), admitted
	// through per-class weighted concurrency gates, stamped with
	// downstream deadlines, and progressively shed under pressure. Nil
	// disables admission entirely — the request path is then identical
	// to a build without the subsystem.
	Admission *admission.Options
}

// Distributor is the content-aware front end. Construct with New.
type Distributor struct {
	table   *urltable.Table
	cluster config.ClusterSpec
	picker  loadbal.Picker
	pool    *conntrack.Pool
	mapping *conntrack.MappingTable
	// pools holds the data plane's reusable readers, requests and relay
	// buffers.
	pools   *httpx.Pools
	tracker *loadbal.Tracker
	cache   *respcache.Cache
	adm     *admission.Controller

	active map[config.NodeID]*atomic.Int64
	// down marks nodes the monitor has declared failed; pickReplica
	// skips them so clients never wait on a dead back end.
	down sync.Map // config.NodeID → bool
	// loads holds the latest interval L_j per node for load-aware
	// pickers (loadbal.LeastLoad).
	loads sync.Map // config.NodeID → float64

	exchangeTimeout time.Duration
	exchangeRetries int
	retryBackoff    time.Duration

	life lifecycle.Group

	tel *telemetry.Telemetry
	jnl *journal.Journal
	// shedding tracks, per SLO class, whether the last journaled
	// admission verdict was a shed — so the journal records ladder
	// *transitions* (first shed, first recovery) instead of one event
	// per rejected request.
	shedding [admission.NumClasses]atomic.Bool

	stats   *telemetry.Registry
	routed  atomic.Int64
	noRoute atomic.Int64
	relayNs atomic.Int64 // summed relay overhead (routing decision time)
	// truncations counts relays where the back end delivered fewer body
	// bytes than its Content-Length promised; each one resets the client
	// mapping (the client saw a short response).
	truncations atomic.Int64

	logMu     sync.Mutex
	accessLog io.Writer
}

// New constructs a distributor. It does not open connections; call Start
// (which pre-forks) or Prefork explicitly.
func New(opts Options) (*Distributor, error) {
	if opts.Table == nil {
		return nil, errors.New("distributor: nil URL table")
	}
	if err := opts.Cluster.Validate(); err != nil {
		return nil, fmt.Errorf("distributor: %w", err)
	}
	for _, n := range opts.Cluster.Nodes {
		if n.Addr == "" {
			return nil, fmt.Errorf("distributor: node %s has no address", n.ID)
		}
	}
	picker := opts.Picker
	if picker == nil {
		picker = loadbal.WeightedLeastConn{}
	}
	prefork := opts.PreforkPerNode
	if prefork <= 0 {
		prefork = 4
	}
	maxConns := opts.MaxConnsPerNode
	if maxConns <= 0 {
		maxConns = 64
	}
	weights := opts.Weights
	if weights == (loadbal.CostWeights{}) {
		weights = loadbal.PaperWeights()
	}
	exchangeTimeout := opts.ExchangeTimeout
	if exchangeTimeout == 0 {
		exchangeTimeout = 10 * time.Second
	} else if exchangeTimeout < 0 {
		exchangeTimeout = 0
	}
	exchangeRetries := opts.ExchangeRetries
	if exchangeRetries <= 0 {
		exchangeRetries = 1
	}
	retryBackoff := opts.RetryBackoff
	if retryBackoff == 0 {
		retryBackoff = 5 * time.Millisecond
	} else if retryBackoff < 0 {
		retryBackoff = 0
	}
	stats := opts.Telemetry.Registry()
	if stats == nil {
		stats = telemetry.NewRegistry("distributor")
	}
	if opts.Cache != nil {
		registerCacheMetrics(stats, opts.Cache)
	}
	d := &Distributor{
		table:     opts.Table,
		cluster:   opts.Cluster,
		picker:    picker,
		mapping:   conntrack.NewMappingTable(),
		pools:     httpx.NewPools(),
		cache:     opts.Cache,
		tel:       opts.Telemetry,
		jnl:       opts.Journal,
		stats:     stats,
		tracker:   loadbal.NewTracker(weights),
		active:    make(map[config.NodeID]*atomic.Int64, len(opts.Cluster.Nodes)),
		accessLog: opts.AccessLog,

		exchangeTimeout: exchangeTimeout,
		exchangeRetries: exchangeRetries,
		retryBackoff:    retryBackoff,
	}
	addrs := make(map[config.NodeID]string, len(opts.Cluster.Nodes))
	for _, n := range opts.Cluster.Nodes {
		addrs[n.ID] = n.Addr
		d.active[n.ID] = &atomic.Int64{}
	}
	d.pool = conntrack.NewPool(func(node config.NodeID) (net.Conn, error) {
		addr, ok := addrs[node]
		if !ok {
			return nil, fmt.Errorf("%w: unknown node %s", ErrNoBackend, node)
		}
		return net.DialTimeout("tcp", addr, 2*time.Second)
	}, prefork, maxConns)
	d.pool.SetFaults(opts.Faults)
	if opts.Admission != nil {
		admOpts := *opts.Admission
		admOpts.Registry = stats
		d.adm = admission.New(admOpts)
		// The pressure signal the batch rung keys off: summed per-backend
		// in-flight exchanges against the pool's aggregate connection
		// capacity. d.active is fully populated above and never written
		// again, so the unlocked map iteration is safe.
		capacity := int64(maxConns) * int64(len(opts.Cluster.Nodes))
		d.adm.SetPressure(func() (int64, int64) {
			var inflight int64
			for _, c := range d.active {
				inflight += c.Load()
			}
			return inflight, capacity
		})
		for _, n := range opts.Cluster.Nodes {
			c := d.active[n.ID]
			stats.GaugeFunc("distributor_inflight_"+string(n.ID), func() float64 {
				return float64(c.Load())
			})
		}
	}
	return d, nil
}

// Table returns the routing table (the controller mutates it through
// management operations).
func (d *Distributor) Table() *urltable.Table { return d.table }

// Tracker returns the §3.3 load tracker fed by completed requests.
func (d *Distributor) Tracker() *loadbal.Tracker { return d.tracker }

// Mapping returns the connection mapping table.
func (d *Distributor) Mapping() *conntrack.MappingTable { return d.mapping }

// Stats returns per-class statistics observed at the front end.
func (d *Distributor) Stats() *telemetry.Registry { return d.stats }

// Routed returns the number of successfully routed requests.
func (d *Distributor) Routed() int64 { return d.routed.Load() }

// NoRoute returns the number of requests with no routable backend.
func (d *Distributor) NoRoute() int64 { return d.noRoute.Load() }

// RelayTruncations returns the number of relays cut short by a back end
// delivering less body than its Content-Length declared.
func (d *Distributor) RelayTruncations() int64 { return d.truncations.Load() }

// MeanRouteOverhead returns the average time spent making routing
// decisions (URL-table lookup + replica pick), the §5.2 overhead quantity.
func (d *Distributor) MeanRouteOverhead() time.Duration {
	n := d.routed.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(d.relayNs.Load() / n)
}

// Start pre-forks connections to every node, then listens on addr (":0"
// for ephemeral) and serves in the background, returning the bound
// address.
func (d *Distributor) Start(addr string) (string, error) {
	if err := d.pool.Prefork(d.cluster.NodeIDs()); err != nil {
		return "", fmt.Errorf("distributor: prefork: %w", err)
	}
	bound, err := d.life.Listen(addr, d.serveClient)
	if err != nil {
		return "", fmt.Errorf("distributor: listen: %w", err)
	}
	return bound, nil
}

// clientKey derives the mapping-table key from the connection's remote
// address.
func clientKey(conn net.Conn) conntrack.ClientKey {
	host, portStr, err := net.SplitHostPort(conn.RemoteAddr().String())
	if err != nil {
		return conntrack.ClientKey{IP: conn.RemoteAddr().String()}
	}
	port, _ := strconv.Atoi(portStr)
	return conntrack.ClientKey{IP: host, Port: port}
}

// serveClient runs the §2.2 lifecycle for one client connection: install a
// mapping entry at "SYN" (accept), walk the state machine through request
// binding and teardown, and run every request the connection carries
// through the pipeline in exchange.go. Pipelined HTTP/1.1 requests drain
// in-loop — buffered bytes from the same read feed the next iteration
// directly.
func (d *Distributor) serveClient(client net.Conn) {
	key := clientKey(client)
	// The accept completing stands in for the SYN/ACK exchange; Go hands
	// us the connection post-handshake, so install then mark established.
	if _, err := d.mapping.Install(key, 0, 0); err != nil {
		return
	}
	if _, err := d.mapping.Advance(key, conntrack.EventHandshakeDone); err != nil {
		return
	}
	// Reader and request come from the pools and are reused across
	// every keep-alive request on this connection, so steady-state parsing
	// allocates nothing.
	br := d.pools.AcquireReader(client)
	defer d.pools.ReleaseReader(br)
	req := d.pools.AcquireRequest()
	defer d.pools.ReleaseRequest(req)
	x := exchange{d: d, client: client, key: key, req: req}
	clean := false
	for {
		err := x.parse(br)
		if errors.Is(err, io.EOF) {
			// Client FIN with no request in flight.
			x.closeSpan("client-fin")
			clean = true
			break
		}
		if errors.Is(err, httpx.ErrBodyTooLarge) {
			// The request line and headers parsed; the body was refused
			// unread, so the stream cannot carry another request.
			x.replyError(413, "request body too large\n", outTooLarge)
			break
		}
		if err != nil {
			// What the client meant is unknown; answer in the one protocol
			// every client reads.
			req.Proto = httpx.Proto10
			x.replyError(400, "bad request\n", outParseError)
			break
		}
		if !x.serve() {
			break
		}
		if !req.KeepAlive() {
			// HTTP/1.0 close: distributor sets FIN toward the client
			// after the last relayed packet (§2.2).
			clean = true
			break
		}
	}
	if !clean {
		_, _ = d.mapping.Advance(key, conntrack.EventReset)
		return
	}
	if _, err := d.mapping.Advance(key, conntrack.EventClientFin); err == nil {
		_, _ = d.mapping.Advance(key, conntrack.EventFinAcked)
		_, _ = d.mapping.Advance(key, conntrack.EventLastAck)
	}
}

// idempotent reports whether req may be re-sent after a failed attempt.
// Only safe methods qualify; the streaming path never retries once any
// response byte has reached the client.
func idempotent(req *httpx.Request) bool {
	return req.Method == "GET" || req.Method == "HEAD"
}

// exchangeStart sends req over a pre-forked connection to node and parses
// the response header, leaving the body unread on the returned connection
// (the caller streams it with httpx.RelayResponse). Each attempt runs
// under the exchange deadline so a stalled or slow-loris back end surfaces
// as a timeout instead of hanging the relay goroutine; failed attempts
// discard the connection and retry (bounded, with doubling backoff) — a
// stale keep-alive connection is the common recoverable case. Retries only
// happen for idempotent requests: a non-idempotent body was already sent
// on the wire once, so a second send could apply its effect twice.
//
// On success the exchange deadline is still armed; the caller clears it
// after relaying the body.
func (d *Distributor) exchangeStart(node config.NodeID, req *httpx.Request) (*conntrack.PooledConn, *httpx.Response, error) {
	// In flight against node for as long as the header exchange runs; the
	// pickers and the admission pressure signal read this.
	active := d.active[node]
	active.Add(1)
	defer active.Add(-1)
	var lastErr error
	backoff := d.retryBackoff
	for attempt := 0; attempt <= d.exchangeRetries; attempt++ {
		if attempt > 0 {
			if !idempotent(req) {
				break
			}
			if backoff > 0 {
				time.Sleep(backoff)
				backoff *= 2
			}
		}
		pc, err := d.pool.Acquire(node)
		if err != nil {
			return nil, nil, fmt.Errorf("acquiring connection to %s: %w", node, err)
		}
		resp, err := d.attemptStart(pc, req)
		if err != nil {
			d.pool.Discard(pc)
			lastErr = fmt.Errorf("exchange with %s: %w", node, err)
			continue
		}
		return pc, resp, nil
	}
	return nil, nil, lastErr
}

// attemptStart arms the exchange deadline, forwards req (as HTTP/1.1,
// Connection dropped on the wire — no clone; head and body leave in one
// vectored write) and parses the response header. The deadline is left
// armed: it also bounds the body relay.
func (d *Distributor) attemptStart(pc *conntrack.PooledConn, req *httpx.Request) (*httpx.Response, error) {
	if d.exchangeTimeout > 0 {
		if err := pc.Conn.SetDeadline(time.Now().Add(d.exchangeTimeout)); err != nil {
			return nil, fmt.Errorf("arming deadline: %w", err)
		}
	}
	if err := d.pools.WriteProxyRequest(pc.Conn, req); err != nil {
		return nil, fmt.Errorf("forwarding: %w", err)
	}
	resp, err := httpx.ReadResponseHeader(pc.Reader)
	if err != nil {
		return nil, fmt.Errorf("reading: %w", err)
	}
	return resp, nil
}

// SetAvailable marks a node up or down for routing. The monitor calls
// this on liveness transitions; content on a down node is served from its
// other replicas until the node recovers.
func (d *Distributor) SetAvailable(node config.NodeID, up bool) {
	if up {
		d.down.Delete(node)
	} else {
		d.down.Store(node, true)
	}
}

// Available reports whether node is currently routable.
func (d *Distributor) Available(node config.NodeID) bool {
	_, isDown := d.down.Load(node)
	return !isDown
}

// UpdateLoads publishes the latest per-node §3.3 load indices for
// load-aware replica selection. The auto-balancer calls this at each
// interval boundary.
func (d *Distributor) UpdateLoads(loads map[config.NodeID]float64) {
	for id, l := range loads {
		d.loads.Store(id, l)
	}
}

// nodeLoad returns the last published L_j for node (0 before the first
// interval closes).
func (d *Distributor) nodeLoad(node config.NodeID) float64 {
	v, ok := d.loads.Load(node)
	if !ok {
		return 0
	}
	l, ok := v.(float64)
	if !ok {
		return 0
	}
	return l
}

// pickReplica chooses among the available nodes holding rec, excluding
// exclude (a node that just failed an exchange for this request).
func (d *Distributor) pickReplica(rec urltable.Record, exclude config.NodeID) (config.NodeID, error) {
	candidates := make([]loadbal.NodeState, 0, len(rec.Locations))
	for _, id := range rec.Locations {
		if id == exclude || !d.Available(id) {
			continue
		}
		spec, ok := d.cluster.Node(id)
		if !ok {
			continue
		}
		counter := d.active[id]
		if counter == nil {
			continue
		}
		candidates = append(candidates, loadbal.NodeState{
			ID:     id,
			Weight: spec.EffectiveWeight(),
			Active: counter.Load(),
			Load:   d.nodeLoad(id),
		})
	}
	if len(candidates) == 0 {
		return "", fmt.Errorf("%w: %s", ErrNoBackend, rec.Path)
	}
	return d.picker.Pick(candidates)
}

// Close stops the listener, closes all client connections and the
// connection pool, and joins every goroutine.
func (d *Distributor) Close() error {
	return errors.Join(d.life.Close(), d.pool.Close())
}
