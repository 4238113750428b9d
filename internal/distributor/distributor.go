// Package distributor implements the paper's content-aware distributor
// (§2.2): the layer-7 front end that completes the client's TCP handshake,
// reads the HTTP request, consults the URL table for the nodes holding the
// requested content, binds the client connection to a pre-forked
// persistent back-end connection, and relays the exchange. The §2.3
// primary/backup mechanism replicates control-plane state and lives in
// internal/mgmt; a successor is a fresh Distributor over the replicated
// table.
package distributor

import (
	"errors"
	"fmt"
	"io"
	"net"
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
	// bytes than its Content-Length promised; each one closes the client
	// connection (the client saw a short response).
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
	// A request for a placed path adopts the table entry's path string
	// instead of copying its target: a cache hit then leaves no garbage.
	d.pools.Targets = d.table.PlacedPath
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
		c, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			return nil, err
		}
		return httpx.WrapTCP(c), nil
	}, prefork, maxConns)
	d.pool.SetFaults(opts.Faults)
	// The client connections being served: d.life is their one registry.
	stats.GaugeFunc("distributor_client_conns", func() float64 { return float64(d.life.Conns()) })
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

// serveClient runs every request one client connection carries through
// the pipeline in exchange.go. Pipelined HTTP/1.1 requests drain in-loop —
// buffered bytes from the same read feed the next iteration directly. The
// connection is registered with d.life from its accept until this returns,
// and the node serving its current request is x.node: the paper's §2.2
// mapping table, without a table (the kernel keeps the TCP state).
func (d *Distributor) serveClient(client net.Conn) {
	// Reader and request come from the pools and are reused across
	// every keep-alive request on this connection, so steady-state parsing
	// allocates nothing.
	br := d.pools.AcquireReader(client)
	defer d.pools.ReleaseReader(br)
	req := d.pools.AcquireRequest()
	defer d.pools.ReleaseRequest(req)
	x := exchange{d: d, client: client, req: req,
		cands: make([]loadbal.NodeState, 0, len(d.cluster.Nodes))}
	for {
		err := x.parse(br)
		if errors.Is(err, io.EOF) {
			// Client FIN with no request in flight.
			x.closeSpan("client-fin")
			break
		}
		if errors.Is(err, httpx.ErrBodyTooLarge) {
			// The request line and headers parsed; the body was refused
			// unread, so the stream cannot carry another request.
			x.replyError(413, "request body too large\n", outTooLarge)
			break
		}
		if errors.Is(err, httpx.ErrTransferEncoding) {
			// The request line parsed, but nothing says where its body
			// ends: forwarding it framed by Content-Length alone would
			// desynchronize the back-end connection.
			x.replyError(501, "transfer-encoding not implemented\n", outNotImplemented)
			break
		}
		if errors.Is(err, httpx.ErrHeaderTooLarge) {
			// The header section outgrew its bound and the rest of it is
			// unread, so the stream cannot carry another request.
			if req.Proto == "" {
				req.Proto = httpx.Proto10
			}
			x.replyError(431, "request header fields too large\n", outHeaderTooLarge)
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
			break
		}
	}
}

// idempotent reports whether req may be re-sent after a failed attempt.
// Only safe methods qualify; the streaming path never retries once any
// response byte has reached the client.
func idempotent(req *httpx.Request) bool {
	return req.Method == "GET" || req.Method == "HEAD"
}

// exchangeStart sends req over a pre-forked connection to node and parses
// the response header into resp, leaving the body unread on the returned
// connection (the caller streams it with httpx.RelayResponse). Each
// attempt runs under the exchange deadline so a stalled or slow-loris back
// end surfaces as a timeout instead of hanging the relay goroutine; failed
// attempts discard the connection and retry on a newly dialed one
// (bounded, with doubling backoff) — a stale keep-alive connection is the
// common recoverable case.
// Retries only happen for idempotent requests: a non-idempotent body was
// already sent on the wire once, so a second send could apply its effect
// twice.
//
// On success the exchange deadline is still armed; the caller clears it
// after relaying the body.
func (d *Distributor) exchangeStart(node config.NodeID, req *httpx.Request, resp *httpx.Response) (*conntrack.PooledConn, error) {
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
		var pc *conntrack.PooledConn
		var err error
		if attempt == 0 {
			pc, err = d.pool.Acquire(node)
		} else {
			// The last connection broke. The idle ones to the same node
			// are likely broken alike (a back end that restarted broke
			// them all), so the retry dials.
			pc, err = d.pool.Dial(node)
		}
		if err != nil {
			return nil, fmt.Errorf("acquiring connection to %s: %w", node, err)
		}
		if err := d.attemptStart(pc, req, resp); err != nil {
			d.pool.Discard(pc)
			lastErr = fmt.Errorf("exchange with %s: %w", node, err)
			continue
		}
		return pc, nil
	}
	return nil, lastErr
}

// attemptStart arms the exchange deadline, forwards req (as HTTP/1.1,
// Connection dropped on the wire — no clone; head and body leave in one
// vectored write) and parses the response header into resp. The deadline
// is left armed: it also bounds the body relay.
func (d *Distributor) attemptStart(pc *conntrack.PooledConn, req *httpx.Request, resp *httpx.Response) error {
	if d.exchangeTimeout > 0 {
		if err := pc.Conn.SetDeadline(time.Now().Add(d.exchangeTimeout)); err != nil {
			return fmt.Errorf("arming deadline: %w", err)
		}
	}
	if err := d.pools.WriteProxyRequest(pc.Conn, req); err != nil {
		return fmt.Errorf("forwarding: %w", err)
	}
	if err := httpx.ReadResponseHeaderInto(pc.Reader, resp); err != nil {
		return fmt.Errorf("reading: %w", err)
	}
	return nil
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
// exclude (a node that just failed an exchange for this request). The
// candidate list is built in candidates' storage; no Picker keeps it.
func (d *Distributor) pickReplica(rec urltable.Record, exclude config.NodeID, candidates []loadbal.NodeState) (config.NodeID, error) {
	candidates = candidates[:0]
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
