// Package core is the one assembly of the content placement and
// management system. The paper's deployment has two kinds of process and
// each is wired here exactly once: StartNode builds a back-end node (web
// server plus management broker), Attach builds a front end (the
// content-aware distributor with the controller, its agent repository and
// the §3.3 auto-balancer co-located) over running nodes. Launch is
// StartNode per node plus Attach inside one process, over real TCP sockets
// on loopback, for examples and tests; cmd/backend and cmd/distributor
// parse flags into NodeOptions and Options and call the same two
// functions, so the system the tests run is the binary that is deployed.
package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"time"

	"webcluster/internal/admission"
	"webcluster/internal/backend"
	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/distributor"
	"webcluster/internal/faults"
	"webcluster/internal/httpx"
	"webcluster/internal/journal"
	"webcluster/internal/loadbal"
	"webcluster/internal/mgmt"
	"webcluster/internal/monitor"
	"webcluster/internal/respcache"
	"webcluster/internal/telemetry"
	"webcluster/internal/urltable"
	"webcluster/internal/workload"
)

// PlacementFunc decides which nodes hold an object at site-load time. The
// returned slice must name at least one node of the cluster spec.
type PlacementFunc func(obj content.Object, spec config.ClusterSpec) []config.NodeID

// PlaceAll replicates every object on every node (the traditional full-
// replication scheme, §1.1).
func PlaceAll(_ content.Object, spec config.ClusterSpec) []config.NodeID {
	return spec.NodeIDs()
}

// PlaceRoundRobin spreads objects one-per-node in rank order (a minimal
// partitioning baseline). The zero value is not usable; construct with
// NewPlaceRoundRobin.
type PlaceRoundRobin struct {
	next int
}

// NewPlaceRoundRobin returns a fresh round-robin placer.
func NewPlaceRoundRobin() *PlaceRoundRobin { return &PlaceRoundRobin{} }

// Place implements PlacementFunc semantics as a method.
func (p *PlaceRoundRobin) Place(_ content.Object, spec config.ClusterSpec) []config.NodeID {
	ids := spec.NodeIDs()
	id := ids[p.next%len(ids)]
	p.next++
	return []config.NodeID{id}
}

// PlaceByType returns the paper's recommended policy (§1.2, §4): dynamic
// content on the fastest-CPU nodes, video on the largest-disk nodes,
// static content round-robined over the remaining nodes (or all nodes if
// the split would leave a group empty), with priority content replicated
// everywhere static lives.
func PlaceByType() PlacementFunc {
	var staticNext, dynNext, videoNext int
	return func(obj content.Object, spec config.ClusterSpec) []config.NodeID {
		maxMHz, maxDisk := 0, 0
		for _, n := range spec.Nodes {
			if n.CPUMHz > maxMHz {
				maxMHz = n.CPUMHz
			}
			if n.DiskGB > maxDisk {
				maxDisk = n.DiskGB
			}
		}
		var fast, rest, bigDisk []config.NodeID
		for _, n := range spec.Nodes {
			if n.CPUMHz == maxMHz {
				fast = append(fast, n.ID)
			} else {
				rest = append(rest, n.ID)
			}
			if n.DiskGB == maxDisk {
				bigDisk = append(bigDisk, n.ID)
			}
		}
		if len(rest) == 0 {
			rest = spec.NodeIDs()
		}
		switch {
		case obj.Class.Dynamic():
			id := fast[dynNext%len(fast)]
			dynNext++
			return []config.NodeID{id}
		case obj.Class == content.ClassVideo:
			id := bigDisk[videoNext%len(bigDisk)]
			videoNext++
			return []config.NodeID{id}
		case obj.Priority > 0:
			// Critical content is replicated across the static group
			// for availability (§3.2).
			return append([]config.NodeID(nil), rest...)
		default:
			id := rest[staticNext%len(rest)]
			staticNext++
			return []config.NodeID{id}
		}
	}
}

// Options configures Launch and Attach: one struct describes a front end
// (and, for Launch, the nodes behind it); cmd/distributor only fills it
// from flags.
type Options struct {
	// Spec describes the nodes. Launch ignores the Addr fields (it starts
	// the nodes on loopback and fills them in) and defaults to a small
	// 3-node cluster; Attach requires Addr and BrokerAddr of running
	// nodes on every entry.
	Spec config.ClusterSpec
	// StoreFor supplies each node's store; nil means a fresh MemStore.
	// Launch only.
	StoreFor func(spec config.NodeSpec) backend.Store
	// DelayFor supplies per-node service-delay models for hardware
	// emulation; nil for none. Launch only.
	DelayFor func(spec config.NodeSpec) backend.DelayFunc
	// Table is the URL table to serve from — a restored checkpoint or a
	// backup's replicated copy; nil means a fresh, empty table.
	Table *urltable.Table
	// Listen is the client-facing listen address; empty means an
	// ephemeral loopback port.
	Listen string
	// Picker selects among replicas in the distributor.
	Picker loadbal.Picker
	// PreforkPerNode is the distributor's persistent-connection count
	// per node.
	PreforkPerNode int
	// AccessLog, when non-nil, receives one Common Log Format line per
	// request.
	AccessLog io.Writer
	// BalanceInterval enables the auto-balancer loop when positive.
	BalanceInterval time.Duration
	// BalanceOptions tunes the §3.3 planner.
	BalanceOptions loadbal.PlannerOptions
	// ConsoleAddr starts a remote-console endpoint when non-empty
	// (":0" for ephemeral).
	ConsoleAddr string
	// AdminAddr, when non-empty, serves the front end's /metrics,
	// /debug/traces and /healthz there.
	AdminAddr string
	// ReplAddr, when non-empty, starts the §2.3 state-replication server
	// a backup distributor follows.
	ReplAddr string
	// MonitorInterval enables broker health probing when positive:
	// nodes whose broker stops answering are taken out of routing until
	// they recover.
	MonitorInterval time.Duration
	// Faults, when non-nil, threads a fault injector through every
	// network layer (backend accept paths, distributor pool, monitor
	// probes) for chaos testing. Production launches leave it nil.
	Faults *faults.Injector
	// CacheBytes, when positive, enables the distributor-side response
	// cache (respcache) with this byte budget and wires it into the
	// controller so every management mutation purges affected entries.
	CacheBytes int64
	// CacheOptions tunes the response cache beyond the byte budget
	// (TTLs, shard count, clock). MaxBytes inside it is overridden by
	// CacheBytes. Ignored when CacheBytes <= 0.
	CacheOptions respcache.Options
	// Admission, when non-nil, enables SLO-class overload control at the
	// distributor (per-class weighted admission, progressive shedding,
	// in-band deadline propagation). Nil leaves the request path exactly
	// as without the subsystem.
	Admission *admission.Options
	// FlightDir, when non-empty, enables the flight recorder: incident
	// bundles (recent journal window + telemetry + placement state) are
	// written there on SLO burn-rate breaches, console dumps, and
	// crash recovery.
	FlightDir string
	// FlightBudgets are the per-class SLO budgets the flight recorder's
	// burn-rate watcher monitors; empty disables the watcher (manual and
	// crash dumps still work).
	FlightBudgets []journal.Budget
}

// DefaultSpec returns a 3-node heterogeneous development cluster.
func DefaultSpec() config.ClusterSpec {
	return config.ClusterSpec{
		DistributorCPUMHz: 350,
		Nodes: []config.NodeSpec{
			{ID: "fast-1", CPUMHz: 350, MemoryMB: 128, DiskGB: 8, Disk: config.DiskSCSI, Platform: config.LinuxApache},
			{ID: "mid-1", CPUMHz: 200, MemoryMB: 128, DiskGB: 4, Disk: config.DiskSCSI, Platform: config.WindowsNTIIS},
			{ID: "slow-1", CPUMHz: 150, MemoryMB: 64, DiskGB: 4, Disk: config.DiskIDE, Platform: config.LinuxApache},
		},
	}
}

// Cluster is a running front end — distributor, controller, balancer and
// the optional console, monitor, recorder, admin and replication
// endpoints — plus, after Launch, the in-process nodes behind it.
type Cluster struct {
	Spec  config.ClusterSpec
	Table *urltable.Table
	// Nodes holds the nodes Launch started; empty after a bare Attach,
	// whose nodes run elsewhere.
	Nodes       map[config.NodeID]*NodeHandle
	Distributor *distributor.Distributor
	Controller  *mgmt.Controller
	Balancer    *mgmt.AutoBalancer
	Console     *mgmt.ConsoleServer
	Monitor     *monitor.Watcher
	// Cache is the distributor-side response cache, nil when disabled.
	Cache *respcache.Cache
	// Telemetry is the distributor's observability layer (span ring,
	// metrics registry); the controller scrapes it for cluster stats.
	Telemetry *telemetry.Telemetry
	// Journal is the front end's decision journal; every control-plane
	// actor in this process records into it (per-node agent journals live
	// in the brokers and are merged by the controller on scrape).
	Journal *journal.Journal
	// Recorder is the flight recorder, nil unless Options.FlightDir was
	// set.
	Recorder *journal.Recorder
	// Admin is the front end's admin endpoint, nil unless
	// Options.AdminAddr was set.
	Admin *telemetry.AdminServer
	// Repl is the state-replication server, nil unless Options.ReplAddr
	// was set.
	Repl *mgmt.ReplicationServer
	// FrontAddr is the distributor's client-facing address.
	FrontAddr string
	// ConsoleAddr, AdminAddr and ReplAddr are the bound addresses of the
	// optional endpoints ("" when disabled).
	ConsoleAddr, AdminAddr, ReplAddr string
	// GetTimeout bounds each Get round trip (dial plus exchange);
	// zero means DefaultGetTimeout.
	GetTimeout time.Duration
}

// DefaultGetTimeout bounds Cluster.Get when GetTimeout is unset.
const DefaultGetTimeout = 5 * time.Second

// replInterval is how often the replication server sends a snapshot or
// heartbeat to its backups.
const replInterval = 200 * time.Millisecond

// Launch starts a node per Spec entry on loopback and attaches a front end
// to them, all in this process. On error everything already started is
// shut down.
func Launch(opts Options) (*Cluster, error) {
	spec := opts.Spec
	if len(spec.Nodes) == 0 {
		spec = DefaultSpec()
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// The bound addresses go into a copy; the caller's spec is not written.
	spec.Nodes = append([]config.NodeSpec(nil), spec.Nodes...)
	// started owns the nodes until Attach's cluster takes them over.
	started := &Cluster{Nodes: make(map[config.NodeID]*NodeHandle, len(spec.Nodes))}
	for i, ns := range spec.Nodes {
		no := NodeOptions{Spec: ns, Faults: opts.Faults}
		if opts.StoreFor != nil {
			no.Store = opts.StoreFor(ns)
		}
		if opts.DelayFor != nil {
			no.Delay = opts.DelayFor(ns)
		}
		nh, err := StartNode(no)
		if err != nil {
			_ = started.Close()
			return nil, err
		}
		started.Nodes[ns.ID] = nh
		spec.Nodes[i] = nh.Spec
	}
	opts.Spec = spec
	c, err := Attach(opts)
	if err != nil {
		_ = started.Close()
		return nil, err
	}
	c.Nodes = started.Nodes
	return c, nil
}

// Attach starts a front end over nodes that are already running — the
// distributor with the controller co-located (§2, §3.1) and every optional
// endpoint Options names. It is the one place a front end is wired:
// Launch, cmd/distributor and a promoted backup all come through here. On
// error everything already started is shut down.
func Attach(opts Options) (cluster *Cluster, err error) {
	spec := opts.Spec
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	for _, n := range spec.Nodes {
		if n.Addr == "" || n.BrokerAddr == "" {
			return nil, fmt.Errorf("core: node %s needs both addr and brokerAddr", n.ID)
		}
	}
	c := &Cluster{Spec: spec, Table: opts.Table, Nodes: map[config.NodeID]*NodeHandle{}}
	defer func() {
		if err != nil {
			_ = c.Close()
		}
	}()
	if c.Table == nil {
		c.Table = urltable.New(urltable.Options{})
	}
	// Telemetry and the journal are always on: both are fixed memory and
	// their record paths allocate nothing.
	c.Telemetry = telemetry.New(telemetry.Options{Node: "distributor"})
	c.Journal = journal.New(journal.Options{Node: "front"})
	// Injected faults become journal events too, so a chaos bundle shows
	// the fault alongside the failover it provoked (nil-safe).
	opts.Faults.SetJournal(c.Journal)
	if opts.CacheBytes > 0 {
		copts := opts.CacheOptions
		copts.MaxBytes = opts.CacheBytes
		c.Cache = respcache.New(copts)
	}

	c.Distributor, err = distributor.New(distributor.Options{
		Table:          c.Table,
		Cluster:        spec,
		Picker:         opts.Picker,
		PreforkPerNode: opts.PreforkPerNode,
		Faults:         opts.Faults,
		Cache:          c.Cache,
		Telemetry:      c.Telemetry,
		Journal:        c.Journal,
		Admission:      opts.Admission,
		AccessLog:      opts.AccessLog,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if c.FrontAddr, err = c.Distributor.Start(orEphemeral(opts.Listen)); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	c.Controller = mgmt.NewController(c.Table)
	c.Controller.SetJournal(c.Journal)
	c.Controller.SetTelemetry(c.Telemetry)
	if c.Cache != nil {
		// the controller purges this cache synchronously on every
		// content/placement mutation — the coherence half of the design
		c.Controller.SetCache(c.Cache)
	}
	for _, n := range spec.Nodes {
		if err = c.Controller.AddNode(n.ID, n.BrokerAddr); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}

	balOpts := opts.BalanceOptions
	if balOpts == (loadbal.PlannerOptions{}) {
		balOpts = loadbal.DefaultPlannerOptions()
	}
	c.Balancer = mgmt.NewAutoBalancer(c.Controller, c.Distributor.Tracker(), spec.Nodes, balOpts, opts.BalanceInterval)
	c.Balancer.SetOnLoads(c.Distributor.UpdateLoads)
	if opts.BalanceInterval > 0 {
		c.Balancer.Start()
	}

	if opts.ConsoleAddr != "" {
		c.Console = mgmt.NewConsoleServer(c.Controller, c.Balancer)
		c.Console.SetSiteLoader(c.consoleSiteLoader)
		if c.ConsoleAddr, err = c.Console.Start(opts.ConsoleAddr); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}

	if opts.MonitorInterval > 0 {
		nodeNames := make([]string, 0, len(spec.Nodes))
		for _, n := range spec.Nodes {
			nodeNames = append(nodeNames, string(n.ID))
		}
		prober := func(node string) (monitor.NodeStatus, error) {
			return c.Controller.Status(config.NodeID(node))
		}
		c.Monitor = monitor.NewWatcher(nodeNames, prober, opts.MonitorInterval,
			func(ev monitor.Event) {
				c.Distributor.SetAvailable(config.NodeID(ev.Node), ev.Up)
			})
		c.Monitor.SetFaults(opts.Faults)
		c.Monitor.SetJournal(c.Journal)
		c.Monitor.Start()
	}

	if opts.FlightDir != "" {
		c.Recorder, err = journal.NewRecorder(journal.RecorderOptions{
			Journal: c.Journal,
			Dir:     opts.FlightDir,
			Budgets: opts.FlightBudgets,
			Stats:   c.classStats,
		})
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		c.Recorder.AddSource("telemetry", func() any { return c.Telemetry.Report(32) })
		// The URL table marshals to its one serialized form: the placement
		// the cluster was running when the incident fired, readable by
		// urltable.Load.
		c.Recorder.AddSource("placement", func() any { return c.Table })
		c.Controller.SetDumper(c.Recorder.Dump)
		c.Recorder.Start()
	}

	if opts.AdminAddr != "" {
		c.Admin = telemetry.NewAdmin(c.Telemetry)
		if c.AdminAddr, err = c.Admin.Start(opts.AdminAddr); err != nil {
			return nil, fmt.Errorf("core: admin: %w", err)
		}
	}

	if opts.ReplAddr != "" {
		c.Repl = mgmt.NewReplicationServer(c.Table, spec, replInterval)
		if c.ReplAddr, err = c.Repl.Start(opts.ReplAddr); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	return c, nil
}

// classStats adapts the telemetry registry's per-class counters to the
// flight recorder's burn-rate watcher.
func (c *Cluster) classStats() []journal.ClassStats {
	snap := c.Telemetry.Registry().Snapshot()
	names := make([]string, 0, len(snap.Classes))
	for name := range snap.Classes {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]journal.ClassStats, 0, len(names))
	for _, name := range names {
		cs := snap.Classes[name]
		out = append(out, journal.ClassStats{
			Class:    name,
			Requests: cs.Requests,
			Errors:   cs.Errors,
			P99Ns:    int64(cs.Latency.Quantile(0.99)),
		})
	}
	return out
}

// PlaceSite loads a site through the controller using the placement
// policy, so every object is stored on its nodes (via store-file agents)
// and registered in the URL table.
func (c *Cluster) PlaceSite(site *content.Site, place PlacementFunc) error {
	if place == nil {
		place = PlaceAll
	}
	for _, obj := range site.Objects() {
		nodes := place(obj, c.Spec)
		if len(nodes) == 0 {
			return fmt.Errorf("core: placement returned no nodes for %s", obj.Path)
		}
		var data []byte
		if !obj.Class.Dynamic() {
			data = backend.SynthesizeBody(obj.Path, obj.Size)
		} else {
			// Dynamic objects need a placeholder file (the "script")
			// so stores and agents can manage them; the registered
			// handlers produce the responses.
			data = []byte("#!script " + obj.Path + "\n")
		}
		if err := c.Controller.Insert(obj, data, nodes...); err != nil {
			return fmt.Errorf("core: placing %s: %w", obj.Path, err)
		}
	}
	return nil
}

// consoleSiteLoader backs the console's loadsite command.
func (c *Cluster) consoleSiteLoader(req mgmt.ConsoleRequest) (string, error) {
	objects := req.Objects
	if objects <= 0 {
		objects = 500
	}
	kind := workload.KindA
	if req.Workload == "B" || req.Workload == "b" {
		kind = workload.KindB
	}
	site, err := workload.BuildSite(kind, objects, req.Seed+1)
	if err != nil {
		return "", err
	}
	var place PlacementFunc
	switch req.Policy {
	case "", "type":
		place = PlaceByType()
	case "all":
		place = PlaceAll
	case "rr":
		place = NewPlaceRoundRobin().Place
	default:
		return "", fmt.Errorf("core: unknown policy %q", req.Policy)
	}
	if err := c.PlaceSite(site, place); err != nil {
		return "", err
	}
	return fmt.Sprintf("placed %d objects (workload %s, policy %s)",
		site.Len(), kind, req.Policy), nil
}

// Get issues one HTTP/1.1 request through the front end — the quickstart
// helper for demos and tests.
func (c *Cluster) Get(path string) (*httpx.Response, error) {
	timeout := c.GetTimeout
	if timeout <= 0 {
		timeout = DefaultGetTimeout
	}
	conn, err := net.DialTimeout("tcp", c.FrontAddr, timeout)
	if err != nil {
		return nil, fmt.Errorf("core: dialing front end: %w", err)
	}
	defer func() { _ = conn.Close() }()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, fmt.Errorf("core: arming deadline: %w", err)
	}
	req := &httpx.Request{
		Method: "GET",
		Target: path,
		Path:   path,
		Proto:  httpx.Proto11,
		Header: httpx.NewHeader("Host", "cluster", "Connection", "close"),
	}
	if err := httpx.WriteRequest(conn, req); err != nil {
		return nil, fmt.Errorf("core: sending request: %w", err)
	}
	resp, err := httpx.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		return nil, fmt.Errorf("core: reading response: %w", err)
	}
	return resp, nil
}

// Close shuts every component down, last-started first: the front end's
// endpoints, the controller's broker connections, the distributor, then
// the nodes Launch started.
func (c *Cluster) Close() error {
	var errs []error
	if c.Repl != nil {
		errs = append(errs, c.Repl.Close())
	}
	if c.Admin != nil {
		errs = append(errs, c.Admin.Close())
	}
	if c.Recorder != nil {
		c.Recorder.Close()
	}
	if c.Monitor != nil {
		c.Monitor.Close()
	}
	if c.Console != nil {
		errs = append(errs, c.Console.Close())
	}
	if c.Balancer != nil {
		c.Balancer.Close()
	}
	if c.Controller != nil {
		for _, id := range c.Controller.Nodes() {
			c.Controller.RemoveNode(id)
		}
	}
	if c.Distributor != nil {
		errs = append(errs, c.Distributor.Close())
	}
	for _, nh := range c.Nodes {
		errs = append(errs, nh.Close())
	}
	return errors.Join(errs...)
}

// Summary formats a short status block for demos.
func (c *Cluster) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "front end: %s\n", c.FrontAddr)
	fmt.Fprintf(&b, "URL table: %d entries, %d KB\n", c.Table.Len(), c.Table.MemoryBytes()/1024)
	for _, id := range c.Controller.Nodes() {
		nh := c.Nodes[id]
		if nh == nil {
			continue
		}
		st := nh.Server.PageCacheStats()
		fmt.Fprintf(&b, "node %-8s %4d MHz %4d MB  store %5d objs  cache hit %5.1f%%\n",
			id, nh.Spec.CPUMHz, nh.Spec.MemoryMB,
			len(nh.Store.List()), 100*st.HitRate())
	}
	return b.String()
}
