// Command distributor runs the cluster front end: the content-aware
// distributor, the management controller with its console endpoint, the
// §3.3 auto-balancer, and optionally a replication server for a backup
// distributor (or backup mode itself).
//
// The cluster is described by a JSON file (config.ClusterSpec) whose nodes
// carry addr and brokerAddr of running cmd/backend processes:
//
//	distributor -cluster cluster.json -listen :8080 -console :7070 -repl :6060
//	distributor -backup-of host:6060 -listen :8080   # standby mode
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registered on the -pprof server's mux only
	"os"
	"os/signal"
	"syscall"
	"time"

	"sort"
	"strconv"
	"strings"

	"webcluster/internal/admission"
	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/core"
	"webcluster/internal/distributor"
	"webcluster/internal/journal"
	"webcluster/internal/loadbal"
	"webcluster/internal/mgmt"
	"webcluster/internal/respcache"
	"webcluster/internal/telemetry"
	"webcluster/internal/urltable"
	"webcluster/internal/workload"
)

func main() {
	clusterFile := flag.String("cluster", "", "cluster spec JSON (required unless -backup-of)")
	listen := flag.String("listen", "127.0.0.1:8080", "client-facing listen address")
	consoleAddr := flag.String("console", "", "management console listen address")
	replAddr := flag.String("repl", "", "state-replication listen address (for backups)")
	backupOf := flag.String("backup-of", "", "run as backup of the primary replicating at this address")
	prefork := flag.Int("prefork", 4, "pre-forked connections per node")
	balanceEvery := flag.Duration("balance", 0, "auto-balance interval (0 = off)")
	cacheMB := flag.Int64("cache-mb", 0, "front-end response cache budget in MiB (0 = off)")
	cacheFresh := flag.Duration("cache-fresh", 5*time.Second, "response-cache freshness TTL")
	cacheStale := flag.Duration("cache-stale", 30*time.Second, "response-cache stale-on-error window")
	tableFile := flag.String("table", "", "URL-table checkpoint: loaded at start if present, saved on shutdown")
	accessLog := flag.String("accesslog", "", "append Common Log Format access log to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6061); empty = off")
	adminAddr := flag.String("admin", "", "serve /metrics, /debug/traces, /debug/vars, /healthz on this address; empty = off")
	slowMs := flag.Duration("slow", 0, "log requests slower than this to stderr (0 = off)")
	admit := flag.Bool("admit", false, "enable SLO-class admission control (overload shedding + deadline propagation)")
	admitMax := flag.Int("admit-max", 0, "admission concurrency budget across classes (0 = default 256)")
	admitTarget := flag.Duration("admit-target", 0, "admission queue-delay target before shedding engages (0 = default 5ms)")
	journalSize := flag.Int("journal-size", 0, "decision-journal capacity in events (0 = default 4096)")
	flightDir := flag.String("flight-dir", "", "write flight-recorder bundles to this directory; empty = recorder off")
	flightWindow := flag.Duration("flight-window", 0, "journal window a flight bundle reaches back (0 = default 30s)")
	flightBudgets := flag.String("flight-budgets", "", "SLO burn-rate triggers as class:errRate:p99 (p99 a duration, either limit may be empty), comma-separated, e.g. html:0.05:250ms")
	flag.Parse()
	if *pprofAddr != "" {
		//distlint:ignore leakcheck pprof listener is process-lifetime by design; it dies with main
		go func() {
			// DefaultServeMux carries the pprof handlers from the blank
			// import; nothing else registers on it in this process.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "distributor: pprof:", err)
			}
		}()
		fmt.Printf("pprof at http://%s/debug/pprof/\n", *pprofAddr)
	}
	budgets, err := parseBudgets(*flightBudgets)
	if err != nil {
		fmt.Fprintln(os.Stderr, "distributor:", err)
		os.Exit(1)
	}
	cacheOpts := cacheConfig{mb: *cacheMB, fresh: *cacheFresh, stale: *cacheStale}
	telCfg := telConfig{
		admin: *adminAddr, slow: *slowMs,
		journalSize: *journalSize,
		flightDir:   *flightDir, flightWindow: *flightWindow, flightBudgets: budgets,
	}
	var admCfg *admission.Options
	if *admit {
		admCfg = &admission.Options{MaxConcurrent: *admitMax, QueueTarget: *admitTarget}
	}
	if err := run(*clusterFile, *listen, *consoleAddr, *replAddr, *backupOf, *tableFile, *accessLog, *prefork, *balanceEvery, cacheOpts, telCfg, admCfg); err != nil {
		fmt.Fprintln(os.Stderr, "distributor:", err)
		os.Exit(1)
	}
}

// cacheConfig carries the -cache-* flags.
type cacheConfig struct {
	mb           int64
	fresh, stale time.Duration
}

// telConfig carries the observability flags.
type telConfig struct {
	admin         string
	slow          time.Duration
	journalSize   int
	flightDir     string
	flightWindow  time.Duration
	flightBudgets []journal.Budget
}

// parseBudgets decodes the -flight-budgets flag: comma-separated
// class:errRate:p99 triples where either limit may be left empty.
func parseBudgets(s string) ([]journal.Budget, error) {
	if s == "" {
		return nil, nil
	}
	var out []journal.Budget
	for _, item := range strings.Split(s, ",") {
		parts := strings.SplitN(item, ":", 3)
		if len(parts) != 3 || parts[0] == "" {
			return nil, fmt.Errorf("bad -flight-budgets entry %q (want class:errRate:p99)", item)
		}
		b := journal.Budget{Class: parts[0]}
		if parts[1] != "" {
			rate, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				return nil, fmt.Errorf("bad error rate in -flight-budgets entry %q: %w", item, err)
			}
			b.MaxErrorRate = rate
		}
		if parts[2] != "" {
			p99, err := time.ParseDuration(parts[2])
			if err != nil {
				return nil, fmt.Errorf("bad p99 in -flight-budgets entry %q: %w", item, err)
			}
			b.MaxP99Ns = int64(p99)
		}
		out = append(out, b)
	}
	return out, nil
}

func run(clusterFile, listen, consoleAddr, replAddr, backupOf, tableFile, accessLog string, prefork int, balanceEvery time.Duration, cacheCfg cacheConfig, telCfg telConfig, admCfg *admission.Options) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if backupOf != "" {
		return runBackup(backupOf, listen, sig)
	}
	if clusterFile == "" {
		return fmt.Errorf("-cluster is required (or use -backup-of)")
	}
	spec, err := config.Load(clusterFile)
	if err != nil {
		return err
	}

	table := urltable.New(urltable.Options{})
	if tableFile != "" {
		if _, statErr := os.Stat(tableFile); statErr == nil {
			restored, lerr := urltable.LoadFile(tableFile, urltable.Options{})
			if lerr != nil {
				return lerr
			}
			table = restored
			fmt.Printf("restored URL table from %s (%d entries)\n", tableFile, table.Len())
		}
	}
	var logWriter *os.File
	if accessLog != "" {
		f, ferr := os.OpenFile(accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if ferr != nil {
			return fmt.Errorf("opening access log: %w", ferr)
		}
		logWriter = f
		defer func() { _ = f.Close() }()
		fmt.Printf("access log → %s\n", accessLog)
	}
	telOpts := telemetry.Options{Node: "distributor"}
	if telCfg.slow > 0 {
		telOpts.SlowThreshold = telCfg.slow
		telOpts.SlowLog = os.Stderr
	}
	tel := telemetry.New(telOpts)
	jnl := journal.New(journal.Options{Node: "front", Size: telCfg.journalSize})
	distOpts := distributor.Options{
		Table:          table,
		Cluster:        spec,
		PreforkPerNode: prefork,
		Telemetry:      tel,
		Journal:        jnl,
	}
	if logWriter != nil {
		distOpts.AccessLog = logWriter
	}
	var respCache *respcache.Cache
	if cacheCfg.mb > 0 {
		respCache = respcache.New(respcache.Options{
			MaxBytes: cacheCfg.mb << 20,
			FreshTTL: cacheCfg.fresh,
			StaleTTL: cacheCfg.stale,
		})
		distOpts.Cache = respCache
		fmt.Printf("response cache: %d MiB, fresh %v, stale window %v\n",
			cacheCfg.mb, cacheCfg.fresh, cacheCfg.stale)
	}
	if admCfg != nil {
		distOpts.Admission = admCfg
		fmt.Println("admission control: SLO-class shedding enabled")
	}
	dist, err := distributor.New(distOpts)
	if err != nil {
		return err
	}
	front, err := dist.Start(listen)
	if err != nil {
		return err
	}
	defer func() { _ = dist.Close() }()
	fmt.Printf("distributor serving at %s over %d nodes\n", front, len(spec.Nodes))

	controller := mgmt.NewController(table)
	controller.SetTelemetry(tel)
	controller.SetJournal(jnl)
	if telCfg.flightDir != "" {
		rec, rerr := journal.NewRecorder(journal.RecorderOptions{
			Journal: jnl,
			Dir:     telCfg.flightDir,
			Window:  telCfg.flightWindow,
			Budgets: telCfg.flightBudgets,
			Stats:   func() []journal.ClassStats { return classStats(tel) },
		})
		if rerr != nil {
			return rerr
		}
		rec.AddSource("telemetry", func() any { return tel.Report(32) })
		rec.AddSource("placement", func() any { return placementState(table) })
		controller.SetDumper(rec.Dump)
		rec.Start()
		defer rec.Close()
		// Turn a crash of this goroutine into a flight bundle before the
		// panic surfaces.
		defer rec.RecoverAndDump()
		fmt.Printf("flight recorder → %s\n", telCfg.flightDir)
	}
	if respCache != nil {
		// management mutations purge the front-end cache synchronously
		controller.SetCache(respCache)
	}
	for _, n := range spec.Nodes {
		if n.BrokerAddr == "" {
			return fmt.Errorf("node %s has no brokerAddr", n.ID)
		}
		if err := controller.AddNode(n.ID, n.BrokerAddr); err != nil {
			return err
		}
	}

	balancer := mgmt.NewAutoBalancer(controller, dist.Tracker(), spec.Nodes,
		loadbal.DefaultPlannerOptions(), balanceEvery)
	if balanceEvery > 0 {
		balancer.Start()
		defer balancer.Close()
		fmt.Printf("auto-balancer running every %v\n", balanceEvery)
	}

	if consoleAddr != "" {
		console := mgmt.NewConsoleServer(controller, balancer)
		console.SetSiteLoader(siteLoader(controller, spec))
		caddr, err := console.Start(consoleAddr)
		if err != nil {
			return err
		}
		defer func() { _ = console.Close() }()
		fmt.Printf("console at %s\n", caddr)
	}

	if telCfg.admin != "" {
		admin := telemetry.NewAdmin(tel)
		admin.SetJournal(jnl)
		aaddr, aerr := admin.Start(telCfg.admin)
		if aerr != nil {
			return aerr
		}
		defer func() { _ = admin.Close() }()
		fmt.Printf("admin at http://%s/metrics\n", aaddr)
	}

	if replAddr != "" {
		repl := distributor.NewReplicationServer(dist, 200*time.Millisecond)
		raddr, err := repl.Start(replAddr)
		if err != nil {
			return err
		}
		defer func() { _ = repl.Close() }()
		fmt.Printf("replicating state at %s\n", raddr)
	}

	<-sig
	if tableFile != "" {
		if err := table.SaveFile(tableFile); err != nil {
			fmt.Fprintln(os.Stderr, "saving table:", err)
		} else {
			fmt.Printf("checkpointed URL table to %s (%d entries)\n", tableFile, table.Len())
		}
	}
	fmt.Println("shutting down")
	return nil
}

// runBackup monitors a primary and takes over its service address.
func runBackup(primaryRepl, listen string, sig chan os.Signal) error {
	fmt.Printf("backup mode: monitoring %s, will bind %s on takeover\n", primaryRepl, listen)
	promote := func(table *urltable.Table, spec config.ClusterSpec) (*distributor.Distributor, error) {
		d, err := distributor.New(distributor.Options{Table: table, Cluster: spec})
		if err != nil {
			return nil, err
		}
		var addr string
		for i := 0; i < 100; i++ {
			addr, err = d.Start(listen)
			if err == nil {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if err != nil {
			return nil, err
		}
		fmt.Printf("TOOK OVER: serving at %s\n", addr)
		return d, nil
	}
	backup := distributor.NewBackup(primaryRepl, time.Second, promote)
	if err := backup.Start(); err != nil {
		return err
	}
	defer backup.Stop()

	for {
		select {
		case <-sig:
			fmt.Println("shutting down")
			return nil
		default:
		}
		successor, err := backup.Promoted(500 * time.Millisecond)
		if err != nil {
			return err
		}
		if successor != nil {
			defer func() { _ = successor.Close() }()
			<-sig
			fmt.Println("shutting down")
			return nil
		}
	}
}

// siteLoader backs the console's loadsite command: generate a workload
// site and place it by policy through the controller.
func siteLoader(controller *mgmt.Controller, spec config.ClusterSpec) mgmt.SiteLoader {
	return func(req mgmt.ConsoleRequest) (string, error) {
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
		var place core.PlacementFunc
		switch req.Policy {
		case "", "type":
			place = core.PlaceByType()
		case "all":
			place = core.PlaceAll
		case "rr":
			place = core.NewPlaceRoundRobin().Place
		default:
			return "", fmt.Errorf("unknown policy %q", req.Policy)
		}
		for _, obj := range site.Objects() {
			nodes := place(obj, spec)
			var data []byte
			if obj.Class.Dynamic() {
				data = []byte("#!script " + obj.Path + "\n")
			} else {
				data = synthesize(obj)
			}
			if err := controller.Insert(obj, data, nodes...); err != nil {
				return "", fmt.Errorf("placing %s: %w", obj.Path, err)
			}
		}
		return fmt.Sprintf("placed %d objects (workload %s, policy %s)",
			site.Len(), kind, req.Policy), nil
	}
}

// classStats adapts the telemetry registry's per-class counters to the
// flight recorder's burn-rate watcher.
func classStats(tel *telemetry.Telemetry) []journal.ClassStats {
	snap := tel.Registry().Snapshot()
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

// placementState captures the URL table for flight bundles.
func placementState(table *urltable.Table) any {
	type placement struct {
		Path      string   `json:"path"`
		Locations []string `json:"locations"`
		Hits      int64    `json:"hits"`
		Pinned    bool     `json:"pinned,omitempty"`
		Priority  int      `json:"priority,omitempty"`
	}
	var out []placement
	table.Walk(func(r urltable.Record) {
		locs := make([]string, len(r.Locations))
		for i, id := range r.Locations {
			locs[i] = string(id)
		}
		out = append(out, placement{
			Path:      r.Path,
			Locations: locs,
			Hits:      r.Hits,
			Pinned:    r.Pinned,
			Priority:  r.Priority,
		})
	})
	return out
}

// synthesize produces deterministic object bytes.
func synthesize(obj content.Object) []byte {
	body := make([]byte, obj.Size)
	pattern := []byte(obj.Path + "\n")
	for off := 0; off < len(body); off += len(pattern) {
		copy(body[off:], pattern)
	}
	return body
}
