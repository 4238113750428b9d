// Command distributor runs the cluster front end: the content-aware
// distributor, the management controller with its console endpoint, the
// §3.3 auto-balancer, and optionally a replication server for a backup
// distributor (or backup mode itself). It parses flags into core.Options;
// core.Attach does the wiring, for the primary and for a promoted backup
// alike.
//
// The cluster is described by a JSON file (config.ClusterSpec) whose nodes
// carry addr and brokerAddr of running cmd/backend processes:
//
//	distributor -cluster cluster.json -listen :8080 -console :7070 -repl :6060
//	distributor -backup-of host:6060 -listen :8080   # standby mode
//
// A -backup-of process honours every other flag once it takes over: the
// successor is the same front end, serving the replicated table and spec.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registered on the -pprof server's mux only
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"webcluster/internal/admission"
	"webcluster/internal/config"
	"webcluster/internal/core"
	"webcluster/internal/distributor"
	"webcluster/internal/journal"
	"webcluster/internal/respcache"
	"webcluster/internal/urltable"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "distributor:", err)
		os.Exit(1)
	}
}

// run turns the flags into core.Options and hands them to the primary or
// the backup loop.
func run() error {
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
		// Process-lifetime by design: the pprof listener dies with main.
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
		return err
	}
	opts := core.Options{
		Listen:          *listen,
		ConsoleAddr:     *consoleAddr,
		ReplAddr:        *replAddr,
		AdminAddr:       *adminAddr,
		PreforkPerNode:  *prefork,
		BalanceInterval: *balanceEvery,
		CacheBytes:      *cacheMB << 20,
		CacheOptions:    respcache.Options{FreshTTL: *cacheFresh, StaleTTL: *cacheStale},
		JournalSize:     *journalSize,
		FlightDir:       *flightDir,
		FlightWindow:    *flightWindow,
		FlightBudgets:   budgets,
	}
	if *slowMs > 0 {
		opts.TelemetryOptions.SlowThreshold = *slowMs
		opts.TelemetryOptions.SlowLog = os.Stderr
	}
	if *admit {
		opts.Admission = &admission.Options{MaxConcurrent: *admitMax, QueueTarget: *admitTarget}
	}
	if *accessLog != "" {
		f, ferr := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if ferr != nil {
			return fmt.Errorf("opening access log: %w", ferr)
		}
		defer func() { _ = f.Close() }()
		opts.AccessLog = f
		fmt.Printf("access log → %s\n", *accessLog)
	}
	if *backupOf != "" {
		return runBackup(opts, *backupOf)
	}
	return runPrimary(opts, *clusterFile, *tableFile)
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

// runPrimary loads the spec and the table checkpoint, attaches the front
// end and serves until the signal, then checkpoints the table.
func runPrimary(opts core.Options, clusterFile, tableFile string) error {
	if clusterFile == "" {
		return fmt.Errorf("-cluster is required (or use -backup-of)")
	}
	spec, err := config.Load(clusterFile)
	if err != nil {
		return err
	}
	opts.Spec = spec
	if tableFile != "" {
		if _, statErr := os.Stat(tableFile); statErr == nil {
			opts.Table, err = urltable.LoadFile(tableFile, urltable.Options{})
			if err != nil {
				return err
			}
			fmt.Printf("restored URL table from %s (%d entries)\n", tableFile, opts.Table.Len())
		}
	}
	sig := signals()
	cluster, err := core.Attach(opts)
	if err != nil {
		return err
	}
	announce(cluster, opts)
	serve(cluster, sig, tableFile)
	return nil
}

// serve holds the front end until the signal, checkpoints the URL table
// when given a file for it, and shuts everything down.
func serve(c *core.Cluster, sig <-chan os.Signal, tableFile string) {
	defer func() { _ = c.Close() }()
	if c.Recorder != nil {
		// Turn a crash of this goroutine into a flight bundle before the
		// panic surfaces.
		defer c.Recorder.RecoverAndDump()
	}
	<-sig
	if tableFile != "" {
		if err := c.Table.SaveFile(tableFile); err != nil {
			fmt.Fprintln(os.Stderr, "saving table:", err)
		} else {
			fmt.Printf("checkpointed URL table to %s (%d entries)\n", tableFile, c.Table.Len())
		}
	}
	fmt.Println("shutting down")
}

// runBackup monitors a primary and, when it falls silent, attaches the
// same front end the flags describe over the replicated table and spec,
// on the primary's service address.
func runBackup(opts core.Options, primaryRepl string) error {
	fmt.Printf("backup mode: monitoring %s, will bind %s on takeover\n", primaryRepl, opts.Listen)
	sig := signals()
	var successor *core.Cluster
	promote := func(table *urltable.Table, spec config.ClusterSpec) (*distributor.Distributor, error) {
		opts.Table, opts.Spec = table, spec
		var err error
		// The service address may need a beat to free after the primary
		// dies; any other failure is final.
		for i := 0; i < 100; i++ {
			successor, err = core.Attach(opts)
			if !errors.Is(err, syscall.EADDRINUSE) {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if err != nil {
			return nil, err
		}
		fmt.Printf("TOOK OVER: serving at %s\n", successor.FrontAddr)
		announce(successor, opts)
		return successor.Distributor, nil
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
		d, err := backup.Promoted(500 * time.Millisecond)
		if err != nil {
			return err
		}
		if d != nil {
			// Promoted returned after promote did, so successor is set.
			serve(successor, sig, "")
			return nil
		}
	}
}

func signals() <-chan os.Signal {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	return sig
}

// announce prints the start-up lines. The addresses in them are the
// contract with whoever spawned the process: bench/ and the deployment
// test read the front, console and admin listeners from here.
func announce(c *core.Cluster, opts core.Options) {
	if c.Cache != nil {
		fmt.Printf("response cache: %d MiB, fresh %v, stale window %v\n",
			opts.CacheBytes>>20, opts.CacheOptions.FreshTTL, opts.CacheOptions.StaleTTL)
	}
	if opts.Admission != nil {
		fmt.Println("admission control: SLO-class shedding enabled")
	}
	fmt.Printf("distributor serving at %s over %d nodes\n", c.FrontAddr, len(c.Spec.Nodes))
	if c.Recorder != nil {
		fmt.Printf("flight recorder → %s\n", opts.FlightDir)
	}
	if opts.BalanceInterval > 0 {
		fmt.Printf("auto-balancer running every %v\n", opts.BalanceInterval)
	}
	if c.Console != nil {
		fmt.Printf("console at %s\n", c.ConsoleAddr)
	}
	if c.Admin != nil {
		fmt.Printf("admin at http://%s/metrics\n", c.AdminAddr)
	}
	if c.Repl != nil {
		fmt.Printf("replicating state at %s\n", c.ReplAddr)
	}
}
