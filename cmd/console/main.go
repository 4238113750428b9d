// Command console is the remote console (§3.2): it connects to the
// controller's console endpoint and performs management operations against
// the single-system-image document tree.
//
// Usage:
//
//	console -addr host:7070 tree
//	console -addr host:7070 insert /docs/a.html -size 4096 -nodes n1,n2
//	console -addr host:7070 replicate /docs/a.html -target n3
//	console -addr host:7070 offload /docs/a.html -node n1
//	console -addr host:7070 rename /docs/a.html /docs/b.html
//	console -addr host:7070 delete /docs/b.html
//	console -addr host:7070 priority /docs/b.html -p 2
//	console -addr host:7070 status n1
//	console -addr host:7070 loadsite -objects 500 -workload B -policy type
//	console -addr host:7070 balance
//	console -addr host:7070 purge /docs/b.html    # or: purge '*'
//	console -addr host:7070 cache-stats
//	console -addr host:7070 stats                 # cluster-wide per-class latency/throughput
//	console -addr host:7070 traces -limit 10      # slowest recent requests across all nodes
//	console -addr host:7070 journal -limit 50     # merged cluster decision journal: every mutation and why
//	console -addr host:7070 journal -follow       # tail it live
//	console -addr host:7070 journal -node n1      # one node's journal only
//	console -addr host:7070 explain /docs/a.html  # where is it, which decision placed it
//	console -addr host:7070 dump "why is n2 slow" # snapshot a flight-recorder bundle
//
// Commands and replies travel as length-prefixed frames (internal/mgmt
// wire.go): a JSON envelope, then — for insert and update — the object's
// bytes raw, not encoded into the JSON. A distributor built before that
// format refuses this console (and the reverse) with an error naming the
// protocol mismatch.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/journal"
	"webcluster/internal/mgmt"
	"webcluster/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "console endpoint of the controller")
	flag.Parse()
	if err := run(*addr, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "console:", err)
		os.Exit(1)
	}
}

func run(addr string, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("no command; see -h for usage")
	}
	// Sub-command flags come after the command word and its positional
	// arguments, so each command parses its own FlagSet.
	sub := flag.NewFlagSet(args[0], flag.ContinueOnError)
	size := sub.Int64("size", 0, "object size for insert")
	prio := sub.Int("p", 0, "priority value")
	nodesCSV := sub.String("nodes", "", "comma-separated node list")
	source := sub.String("source", "", "replication source node")
	target := sub.String("target", "", "replication target node")
	node := sub.String("node", "", "node for offload")
	objects := sub.Int("objects", 500, "loadsite: object count")
	seed := sub.Int64("seed", 1, "loadsite: seed")
	wl := sub.String("workload", "A", "loadsite: workload A|B")
	policy := sub.String("policy", "type", "loadsite: placement policy type (partition by content type) or all (every node)")
	limit := sub.Int("limit", 0, "traces/journal/explain: max entries to show (0 = server default)")
	follow := sub.Bool("follow", false, "journal: poll and print new events until interrupted")

	// Split positionals (up to the first -flag) from the flag tail.
	rest := args[1:]
	var pos []string
	for len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
		pos = append(pos, rest[0])
		rest = rest[1:]
	}
	if err := sub.Parse(rest); err != nil {
		return err
	}
	console, err := mgmt.DialConsole(addr)
	if err != nil {
		return err
	}
	defer func() { _ = console.Close() }()

	var nodeIDs []config.NodeID
	if *nodesCSV != "" {
		for _, s := range strings.Split(*nodesCSV, ",") {
			nodeIDs = append(nodeIDs, config.NodeID(strings.TrimSpace(s)))
		}
	}

	req := mgmt.ConsoleRequest{Op: args[0]}
	switch args[0] {
	case "tree", "nodes", "balance", "cache-stats", "stats":
	case "traces":
		req.Limit = *limit
	case "journal":
		req.Limit = *limit
		req.Node = config.NodeID(*node)
	case "dump":
		// Optional positional: the reason recorded in the bundle.
		if len(pos) > 0 {
			req.Path = strings.Join(pos, " ")
		}
	case "explain":
		if len(pos) < 1 {
			return fmt.Errorf("explain needs a path")
		}
		req.Path, req.Limit = pos[0], *limit
	case "purge":
		if len(pos) < 1 {
			return fmt.Errorf("purge needs a path (or *)")
		}
		req.Path = pos[0]
	case "insert":
		if len(pos) < 1 {
			return fmt.Errorf("insert needs a path")
		}
		req.Path, req.Size, req.Priority, req.Nodes = pos[0], *size, *prio, nodeIDs
		body := strings.Repeat(pos[0]+"\n", int(*size/int64(len(pos[0])+1))+1)
		req.Data = []byte(body)[:*size]
	case "delete":
		if len(pos) < 1 {
			return fmt.Errorf("delete needs a path")
		}
		req.Path = pos[0]
	case "rename":
		if len(pos) < 2 {
			return fmt.Errorf("rename needs old and new paths")
		}
		req.Path, req.NewPath = pos[0], pos[1]
	case "replicate":
		if len(pos) < 1 {
			return fmt.Errorf("replicate needs a path")
		}
		req.Path, req.Source, req.Target = pos[0], config.NodeID(*source), config.NodeID(*target)
	case "offload":
		if len(pos) < 1 {
			return fmt.Errorf("offload needs a path")
		}
		req.Path, req.Node = pos[0], config.NodeID(*node)
	case "assign":
		if len(pos) < 1 {
			return fmt.Errorf("assign needs a path")
		}
		req.Path, req.Nodes = pos[0], nodeIDs
	case "priority":
		if len(pos) < 1 {
			return fmt.Errorf("priority needs a path")
		}
		req.Path, req.Priority = pos[0], *prio
	case "pin", "unpin", "verify":
		if len(pos) < 1 {
			return fmt.Errorf("%s needs a path", args[0])
		}
		req.Path = pos[0]
	case "update":
		if len(pos) < 1 {
			return fmt.Errorf("update needs a path")
		}
		req.Path = pos[0]
		body := strings.Repeat(pos[0]+"\n", int(*size/int64(len(pos[0])+1))+1)
		req.Data = []byte(body)[:*size]
	case "status":
		if len(pos) < 1 {
			return fmt.Errorf("status needs a node")
		}
		req.Node = config.NodeID(pos[0])
	case "loadsite":
		req.Objects, req.Seed, req.Workload, req.Policy = *objects, *seed, *wl, *policy
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}

	if args[0] == "journal" && *follow {
		return followJournal(console, req)
	}

	resp, err := console.Do(req)
	if err != nil {
		return err
	}
	printed := false
	if resp.Message != "" {
		fmt.Println(resp.Message)
		printed = true
	}
	switch {
	case resp.Stats != nil:
		printStats(resp.Stats)
	case resp.Explain != nil:
		printExplain(resp.Explain)
	case resp.Journal != nil:
		printJournal(resp.Journal)
	case resp.Traces != nil:
		printTraces(resp.Traces)
	case resp.Cache != nil:
		cs := resp.Cache
		fmt.Printf("entries=%d bytes=%d/%d\n", cs.Entries, cs.Bytes, cs.MaxBytes)
		fmt.Printf("hits=%d misses=%d revalidated=%d notModified=%d\n",
			cs.Hits, cs.Misses, cs.Revalidated, cs.NotModified)
		fmt.Printf("coalesced=%d fills=%d rejected=%d evictions=%d\n",
			cs.Coalesced, cs.Fills, cs.Rejected, cs.Evictions)
		fmt.Printf("staleServed=%d invalidations=%d\n", cs.StaleServed, cs.Invalidations)
	case resp.Tree != "":
		fmt.Print(resp.Tree)
	case resp.Status != nil:
		st := resp.Status
		fmt.Printf("node %s: active=%d served=%d store=%d objs / %d bytes cacheHit=%.1f%%\n",
			st.Node, st.ActiveRequests, st.RequestsServed,
			st.StoreObjects, st.StoreBytes, 100*st.CacheHitRate)
		if st.LatencyP50Ns > 0 || st.LatencyP99Ns > 0 {
			fmt.Printf("latency p50=%s p99=%s\n", fmtNs(st.LatencyP50Ns), fmtNs(st.LatencyP99Ns))
		}
	case len(resp.Actions) > 0:
		for _, a := range resp.Actions {
			fmt.Println(a)
		}
	case len(resp.Nodes) > 0:
		for _, n := range resp.Nodes {
			fmt.Println(n)
		}
	default:
		if !printed {
			fmt.Println("ok")
		}
	}
	return nil
}

// followJournal tails the cluster journal: poll, print events newer than
// the last seen sequence per source, repeat until interrupted.
func followJournal(console *mgmt.Console, req mgmt.ConsoleRequest) error {
	seen := make(map[string]uint64)
	first := true
	for {
		resp, err := console.Do(req)
		if err != nil {
			return err
		}
		for _, ev := range resp.Journal {
			if ev.Seq <= seen[ev.Src] {
				continue
			}
			seen[ev.Src] = ev.Seq
			printEvent(ev)
		}
		if first && len(resp.Journal) == 0 {
			fmt.Fprintln(os.Stderr, "journal empty; waiting for events...")
		}
		first = false
		time.Sleep(time.Second)
	}
}

// printJournal renders merged journal events, oldest first.
func printJournal(evs []journal.Event) {
	if len(evs) == 0 {
		fmt.Println("no journal events")
		return
	}
	for _, ev := range evs {
		printEvent(ev)
	}
}

// printEvent renders one journal event on one line.
func printEvent(ev journal.Event) {
	fmt.Printf("%s %-11s %-6s %-17s",
		time.Unix(0, ev.Time).Format("15:04:05.000"), ev.Src+"/"+fmt.Sprint(ev.Seq), ev.Actor, ev.Kind)
	if ev.Trace != 0 {
		fmt.Printf(" trace=%016x", ev.Trace)
	}
	if ev.Node != "" {
		fmt.Printf(" node=%s", ev.Node)
	}
	if ev.Path != "" {
		fmt.Printf(" path=%s", ev.Path)
	}
	if ev.Detail != "" {
		fmt.Printf(" %s", ev.Detail)
	}
	if ev.A != 0 {
		fmt.Printf(" a=%d", ev.A)
	}
	if ev.F != 0 {
		fmt.Printf(" cv=%.3f", ev.F)
	}
	fmt.Println()
}

// printExplain renders a placement explanation: current location state,
// the decision that produced it, and the document's event history.
func printExplain(ex *mgmt.ExplainReport) {
	locs := make([]string, len(ex.Locations))
	for i, id := range ex.Locations {
		locs[i] = string(id)
	}
	fmt.Printf("%s\n", ex.Path)
	fmt.Printf("  locations: %s\n", strings.Join(locs, ", "))
	fmt.Printf("  hits=%d size=%d priority=%d pinned=%v\n", ex.Hits, ex.Size, ex.Priority, ex.Pinned)
	if ex.Decision != nil {
		d := ex.Decision
		fmt.Printf("  placed by %s decision at %s on %s (demand %d hits, load CV %.3f)\n",
			d.Kind, time.Unix(0, d.Time).Format("15:04:05.000"), d.Node, d.A, d.F)
		if d.Detail != "" {
			fmt.Printf("    %s\n", d.Detail)
		}
	} else {
		fmt.Println("  no planner decision recorded (initial placement or journal rotated)")
	}
	if len(ex.History) > 0 {
		fmt.Println("  history:")
		for _, ev := range ex.History {
			fmt.Print("    ")
			printEvent(ev)
		}
	}
}

// fmtNs renders a nanosecond figure as a human duration.
func fmtNs(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Microsecond).String()
	}
}

// printStats renders the cluster-wide single-system-image view: per-class
// request and latency figures merged across every node's histograms.
func printStats(st *telemetry.ClusterStats) {
	fmt.Printf("sources: %s\n", strings.Join(st.Sources, ", "))
	if len(st.Classes) == 0 {
		fmt.Println("no traffic recorded")
		return
	}
	fmt.Printf("%-10s %9s %6s %9s %9s %9s %9s %9s %9s\n",
		"CLASS", "REQS", "ERR", "RATE/S", "MEAN", "P50", "P90", "P99", "MAX")
	for _, c := range st.Classes {
		fmt.Printf("%-10s %9d %6d %9.1f %9s %9s %9s %9s %9s\n",
			c.Class, c.Requests, c.Errors, c.RatePerSec,
			fmtNs(c.MeanNs), fmtNs(c.P50Ns), fmtNs(c.P90Ns), fmtNs(c.P99Ns), fmtNs(c.MaxNs))
	}
	printAdmission(st.Merged.Counters)
}

// printAdmission renders the overload-control ledger when the
// distributor runs with admission enabled: per SLO class, how many
// requests were offered, admitted, degraded to stale cache answers, or
// shed outright. Silent when no admission counters exist (admission
// off).
func printAdmission(counters map[string]int64) {
	classes := []string{"critical", "interactive", "batch"}
	any := false
	for _, cl := range classes {
		if counters["admission_"+cl+"_offered"] > 0 {
			any = true
			break
		}
	}
	if !any {
		return
	}
	fmt.Printf("\nadmission (overload control):\n")
	fmt.Printf("%-12s %9s %9s %9s %9s %9s\n",
		"CLASS", "OFFERED", "ADMITTED", "STALE", "SHED", "TIMEOUTS")
	for _, cl := range classes {
		fmt.Printf("%-12s %9d %9d %9d %9d %9d\n", cl,
			counters["admission_"+cl+"_offered"],
			counters["admission_"+cl+"_admitted"],
			counters["admission_"+cl+"_stale"],
			counters["admission_"+cl+"_shed"],
			counters["admission_"+cl+"_wait_timeouts"])
	}
}

// printTraces renders the slowest recent spans across all nodes.
func printTraces(spans []telemetry.Span) {
	if len(spans) == 0 {
		fmt.Println("no traces recorded")
		return
	}
	for _, sp := range spans {
		fmt.Printf("%9s  trace=%016x node=%-12s %-4s %-32s status=%d",
			fmtNs(sp.TotalNs), sp.TraceID, sp.Node, sp.Method, sp.Path, sp.Status)
		if sp.Cache != "" {
			fmt.Printf(" cache=%s", sp.Cache)
		}
		if sp.Backend != "" {
			fmt.Printf(" backend=%s", sp.Backend)
		}
		if sp.Outcome != "" {
			fmt.Printf(" outcome=%s", sp.Outcome)
		}
		fmt.Printf("\n           phases: parse=%s route=%s cache=%s backend=%s reply=%s\n",
			fmtNs(sp.ParseNs), fmtNs(sp.RouteNs), fmtNs(sp.CacheNs),
			fmtNs(sp.BackendNs), fmtNs(sp.ReplyNs))
	}
}
