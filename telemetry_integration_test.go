package webcluster

import (
	"bufio"
	"net"
	"testing"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/core"
	"webcluster/internal/httpx"
	"webcluster/internal/mgmt"
	"webcluster/internal/telemetry"
	"webcluster/internal/testutil"
)

// launchTelemetryCluster starts a 3-node cluster with a console endpoint
// and one static object placed on each node (round-robin), so traffic can
// be steered to every back end deterministically.
func launchTelemetryCluster(t *testing.T) (*core.Cluster, []string) {
	t.Helper()
	cluster, err := core.Launch(core.Options{
		Spec:        core.DefaultSpec(),
		ConsoleAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cluster.Close() })

	nodes := cluster.Controller.Nodes()
	paths := make([]string, 0, len(nodes))
	for i, node := range nodes {
		path := "/docs/t" + string(rune('a'+i)) + ".html"
		obj := content.Object{Path: path, Size: 256, Class: content.Classify(path)}
		if err := cluster.Controller.Insert(obj, nil, node); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return cluster, paths
}

// TestTracedRequestSpansMatch issues one request carrying a client trace
// ID and checks the single-system-image invariants: the distributor's
// ring holds a span with that trace ID, the span names the back end that
// served the request, and that back end's own ring holds the service span
// whose ID the distributor recorded (joined via X-Dist-Trace/X-Dist-Span).
func TestTracedRequestSpansMatch(t *testing.T) {
	cluster, paths := launchTelemetryCluster(t)

	const clientTrace = uint64(0xfeedc0dedeadbeef)
	conn, err := net.DialTimeout("tcp", cluster.FrontAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	req := &httpx.Request{
		Method: "GET", Target: paths[0], Path: paths[0], Proto: httpx.Proto11,
		Header:  httpx.NewHeader("Host", "cluster", "Connection", "close"),
		TraceID: clientTrace,
	}
	if err := httpx.WriteRequest(conn, req); err != nil {
		t.Fatal(err)
	}
	resp, err := httpx.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	// The reply carries the trace ID back and the distributor's span ID.
	if resp.TraceID != clientTrace {
		t.Fatalf("response trace ID = %x, want %x", resp.TraceID, clientTrace)
	}

	// Both sides finish their span after the reply is on the wire, so a
	// span may trail the response the client has already read.
	awaitSpan := func(tel *telemetry.Telemetry, match func(telemetry.Span) bool) *telemetry.Span {
		var found *telemetry.Span
		testutil.EventuallyTrue(2*time.Second, func() bool {
			for _, sp := range tel.Spans(0) {
				if match(sp) {
					cp := sp
					found = &cp
					return true
				}
			}
			return false
		})
		return found
	}
	distSpan := awaitSpan(cluster.Telemetry, func(sp telemetry.Span) bool { return sp.TraceID == clientTrace })
	if distSpan == nil {
		t.Fatalf("no span with trace %x in distributor ring", clientTrace)
	}
	if distSpan.Status != 200 || distSpan.Path != paths[0] || distSpan.Outcome != "relayed" {
		t.Fatalf("distributor span wrong: %+v", distSpan)
	}
	if distSpan.Backend == "" || distSpan.BackendSpan == 0 {
		t.Fatalf("distributor span lacks backend linkage: %+v", distSpan)
	}

	// The named back end must hold the service span the distributor
	// recorded, under the same trace.
	nh := cluster.Nodes[config.NodeID(distSpan.Backend)]
	if nh == nil {
		t.Fatalf("unknown backend node %q", distSpan.Backend)
	}
	backendSpan := awaitSpan(nh.Server.Telemetry(), func(sp telemetry.Span) bool { return sp.SpanID == distSpan.BackendSpan })
	if backendSpan == nil {
		t.Fatalf("backend %s has no span with ID %x", distSpan.Backend, distSpan.BackendSpan)
	}
	if backendSpan.TraceID != clientTrace {
		t.Fatalf("backend span trace = %x, want %x", backendSpan.TraceID, clientTrace)
	}
	if backendSpan.Path != paths[0] || backendSpan.Status != 200 {
		t.Fatalf("backend span wrong: %+v", backendSpan)
	}
}

// TestConsoleClusterStats drives traffic through every node of a 3-node
// cluster and checks the console's stats and traces verbs return the
// merged single-system-image view with every node as a source.
func TestConsoleClusterStats(t *testing.T) {
	cluster, paths := launchTelemetryCluster(t)

	// Each path lives on exactly one node, so this touches all three.
	for _, path := range paths {
		for i := 0; i < 3; i++ {
			resp, err := cluster.Get(path)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != 200 {
				t.Fatalf("GET %s = %d", path, resp.StatusCode)
			}
		}
	}

	console, err := mgmt.DialConsole(cluster.ConsoleAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = console.Close() }()

	// 9 front-end requests + 9 backend services, all class html. Both
	// sides record after the reply is on the wire, so the last request's
	// records may trail its response: ask until they have landed.
	var st *telemetry.ClusterStats
	htmlRequests := func() int64 {
		resp, err := console.Do(mgmt.ConsoleRequest{Op: "stats"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Stats == nil {
			t.Fatal("stats verb returned no Stats")
		}
		st = resp.Stats
		return st.Merged.Classes["html"].Requests
	}
	testutil.Eventually(t, 2*time.Second, func() bool { return htmlRequests() == 18 },
		"merged html requests never reached 18")
	wantSources := map[string]bool{"distributor": false, "fast-1": false, "mid-1": false, "slow-1": false}
	for _, s := range st.Sources {
		if _, ok := wantSources[s]; ok {
			wantSources[s] = true
		}
	}
	for name, seen := range wantSources {
		if !seen {
			t.Errorf("source %q missing from cluster stats (got %v)", name, st.Sources)
		}
	}
	var html *telemetry.ClassSummary
	for i := range st.Classes {
		if st.Classes[i].Class == "html" {
			html = &st.Classes[i]
		}
	}
	if html == nil {
		t.Fatalf("no html class in cluster stats: %+v", st.Classes)
	}
	if html.Requests != 18 {
		t.Fatalf("merged html requests = %d, want 18", html.Requests)
	}
	// Quantiles report bucket upper bounds, so P99 may exceed the exact
	// max by up to one bucket width — but ordering among quantiles holds.
	if html.P50Ns <= 0 || html.P90Ns < html.P50Ns || html.P99Ns < html.P90Ns || html.MaxNs <= 0 {
		t.Fatalf("merged quantiles inconsistent: %+v", html)
	}
	if len(st.Merged.Classes) == 0 {
		t.Fatal("merged snapshot has no classes")
	}
	if got := st.Merged.Classes["html"].Latency.Count; got != 18 {
		t.Fatalf("merged html latency count = %d, want 18", got)
	}

	tr, err := console.Do(mgmt.ConsoleRequest{Op: "traces", Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Traces) == 0 || len(tr.Traces) > 5 {
		t.Fatalf("traces verb returned %d spans", len(tr.Traces))
	}
	for i := 1; i < len(tr.Traces); i++ {
		if tr.Traces[i-1].TotalNs < tr.Traces[i].TotalNs {
			t.Fatalf("traces not slowest-first: %v", tr.Traces)
		}
	}
	// Spans from both tiers (distributor and back ends) should appear in
	// the union the controller scraped; at minimum every span carries a
	// node attribution.
	for _, sp := range tr.Traces {
		if sp.Node == "" || sp.TraceID == 0 {
			t.Fatalf("unattributed span in cluster traces: %+v", sp)
		}
	}
}
