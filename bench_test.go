// Package webcluster's root benchmark suite regenerates every measurement
// of the paper's evaluation (§5) as testing.B benchmarks:
//
//	§5.2 URL-table overhead  → BenchmarkURLTable*
//	Figure 2 (Workload A)    → BenchmarkFigure2*
//	Figure 3 (Workload B)    → BenchmarkFigure3*
//	Figure 4 (segregation)   → BenchmarkFigure4
//	distributor relay cost   → BenchmarkDistributorRelay
//	ablations                → BenchmarkReplicaSelection*, BenchmarkConnPool
//
// The simulation benchmarks report the figure's metric (requests/second)
// via b.ReportMetric, so `go test -bench .` prints the paper's series; the
// full parameter sweeps are produced by cmd/benchfigs.
package webcluster

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"webcluster/internal/admission"
	"webcluster/internal/backend"
	"webcluster/internal/config"
	"webcluster/internal/conntrack"
	"webcluster/internal/content"
	"webcluster/internal/distributor"
	"webcluster/internal/httpx"
	"webcluster/internal/journal"
	"webcluster/internal/loadbal"
	"webcluster/internal/mgmt"
	"webcluster/internal/respcache"
	"webcluster/internal/sim"
	"webcluster/internal/telemetry"
	"webcluster/internal/urltable"
	"webcluster/internal/workload"
)

// buildTable loads the §5.2-scale site (≈8700 objects) into a URL table.
func buildTable(b *testing.B) (*urltable.Table, []string) {
	b.Helper()
	gen := content.DefaultGenParams()
	site, err := content.GenerateSite(gen)
	if err != nil {
		b.Fatal(err)
	}
	table := urltable.New(urltable.Options{})
	for _, obj := range site.Objects() {
		if err := table.Insert(obj, "n1"); err != nil {
			b.Fatal(err)
		}
	}
	g, err := workload.NewGenerator(site, workload.DefaultZipfS, 1)
	if err != nil {
		b.Fatal(err)
	}
	paths := make([]string, 1<<16)
	for i := range paths {
		paths[i] = g.Next().Path
	}
	return table, paths
}

// BenchmarkURLTableLookup measures the §5.2 routing decision — multi-level
// hash walk (paper reports 4.32 µs on a 350 MHz distributor for ~8700
// objects).
func BenchmarkURLTableLookup(b *testing.B) {
	table, paths := buildTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := table.Route(paths[i&0xffff]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(table.MemoryBytes())/1024, "table-KB")
}

// BenchmarkURLTableLookupParallel drives the routing decision from every
// CPU at once — the distributor's real shape, where each client connection
// goroutine calls Route concurrently. With the copy-on-write read path
// this must scale with GOMAXPROCS instead of serialising on a table lock.
// The one sub-benchmark keeps the name its BENCH_relay.json record was
// archived under.
func BenchmarkURLTableLookupParallel(b *testing.B) {
	b.Run("nocache", func(b *testing.B) {
		table, paths := buildTable(b)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, err := table.Route(paths[i&0xffff]); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	})
}

// BenchmarkURLTableInsert measures table construction cost.
func BenchmarkURLTableInsert(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table := urltable.New(urltable.Options{})
		for j := 0; j < 1000; j++ {
			obj := content.Object{
				Path:  fmt.Sprintf("/d%d/f%d.html", j%16, j),
				Size:  1024,
				Class: content.ClassHTML,
			}
			if err := table.Insert(obj, "n1"); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkConnPool measures pre-forked connection checkout/return.
func BenchmarkConnPool(b *testing.B) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = bufio.NewReader(c).ReadByte() }()
		}
	}()
	pool := conntrack.NewPool(func(config.NodeID) (net.Conn, error) {
		return net.Dial("tcp", l.Addr().String())
	}, 4, 8)
	defer func() { _ = pool.Close() }()
	if err := pool.Prefork([]config.NodeID{"n1"}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc, err := pool.Acquire("n1")
		if err != nil {
			b.Fatal(err)
		}
		pool.Release(pc)
	}
}

// BenchmarkHTTPParse measures request parsing on the distributor's path,
// shaped like the real keep-alive loop: one pooled reader and one reused
// Request per connection, many requests parsed through them.
func BenchmarkHTTPParse(b *testing.B) {
	raw := []byte("GET /docs/d01/page00123.html HTTP/1.1\r\nHost: cluster\r\nUser-Agent: webbench\r\n\r\n")
	src := newRepeatReader(raw)
	br := httpx.AcquireReader(src)
	defer httpx.ReleaseReader(br)
	req := httpx.AcquireRequest()
	defer httpx.ReleaseRequest(req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := httpx.ReadRequestInto(br, req); err != nil {
			b.Fatal(err)
		}
	}
}

// repeatReader yields the same bytes forever without allocation.
type repeatReader struct {
	data []byte
	off  int
}

func newRepeatReader(data []byte) *repeatReader { return &repeatReader{data: data} }

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	r.off = (r.off + n) % len(r.data)
	return n, nil
}

// benchObjects is the content the live-cluster benchmarks fetch: the small
// page for the per-request overhead number and two large bodies for the
// streaming-relay throughput numbers.
var benchObjects = map[string]int{
	"/bench.html": 4096,
	"/bench64k":   64 << 10,
	"/bench1m":    1 << 20,
}

// liveCluster builds a distributor over two real loopback backends. mods
// adjust the distributor options (e.g. to enable the response cache).
func liveCluster(b *testing.B, mods ...func(*distributor.Options)) (front string, cleanup func()) {
	b.Helper()
	spec := config.ClusterSpec{DistributorCPUMHz: 350}
	var closers []func()
	for i := 0; i < 2; i++ {
		id := config.NodeID(fmt.Sprintf("n%d", i+1))
		store := &backend.MemStore{}
		for path, size := range benchObjects {
			_ = store.Put(path, backend.SynthesizeBody(path, int64(size)))
		}
		srv, err := backend.NewServer(backend.ServerOptions{
			Spec: config.NodeSpec{
				ID: id, CPUMHz: 350, MemoryMB: 64,
				Disk: config.DiskSCSI, Platform: config.LinuxApache,
			},
			Store: store,
		})
		if err != nil {
			b.Fatal(err)
		}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		spec.Nodes = append(spec.Nodes, config.NodeSpec{
			ID: id, CPUMHz: 350, MemoryMB: 64,
			Disk: config.DiskSCSI, Platform: config.LinuxApache, Addr: addr,
		})
		closers = append(closers, func() { _ = srv.Close() })
	}
	table := urltable.New(urltable.Options{})
	for path, size := range benchObjects {
		obj := content.Object{Path: path, Size: int64(size), Class: content.ClassHTML}
		if err := table.Insert(obj, "n1", "n2"); err != nil {
			b.Fatal(err)
		}
	}
	opts := distributor.Options{Table: table, Cluster: spec, PreforkPerNode: 4}
	for _, mod := range mods {
		mod(&opts)
	}
	dist, err := distributor.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	front, err = dist.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	closers = append(closers, func() { _ = dist.Close() })
	return front, func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
}

// BenchmarkDistributorRelay measures one keep-alive request relayed
// through the content-aware distributor over loopback (§2.3: the relay
// overhead the paper reports as insignificant).
func BenchmarkDistributorRelay(b *testing.B) {
	front, cleanup := liveCluster(b)
	defer cleanup()
	conn, err := net.Dial("tcp", front)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	br := bufio.NewReader(conn)
	req := &httpx.Request{
		Method: "GET", Target: "/bench.html", Path: "/bench.html",
		Proto: httpx.Proto11, Header: httpx.NewHeader("Host", "c"),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := httpx.WriteRequest(conn, req); err != nil {
			b.Fatal(err)
		}
		resp, err := httpx.ReadResponse(br)
		if err != nil || resp.StatusCode != 200 {
			b.Fatalf("resp %v %v", resp, err)
		}
	}
}

// BenchmarkDistributorRelayTraced is BenchmarkDistributorRelay with the
// full telemetry plane active: a pooled span per request across both
// tiers (distributor phase timings + backend service span, joined over
// the X-Dist-Trace/X-Dist-Span wire fields), atomic histogram and counter
// updates, and the span ring capture. The decision journal is attached
// too: the happy relay path records no events, so journaling must not
// show up here either. Acceptance: tracing + journaling adds 0
// allocs/op over the untraced relay (benchguard-gated).
func BenchmarkDistributorRelayTraced(b *testing.B) {
	front, cleanup := liveCluster(b, func(o *distributor.Options) {
		o.Telemetry = telemetry.New(telemetry.Options{Node: "bench-front"})
		o.Journal = journal.New(journal.Options{Node: "bench-front"})
	})
	defer cleanup()
	conn, err := net.Dial("tcp", front)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	br := bufio.NewReader(conn)
	req := &httpx.Request{
		Method: "GET", Target: "/bench.html", Path: "/bench.html",
		Proto: httpx.Proto11, Header: httpx.NewHeader("Host", "c"),
		TraceID: 0xb19b00553a9e77ed,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := httpx.WriteRequest(conn, req); err != nil {
			b.Fatal(err)
		}
		resp, err := httpx.ReadResponse(br)
		if err != nil || resp.StatusCode != 200 {
			b.Fatalf("resp %v %v", resp, err)
		}
		if resp.TraceID != req.TraceID {
			b.Fatalf("trace not propagated: %x", resp.TraceID)
		}
	}
}

// BenchmarkTelemetryObserve measures one lock-free histogram observation
// plus the class counters — the per-request metrics cost on the relay
// path. Must stay allocation-free and contention-tolerant.
func BenchmarkTelemetryObserve(b *testing.B) {
	reg := telemetry.NewRegistry("bench")
	cs := reg.Class("html")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var ns int64
		for pb.Next() {
			ns += 1000
			cs.Requests.Inc()
			cs.Bytes.Add(4096)
			cs.Latency.ObserveNs(ns & 0xfffff)
		}
	})
}

// BenchmarkJournalRecord measures one structured event append on the
// decision journal's ring — the cost every control-plane actor pays per
// recorded decision, and the overhead bound for journal calls that do
// land on a data path (failover, retry exhaustion).
// Must stay at 0 allocs/op (gated by `make allocguard` against
// BENCH_telemetry.json with zero tolerance).
func BenchmarkJournalRecord(b *testing.B) {
	j := journal.New(journal.Options{Node: "bench"})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var i int64
		for pb.Next() {
			i++
			j.Record(journal.Event{
				Actor:  journal.ActorDistributor,
				Kind:   journal.KindFailover,
				Trace:  uint64(i),
				Node:   "n1",
				Path:   "/bench.html",
				Detail: "n2",
				A:      i,
			})
		}
	})
}

// BenchmarkAdmissionDecision measures the full per-request admission
// cost on the uncontended fast path: classify against the rule table,
// admit into the class's concurrency share, release on completion.
// This runs in front of every relayed request when overload control is
// on, so it must stay at 0 allocs/op (gated by `make allocguard`
// against BENCH_admission.json).
func BenchmarkAdmissionDecision(b *testing.B) {
	c := admission.New(admission.Options{
		MaxConcurrent: 256,
		Rules: []admission.Rule{
			{Prefix: "/checkout/", Class: admission.Critical},
			{Prefix: "/reports/", Class: admission.Batch},
		},
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		class := c.Classify("", "/products/42.html")
		if v := c.Admit(class); v != admission.Admitted {
			b.Fatalf("admission verdict %v on an idle controller", v)
		}
		c.Release(class)
	}
}

// BenchmarkDistributorRelayLarge measures the streaming fast path on large
// bodies (64 KiB and 1 MiB). The client reads the header and then drains
// the body through the same pooled-buffer copy the distributor uses, so the
// allocs/op reported here are dominated by the relay itself — they must not
// grow with the body size (acceptance: no per-request allocation
// proportional to the body).
func BenchmarkDistributorRelayLarge(b *testing.B) {
	for _, bc := range []struct {
		path string
		size int
	}{{"/bench64k", 64 << 10}, {"/bench1m", 1 << 20}} {
		b.Run(fmt.Sprintf("%dKiB", bc.size>>10), func(b *testing.B) {
			front, cleanup := liveCluster(b)
			defer cleanup()
			conn, err := net.Dial("tcp", front)
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = conn.Close() }()
			br := httpx.AcquireReader(conn)
			defer httpx.ReleaseReader(br)
			req := &httpx.Request{
				Method: "GET", Target: bc.path, Path: bc.path,
				Proto: httpx.Proto11, Header: httpx.NewHeader("Host", "c"),
			}
			b.SetBytes(int64(bc.size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := httpx.WriteRequest(conn, req); err != nil {
					b.Fatal(err)
				}
				resp, err := httpx.ReadResponseHeader(br)
				if err != nil || resp.StatusCode != 200 {
					b.Fatalf("resp %v %v", resp, err)
				}
				if resp.ContentLength != int64(bc.size) {
					b.Fatalf("content-length = %d, want %d", resp.ContentLength, bc.size)
				}
				if _, err := httpx.CopyBody(io.Discard, br, resp.ContentLength); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistributorRelayParallel drives at least GOMAXPROCS (and at
// least 4) concurrent keep-alive clients through the front end at once.
// Bodies are small (4 KiB) so per-request overhead (accept, mapping
// table, pool checkout, buffer pools) dominates over raw byte-moving;
// MB/s is the aggregate across all clients. The one sub-benchmark keeps
// the name its BENCH_relay.json record was archived under.
func BenchmarkDistributorRelayParallel(b *testing.B) {
	procs := runtime.GOMAXPROCS(0)
	clients := procs
	if clients < 4 {
		clients = 4
	}
	b.Run("unsharded", func(b *testing.B) {
		front, cleanup := liveCluster(b, func(o *distributor.Options) {
			o.MaxConnsPerNode = 4 * clients
		})
		defer cleanup()
		if procs < 4 {
			// ≥4 concurrent clients even on small machines.
			b.SetParallelism((4 + procs - 1) / procs)
		}
		b.SetBytes(4096)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			conn, err := net.Dial("tcp", front)
			if err != nil {
				b.Error(err)
				return
			}
			defer func() { _ = conn.Close() }()
			br := httpx.AcquireReader(conn)
			defer httpx.ReleaseReader(br)
			req := &httpx.Request{
				Method: "GET", Target: "/bench.html", Path: "/bench.html",
				Proto: httpx.Proto11, Header: httpx.NewHeader("Host", "c"),
			}
			for pb.Next() {
				if err := httpx.WriteRequest(conn, req); err != nil {
					b.Error(err)
					return
				}
				resp, err := httpx.ReadResponseHeader(br)
				if err != nil || resp.StatusCode != 200 {
					b.Errorf("resp %v %v", resp, err)
					return
				}
				if _, err := httpx.CopyBody(io.Discard, br, resp.ContentLength); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkDistributorCacheHit measures one keep-alive request answered
// from the distributor's response cache — zero backend round trips, the
// paper's relay cost removed entirely. Acceptance: strictly fewer
// allocs/op than BenchmarkDistributorRelay (the same request served
// through a back end).
func BenchmarkDistributorCacheHit(b *testing.B) {
	rc := respcache.New(respcache.Options{FreshTTL: time.Hour})
	front, cleanup := liveCluster(b, func(o *distributor.Options) { o.Cache = rc })
	defer cleanup()
	conn, err := net.Dial("tcp", front)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	br := bufio.NewReader(conn)
	req := &httpx.Request{
		Method: "GET", Target: "/bench.html", Path: "/bench.html",
		Proto: httpx.Proto11, Header: httpx.NewHeader("Host", "c"),
	}
	fetchOnce := func() {
		if err := httpx.WriteRequest(conn, req); err != nil {
			b.Fatal(err)
		}
		resp, err := httpx.ReadResponse(br)
		if err != nil || resp.StatusCode != 200 {
			b.Fatalf("resp %v %v", resp, err)
		}
	}
	fetchOnce() // warm: the first request fills the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetchOnce()
	}
	b.StopTimer()
	if st := rc.Stats(); st.Hits < int64(b.N) {
		b.Fatalf("cache hits = %d, want ≥ %d (not measuring the hit path)", st.Hits, b.N)
	}
}

// BenchmarkDistributorCacheColdMiss measures the miss path: every
// iteration purges the entry first, so each request leads a singleflight
// fetch, buffers the body, and stores it.
func BenchmarkDistributorCacheColdMiss(b *testing.B) {
	rc := respcache.New(respcache.Options{FreshTTL: time.Hour})
	front, cleanup := liveCluster(b, func(o *distributor.Options) { o.Cache = rc })
	defer cleanup()
	conn, err := net.Dial("tcp", front)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	br := bufio.NewReader(conn)
	req := &httpx.Request{
		Method: "GET", Target: "/bench.html", Path: "/bench.html",
		Proto: httpx.Proto11, Header: httpx.NewHeader("Host", "c"),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc.Invalidate("/bench.html")
		if err := httpx.WriteRequest(conn, req); err != nil {
			b.Fatal(err)
		}
		resp, err := httpx.ReadResponse(br)
		if err != nil || resp.StatusCode != 200 {
			b.Fatalf("resp %v %v", resp, err)
		}
	}
}

// BenchmarkDistributorCacheCoalescedMiss measures a miss under fan-in:
// four clients request the purged path at once, the singleflight leader
// fetches it, and everyone shares the result. The reported time is the
// whole four-way round, so per-request cost is a quarter of it.
func BenchmarkDistributorCacheCoalescedMiss(b *testing.B) {
	rc := respcache.New(respcache.Options{FreshTTL: time.Hour})
	front, cleanup := liveCluster(b, func(o *distributor.Options) { o.Cache = rc })
	defer cleanup()
	const clients = 4
	conns := make([]net.Conn, clients)
	readers := make([]*bufio.Reader, clients)
	for i := range conns {
		conn, err := net.Dial("tcp", front)
		if err != nil {
			b.Fatal(err)
		}
		defer func() { _ = conn.Close() }()
		conns[i] = conn
		readers[i] = bufio.NewReader(conn)
	}
	req := &httpx.Request{
		Method: "GET", Target: "/bench.html", Path: "/bench.html",
		Proto: httpx.Proto11, Header: httpx.NewHeader("Host", "c"),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc.Invalidate("/bench.html")
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				if err := httpx.WriteRequest(conns[c], req); err != nil {
					b.Error(err)
					return
				}
				resp, err := httpx.ReadResponse(readers[c])
				if err != nil || resp.StatusCode != 200 {
					b.Errorf("resp %v %v", resp, err)
				}
			}(c)
		}
		wg.Wait()
	}
	b.StopTimer()
	st := rc.Stats()
	b.ReportMetric(float64(st.Coalesced)/float64(b.N), "coalesced/op")
}

// mgmtBenchController returns a controller managing one in-memory broker
// per node over loopback, all torn down when the benchmark ends.
func mgmtBenchController(b *testing.B, nodes ...config.NodeID) *mgmt.Controller {
	b.Helper()
	ctl := mgmt.NewController(urltable.New(urltable.Options{}))
	for _, id := range nodes {
		broker := mgmt.NewBroker(mgmt.Env{Node: id, Store: &backend.MemStore{}})
		addr, err := broker.Start("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = broker.Close() })
		if err := ctl.AddNode(id, addr); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { ctl.RemoveNode(id) })
	}
	return ctl
}

// BenchmarkMgmtInsert measures the management plane's byte path (§3.1–3.2):
// one console insert of an object on two nodes, Console → ConsoleServer →
// Controller → two Brokers over loopback. MB/s counts the object once,
// however many hops and replicas carry it. The delete that makes room for
// the next iteration is untimed.
func BenchmarkMgmtInsert(b *testing.B) {
	for _, bc := range []struct {
		name string
		size int
	}{{"4KiB", 4 << 10}, {"1MiB", 1 << 20}} {
		b.Run(bc.name, func(b *testing.B) {
			nodes := []config.NodeID{"n1", "n2"}
			ctl := mgmtBenchController(b, nodes...)
			server := mgmt.NewConsoleServer(ctl, nil)
			addr, err := server.Start("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = server.Close() }()
			console, err := mgmt.DialConsole(addr)
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = console.Close() }()
			insert := mgmt.ConsoleRequest{
				Op: "insert", Path: "/bench/object.bin", Size: int64(bc.size),
				Data: backend.SynthesizeBody("/bench/object.bin", int64(bc.size)), Nodes: nodes,
			}
			remove := mgmt.ConsoleRequest{Op: "delete", Path: insert.Path}
			b.SetBytes(int64(bc.size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := console.Do(insert); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if _, err := console.Do(remove); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkMgmtReplicate measures a replica move (§3.3): the object is on n1,
// one Replicate puts it on n2 as well, and the offload that makes room for
// the next iteration is untimed. MB/s counts the object once. The target
// broker pulls from the source broker, so the controller's sockets carry
// envelopes only.
func BenchmarkMgmtReplicate(b *testing.B) {
	for _, bc := range []struct {
		name string
		size int
	}{{"4KiB", 4 << 10}, {"1MiB", 1 << 20}} {
		b.Run(bc.name, func(b *testing.B) {
			ctl := mgmtBenchController(b, "n1", "n2")
			const path = "/bench/object.bin"
			obj := content.Object{Path: path, Size: int64(bc.size), Class: content.Classify(path)}
			if err := ctl.Insert(obj, backend.SynthesizeBody(path, obj.Size), "n1"); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(obj.Size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ctl.Replicate(path, "n1", "n2"); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := ctl.Offload(path, "n2"); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// benchParams shrinks the figure experiments so each benchmark iteration
// simulates one measurement cell in a few hundred milliseconds.
func benchParams() sim.ExperimentParams {
	p := sim.DefaultExperimentParams()
	p.Objects = 4000
	p.Warmup = 3 * time.Second
	p.Measure = 8 * time.Second
	return p
}

// runScheme simulates one figure cell and returns its throughput.
func runScheme(b *testing.B, kind workload.Kind, scheme sim.Scheme, clients int) sim.Result {
	b.Helper()
	p := benchParams()
	site, err := workload.BuildSite(kind, p.Objects, p.Seed)
	if err != nil {
		b.Fatal(err)
	}
	eng := &sim.Engine{}
	cluster, err := sim.BuildDeployment(eng, p.Hardware, p.Spec, site, scheme, p.Placement)
	if err != nil {
		b.Fatal(err)
	}
	rp := sim.DefaultRunParams(clients)
	rp.Warmup, rp.Measure, rp.Seed = p.Warmup, p.Measure, p.Seed
	res, err := sim.Run(cluster, site, scheme, rp)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// figureBench runs one scheme at the saturation point and reports the
// figure's y-axis value.
func figureBench(b *testing.B, kind workload.Kind, scheme sim.Scheme) {
	var last sim.Result
	for i := 0; i < b.N; i++ {
		last = runScheme(b, kind, scheme, 64)
	}
	b.ReportMetric(last.Throughput(), "req/s")
	b.ReportMetric(100*last.CacheHitRate, "cache-hit-%")
}

// Figure 2 (Workload A, static): the three §5.3 configurations.
func BenchmarkFigure2Replication(b *testing.B) {
	figureBench(b, workload.KindA, sim.SchemeFullReplication)
}

func BenchmarkFigure2NFS(b *testing.B) {
	figureBench(b, workload.KindA, sim.SchemeNFS)
}

func BenchmarkFigure2Partition(b *testing.B) {
	figureBench(b, workload.KindA, sim.SchemePartition)
}

// Figure 3 (Workload B, dynamic mix): full replication vs partition.
func BenchmarkFigure3Replication(b *testing.B) {
	figureBench(b, workload.KindB, sim.SchemeFullReplication)
}

func BenchmarkFigure3Partition(b *testing.B) {
	figureBench(b, workload.KindB, sim.SchemePartition)
}

// BenchmarkFigure4 regenerates the per-class segregation gains at
// saturation (paper: +45% CGI, +42% ASP, +58% static).
func BenchmarkFigure4(b *testing.B) {
	var base, seg sim.Result
	for i := 0; i < b.N; i++ {
		base = runScheme(b, workload.KindB, sim.SchemeFullReplication, 120)
		seg = runScheme(b, workload.KindB, sim.SchemePartition, 120)
	}
	gain := func(bv, sv float64) float64 {
		if bv == 0 {
			return 0
		}
		return (sv - bv) / bv * 100
	}
	b.ReportMetric(gain(base.ClassThroughput(content.ClassCGI), seg.ClassThroughput(content.ClassCGI)), "cgi-gain-%")
	b.ReportMetric(gain(base.ClassThroughput(content.ClassASP), seg.ClassThroughput(content.ClassASP)), "asp-gain-%")
	b.ReportMetric(gain(base.StaticThroughput(), seg.StaticThroughput()), "static-gain-%")
}

// BenchmarkReplicaSelection compares the distributor's replica-selection
// policies (ablation for DESIGN.md §5).
func BenchmarkReplicaSelection(b *testing.B) {
	for _, name := range []string{"wlc", "lc", "rr", "random", "leastload"} {
		b.Run(name, func(b *testing.B) {
			picker, err := loadbal.ByName(name, 1)
			if err != nil {
				b.Fatal(err)
			}
			cands := []loadbal.NodeState{
				{ID: "a", Weight: 1, Active: 3},
				{ID: "b", Weight: 0.57, Active: 1},
				{ID: "c", Weight: 0.43, Active: 2},
				{ID: "d", Weight: 1, Active: 0},
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := picker.Pick(cands); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkZipf measures workload generation cost (it must never be the
// harness bottleneck).
func BenchmarkZipf(b *testing.B) {
	z, err := workload.NewZipf(24000, workload.DefaultZipfS, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Next()
	}
}

// BenchmarkLoadMetric measures the §3.3 per-request accounting.
func BenchmarkLoadMetric(b *testing.B) {
	tr := loadbal.NewTracker(loadbal.PaperWeights())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Record("n1", content.ClassHTML, 3*time.Millisecond)
	}
}

// BenchmarkSimEngine measures raw event throughput of the simulator.
func BenchmarkSimEngine(b *testing.B) {
	var eng sim.Engine
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			eng.Schedule(time.Microsecond, tick)
		}
	}
	b.ResetTimer()
	eng.Schedule(0, tick)
	eng.Run(time.Duration(b.N+1) * time.Microsecond * 2)
}
