package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"time"

	"webcluster/internal/admission"
	"webcluster/internal/backend"
	"webcluster/internal/cache"
	"webcluster/internal/config"
	"webcluster/internal/conntrack"
	"webcluster/internal/content"
	"webcluster/internal/doctree"
	"webcluster/internal/httpx"
	"webcluster/internal/journal"
	"webcluster/internal/loadbal"
	"webcluster/internal/mgmt"
	"webcluster/internal/respcache"
	"webcluster/internal/telemetry"
	"webcluster/internal/urltable"
)

// The layer walk rebuilds the workload's cluster inside the harness
// process — table, site, two back-end servers with their brokers, a
// controller — and pushes the workload's own request stream through each
// layer's public API in the order the distributor calls them, one span per
// batch of calls. Readers and writers are memory, so a stage's time is its
// user-space cost; what the live request pays beyond the sum of stages is
// kernel and scheduler time, which distributor.residual_us reports.

const (
	walkRequests = 100_000 // requests pushed through the stages, at most
	walkOps      = 600     // churn operations replayed in process, at most
	microCalls   = 256     // calls per span of a stage timed on its own
	microRounds  = 8       // spans per read-only stage timed on its own
)

// stageAcc sums one stage over the walk.
type stageAcc struct {
	ns     int64
	calls  int
	allocs float64 // per call, from the probed batch
}

// walker times stages into spans and per-stage totals.
type walker struct {
	sink  *spanSink
	acc   map[string]*stageAcc
	probe bool // this batch also counts allocations
	// micro is the span that parents every stage timed on its own; stages
	// under any other parent lie on a request's blocking path, and pathNs
	// sums them: the numerator of distributor.stage_sum_us.
	micro  int
	pathNs int64
}

// stage runs fn as one span under parent covering calls layer calls.
func (wk *walker) stage(parent int, name string, calls int, fn func()) {
	if calls == 0 {
		return
	}
	a := wk.acc[name]
	if a == nil {
		a = &stageAcc{}
		wk.acc[name] = a
	}
	var m0, m1 runtime.MemStats
	if wk.probe {
		runtime.ReadMemStats(&m0)
	}
	start := time.Now()
	fn()
	end := time.Now()
	if wk.probe {
		runtime.ReadMemStats(&m1)
		a.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(calls)
	}
	wk.sink.add(parent, name, start, end, calls)
	a.ns += end.Sub(start).Nanoseconds()
	a.calls += calls
	if parent != wk.micro {
		wk.pathNs += end.Sub(start).Nanoseconds()
	}
}

// tableObject is the URL-table view of a placed path.
func tableObject(path string, size int) content.Object {
	return content.Object{Path: path, Size: int64(size), Class: content.Classify(path)}
}

// walkNode is one in-process back end with its broker.
type walkNode struct {
	srv    *backend.Server
	broker *mgmt.Broker
	addr   string
}

// startWalkNode mirrors cmd/backend: an in-memory store, the synthetic
// CGI and ASP handlers, a web listener and a broker, at the flag defaults.
func startWalkNode(id config.NodeID) (*walkNode, error) {
	store := &backend.MemStore{}
	srv, err := backend.NewServer(backend.ServerOptions{Spec: nodeSpec(id), Store: store})
	if err != nil {
		return nil, err
	}
	for prefix, kind := range map[string]string{"/cgi-bin/": "cgi", "/asp/": "asp"} {
		kind := kind
		srv.HandlePrefix(prefix, func(req *httpx.Request) ([]byte, float64, error) {
			return []byte(fmt.Sprintf("<html>%s from %s: %s?%s</html>\n", kind, id, req.Path, req.Query)), 1.0, nil
		})
	}
	n := &walkNode{srv: srv}
	if n.addr, err = srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	n.broker = mgmt.NewBroker(mgmt.Env{Node: id, Store: store, Server: srv})
	return n, nil
}

// closeBounded runs fn but gives up waiting after d: backend.Server.Close
// is a known hang, and the process is about to exit anyway.
func closeBounded(d time.Duration, fn func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
	}
}

// layerWalk runs the walk for w within budget and returns the per-layer
// metrics it measures. script is the churn script (nil on read-only
// workloads).
func layerWalk(w *workloadDef, st *site, seed int64, script []churnOp, budget time.Duration, sink *spanSink) (_ map[string]float64, err error) {
	deadline := time.Now().Add(budget)
	wk := &walker{sink: sink, acc: map[string]*stageAcc{}}
	walkStart := time.Now()
	root := sink.add(0, "walk", walkStart, walkStart, 0)
	defer func() { sink.spans[root-1].End = time.Since(sink.epoch).Nanoseconds() }()

	// The deployment, built the way cmd/distributor and cmd/backend build
	// theirs.
	table := urltable.New(urltable.Options{CacheEntries: 4096})
	ctrl := mgmt.NewController(table)
	cluster := config.ClusterSpec{DistributorCPUMHz: 350}
	nodes := map[config.NodeID]*walkNode{}
	for _, id := range []config.NodeID{nodeA, nodeB} {
		n, err := startWalkNode(id)
		if err != nil {
			return nil, err
		}
		nodes[id] = n
		defer closeBounded(2*time.Second, func() { _ = n.broker.Close(); _ = n.srv.Close() })
		brokerAddr, err := n.broker.Start("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		if err := ctrl.AddNode(id, brokerAddr); err != nil {
			return nil, err
		}
		spec := n.srv.Spec()
		spec.Addr = n.addr
		cluster.Nodes = append(cluster.Nodes, spec)
	}
	var rc *respcache.Cache
	if w.cacheMB > 0 {
		rc = respcache.New(respcache.Options{MaxBytes: w.cacheMB << 20, FreshTTL: time.Duration(w.freshSec) * time.Second})
		ctrl.SetCache(rc)
	}
	var adm *admission.Controller
	if w.admit {
		adm = admission.New(admission.Options{})
	}
	tel := telemetry.New(telemetry.Options{Node: "walk"})
	jnl := journal.New(journal.Options{Node: "walk"})
	ctrl.SetTelemetry(tel)
	ctrl.SetJournal(jnl)

	// Placement through the controller: the bulk-insert rate.
	placeStart := time.Now()
	for _, o := range st.objects {
		if err := ctrl.Insert(tableObject(o.path, len(o.data)), o.data, o.nodes...); err != nil {
			return nil, fmt.Errorf("walk: placing %s: %w", o.path, err)
		}
	}
	placeEnd := time.Now()
	sink.add(root, "mgmt.bulk_insert", placeStart, placeEnd, len(st.objects))
	bulkPerSec := float64(len(st.objects)) / placeEnd.Sub(placeStart).Seconds()

	pool := conntrack.NewPool(func(id config.NodeID) (net.Conn, error) {
		return net.DialTimeout("tcp", nodes[id].addr, 2*time.Second)
	}, 4, 64)
	defer func() { _ = pool.Close() }()
	if err := pool.Prefork(cluster.NodeIDs()); err != nil {
		return nil, err
	}
	mapping := conntrack.NewMappingTable()
	key := conntrack.ClientKey{IP: "127.0.0.1", Port: 1}
	if _, err := mapping.Install(key, 0, 0); err != nil {
		return nil, err
	}
	if _, err := mapping.Advance(key, conntrack.EventHandshakeDone); err != nil {
		return nil, err
	}
	picker := loadbal.WeightedLeastConn{}
	tracker := loadbal.NewTracker(loadbal.PaperWeights())
	pools := httpx.NewPools()
	reg := tel.Registry()

	// Warm the response cache the way the live run's sweep does: every
	// static object once, in rank order.
	micro := sink.add(root, "micro", time.Now(), time.Now(), 0)
	wk.micro = micro
	defer func() { sink.spans[micro-1].End = time.Since(sink.epoch).Nanoseconds() }()
	stored := func(body []byte) httpx.Stored {
		return httpx.Stored{StatusCode: 200, ETag: httpx.StrongETag(body), Date: httpx.CurrentDate(), Body: body}
	}
	if rc != nil {
		var static []*object
		for _, o := range st.objects {
			if !o.class.Dynamic() {
				static = append(static, o)
			}
		}
		for i := 0; i < len(static); i += microCalls {
			part := static[i:min(i+microCalls, len(static))]
			entries := make([]*respcache.Entry, len(part))
			for j, o := range part {
				entries[j] = respcache.NewEntry(stored(o.data), rc.Now(), rc.FreshFor())
			}
			wk.stage(micro, "respcache.put", len(part), func() {
				for j, o := range part {
					rc.Put(o.path, entries[j])
				}
			})
		}
	}

	// The request path, batch by batch.
	batch := microCalls
	if w.site.large > 0 {
		batch = 16 // megabyte bodies: a span is long enough without 256 of them
	}
	reqs := make([]*httpx.Request, batch)
	for i := range reqs {
		reqs[i] = httpx.AcquireRequest()
	}
	objs := make([]*object, batch)
	recs := make([]urltable.Record, batch)
	picked := make([]config.NodeID, batch)
	resps := make([]*httpx.Response, batch)
	hdrs := make([]*httpx.Response, batch)
	wires := make([]bytes.Buffer, batch)
	wireReaders := make([]*bufio.Reader, batch)
	for i := range wireReaders {
		wireReaders[i] = bufio.NewReaderSize(nil, 4096)
	}
	entries := make([]*respcache.Entry, batch)
	// index lists reused across batches, so building them costs the
	// timed stages no allocation
	eligible, hit, miss := make([]int, 0, batch), make([]int, 0, batch), make([]int, 0, batch)
	fill, relay, served := make([]int, 0, batch), make([]int, 0, batch), make([]int, 0, batch)
	raw := &bytes.Buffer{}
	br := bufio.NewReaderSize(nil, 4096)
	var hint urltable.Hint
	stream := newStream(st, seed, 0)
	tableBefore := table.Stats()
	var relayedBytes int64
	walked := 0
	for n := 0; walked < walkRequests && (n < 3 || time.Now().Before(deadline)); n++ {
		wk.probe = n == 2 // warmed up, pools primed
		batchStart := time.Now()
		id := sink.add(root, "request_batch", batchStart, batchStart, batch)
		raw.Reset()
		for i := range objs {
			objs[i] = stream.next()
			raw.Write(objs[i].request)
		}
		br.Reset(raw)
		wk.stage(id, "httpx.parse", batch, func() {
			for _, r := range reqs {
				if perr := httpx.ReadRequestInto(br, r); perr != nil {
					err = perr
				}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("walk: parsing: %w", err)
		}
		if adm != nil {
			wk.stage(id, "admission.decide", batch, func() {
				for _, r := range reqs {
					class := adm.Classify(r.Header.Get("X-Dist-Class"), r.Path)
					if adm.Admit(class) == admission.Admitted {
						adm.Release(class)
					}
				}
			})
		}
		// cache lookup for what the distributor would consider
		// cacheable: GET, no query, static
		eligible, hit, miss = eligible[:0], hit[:0], miss[:0]
		if rc != nil {
			for i, r := range reqs {
				if r.Query == "" && !r.IsDynamic() {
					eligible = append(eligible, i)
				} else {
					miss = append(miss, i)
				}
			}
			wk.stage(id, "respcache.get", len(eligible), func() {
				for _, i := range eligible {
					e, state := rc.Get(reqs[i].Path)
					if state == respcache.Fresh {
						entries[i] = e
						hit = append(hit, i)
					} else {
						entries[i] = nil
						miss = append(miss, i)
					}
				}
			})
		} else {
			for i := range reqs {
				miss = append(miss, i)
			}
		}
		wk.stage(id, "urltable.route_hinted", len(miss), func() {
			for _, i := range miss {
				rec, rerr := table.RouteHinted(reqs[i].Path, &hint)
				if rerr != nil {
					err = rerr
				}
				recs[i] = rec
			}
		})
		if err != nil {
			return nil, fmt.Errorf("walk: routing: %w", err)
		}
		wk.stage(id, "loadbal.pick", len(miss), func() {
			for _, i := range miss {
				candidates := make([]loadbal.NodeState, 0, len(recs[i].Locations))
				for _, loc := range recs[i].Locations {
					if spec, ok := cluster.Node(loc); ok {
						candidates = append(candidates, loadbal.NodeState{ID: loc, Weight: spec.EffectiveWeight()})
					}
				}
				picked[i], _ = picker.Pick(candidates)
			}
		})
		wk.stage(id, "conntrack.mapping_cycle", len(miss), func() {
			for _, i := range miss {
				_ = mapping.Bind(key, picked[i])
				_, _ = mapping.Advance(key, conntrack.EventRequestBound)
				_, _ = mapping.Advance(key, conntrack.EventRequestDone)
			}
		})
		wk.stage(id, "conntrack.acquire_release", len(miss), func() {
			for _, i := range miss {
				pc, aerr := pool.Acquire(picked[i])
				if aerr != nil {
					err = aerr
					return
				}
				pool.Release(pc)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("walk: pool: %w", err)
		}
		wk.stage(id, "httpx.write_request", len(miss), func() {
			for _, i := range miss {
				_ = pools.WriteProxyRequest(io.Discard, reqs[i])
			}
		})
		wk.stage(id, "backend.handle", len(miss), func() {
			for _, i := range miss {
				resps[i] = nodes[picked[i]].srv.Handle(reqs[i])
			}
		})
		for _, i := range miss { // untimed: the back end's response on the wire
			if resps[i].StatusCode != 200 {
				return nil, fmt.Errorf("walk: %s answered %d by %s", reqs[i].Path, resps[i].StatusCode, picked[i])
			}
			wires[i].Reset()
			if err := httpx.WriteResponse(&wires[i], resps[i]); err != nil {
				return nil, err
			}
			wireReaders[i].Reset(&wires[i])
		}
		wk.stage(id, "httpx.read_response_header", len(miss), func() {
			for _, i := range miss {
				h, herr := httpx.ReadResponseHeader(wireReaders[i])
				if herr != nil {
					err = herr
				}
				hdrs[i] = h
			}
		})
		if err != nil {
			return nil, fmt.Errorf("walk: response header: %w", err)
		}
		// a cacheable miss is buffered, stored and replayed; the rest
		// stream straight through
		fill, relay = fill[:0], relay[:0]
		for _, i := range miss {
			if rc != nil && entries[i] == nil && !reqs[i].IsDynamic() && hdrs[i].ContentLength <= rc.MaxEntryBytes() {
				fill = append(fill, i)
			} else {
				relay = append(relay, i)
			}
		}
		wk.stage(id, "httpx.relay", len(relay), func() {
			for _, i := range relay {
				n, _ := pools.RelayResponse(io.Discard, hdrs[i], wireReaders[i], reqs[i].Proto, false)
				relayedBytes += n
			}
		})
		wk.stage(id, "respcache.fill", len(fill), func() {
			for _, i := range fill {
				body := make([]byte, hdrs[i].ContentLength)
				_, _ = io.ReadFull(wireReaders[i], body)
				e := respcache.NewEntry(stored(body), rc.Now(), rc.FreshFor())
				rc.Put(reqs[i].Path, e)
				entries[i] = e
			}
		})
		served = append(append(served[:0], hit...), fill...)
		wk.stage(id, "httpx.serve_stored", len(served), func() {
			for _, i := range served {
				_ = httpx.ServeStored(io.Discard, &entries[i].Stored, httpx.ServeOptions{
					Proto: reqs[i].Proto, AgeSeconds: entries[i].AgeSeconds(rc.Now()), CacheStatus: "HIT",
				})
			}
		})
		wk.stage(id, "loadbal.tracker_charge", len(relay), func() {
			for _, i := range relay {
				tracker.Record(picked[i], objs[i].class, 100*time.Microsecond)
			}
		})
		wk.stage(id, "telemetry.span", batch, func() {
			for i, r := range reqs {
				sp := tel.StartSpan(0)
				sp.MarkParse()
				sp.SetRequest(r.Method, r.Path)
				sp.MarkRoute()
				sp.MarkBackend()
				sp.MarkReply()
				sp.SetClass(objs[i].class.String())
				sp.SetStatus(200)
				sp.SetBytes(int64(len(objs[i].data)))
				sp.SetOutcome("relayed")
				tel.FinishSpan(sp)
			}
		})
		wk.stage(id, "telemetry.observe", batch, func() {
			for i := range reqs {
				cs := reg.Class(objs[i].class.String())
				cs.Requests.Inc()
				cs.Bytes.Add(int64(len(objs[i].data)))
				cs.Latency.Observe(100 * time.Microsecond)
			}
		})
		sink.spans[id-1].End = time.Since(sink.epoch).Nanoseconds()
		walked += batch
	}
	wk.probe = false
	tableAfter := table.Stats()

	// Stages timed on their own: not on the request path, or a variant of
	// one that is (plain Route, pure cache hits, pure misses).
	paths := make([]string, microCalls)
	for r := 0; r < microRounds; r++ {
		for i := range paths { // the stream's next requests, as route_hinted saw them
			paths[i] = stream.next().path
		}
		wk.stage(micro, "urltable.route", microCalls, func() {
			for _, p := range paths {
				_, _ = table.Route(p)
			}
		})
		wk.stage(micro, "journal.record", microCalls, func() {
			for i, p := range paths {
				jnl.Record(journal.Event{Actor: journal.ActorDistributor, Kind: journal.KindFailover, Node: "n1", Path: p, Detail: "n2", A: int64(i)})
			}
		})
	}
	if rc != nil {
		var resident []string
		for _, o := range st.objects {
			if _, state := rc.Get(o.path); state == respcache.Fresh && len(resident) < microCalls {
				resident = append(resident, o.path)
			}
		}
		absent := make([]string, microCalls)
		for i := range absent {
			absent[i] = fmt.Sprintf("/absent/a%06d.html", i)
		}
		for r := 0; r < microRounds; r++ {
			wk.stage(micro, "respcache.get_hit", len(resident), func() {
				for _, p := range resident {
					rc.Get(p)
				}
			})
			wk.stage(micro, "respcache.get_miss", microCalls, func() {
				for _, p := range absent {
					rc.Get(p)
				}
			})
		}
		wk.stage(micro, "respcache.invalidate", len(resident), func() {
			for _, p := range resident {
				rc.Invalidate(p)
			}
		})
	}
	lru := cache.NewLRU(64 << 20)
	for _, o := range st.objects[:min(len(st.objects), microCalls)] {
		lru.Put(o.path, cache.Bytes(o.data))
	}
	for r := 0; r < microRounds; r++ {
		wk.stage(micro, "cache.lru_get", min(len(st.objects), microCalls), func() {
			for _, o := range st.objects[:min(len(st.objects), microCalls)] {
				lru.Get(o.path)
			}
		})
	}
	// table mutations on fresh paths, so the placed site stays intact
	fresh := make([]string, microCalls)
	for i := range fresh {
		fresh[i] = fmt.Sprintf("/scratch/s%02d/t%06d.html", i%8, i)
	}
	wk.stage(micro, "urltable.insert", microCalls, func() {
		for _, p := range fresh {
			_ = table.Insert(tableObject(p, 1024), nodeA)
		}
	})
	wk.stage(micro, "urltable.add_location", microCalls, func() {
		for _, p := range fresh {
			_ = table.AddLocation(p, nodeB)
		}
	})
	wk.stage(micro, "urltable.rename", microCalls, func() {
		for _, p := range fresh {
			_ = table.Rename(p, p+".moved")
		}
	})
	wk.stage(micro, "urltable.remove", microCalls, func() {
		for _, p := range fresh {
			_ = table.Remove(p + ".moved")
		}
	})
	loads := tracker.IntervalLoads(cluster.Nodes)
	wk.stage(micro, "loadbal.plan", 1, func() { loadbal.PlanDecisions(loads, table, loadbal.DefaultPlannerOptions()) })
	wk.stage(micro, "doctree.view", 1, func() { doctree.View(table) })
	wk.stage(micro, "mgmt.dispatch", 64, func() {
		for i := 0; i < 64; i++ {
			if _, derr := ctrl.Dispatch(nodeA, mgmt.OpPing.String(), mgmt.Args{}); derr != nil {
				err = derr
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("walk: dispatch: %w", err)
	}
	if adm != nil && wk.acc["admission.decide"] == nil {
		return nil, fmt.Errorf("walk: admission stage never ran")
	}

	// The churn script through the in-process controller, each op its own
	// span.
	for i := 0; i < len(script) && i < walkOps; i++ {
		op := script[i]
		wk.stage(micro, "mgmt."+op.kind, 1, func() { err = applyOp(ctrl, op) })
		if err != nil {
			return nil, fmt.Errorf("walk: %s %s: %w", op.kind, op.path, err)
		}
	}

	// A stage named S feeds the metrics S_ns, S_us or S_ms (busy time per
	// call) and S_allocs.
	m := map[string]float64{}
	for _, d := range perLayer {
		for suffix, unit := range map[string]time.Duration{"_ns": time.Nanosecond, "_us": time.Microsecond, "_ms": time.Millisecond} {
			if a := wk.acc[strings.TrimSuffix(d.name, suffix)]; a != nil && strings.HasSuffix(d.name, suffix) {
				m[d.name] = float64(a.ns) / float64(a.calls) / float64(unit)
			}
		}
		if a := wk.acc[strings.TrimSuffix(d.name, "_allocs")]; a != nil && strings.HasSuffix(d.name, "_allocs") {
			m[d.name] = a.allocs
		}
	}
	if a := wk.acc["httpx.relay"]; a != nil && relayedBytes > 0 {
		m["httpx.relay_ns_per_kib"] = float64(a.ns) / (float64(relayedBytes) / 1024)
	}
	if d := tableAfter.Lookups - tableBefore.Lookups; d > 0 {
		m["urltable.entry_cache_hit_ratio"] = float64(tableAfter.CacheHits-tableBefore.CacheHits) / float64(d)
	}
	m["urltable.memory_kb"] = float64(tableAfter.MemBytes) / 1024
	m["mgmt.bulk_insert_per_s"] = bulkPerSec
	m["distributor.stage_sum_us"] = float64(wk.pathNs) / float64(walked) / 1e3
	if a := wk.acc["httpx.relay"]; a != nil {
		m["distributor.relay_share"] = float64(a.ns) / float64(wk.pathNs)
	}
	return m, nil
}
