package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"webcluster/internal/config"
)

func streamPaths(s *site, seed int64, conn, n int) []string {
	st := newStream(s, seed, conn)
	out := make([]string, n)
	for i := range out {
		out[i] = st.next().path
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	spec := siteSpec{small: 200, dynamicEvery: 9}
	a, b, c := generateSite(spec, 7), generateSite(spec, 7), generateSite(spec, 8)
	if len(a.objects) != 222 {
		t.Fatalf("site has %d objects, want 200 static + 22 dynamic", len(a.objects))
	}
	for i := range a.objects {
		if a.objects[i].path != b.objects[i].path || !bytes.Equal(a.objects[i].data, b.objects[i].data) {
			t.Fatalf("object %d differs between two sites of seed 7", i)
		}
	}
	if a.objects[0].path == c.objects[0].path || bytes.Equal(a.objects[0].data, c.objects[0].data) {
		t.Error("seeds 7 and 8 generated the same hottest object")
	}
	if !reflect.DeepEqual(streamPaths(a, 7, 0, 2000), streamPaths(b, 7, 0, 2000)) {
		t.Error("same seed, different request stream")
	}
	if reflect.DeepEqual(streamPaths(a, 7, 0, 2000), streamPaths(a, 7, 1, 2000)) {
		t.Error("the two connections of one run draw the same stream")
	}
	if reflect.DeepEqual(streamPaths(a, 7, 0, 2000), streamPaths(a, 8, 0, 2000)) {
		t.Error("different seeds, same request stream")
	}
	render := func(ops []churnOp) []byte {
		var buf bytes.Buffer
		for _, op := range ops {
			buf.WriteString(op.kind + " " + op.path + " " + op.newPath + " " + string(op.node) + " " + string(op.source) + " ")
			buf.Write(op.data)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(churnScript(a, 7, 400)), render(churnScript(b, 7, 400))) {
		t.Error("same seed, different churn script")
	}
	if bytes.Equal(render(churnScript(a, 7, 400)), render(churnScript(a, 8, 400))) {
		t.Error("different seeds, same churn script")
	}
}

// Every seed must give the same byte mix: sizes and placement go by rank.
func TestSiteShapeIsSeedIndependent(t *testing.T) {
	shape := func(seed int64) (sizes []int, nodes [][]config.NodeID) {
		for _, o := range generateSite(siteSpec{small: 100, large: 7}, seed).objects {
			sizes = append(sizes, len(o.data))
			nodes = append(nodes, o.nodes)
		}
		return
	}
	s1, n1 := shape(1)
	s2, n2 := shape(2)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(n1, n2) {
		t.Error("sizes or placement changed with the seed")
	}
}

// The script must be valid when played in order: no operation may fail.
func TestChurnScriptIsValidInOrder(t *testing.T) {
	s := generateSite(siteSpec{small: 300, dynamicEvery: 9}, 3)
	locs := map[string][]config.NodeID{}
	for _, o := range s.objects {
		locs[o.path] = o.nodes
	}
	has := func(nodes []config.NodeID, n config.NodeID) bool {
		for _, x := range nodes {
			if x == n {
				return true
			}
		}
		return false
	}
	seen := map[string]int{}
	for i, op := range churnScript(s, 3, 2000) {
		seen[op.kind]++
		cur, placed := locs[op.path]
		switch op.kind {
		case opInsert:
			if placed {
				t.Fatalf("op %d inserts existing %s", i, op.path)
			}
			locs[op.path] = []config.NodeID{op.node}
		case opUpdate, opPurge:
			if !placed {
				t.Fatalf("op %d: %s of missing %s", i, op.kind, op.path)
			}
		case opDelete:
			if !placed {
				t.Fatalf("op %d deletes missing %s", i, op.path)
			}
			delete(locs, op.path)
		case opRename:
			if _, taken := locs[op.newPath]; !placed || taken {
				t.Fatalf("op %d renames %s to %s", i, op.path, op.newPath)
			}
			locs[op.newPath] = cur
			delete(locs, op.path)
		case opReplicate:
			if !placed || !has(cur, op.source) || has(cur, op.node) {
				t.Fatalf("op %d replicates %s from %s to %s, held by %v", i, op.path, op.source, op.node, cur)
			}
			locs[op.path] = append(append([]config.NodeID(nil), cur...), op.node)
		case opOffload:
			if len(cur) < 2 || !has(cur, op.node) {
				t.Fatalf("op %d offloads %s from %s, held by %v", i, op.path, op.node, cur)
			}
			var rest []config.NodeID
			for _, n := range cur {
				if n != op.node {
					rest = append(rest, n)
				}
			}
			locs[op.path] = rest
		}
		for _, p := range op.probes {
			if p.status == 200 && !reflect.DeepEqual(p.obj.nodes, locs[p.obj.path]) {
				t.Fatalf("op %d (%s): probe expects %v, model holds %v", i, op.kind, p.obj.nodes, locs[p.obj.path])
			}
			if _, placed := locs[p.obj.path]; p.status == 404 && placed {
				t.Fatalf("op %d (%s): probe expects 404 for placed %s", i, op.kind, p.obj.path)
			}
		}
	}
	for _, k := range opKinds {
		if seen[k] == 0 {
			t.Errorf("2000 ops and no %s", k)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.95, 10}, {0.99, 10}, {0.01, 1}} {
		if got := percentile(ten, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing is not 0")
	}
	if got := median([]float64{9, 1, 4, 6}); got != 5 {
		t.Errorf("median(9,1,4,6) = %v, want 5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if got := spread([]float64{90, 100, 120}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("spread(90,100,120) = %v, want 0.3", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	if got := quartileSpread(ten); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want 1", got)
	}
	// statistics.quantiles([10, 11, 12, 13, 20], n=4) == [10.5, 12.0, 16.5]
	if got := quartileSpread([]float64{20, 10, 13, 11, 12}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("quartileSpread(10,11,12,13,20) = %v, want 0.5", got)
	}
}

func TestCutSlices(t *testing.T) {
	ms := time.Millisecond
	var samples []sample
	// slice 0 (0-1 s): four requests of 100, 200, 300, 400 us and 1000 B each
	for i, lat := range []int{100, 200, 300, 400} {
		samples = append(samples, sample{done: time.Duration(100+i) * ms, latency: time.Duration(lat) * time.Microsecond, bytes: 1000, ok: true})
	}
	// slice 1 (1-2 s): two good requests and one failure, which must not count
	samples = append(samples,
		sample{done: 1500 * ms, latency: 50 * time.Microsecond, bytes: 500, ok: true},
		sample{done: 1600 * ms, latency: 70 * time.Microsecond, bytes: 500, ok: true},
		sample{done: 1700 * ms, latency: 9 * time.Second, ok: false},
		// past the window: dropped
		sample{done: 2500 * ms, latency: 1, bytes: 1, ok: true})
	got := cutSlices(samples, 2*time.Second, 2)
	want := []sliceStats{
		{rps: 4, mbps: 0.004, p50us: 200, p90us: 400},
		{rps: 2, mbps: 0.001, p50us: 50, p90us: 70},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cutSlices = %+v, want %+v", got, want)
	}
	if m := median(column(got, func(s sliceStats) float64 { return s.rps })); m != 3 {
		t.Errorf("slice median of rps = %v, want 3", m)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2: 30..50 is new
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent: 90..100
		{ID: 5, Parent: 3, Start: 25, End: 45},
	}
	got := selfTimes(spans)
	want := map[int]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		worse, sa, sb, bound float64
		want                 string
	}{
		{0.02, 0.01, 0.02, 0.10, "ok"},
		{-0.30, 0.01, 0.02, 0.10, "ok"}, // better is never a regression
		{0.12, 0.01, 0.02, 0.10, "regressed"},
		{0.12, 0.01, 0.15, 0.10, "unresolved"},
		{0.00, 0.20, 0.01, 0.10, "unresolved"},
	} {
		if got := verdict(c.worse, c.sa, c.sb, c.bound); got != c.want {
			t.Errorf("verdict(%v, %v, %v, %v) = %s, want %s", c.worse, c.sa, c.sb, c.bound, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rps float64) string {
		rec := runRecord{Workload: "relay_small", Metrics: map[string]measurement{}}
		for _, m := range endToEnd {
			rec.Metrics[m.name] = measurement{Value: 100, Unit: m.unit}
		}
		rec.Metrics["throughput_rps"] = measurement{Value: rps, Unit: "1/s"}
		path := dir + "/" + name
		if err := appendRecord(path, &rec); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.jsonl", 1000), write("same.jsonl", 980), write("slow.jsonl", 700)
	var out bytes.Buffer
	if regressed, err := compareFiles(&out, a, same); err != nil || regressed {
		t.Errorf("2%% slower: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	if regressed, err := compareFiles(&out, a, slow); err != nil || !regressed {
		t.Errorf("30%% slower: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if !strings.Contains(out.String(), "regressed") || strings.Count(out.String(), "\n") != 1+len(endToEnd) {
		t.Errorf("want a header and one row per end-to-end metric:\n%s", out.String())
	}
}

func TestReadAnswerAndCheck(t *testing.T) {
	o := newStatic(1, "/docs/d00/p000001.html", 64, nodeA)
	respond := func(head string, body []byte) (answer, error) {
		h := &httpConn{br: bufio.NewReader(bytes.NewReader(append([]byte(head), body...))), buf: make([]byte, 16)}
		return h.readAnswer()
	}
	a, err := respond("HTTP/1.1 200 OK\r\nX-Served-By: n1\r\ncontent-length: 64\r\n\r\n", o.data)
	if err != nil || a.status != 200 || a.length != 64 || a.servedBy != "n1" {
		t.Fatalf("readAnswer = %+v, %v", a, err)
	}
	if err := check(a, o, 200, true, true); err != nil {
		t.Errorf("a correct answer failed: %v", err)
	}
	flipped := append([]byte(nil), o.data...)
	flipped[63] ^= 1
	a, _ = respond("HTTP/1.1 200 OK\r\nContent-Length: 64\r\n\r\n", flipped)
	if check(a, o, 200, true, false) == nil {
		t.Error("a flipped bit passed the full check")
	}
	if check(a, o, 200, false, false) != nil {
		t.Error("the length-only check looked at the body")
	}
	a, _ = respond("HTTP/1.1 200 OK\r\nX-Served-By: n2\r\nContent-Length: 64\r\n\r\n", o.data)
	if check(a, o, 200, true, true) == nil {
		t.Error("an answer from a node without a copy passed a probe")
	}
	a, _ = respond("HTTP/1.1 404 Not Found\r\nContent-Length: 3\r\n\r\n", []byte("no\n"))
	if check(a, o, 200, true, false) == nil || check(a, o, 404, true, false) != nil {
		t.Error("status is not checked against the expected one")
	}
	if _, err := respond("HTTP/1.1 200 OK\r\nContent-Length: 64\r\n\r\n", o.data[:40]); err == nil {
		t.Error("a truncated body was accepted")
	}
	if _, err := respond("HTTP/1.1 200 OK\r\nContent-Length: 64\r\nContent-Length: 64\r\n\r\n", o.data); err == nil {
		t.Error("duplicate Content-Length was accepted")
	}
	if _, err := respond("HTTP/1.1 200 OK\r\n\r\n", nil); err == nil {
		t.Error("a response without Content-Length was accepted")
	}
}

func TestParseStartLinesAndStat(t *testing.T) {
	addrs := map[string]string{}
	for _, line := range []string{
		"admin at http://127.0.0.1:4001/metrics",
		"node n1 up: web 127.0.0.1:4002 broker 127.0.0.1:4003 (350 MHz, 128 MB, SCSI, Linux/Apache)",
		"response cache: 64 MiB, fresh 1m0s, stale window 30s",
		"distributor serving at 127.0.0.1:4004 over 2 nodes",
		"console at 127.0.0.1:4005",
	} {
		parseStartLine(line, addrs)
	}
	want := map[string]string{"admin": "127.0.0.1:4001", "web": "127.0.0.1:4002", "broker": "127.0.0.1:4003", "front": "127.0.0.1:4004", "console": "127.0.0.1:4005"}
	if !reflect.DeepEqual(addrs, want) {
		t.Errorf("parsed %v, want %v", addrs, want)
	}
	// a command name with spaces and a parenthesis; utime 150, stime 50 ticks
	stat := "4242 (back end) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 150 50 0 0 20 0 9 0 12345 1000000 300 18446744073709551615 1 1"
	u, err := parseStat([]byte(stat))
	if err != nil || u != 2*time.Second {
		t.Errorf("parseStat = %v, %v; want 2 s of CPU", u, err)
	}
}

// BENCHMARK.json and the harness must name the same workloads and metrics.
func TestNamesAgreeWithBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(spec.Workloads); n != len(workloads) || n < 2 || n > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", n, len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q (or their reasons differ)", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name, or a reason that is not one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	agree := func(kind string, listed []metric, defs []metricDef, limit int, bounded bool) {
		if len(listed) != len(defs) || len(listed) < 1 || len(listed) > limit {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the harness, limit %d", len(listed), kind, len(defs), limit)
		}
		for i, m := range listed {
			d := defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the harness %+v", kind, i, m, d)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || seen[m.Name] {
				t.Errorf("%s metric %q: bad or repeated name, unit %q or direction %q", kind, m.Name, m.Unit, m.Better)
			}
			seen[m.Name] = true
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.bound || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s metric %q: bound %v, the harness has %v; it must be in (0, 0.25]", kind, m.Name, m.Bound, d.bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s metric %q carries a bound", kind, m.Name)
			}
		}
	}
	agree("end-to-end", spec.EndToEnd, endToEnd, 16, true)
	agree("per-layer", spec.PerLayer, perLayer, 128, false)
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" {
		t.Error("setup_s must be an end-to-end metric in seconds, lower is better")
	}
	for _, d := range endToEnd[1:] {
		if d.bound > endToEnd[0].bound {
			t.Errorf("%s has a wider bound than setup_s", d.name)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) || !reflect.DeepEqual(spec.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v, paths %v", spec.Command, spec.Paths)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
}
