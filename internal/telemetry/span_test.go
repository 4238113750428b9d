package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTelemetryIsInert(t *testing.T) {
	var tel *Telemetry
	sp := tel.StartSpan(7)
	if sp != nil {
		t.Fatal("nil telemetry returned a span")
	}
	// Every span method must be a no-op on nil.
	sp.MarkParse()
	sp.MarkRoute()
	sp.MarkCache()
	sp.MarkBackend()
	sp.MarkReply()
	sp.AdoptTrace(1)
	sp.SetRequest("GET", "/x")
	sp.SetClass("html")
	sp.SetStatus(200)
	sp.SetBytes(1)
	sp.SetCache("HIT")
	sp.SetBackend("n1", 2)
	sp.SetOutcome("ok")
	if sp.ID() != 0 {
		t.Fatal("nil span has nonzero ID")
	}
	tel.FinishSpan(sp)
	if tel.Registry() != nil {
		t.Fatal("nil telemetry returned a registry")
	}
}

func TestSpanLifecycle(t *testing.T) {
	clock, advance := fixedClock(time.Unix(1700000000, 0))
	tel := New(Options{Node: "front", Clock: clock})

	sp := tel.StartSpan(0)
	if sp == nil || sp.ID() == 0 || sp.TraceID == 0 {
		t.Fatalf("bad span: %+v", sp)
	}
	advance(2 * time.Millisecond)
	sp.MarkParse()
	sp.SetRequest("GET", "/docs/a.html")
	advance(1 * time.Millisecond)
	sp.MarkRoute()
	advance(5 * time.Millisecond)
	sp.MarkBackend()
	sp.SetBackend("n1", 99)
	advance(1 * time.Millisecond)
	sp.MarkReply()
	sp.SetClass("html")
	sp.SetStatus(200)
	sp.SetBytes(4096)
	sp.SetOutcome("relayed")
	tel.FinishSpan(sp)

	spans := tel.Spans(10)
	if len(spans) != 1 {
		t.Fatalf("ring holds %d spans, want 1", len(spans))
	}
	got := spans[0]
	if got.ParseNs != int64(2*time.Millisecond) ||
		got.RouteNs != int64(1*time.Millisecond) ||
		got.BackendNs != int64(5*time.Millisecond) ||
		got.ReplyNs != int64(1*time.Millisecond) {
		t.Fatalf("phase timings wrong: %+v", got)
	}
	if got.TotalNs != int64(9*time.Millisecond) {
		t.Fatalf("TotalNs = %d, want 9ms", got.TotalNs)
	}
	if got.Backend != "n1" || got.BackendSpan != 99 || got.Status != 200 || got.Class != "html" {
		t.Fatalf("span fields wrong: %+v", got)
	}
}

func TestAdoptTracePropagatesInboundID(t *testing.T) {
	tel := New(Options{Node: "front"})
	sp := tel.StartSpan(0)
	own := sp.TraceID
	sp.AdoptTrace(0xabcdef) // client supplied a trace ID after parse
	if sp.TraceID != 0xabcdef {
		t.Fatalf("AdoptTrace didn't take: %x", sp.TraceID)
	}
	if own == 0 {
		t.Fatal("fresh span had no trace ID before adoption")
	}
	tel.FinishSpan(sp)
}

func TestRingWrapsAndSnapshotsNewestFirst(t *testing.T) {
	tel := New(Options{Node: "front"})
	const total = spanRingCap + 24
	for i := 0; i < total; i++ {
		sp := tel.StartSpan(0)
		sp.SetRequest("GET", fmt.Sprintf("/f%d", i))
		tel.FinishSpan(sp)
	}
	spans := tel.Spans(0)
	if len(spans) != spanRingCap {
		t.Fatalf("ring snapshot has %d spans, want %d (ring size)", len(spans), spanRingCap)
	}
	if want := fmt.Sprintf("/f%d", total-1); spans[0].Path != want {
		t.Fatalf("newest span = %s, want %s", spans[0].Path, want)
	}
	if limited := tel.Spans(4); len(limited) != 4 {
		t.Fatalf("limited snapshot has %d spans, want 4", len(limited))
	}
}

func TestRingConcurrentRecord(t *testing.T) {
	tel := New(Options{Node: "front"})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				sp := tel.StartSpan(0)
				sp.SetRequest("GET", "/x")
				tel.FinishSpan(sp)
				if i%16 == 0 {
					_ = tel.Spans(8) // concurrent readers must see untorn copies
				}
			}
		}()
	}
	wg.Wait()
	for _, sp := range tel.Spans(0) {
		if sp.SpanID == 0 || sp.Path != "/x" {
			t.Fatalf("torn span in ring: %+v", sp)
		}
	}
}

func TestReportAndMergeSpans(t *testing.T) {
	clock, advance := fixedClock(time.Unix(1700000000, 0))
	tel := New(Options{Node: "front", Clock: clock})
	durs := []time.Duration{3, 9, 1, 7, 5}
	for i, d := range durs {
		sp := tel.StartSpan(0)
		sp.SetRequest("GET", fmt.Sprintf("/d%d", i))
		advance(d * time.Millisecond)
		sp.MarkReply()
		tel.FinishSpan(sp)
	}
	rep := tel.Report(3)
	if len(rep.Spans) != 3 {
		t.Fatalf("report has %d spans, want 3", len(rep.Spans))
	}
	if rep.Spans[0].TotalNs < rep.Spans[1].TotalNs || rep.Spans[1].TotalNs < rep.Spans[2].TotalNs {
		t.Fatalf("report spans not slowest-first: %v", rep.Spans)
	}
	if rep.Spans[0].TotalNs != int64(9*time.Millisecond) {
		t.Fatalf("slowest = %d, want 9ms", rep.Spans[0].TotalNs)
	}

	other := []Span{{Path: "/other", TotalNs: int64(8 * time.Millisecond)}}
	merged := MergeSpans(3, rep.Spans, other)
	if len(merged) != 3 {
		t.Fatalf("merged %d spans, want 3", len(merged))
	}
	if merged[1].Path != "/other" {
		t.Fatalf("merge order wrong: %v, want /other second", merged)
	}
}

func TestAdminEndpoints(t *testing.T) {
	tel := New(Options{Node: "front"})
	tel.Registry().Class("html").Requests.Inc()
	sp := tel.StartSpan(0)
	sp.SetRequest("GET", "/a")
	tel.FinishSpan(sp)

	admin := NewAdmin(tel)
	addr, err := admin.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = admin.Close() }()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer func() { _ = resp.Body.Close() }()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get("/metrics"); code != 200 ||
		!strings.Contains(body, `webcluster_class_requests_total{node="front",class="html"} 1`) {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	code, body := get("/debug/traces?limit=5")
	if code != 200 {
		t.Fatalf("/debug/traces = %d", code)
	}
	var spans []Span
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatalf("/debug/traces not JSON: %v", err)
	}
	if len(spans) != 1 || spans[0].Path != "/a" {
		t.Fatalf("/debug/traces = %+v", spans)
	}
}
