package distributor

import (
	"testing"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/faults"
	"webcluster/internal/httpx"
)

// TestExchangeTimeoutFailsOverStalledBackend: a slow-loris back end (its
// pooled connections never deliver a response) must surface as an
// exchange timeout and fail over to the healthy replica — the request
// succeeds and no relay goroutine is left hanging. Reverting the
// exchange deadline in attemptExchange makes this test hang.
func TestExchangeTimeoutFailsOverStalledBackend(t *testing.T) {
	in := faults.New(1)
	tc := startClusterOpts(t, 2, func(o *Options) {
		o.Faults = in
		o.ExchangeTimeout = 150 * time.Millisecond
		o.RetryBackoff = time.Millisecond
	})
	tc.place(t, "/ha.html", []byte("alive"), "n1", "n2")

	// Stall every distributor→n1 connection: responses never arrive.
	in.Set("pool.conn/n1", faults.Rule{ReadStall: time.Minute})

	start := time.Now()
	for i := 0; i < 4; i++ {
		resp := fetch(t, tc.front, "/ha.html", httpx.Proto11)
		if resp.StatusCode != 200 || string(resp.Body) != "alive" {
			t.Fatalf("request %d = %d %q", i, resp.StatusCode, resp.Body)
		}
		if got := resp.Header.Get("X-Served-By"); got != "n2" {
			t.Fatalf("request %d served by %s with n1 stalled", i, got)
		}
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("failover took %v — deadlines not bounding the stall", elapsed)
	}
	if in.Fired("pool.conn/n1") == 0 {
		t.Fatal("stall rule never fired — test exercised nothing")
	}
}

// A request the edge cannot frame one way never reaches a back end:
// conflicting Content-Lengths are a 400, any Transfer-Encoding a 501, a
// line ended by LF alone a 400. A repeated identical Content-Length is no
// ambiguity. A back end that answers framed either way, or with a bare LF,
// has sent a malformed header: the fetch fails over to a replica whose
// answer frames, or answers 502 when none does.
func TestAmbiguousFramingRefused(t *testing.T) {
	tc := startClusterOpts(t, 1, func(o *Options) {
		o.RetryBackoff = time.Millisecond
		withCannedNode(t, "te", []byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n"))(o)
		withCannedNode(t, "cl", []byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nabc"))(o)
		withCannedNode(t, "lf", []byte("HTTP/1.1 200 OK\r\nContent-Length: 2\n\r\nok"))(o)
	})
	tc.place(t, "/ok.cgi", []byte("fine"), "n1")
	if err := tc.backends["n1"].Store().Put("/both.html", []byte("framed")); err != nil {
		t.Fatal(err)
	}
	for path, nodes := range map[string][]config.NodeID{
		"/te.html": {"te"}, "/cl.html": {"cl"}, "/lf.html": {"lf"}, "/both.html": {"te", "n1"},
	} {
		obj := content.Object{Path: path, Size: 6, Class: content.ClassHTML}
		if err := tc.table.Insert(obj, nodes...); err != nil {
			t.Fatal(err)
		}
	}
	post := func(fields string) string {
		return "POST /ok.cgi HTTP/1.1\r\nHost: c\r\nConnection: close\r\n" + fields + "\r\nhello"
	}
	for _, c := range []struct {
		raw    string
		status int
		body   string
	}{
		{post("Content-Length: 5\r\nContent-Length: 100\r\n"), 400, "bad request\n"},
		{post("Transfer-Encoding: chunked\r\n"), 501, "transfer-encoding not implemented\n"},
		{post("Content-Length: 5\r\nContent-Length: 5\r\n"), 200, ""},
		{get11("/te.html"), 502, "backend error\n"},
		{get11("/cl.html"), 502, "backend error\n"},
		{get11("/lf.html"), 502, "backend error\n"},
		{"POST /ok.cgi HTTP/1.1\r\nHost: c\nContent-Length: 5\r\n\r\nhello", 400, "bad request\n"},
		{get11("/both.html"), 200, "framed"},
	} {
		status, header, body := rawExchange(t, tc.front, c.raw)
		if status != c.status || (c.body != "" && string(body) != c.body) {
			t.Errorf("%q: %d %q, want %d %q\n%s", c.raw, status, body, c.status, c.body, header)
		}
	}
}
