package telemetry

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// Close must not return while the serve goroutine is still running: the
// admin server previously leaked it past Close (PR 9), which made
// shutdown racy — a scrape arriving between Close returning and Serve
// unwinding hit a half-torn-down server. Close straight after Start is
// the case only the join covers: the goroutine may not have reached Serve
// yet, and then nothing but Serve, later, closes the listener — so the
// port is still taken when Close returns. One round catches a missing join
// about half the time; twenty rounds, always.
func TestAdminCloseJoinsServeGoroutine(t *testing.T) {
	for round := 0; round < 20; round++ {
		admin := NewAdmin(New(Options{Node: "front"}))
		addr, err := admin.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := admin.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		l, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("round %d: port still listening after Close returned: %v", round, err)
		}
		_ = l.Close()
	}
}

// adminGet fetches path from the admin server and decodes the JSON body
// into out.
func adminGet(t *testing.T, addr, path string, out any) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("GET %s: decoding %q: %v", path, body, err)
	}
}

// /debug/traces must present spans in start-time order. The span ring
// stores spans in *finish* order (newest finish first), so a long
// request that started before a short one used to appear after it —
// the regression this test pins.
func TestAdminTracesSortedByStartTime(t *testing.T) {
	now := time.Unix(1000, 0)
	tel := New(Options{Node: "front", Clock: func() time.Time { return now }})
	admin := NewAdmin(tel)
	addr, err := admin.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = admin.Close() }()

	long := tel.StartSpan(0) // starts first ...
	now = now.Add(10 * time.Millisecond)
	short := tel.StartSpan(0)
	now = now.Add(time.Millisecond)
	tel.FinishSpan(short)
	now = now.Add(time.Second)
	tel.FinishSpan(long) // ... finishes last, so the ring holds it newest

	var spans []Span
	adminGet(t, addr, "/debug/traces", &spans)
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].StartUnixNano < spans[i-1].StartUnixNano {
			t.Fatalf("spans out of start order: [%d]=%d after [%d]=%d",
				i, spans[i].StartUnixNano, i-1, spans[i-1].StartUnixNano)
		}
	}
}
