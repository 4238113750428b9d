package distributor

import (
	"testing"
	"time"

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
