package workload

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"webcluster/internal/content"
	"webcluster/internal/httpx"
	"webcluster/internal/telemetry"
)

// ClientPoolOptions configures a WebBench-style closed-loop client pool
// driving a live front end (§5.1: 24 machines × 4 WebBench clients; here,
// N goroutines with keep-alive connections).
type ClientPoolOptions struct {
	// Addr is the front end to hammer.
	Addr string
	// Clients is the number of concurrent closed-loop clients.
	Clients int
	// Duration is how long the run lasts.
	Duration time.Duration
	// Site is the content the clients request.
	Site *content.Site
	// ZipfS is the popularity skew; 0 means DefaultZipfS.
	ZipfS float64
	// Seed makes per-client streams deterministic.
	Seed int64
	// ThinkTime pauses each client between requests; 0 for none
	// (WebBench's default saturation mode).
	ThinkTime time.Duration
	// KeepAlive controls whether clients reuse connections (HTTP/1.1)
	// or reconnect per request (HTTP/1.0).
	KeepAlive bool
}

// Report is the outcome of a client-pool run.
type Report struct {
	Requests int64
	Errors   int64
	Bytes    int64
	Elapsed  time.Duration
	// PerClass holds per-class request counts and latencies.
	PerClass map[string]ClassReport
}

// ClassReport is one class's slice of the run.
type ClassReport struct {
	Requests int64
	Errors   int64
	MeanLat  time.Duration
	P50      time.Duration
	P95      time.Duration
	P99      time.Duration
}

// Throughput returns overall requests per second.
func (r Report) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// ClassThroughput returns class's requests per second.
func (r Report) ClassThroughput(class string) float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.PerClass[class].Requests) / r.Elapsed.Seconds()
}

// String formats the headline numbers.
func (r Report) String() string {
	return fmt.Sprintf("%d reqs in %v (%.1f req/s), %d errors",
		r.Requests, r.Elapsed.Round(time.Millisecond), r.Throughput(), r.Errors)
}

// RunClientPool drives the front end with closed-loop clients and returns
// the aggregated report. It blocks for the configured duration.
func RunClientPool(opts ClientPoolOptions) (Report, error) {
	if opts.Clients <= 0 {
		return Report{}, errors.New("workload: non-positive client count")
	}
	if opts.Site == nil || opts.Site.Len() == 0 {
		return Report{}, errors.New("workload: empty site")
	}
	zipfS := opts.ZipfS
	if zipfS == 0 {
		zipfS = DefaultZipfS
	}
	if opts.Duration <= 0 {
		opts.Duration = time.Second
	}

	reg := telemetry.NewRegistry("workload")
	var wg sync.WaitGroup
	deadline := time.Now().Add(opts.Duration)
	start := time.Now()

	for i := 0; i < opts.Clients; i++ {
		gen, err := NewGenerator(opts.Site, zipfS, opts.Seed+int64(i)*7919)
		if err != nil {
			return Report{}, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			runClient(opts, gen, reg, deadline)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	report := Report{Elapsed: elapsed, PerClass: make(map[string]ClassReport)}
	for _, class := range reg.Classes() {
		cs := reg.Class(class)
		report.Requests += cs.Requests.Value()
		report.Errors += cs.Errors.Value()
		report.Bytes += cs.Bytes.Value()
		report.PerClass[class] = ClassReport{
			Requests: cs.Requests.Value(),
			Errors:   cs.Errors.Value(),
			MeanLat:  cs.Latency.Mean(),
			P50:      cs.Latency.Quantile(0.5),
			P95:      cs.Latency.Quantile(0.95),
			P99:      cs.Latency.Quantile(0.99),
		}
	}
	return report, nil
}

// runClient is one closed-loop client: request, read, repeat.
func runClient(opts ClientPoolOptions, gen *Generator, reg *telemetry.Registry, deadline time.Time) {
	var (
		conn net.Conn
		br   *bufio.Reader
	)
	closeConn := func() {
		if conn != nil {
			_ = conn.Close()
			conn, br = nil, nil
		}
	}
	defer closeConn()

	for time.Now().Before(deadline) {
		obj := gen.Next()
		class := obj.Class.String()
		cs := reg.Class(class)

		if conn == nil {
			c, err := net.DialTimeout("tcp", opts.Addr, 2*time.Second)
			if err != nil {
				cs.Requests.Inc()
				cs.Errors.Inc()
				continue
			}
			conn = c
			br = bufio.NewReader(conn)
		}

		proto := httpx.Proto11
		if !opts.KeepAlive {
			proto = httpx.Proto10
		}
		req := &httpx.Request{
			Method: "GET",
			Target: obj.Path,
			Path:   obj.Path,
			Proto:  proto,
			Header: httpx.NewHeader("Host", "cluster"),
		}
		start := time.Now()
		_ = conn.SetDeadline(deadline.Add(2 * time.Second))
		err := httpx.WriteRequest(conn, req)
		var resp *httpx.Response
		if err == nil {
			resp, err = httpx.ReadResponse(br)
		}
		cs.Requests.Inc()
		if err != nil {
			cs.Errors.Inc()
			closeConn()
			continue
		}
		cs.Latency.Observe(time.Since(start))
		cs.Bytes.Add(int64(len(resp.Body)))
		if resp.StatusCode >= 400 {
			cs.Errors.Inc()
		}
		if !opts.KeepAlive || !resp.KeepAlive() {
			closeConn()
		}
		if opts.ThinkTime > 0 {
			time.Sleep(opts.ThinkTime)
		}
	}
}
