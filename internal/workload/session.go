package workload

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"webcluster/internal/content"
	"webcluster/internal/httpx"
	"webcluster/internal/telemetry"
)

// Session-model workload (Barford & Crovella's SURGE structure): a user
// fetches an HTML page, then its embedded images over the same keep-alive
// connection, thinks, and moves to the next page. This reproduces the
// burstiness and reference locality that per-request closed loops miss;
// WebBench-style saturation testing uses RunClientPool instead.

// PageVisit is one page plus its embedded objects.
type PageVisit struct {
	Page     content.Object
	Embedded []content.Object
}

// Objects returns the visit's requests in fetch order.
func (v PageVisit) Objects() []content.Object {
	out := make([]content.Object, 0, 1+len(v.Embedded))
	out = append(out, v.Page)
	return append(out, v.Embedded...)
}

// SessionGenerator draws page visits from a site: pages are Zipf-ranked
// over the site's HTML objects and embedded objects Zipf-ranked over its
// images, with a geometric embedded-count distribution (SURGE's embedded
// references). Construct with NewSessionGenerator.
type SessionGenerator struct {
	pages     []content.Object
	images    []content.Object
	pageZipf  *Zipf
	imageZipf *Zipf
	rng       *rand.Rand
	// meanEmbedded is the average embedded object count per page.
	meanEmbedded float64
}

// NewSessionGenerator builds a session generator over site. meanEmbedded
// defaults to 4 when non-positive (Arlitt/Williamson report ~3–5 inline
// images per page in 1990s traces).
func NewSessionGenerator(site *content.Site, zipfS float64, meanEmbedded float64, seed int64) (*SessionGenerator, error) {
	if zipfS == 0 {
		zipfS = DefaultZipfS
	}
	if meanEmbedded <= 0 {
		meanEmbedded = 4
	}
	var pages, images []content.Object
	for _, o := range site.Objects() {
		switch o.Class {
		case content.ClassHTML, content.ClassCGI, content.ClassASP:
			pages = append(pages, o)
		case content.ClassImage:
			images = append(images, o)
		}
	}
	if len(pages) == 0 {
		return nil, errors.New("workload: site has no page objects")
	}
	g := &SessionGenerator{
		pages:        pages,
		images:       images,
		rng:          rand.New(rand.NewSource(seed)),
		meanEmbedded: meanEmbedded,
	}
	var err error
	if g.pageZipf, err = NewZipf(len(pages), zipfS, seed+1); err != nil {
		return nil, err
	}
	if len(images) > 0 {
		if g.imageZipf, err = NewZipf(len(images), zipfS, seed+2); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Next draws one page visit.
func (g *SessionGenerator) Next() PageVisit {
	visit := PageVisit{Page: g.pages[g.pageZipf.Next()]}
	if g.imageZipf == nil {
		return visit
	}
	// Geometric embedded count with the configured mean: p = 1/(mean+1).
	p := 1 / (g.meanEmbedded + 1)
	n := 0
	for g.rng.Float64() > p {
		n++
		if n >= 64 {
			break
		}
	}
	for i := 0; i < n; i++ {
		visit.Embedded = append(visit.Embedded, g.images[g.imageZipf.Next()])
	}
	return visit
}

// SessionPoolOptions configures a session-model load run.
type SessionPoolOptions struct {
	// Addr is the front end to drive.
	Addr string
	// Users is the concurrent session count.
	Users int
	// Duration bounds the run.
	Duration time.Duration
	// Site supplies the content.
	Site *content.Site
	// ZipfS is the popularity skew (0 = default).
	ZipfS float64
	// MeanEmbedded is the average embedded objects per page (0 = 4).
	MeanEmbedded float64
	// MeanThink is the mean exponential think time between page visits
	// (0 = 500ms).
	MeanThink time.Duration
	// Seed drives all randomness.
	Seed int64
}

// SessionReport is the outcome of a session run.
type SessionReport struct {
	PageVisits int64
	Requests   int64
	Errors     int64
	Elapsed    time.Duration
	// MeanPageTime is the mean time to fetch a full page visit (page +
	// embedded objects).
	MeanPageTime time.Duration
}

// String formats the headline numbers.
func (r SessionReport) String() string {
	return fmt.Sprintf("%d page visits (%d requests) in %v, %d errors, mean page time %v",
		r.PageVisits, r.Requests, r.Elapsed.Round(time.Millisecond),
		r.Errors, r.MeanPageTime.Round(100*time.Microsecond))
}

// RunSessionPool drives the front end with session-model users.
func RunSessionPool(opts SessionPoolOptions) (SessionReport, error) {
	if opts.Users <= 0 {
		return SessionReport{}, errors.New("workload: non-positive user count")
	}
	if opts.Site == nil || opts.Site.Len() == 0 {
		return SessionReport{}, errors.New("workload: empty site")
	}
	if opts.Duration <= 0 {
		opts.Duration = time.Second
	}
	meanThink := opts.MeanThink
	if meanThink <= 0 {
		meanThink = 500 * time.Millisecond
	}

	var (
		mu        sync.Mutex
		visits    int64
		requests  int64
		errCount  int64
		pageTimes telemetry.Histogram
	)
	deadline := time.Now().Add(opts.Duration)
	start := time.Now()
	var wg sync.WaitGroup
	for u := 0; u < opts.Users; u++ {
		gen, err := NewSessionGenerator(opts.Site, opts.ZipfS, opts.MeanEmbedded, opts.Seed+int64(u)*104729)
		if err != nil {
			return SessionReport{}, err
		}
		think := rand.New(rand.NewSource(opts.Seed + int64(u)*31))
		wg.Add(1)
		go func() {
			defer wg.Done()
			var conn net.Conn
			var br *bufio.Reader
			closeConn := func() {
				if conn != nil {
					_ = conn.Close()
					conn, br = nil, nil
				}
			}
			defer closeConn()
			for time.Now().Before(deadline) {
				visit := gen.Next()
				visitStart := time.Now()
				failed := false
				for _, obj := range visit.Objects() {
					if conn == nil {
						c, err := net.DialTimeout("tcp", opts.Addr, 2*time.Second)
						if err != nil {
							failed = true
							break
						}
						conn = c
						br = bufio.NewReader(conn)
					}
					req := &httpx.Request{
						Method: "GET", Target: obj.Path, Path: obj.Path,
						Proto: httpx.Proto11, Header: httpx.NewHeader("Host", "cluster"),
					}
					_ = conn.SetDeadline(deadline.Add(2 * time.Second))
					err := httpx.WriteRequest(conn, req)
					var resp *httpx.Response
					if err == nil {
						resp, err = httpx.ReadResponse(br)
					}
					mu.Lock()
					requests++
					mu.Unlock()
					if err != nil || resp.StatusCode >= 400 {
						mu.Lock()
						errCount++
						mu.Unlock()
						if err != nil {
							closeConn()
						}
						failed = true
						break
					}
					if !resp.KeepAlive() {
						closeConn()
					}
				}
				mu.Lock()
				visits++
				if !failed {
					pageTimes.Observe(time.Since(visitStart))
				}
				mu.Unlock()
				// Exponential think time, capped so the run ends.
				pause := time.Duration(think.ExpFloat64() * float64(meanThink))
				if pause > time.Second {
					pause = time.Second
				}
				time.Sleep(pause)
			}
		}()
	}
	wg.Wait()
	return SessionReport{
		PageVisits:   visits,
		Requests:     requests,
		Errors:       errCount,
		Elapsed:      time.Since(start),
		MeanPageTime: pageTimes.Mean(),
	}, nil
}
