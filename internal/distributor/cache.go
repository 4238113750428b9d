package distributor

// Front-end response cache integration. When Options.Cache is set, the
// distributor answers cacheable GET/HEAD requests from the respcache
// store instead of relaying them: fresh entries are served directly
// (zero backend round trips), expired entries are revalidated against a
// back end with a conditional GET (a 304 extends the entry without moving
// the body again), misses are fetched once per path no matter how many
// clients are waiting (singleflight), and when every replica of a path is
// down an expired copy within the stale window is served rather than a
// 502. A cache hit binds no back-end connection.

import (
	"fmt"
	"io"
	"time"

	"webcluster/internal/conntrack"
	"webcluster/internal/httpx"
	"webcluster/internal/respcache"
	"webcluster/internal/telemetry"
)

// registerCacheMetrics exposes the response cache's counters through the
// telemetry registry so /metrics and the cluster stats plane
// include cache behaviour (hit/miss/stale/coalesce rates, fills and
// admission refusals, residency).
func registerCacheMetrics(reg *telemetry.Registry, cache *respcache.Cache) {
	views := map[string]func(respcache.Stats) float64{
		"respcache_hits":         func(s respcache.Stats) float64 { return float64(s.Hits) },
		"respcache_misses":       func(s respcache.Stats) float64 { return float64(s.Misses) },
		"respcache_revalidated":  func(s respcache.Stats) float64 { return float64(s.Revalidated) },
		"respcache_stale_served": func(s respcache.Stats) float64 { return float64(s.StaleServed) },
		"respcache_coalesced":    func(s respcache.Stats) float64 { return float64(s.Coalesced) },
		"respcache_fills":        func(s respcache.Stats) float64 { return float64(s.Fills) },
		"respcache_rejected":     func(s respcache.Stats) float64 { return float64(s.Rejected) },
		"respcache_evictions":    func(s respcache.Stats) float64 { return float64(s.Evictions) },
		"respcache_entries":      func(s respcache.Stats) float64 { return float64(s.Entries) },
		"respcache_bytes":        func(s respcache.Stats) float64 { return float64(s.Bytes) },
	}
	for name, view := range views {
		view := view
		reg.GaugeFunc(name, func() float64 { return view(cache.Stats()) })
	}
}

// cacheEligible reports whether the request may be answered from the
// response cache: safe method, static content, no query string.
func cacheEligible(req *httpx.Request) bool {
	if req.Method != "GET" && req.Method != "HEAD" {
		return false
	}
	return req.Query == "" && !req.IsDynamic()
}

// cacheableResponse reports whether a backend response may be stored: a
// complete 200 whose declared body fits the per-entry cap.
func cacheableResponse(resp *httpx.Response, maxBytes int64) bool {
	return resp.StatusCode == 200 && resp.ContentLength >= 0 && resp.ContentLength <= maxBytes
}

// bufferEntry drains the response body from the pooled connection into
// an entry from the cache's free lists, settling the connection back into
// the pool. The entry is the caller's reference.
func (d *Distributor) bufferEntry(pc *conntrack.PooledConn, resp *httpx.Response) (*respcache.Entry, error) {
	e := d.cache.AcquireEntry(int(resp.ContentLength))
	if _, err := io.ReadFull(pc.Reader, e.Stored.Body); err != nil {
		d.pool.Discard(pc)
		d.cache.Release(e)
		return nil, fmt.Errorf("buffering cacheable body: %w", err)
	}
	if err := d.settleConn(pc, resp); err != nil {
		d.cache.Release(e)
		return nil, err
	}
	st := httpx.Stored{
		StatusCode:   resp.StatusCode,
		ContentType:  resp.Header.Get("Content-Type"),
		ETag:         resp.Header.Get("Etag"),
		LastModified: resp.Header.Get("Last-Modified"),
		Date:         resp.Header.Get("Date"),
	}
	// back ends that predate validators still get strong ones here, so
	// client conditionals and later revalidation work for every entry
	if st.ETag == "" {
		st.ETag = httpx.StrongETag(e.Stored.Body)
	}
	if st.Date == "" {
		st.Date = httpx.CurrentDate()
	}
	e.Fill(st, d.cache.Now(), d.cache.FreshFor())
	return e, nil
}

// settleConn clears the exchange deadline and returns the pooled
// connection for reuse (or discards it when the back end asked to close).
func (d *Distributor) settleConn(pc *conntrack.PooledConn, resp *httpx.Response) error {
	if d.exchangeTimeout > 0 {
		if err := pc.Conn.SetDeadline(time.Time{}); err != nil {
			d.pool.Discard(pc)
			return fmt.Errorf("clearing deadline: %w", err)
		}
	}
	if resp.KeepAlive() {
		d.pool.Release(pc)
	} else {
		d.pool.Discard(pc)
	}
	return nil
}
