package sim

import (
	"fmt"
	"time"

	"webcluster/internal/content"
	"webcluster/internal/workload"
)

// RunParams configures one simulated WebBench run.
type RunParams struct {
	// Clients is the closed-loop client count (WebBench concurrency).
	Clients int
	// Warmup is virtual time excluded from measurement (cache fill).
	Warmup time.Duration
	// Measure is the virtual measurement window.
	Measure time.Duration
	// ThinkTime pauses each client between requests.
	ThinkTime time.Duration
	// ZipfS is the popularity skew (0 = workload.DefaultZipfS).
	ZipfS float64
	// Seed drives per-client request streams.
	Seed int64
}

// DefaultRunParams returns the standard measurement setup.
func DefaultRunParams(clients int) RunParams {
	return RunParams{
		Clients:   clients,
		Warmup:    10 * time.Second,
		Measure:   30 * time.Second,
		ThinkTime: 0,
		Seed:      1,
	}
}

// ClassResult is one content class's measured slice.
type ClassResult struct {
	Requests int64
	Errors   int64
	// TotalLatency is summed response time for mean computation.
	TotalLatency time.Duration
}

// MeanLatency returns the class's mean response time.
func (c ClassResult) MeanLatency() time.Duration {
	if c.Requests == 0 {
		return 0
	}
	return c.TotalLatency / time.Duration(c.Requests)
}

// Result is the outcome of one simulated run.
type Result struct {
	Scheme   Scheme
	Clients  int
	Measured time.Duration
	Requests int64
	Errors   int64
	PerClass map[content.Class]ClassResult
	// CacheHitRate is the measurement-window page-cache hit rate
	// averaged over nodes (the Figure 2 mechanism).
	CacheHitRate float64
	// NFSOps counts shared-file-server operations (configuration 2).
	NFSOps uint64
}

// Throughput returns overall requests/second — the figures' y-axis.
func (r Result) Throughput() float64 {
	if r.Measured <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Measured.Seconds()
}

// ClassThroughput returns one class's requests/second.
func (r Result) ClassThroughput(c content.Class) float64 {
	if r.Measured <= 0 {
		return 0
	}
	return float64(r.PerClass[c].Requests) / r.Measured.Seconds()
}

// StaticThroughput sums the static classes (HTML + images), the "static"
// series of Figure 4.
func (r Result) StaticThroughput() float64 {
	return r.ClassThroughput(content.ClassHTML) + r.ClassThroughput(content.ClassImage)
}

// String formats the headline number.
func (r Result) String() string {
	return fmt.Sprintf("%s clients=%d: %.1f req/s (errors %d, cache hit %.1f%%)",
		r.Scheme, r.Clients, r.Throughput(), r.Errors, 100*r.CacheHitRate)
}

// Run drives cluster with closed-loop clients over site and returns the
// measured result. The cluster must be freshly built; Run owns its engine.
func Run(cluster *Cluster, site *content.Site, scheme Scheme, p RunParams) (Result, error) {
	if p.Clients <= 0 {
		return Result{}, fmt.Errorf("sim: non-positive client count")
	}
	res := Result{
		Scheme:   scheme,
		Clients:  p.Clients,
		Measured: p.Measure,
		PerClass: make(map[content.Class]ClassResult, 5),
	}

	end, err := startClients(cluster, site, p, &res)
	if err != nil {
		return Result{}, err
	}
	cluster.Engine.Run(end)

	// Aggregate steady-state cache hit rate weighted by lookups.
	var hits, misses int64
	for _, n := range cluster.Nodes {
		st := n.CacheStats()
		hits += st.Hits
		misses += st.Misses
	}
	if cluster.NFS != nil {
		st := cluster.NFS.CacheStats()
		hits += st.Hits
		misses += st.Misses
		res.NFSOps = cluster.NFS.Ops()
	}
	if hits+misses > 0 {
		res.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	return res, nil
}

// startClients schedules p.Clients closed-loop clients on cluster's
// engine, each with its own generator over site (seed p.Seed+i*7919, as
// WebBench's independent client processes), and returns the end of the
// measurement window, p.Warmup+p.Measure from now. The clients issue
// requests until then and count into res every request that starts after
// the warmup and finishes by the end; the page-cache counters restart at
// the warmup's end, so hit rates reflect steady state only.
func startClients(cluster *Cluster, site *content.Site, p RunParams, res *Result) (time.Duration, error) {
	zipfS := p.ZipfS
	if zipfS == 0 {
		zipfS = workload.DefaultZipfS
	}
	eng := cluster.Engine
	warmupEnd := eng.Now() + p.Warmup
	end := warmupEnd + p.Measure
	for i := 0; i < p.Clients; i++ {
		gen, err := workload.NewGenerator(site, zipfS, p.Seed+int64(i)*7919)
		if err != nil {
			return 0, err
		}
		client := &simClient{
			eng:       eng,
			cluster:   cluster,
			gen:       gen,
			think:     p.ThinkTime,
			warmupEnd: warmupEnd,
			end:       end,
			res:       res,
		}
		// Stagger client starts across the first virtual second to
		// avoid a synchronized thundering herd at t=0.
		start := time.Duration(i) * time.Second / time.Duration(p.Clients)
		eng.Schedule(start, client.issue)
	}
	eng.ScheduleAt(warmupEnd, func() {
		for _, n := range cluster.Nodes {
			n.pageCache.ResetStats()
		}
		if cluster.NFS != nil {
			cluster.NFS.pageCache.ResetStats()
		}
	})
	return end, nil
}

// simClient is one closed-loop client inside the simulation.
type simClient struct {
	eng       *Engine
	cluster   *Cluster
	gen       *workload.Generator
	think     time.Duration
	warmupEnd time.Duration
	end       time.Duration
	res       *Result
}

// issue sends the next request.
func (c *simClient) issue() {
	if c.eng.Now() >= c.end {
		return
	}
	obj := c.gen.Next()
	started := c.eng.Now()
	c.cluster.Frontend.Route(obj, func(ok bool) {
		finished := c.eng.Now()
		if started >= c.warmupEnd && finished <= c.end {
			cr := c.res.PerClass[obj.Class]
			cr.Requests++
			cr.TotalLatency += finished - started
			if !ok {
				cr.Errors++
				c.res.Errors++
			}
			c.res.PerClass[obj.Class] = cr
			c.res.Requests++
		}
		if c.think > 0 {
			c.eng.Schedule(c.think, c.issue)
			return
		}
		c.issue()
	})
}
