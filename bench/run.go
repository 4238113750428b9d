package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/mgmt"
	"webcluster/internal/respcache"
)

// setupRounds is how many times a --trace 0 run sets the cluster up;
// setup_s is the median, and the last cluster is the one measured.
const setupRounds = 3

// runConfig is one invocation.
type runConfig struct {
	workload *workloadDef
	seed     int64
	seconds  int
	trace    bool
	root     string // module root holding cmd/distributor and cmd/backend
	work     string // scratch directory for binaries and cluster files
	traceDir string // where <workload>.trace.json goes
}

// measurement is one reported number.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is what one invocation reports: the contract's result line
// plus, in the -out file, the slices and the environment.
type runRecord struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`

	Workload string               `json:"workload,omitempty"`
	Seed     int64                `json:"seed,omitempty"`
	Trace    bool                 `json:"trace,omitempty"`
	Seconds  int                  `json:"seconds,omitempty"`
	Slices   map[string][]float64 `json:"slices,omitempty"`
	Env      map[string]string    `json:"env,omitempty"`
	Error    string               `json:"error,omitempty"`
}

// environment records where the numbers were taken. All traffic is
// loopback: link rates and wire latency are not measured.
func environment() map[string]string {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	nproc := runtime.NumCPU()
	if len(placement.all) > 0 {
		nproc = len(placement.all) // NumCPU counts only the load generator's CPU once placed
	}
	return map[string]string{
		"network":    "loopback",
		"nproc":      strconv.Itoa(nproc),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"cpus":       "load=" + formatCPUs(placement.load) + " cluster=" + formatCPUs(placement.cluster),
		"go":         runtime.Version(),
		"kernel":     strings.TrimSpace(string(kernel)),
	}
}

// setUp spawns a cluster for w, places the site and sweeps it: every
// object fetched once and checked byte for byte, which proves placement
// and fills the back ends' page caches and the response cache the same
// way for every seed.
func setUp(cfg runConfig, st *site, admin bool) (*cluster, time.Duration, []time.Duration, error) {
	start := time.Now()
	cl, err := startCluster(filepath.Join(cfg.work, "bin"), cfg.work, cfg.workload, admin)
	if err != nil {
		return nil, 0, nil, err
	}
	placed, err := cl.place(st)
	if err == nil {
		err = sweep(cl, st)
	}
	if err != nil {
		cl.stop()
		return nil, 0, nil, err
	}
	return cl, time.Since(start), placed, nil
}

// sweep fetches every object once through the distributor.
func sweep(cl *cluster, st *site) error {
	conn, err := dialHTTP(cl.dist.addrs["front"])
	if err != nil {
		return err
	}
	defer conn.close()
	for _, o := range st.objects {
		a, _, _, err := conn.exchange(o.request)
		if err == nil {
			err = check(a, o, 200, true, true)
		}
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	return nil
}

// newScript sizes the churn script for every window of one run.
func newScript(cfg runConfig, st *site) *churnRunner {
	if !cfg.workload.churn {
		return &churnRunner{}
	}
	return &churnRunner{ops: churnScript(st, cfg.seed, churnRate*cfg.seconds+walkOps)}
}

// tolerance is the failure ratio a workload may show and still be
// correct: none on the read-only workloads, one in a thousand on churn.
func tolerance(w *workloadDef) float64 {
	if w.churn {
		return 0.001
	}
	return 0
}

// run executes one invocation and returns its record.
func run(cfg runConfig) (*runRecord, error) {
	buildTime, err := buildBinaries(cfg.root, filepath.Join(cfg.work, "bin"))
	if err != nil {
		return nil, err
	}
	st := generateSite(cfg.workload.site, cfg.seed)
	rec := &runRecord{
		Metrics: map[string]measurement{}, Slices: map[string][]float64{},
		Workload: cfg.workload.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds, Env: environment(),
	}
	values := map[string]float64{}
	var windows []*windowResult
	if cfg.trace {
		windows, err = tracedRun(cfg, st, buildTime, values)
	} else {
		windows, err = plainRun(cfg, st, values, rec.Slices)
	}
	if err != nil {
		return nil, err
	}
	stale := 0
	for _, win := range windows {
		rec.Attempted += len(win.samples) + win.mgmt.attempted
		rec.Failed += win.failed + win.mgmt.failed
		stale += win.stale
		if rec.Error == "" && win.firstErr != nil {
			rec.Error = win.firstErr.Error()
		}
	}
	rec.Correct = rec.Attempted > 0 && stale == 0 &&
		float64(rec.Failed) <= tolerance(cfg.workload)*float64(rec.Attempted)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		rec.Metrics[d.name] = measurement{Value: values[d.name], Unit: d.unit}
	}
	return rec, nil
}

// plainRun is the --trace 0 run: setupRounds set-ups, then on the last
// cluster a measured window of sliceCount slices, tracing off, with a
// probe of the reference server before each slice and after the last.
// Rates and times are the median over slices, scaled by how slow the
// probes found the host against the workload's nominal.
func plainRun(cfg runConfig, st *site, values map[string]float64, slices map[string][]float64) ([]*windowResult, error) {
	var cl *cluster
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if cl != nil {
			cl.stop()
		}
		var took time.Duration
		var err error
		if cl, took, _, err = setUp(cfg, st, false); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer cl.stop()
	ref, err := startReference(cfg)
	if err != nil {
		return nil, err
	}
	defer ref.stop()

	script := newScript(cfg, st)
	slice := time.Duration(cfg.seconds) * time.Second / sliceCount
	var wins []*windowResult
	for i := 0; i <= sliceCount; i++ {
		us, err := probeReference(ref, cfg, st, i)
		if err != nil {
			return nil, err
		}
		slices["reference_us_per_req"] = append(slices["reference_us_per_req"], us)
		if i == sliceCount {
			break
		}
		win, err := runWindow(cl, cfg.workload, st, cfg.seed, i, slice, script, nil)
		if err != nil {
			return nil, err
		}
		if win.ok() == 0 {
			return nil, fmt.Errorf("no request succeeded: %v", win.firstErr)
		}
		wins = append(wins, win)
		cut := cutSlices(win.samples, slice, 1)[0]
		ok := float64(win.ok())
		var clusterCPU time.Duration
		for p := range win.cpu[1] {
			clusterCPU += win.cpu[1][p] - win.cpu[0][p]
		}
		slices["throughput_rps"] = append(slices["throughput_rps"], cut.rps)
		slices["goodput_mbps"] = append(slices["goodput_mbps"], cut.mbps)
		slices["latency_p50_us"] = append(slices["latency_p50_us"], cut.p50us)
		slices["latency_p90_us"] = append(slices["latency_p90_us"], cut.p90us)
		slices["dist_cpu_us_per_req"] = append(slices["dist_cpu_us_per_req"], float64(win.cpu[1][0]-win.cpu[0][0])/1e3/ok)
		slices["cluster_cpu_us_per_req"] = append(slices["cluster_cpu_us_per_req"], float64(clusterCPU)/1e3/ok)
	}
	// slow is how much longer the reference server took per request than on
	// the box and in the hour the nominal was taken: times are divided by
	// it and rates multiplied, slices keep what was measured.
	slow := median(slices["reference_us_per_req"]) / cfg.workload.referenceUS
	for _, name := range []string{"throughput_rps", "goodput_mbps"} {
		values[name] = median(slices[name]) * slow
	}
	for _, name := range []string{"latency_p50_us", "latency_p90_us", "dist_cpu_us_per_req", "cluster_cpu_us_per_req"} {
		values[name] = median(slices[name]) / slow
	}
	values["setup_s"] = median(setups)
	peak, err := peakRSS(cl.dist.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	values["dist_rss_mb"] = float64(peak) / (1 << 20)
	return wins, nil
}

// scrape is the cluster's own counters, read from outside: the console's
// cache-stats and status ops and the distributor's /metrics endpoint.
type scrape struct {
	cache        respcache.Stats
	backendReqs  int64
	pageHits     int64
	pageMisses   int64
	distRequests float64
	admOffered   float64
	admShed      float64
	admQueueP99  float64 // ms, worst class
}

// promSums fetches a /metrics page and sums each metric over its label
// sets.
func promSums(addr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		out[name] += v
	}
	return out, sc.Err()
}

func (cl *cluster) scrape(w *workloadDef) (scrape, error) {
	var s scrape
	if w.cacheMB > 0 {
		resp, err := cl.console.Do(mgmt.ConsoleRequest{Op: "cache-stats"})
		if err != nil {
			return s, err
		}
		s.cache = *resp.Cache
	}
	for _, id := range []config.NodeID{nodeA, nodeB} {
		resp, err := cl.console.Do(mgmt.ConsoleRequest{Op: "status", Node: id})
		if err != nil {
			return s, err
		}
		s.backendReqs += resp.Status.RequestsServed
		s.pageHits += resp.Status.CacheHits
		s.pageMisses += resp.Status.CacheMisses
	}
	prom, err := promSums(cl.dist.addrs["admin"])
	if err != nil {
		return s, err
	}
	s.distRequests = prom["webcluster_class_requests_total"]
	for name, v := range prom {
		switch {
		case !strings.HasPrefix(name, "admission_"):
		case strings.HasSuffix(name, "_offered"):
			s.admOffered += v
		case strings.HasSuffix(name, "_shed"):
			s.admShed += v
		case strings.HasSuffix(name, "_queue_p99_ms"):
			s.admQueueP99 = max(s.admQueueP99, v)
		}
	}
	return s, nil
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedRun is the --trace 1 run: one cluster with -admin on, an untraced
// pass and a traced pass of a quarter of the time each, then the layer
// walk in the rest.
func tracedRun(cfg runConfig, st *site, buildTime time.Duration, values map[string]float64) ([]*windowResult, error) {
	w := cfg.workload
	cl, _, placed, err := setUp(cfg, st, true)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			cl.stop()
		}
	}()
	script := newScript(cfg, st)
	pass := time.Duration(cfg.seconds) * time.Second / 4
	plain, err := runWindow(cl, w, st, cfg.seed, 0, pass, script, nil)
	if err != nil {
		return nil, err
	}
	sink := &spanSink{run: fmt.Sprintf("%s-seed%d", w.name, cfg.seed), epoch: time.Now()}
	before, err := cl.scrape(w)
	if err != nil {
		return nil, err
	}
	traced, err := runWindow(cl, w, st, cfg.seed, 1, pass, script, sink)
	if err != nil {
		return nil, err
	}
	after, err := cl.scrape(w)
	if err != nil {
		return nil, err
	}
	backendConns, err := establishedTo(cl.backends[0].addrs["web"], cl.backends[1].addrs["web"])
	if err != nil {
		return nil, err
	}
	cl.stop()
	stopped = true
	if traced.ok() == 0 || plain.ok() == 0 {
		return nil, fmt.Errorf("no request succeeded: %v", traced.firstErr)
	}

	walk, err := layerWalk(w, st, cfg.seed, script.ops, 2*pass, sink)
	if err != nil {
		return nil, err
	}
	for name, v := range walk {
		values[name] = v
	}

	ok := float64(traced.ok())
	var lat []float64
	var sum float64
	for _, s := range traced.samples {
		if s.ok {
			us := float64(s.latency) / float64(time.Microsecond)
			lat = append(lat, us)
			sum += us
		}
	}
	sort.Float64s(lat)
	serviceMean := sum / ok
	distCPU := traced.cpu[1][0] - traced.cpu[0][0]
	backendCPU := (traced.cpu[1][1] - traced.cpu[0][1]) + (traced.cpu[1][2] - traced.cpu[0][2])
	backendReqs := float64(after.backendReqs - before.backendReqs)
	hits, misses := float64(after.cache.Hits-before.cache.Hits), float64(after.cache.Misses-before.cache.Misses)
	fills, rejected := float64(after.cache.Fills-before.cache.Fills), float64(after.cache.Rejected-before.cache.Rejected)
	pageHits, pageMisses := float64(after.pageHits-before.pageHits), float64(after.pageMisses-before.pageMisses)
	// the pool pre-forks 4 connections per node; anything beyond that was
	// dialed under load
	const preforked = 4 * 2

	values["respcache.hit_ratio"] = ratio(hits, hits+misses)
	values["respcache.evictions"] = float64(after.cache.Evictions - before.cache.Evictions)
	values["respcache.admission_reject_ratio"] = ratio(rejected, fills+rejected)
	values["admission.shed_ratio"] = ratio(after.admShed-before.admShed, after.admOffered-before.admOffered)
	values["admission.queue_wait_p99_us"] = after.admQueueP99 * 1e3
	values["backend.pagecache_hit_ratio"] = ratio(pageHits, pageHits+pageMisses)
	values["backend.cpu_us_per_req"] = ratio(float64(backendCPU)/1e3, backendReqs)
	values["backend.request_share"] = backendReqs / ok
	values["conntrack.overflow_dials"] = float64(max(0, backendConns-preforked))
	values["distributor.residual_us"] = serviceMean - walk["distributor.stage_sum_us"]
	values["distributor.cpu_share"] = float64(distCPU) / float64(traced.elapsed)
	values["distributor.routed"] = after.distRequests - before.distRequests
	values["distributor.no_route"] = float64(traced.noRoute)
	values["distributor.relay_truncations"] = float64(traced.truncated)
	values["loadgen.cpu_us_per_req"] = float64(traced.loadCPU) / 1e3 / ok
	values["loadgen.service_mean_us"] = serviceMean
	values["loadgen.latency_p99_us"] = percentile(lat, 0.99)
	values["loadgen.latency_p999_us"] = percentile(lat, 0.999)
	cut := cutSlices(traced.samples, pass, sliceCount)
	values["loadgen.slice_spread"] = spread(column(cut, func(s sliceStats) float64 { return s.rps }))
	values["loadgen.fail_ratio"] = ratio(float64(traced.failed+traced.mgmt.failed), float64(len(traced.samples)+traced.mgmt.attempted))
	values["loadgen.stale_probes"] = float64(traced.stale)
	// Management latency as the operator sees it: the scripted ops beside
	// the reads of both passes on churn, the placement inserts on an
	// otherwise idle cluster elsewhere. A failed op has no latency: it
	// counts as missing.
	ops := durationsToMs(placed)
	if w.churn {
		ops = durationsToMs(append(plain.mgmt.latency, traced.mgmt.latency...))
	}
	values["loadgen.mgmt_op_p50_ms"] = percentile(ops, 0.50)
	values["loadgen.mgmt_op_p95_ms"] = percentile(ops, 0.95)
	values["loadgen.mgmt_late_p99_ms"] = percentile(durationsToMs(traced.mgmt.late), 0.99)
	values["trace.overhead_ratio"] = (ok / traced.elapsed.Seconds()) / (float64(plain.ok()) / plain.elapsed.Seconds())
	values["bench.build_s"] = buildTime.Seconds()
	values["bench.forced_kills"] = float64(forcedKills.Load())

	if err := writeTrace(cfg, sink.spans); err != nil {
		return nil, err
	}
	return []*windowResult{plain, traced}, nil
}

// writeTrace writes the run's spans to <traceDir>/<workload>.trace.json.
func writeTrace(cfg runConfig, spans []span) error {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.traceDir, cfg.workload.name+".trace.json"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(spans)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
