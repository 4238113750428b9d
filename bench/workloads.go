package main

import "strconv"

// workloadDef is one named workload: the site it places and the optional
// stages it turns on. distFlags renders those as the flags the distributor
// gets beyond its defaults; the layer walk configures its in-process
// replica from the same fields and skips the stages that are off.
type workloadDef struct {
	name     string
	why      string
	site     siteSpec
	cacheMB  int64 // -cache-mb: response cache budget; 0 = off
	freshSec int   // -cache-fresh in seconds; 0 = the default (5 s)
	admit    bool  // -admit: admission control on the request path
	churn    bool  // management writes beside the reads
	// verifyEvery checks one body in verifyEvery byte for byte; status
	// and Content-Length are checked on every response.
	verifyEvery int
	// referenceUS is the nominal of the host-speed scale: the microseconds
	// per request the reference server (refserver.go) took on this
	// workload's stream on the box, and in the quiet hour, the first
	// baseline was recorded. A run whose probes read twice that reports
	// half its measured times.
	referenceUS float64
}

// smallSite is the relay_small site; cache_hot reuses it unchanged and
// churn_mixed adds a tenth of dynamic objects.
var smallSite = siteSpec{small: 4000}

var workloads = []*workloadDef{
	{
		name:        "relay_small",
		why:         "4000 static objects of 512 B-8 KiB, cache and admission off: per-request cost (parse, route, pick, pool, back-end handle) dominates; the paper's section 5.2 overhead question",
		site:        smallSite,
		verifyEvery: 1,
		referenceUS: 33.7,
	},
	{
		name:        "relay_large",
		why:         "64 video objects of 256 KiB-1 MiB on both nodes, cache off: bytes dominate, so a per-request optimisation must show no change here and a copy-path change only here",
		site:        siteSpec{large: 64},
		verifyEvery: 16,
		referenceUS: 180,
	},
	{
		name:        "cache_hot",
		why:         "relay_small's site and stream with -cache-mb 64 -cache-fresh 60s: respcache and ServeStored answer nearly everything, pool and back ends idle; isolates the cache from the relay path",
		site:        smallSite,
		cacheMB:     64,
		freshSec:    60,
		verifyEvery: 1,
		referenceUS: 33.7,
	},
	{
		name:        "churn_mixed",
		why:         "production flags (-cache-mb 8 -admit), a tenth dynamic, readers beside 40 console ops/s: table mutation against lock-free reads, purges against hits, so a read gain paid for by writers shows",
		site:        siteSpec{small: 4000, dynamicEvery: 9},
		cacheMB:     8,
		admit:       true,
		churn:       true,
		verifyEvery: 1,
		referenceUS: 33.8,
	},
}

// distFlags are the distributor flags the workload adds to the defaults.
func (w *workloadDef) distFlags() []string {
	var flags []string
	if w.cacheMB > 0 {
		flags = append(flags, "-cache-mb", strconv.FormatInt(w.cacheMB, 10))
	}
	if w.freshSec > 0 {
		flags = append(flags, "-cache-fresh", strconv.Itoa(w.freshSec)+"s")
	}
	if w.admit {
		flags = append(flags, "-admit")
	}
	return flags
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// churnRate is the open-loop rate of the churn script, in ops per second.
const churnRate = 40

// metricDef names one metric the harness emits. BENCHMARK.json lists the
// same names; bench_test.go holds the two in agreement.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only
}

// endToEnd are the client-observed metrics, emitted with --trace 0 for
// every workload. Every bound is the widest the contract allows: on the
// two-core box the benchmark was written on, ten runs of one commit spread
// 2-5 % on a quiet quarter of an hour and 10 % when the host changes speed
// under them (README, "What the box allows"), and a gate the commit can
// fail against itself is no gate.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"goodput_mbps", "MB/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p90_us", "us", "lower", 0.25},
	{"dist_cpu_us_per_req", "us", "lower", 0.25},
	{"cluster_cpu_us_per_req", "us", "lower", 0.25},
	{"dist_rss_mb", "MiB", "lower", 0.25},
}

// perLayer are the single-layer metrics, emitted with --trace 1. A stage
// the workload's flags turn off reads 0.
var perLayer = []metricDef{
	{"httpx.parse_ns", "ns", "lower", 0},
	{"httpx.parse_allocs", "count", "lower", 0},
	{"httpx.write_request_ns", "ns", "lower", 0},
	{"httpx.read_response_header_ns", "ns", "lower", 0},
	{"httpx.relay_ns_per_kib", "ns", "lower", 0},
	{"httpx.relay_allocs", "count", "lower", 0},
	{"httpx.serve_stored_ns", "ns", "lower", 0},
	{"urltable.route_ns", "ns", "lower", 0},
	{"urltable.route_hinted_ns", "ns", "lower", 0},
	{"urltable.entry_cache_hit_ratio", "ratio", "higher", 0},
	{"urltable.memory_kb", "KiB", "lower", 0},
	{"urltable.insert_us", "us", "lower", 0},
	{"urltable.add_location_us", "us", "lower", 0},
	{"urltable.remove_us", "us", "lower", 0},
	{"urltable.rename_us", "us", "lower", 0},
	{"loadbal.pick_ns", "ns", "lower", 0},
	{"loadbal.tracker_charge_ns", "ns", "lower", 0},
	{"loadbal.plan_ms", "ms", "lower", 0},
	{"conntrack.acquire_release_ns", "ns", "lower", 0},
	{"conntrack.mapping_cycle_ns", "ns", "lower", 0},
	{"conntrack.overflow_dials", "count", "lower", 0},
	{"respcache.get_hit_ns", "ns", "lower", 0},
	{"respcache.get_miss_ns", "ns", "lower", 0},
	{"respcache.put_ns", "ns", "lower", 0},
	{"respcache.hit_ratio", "ratio", "higher", 0},
	{"respcache.invalidate_us", "us", "lower", 0},
	{"respcache.evictions", "count", "lower", 0},
	{"respcache.admission_reject_ratio", "ratio", "lower", 0},
	{"admission.decide_ns", "ns", "lower", 0},
	{"admission.shed_ratio", "ratio", "lower", 0},
	{"admission.queue_wait_p99_us", "us", "lower", 0},
	{"backend.handle_ns", "ns", "lower", 0},
	{"backend.handle_allocs", "count", "lower", 0},
	{"backend.pagecache_hit_ratio", "ratio", "higher", 0},
	{"backend.cpu_us_per_req", "us", "lower", 0},
	{"backend.request_share", "ratio", "lower", 0},
	{"cache.lru_get_ns", "ns", "lower", 0},
	{"mgmt.insert_ms", "ms", "lower", 0},
	{"mgmt.update_ms", "ms", "lower", 0},
	{"mgmt.replicate_ms", "ms", "lower", 0},
	{"mgmt.offload_ms", "ms", "lower", 0},
	{"mgmt.rename_ms", "ms", "lower", 0},
	{"mgmt.delete_ms", "ms", "lower", 0},
	{"mgmt.purge_ms", "ms", "lower", 0},
	{"mgmt.dispatch_us", "us", "lower", 0},
	{"mgmt.bulk_insert_per_s", "1/s", "higher", 0},
	{"doctree.view_ms", "ms", "lower", 0},
	{"journal.record_ns", "ns", "lower", 0},
	{"telemetry.observe_ns", "ns", "lower", 0},
	{"telemetry.span_ns", "ns", "lower", 0},
	{"distributor.stage_sum_us", "us", "lower", 0},
	{"distributor.residual_us", "us", "lower", 0},
	{"distributor.relay_share", "ratio", "lower", 0},
	{"distributor.cpu_share", "ratio", "lower", 0},
	{"distributor.routed", "count", "higher", 0},
	{"distributor.no_route", "count", "lower", 0},
	{"distributor.relay_truncations", "count", "lower", 0},
	{"loadgen.cpu_us_per_req", "us", "lower", 0},
	{"loadgen.service_mean_us", "us", "lower", 0},
	{"loadgen.latency_p99_us", "us", "lower", 0},
	{"loadgen.latency_p999_us", "us", "lower", 0},
	{"loadgen.slice_spread", "ratio", "lower", 0},
	{"loadgen.fail_ratio", "ratio", "lower", 0},
	{"loadgen.stale_probes", "count", "lower", 0},
	{"loadgen.mgmt_op_p50_ms", "ms", "lower", 0},
	{"loadgen.mgmt_op_p95_ms", "ms", "lower", 0},
	{"loadgen.mgmt_late_p99_ms", "ms", "lower", 0},
	{"trace.overhead_ratio", "ratio", "higher", 0},
	{"bench.build_s", "s", "lower", 0},
	{"bench.forced_kills", "count", "lower", 0},
}
