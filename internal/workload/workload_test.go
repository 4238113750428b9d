package workload

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"webcluster/internal/backend"
	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/testutil"
)

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1, 1); err == nil {
		t.Fatal("zero ranks accepted")
	}
	if _, err := NewZipf(10, 0, 1); err == nil {
		t.Fatal("zero exponent accepted")
	}
	if _, err := NewZipf(10, -1, 1); err == nil {
		t.Fatal("negative exponent accepted")
	}
}

func TestZipfBounds(t *testing.T) {
	z, err := NewZipf(100, 0.9, 7)
	if err != nil {
		t.Fatal(err)
	}
	if z.N() != 100 {
		t.Fatalf("N = %d", z.N())
	}
	for i := 0; i < 10000; i++ {
		r := z.Next()
		if r < 0 || r >= 100 {
			t.Fatalf("rank %d out of range", r)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z, _ := NewZipf(1000, 0.9, 1)
	counts := make([]int, 1000)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	// Rank 0 must dominate: empirically its share ≈ its probability.
	p0 := z.Probability(0)
	got := float64(counts[0]) / draws
	if math.Abs(got-p0) > p0/2 {
		t.Fatalf("rank-0 share = %.4f, designed %.4f", got, p0)
	}
	// The top 10% of ranks must capture the majority of draws.
	top := 0
	for i := 0; i < 100; i++ {
		top += counts[i]
	}
	if float64(top)/draws < 0.5 {
		t.Fatalf("top-decile share = %.3f, want skew > 0.5", float64(top)/draws)
	}
}

func TestZipfDeterministicPerSeed(t *testing.T) {
	a, _ := NewZipf(50, 0.9, 42)
	b, _ := NewZipf(50, 0.9, 42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
}

// TestPropertyZipfProbabilitiesDecreasing: p(i) is non-increasing in rank
// and sums to ~1.
func TestPropertyZipfProbabilities(t *testing.T) {
	f := func(nRaw uint8, sRaw uint8) bool {
		n := int(nRaw)%200 + 2
		s := 0.3 + float64(sRaw%20)/10 // 0.3 … 2.2
		z, err := NewZipf(n, s, 1)
		if err != nil {
			return false
		}
		var sum float64
		prev := math.Inf(1)
		for i := 0; i < n; i++ {
			p := z.Probability(i)
			if p > prev+1e-12 || p < 0 {
				return false
			}
			prev = p
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfProbabilityOutOfRange(t *testing.T) {
	z, _ := NewZipf(5, 1, 1)
	if z.Probability(-1) != 0 || z.Probability(5) != 0 {
		t.Fatal("out-of-range probability not zero")
	}
}

func TestWorkloadKinds(t *testing.T) {
	if KindA.String() != "A" || KindB.String() != "B" {
		t.Fatal("kind names wrong")
	}
	siteA, err := BuildSite(KindA, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range siteA.Objects() {
		if o.Class.Dynamic() {
			t.Fatalf("workload A contains dynamic object %s", o.Path)
		}
	}
	siteB, err := BuildSite(KindB, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	dyn := 0
	for _, o := range siteB.Objects() {
		if o.Class.Dynamic() {
			dyn++
		}
	}
	if dyn < 50 {
		t.Fatalf("workload B dynamic objects = %d, want a significant share", dyn)
	}
	if _, err := SiteParams(Kind(9), 10, 1); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestGeneratorDrawsFromSite(t *testing.T) {
	site, err := BuildSite(KindA, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(site, DefaultZipfS, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		obj := gen.Next()
		if _, ok := site.Lookup(obj.Path); !ok {
			t.Fatalf("generator produced foreign object %s", obj.Path)
		}
	}
	if gen.Site() != site {
		t.Fatal("Site accessor wrong")
	}
}

// startBackend serves a tiny site for client-pool tests.
func startBackend(t *testing.T, site *content.Site) string {
	t.Helper()
	store := &backend.SyntheticStore{}
	for _, o := range site.Objects() {
		if o.Class.Dynamic() {
			continue
		}
		if err := store.PlaceSized(o.Path, o.Size); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := backend.NewServer(backend.ServerOptions{
		Spec: config.NodeSpec{
			ID: "w1", CPUMHz: 350, MemoryMB: 64,
			Disk: config.DiskSCSI, Platform: config.LinuxApache,
		},
		Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return addr
}

func smallStaticSite(t *testing.T) *content.Site {
	t.Helper()
	site, err := content.GenerateSite(content.GenParams{
		Objects:         50,
		Seed:            2,
		MeanStaticBytes: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	return site
}

func TestClientPoolAgainstServer(t *testing.T) {
	site := smallStaticSite(t)
	addr := startBackend(t, site)
	report, err := RunClientPool(ClientPoolOptions{
		Addr:      addr,
		Clients:   4,
		Duration:  300 * time.Millisecond,
		Site:      site,
		Seed:      1,
		KeepAlive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if report.Errors != 0 {
		t.Fatalf("errors = %d / %d", report.Errors, report.Requests)
	}
	if report.Throughput() <= 0 {
		t.Fatal("throughput zero")
	}
	if report.Bytes == 0 {
		t.Fatal("no bytes accounted")
	}
	if len(report.PerClass) == 0 {
		t.Fatal("no per-class stats")
	}
	for class, cr := range report.PerClass {
		if cr.Requests > 0 && cr.MeanLat <= 0 {
			t.Fatalf("class %s has requests but zero latency", class)
		}
	}
}

func TestClientPoolHTTP10(t *testing.T) {
	site := smallStaticSite(t)
	addr := startBackend(t, site)
	report, err := RunClientPool(ClientPoolOptions{
		Addr:      addr,
		Clients:   2,
		Duration:  200 * time.Millisecond,
		Site:      site,
		Seed:      1,
		KeepAlive: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests == 0 || report.Errors != 0 {
		t.Fatalf("report = %+v", report)
	}
}

func TestClientPoolThinkTime(t *testing.T) {
	site := smallStaticSite(t)
	addr := startBackend(t, site)
	report, err := RunClientPool(ClientPoolOptions{
		Addr:      addr,
		Clients:   2,
		Duration:  200 * time.Millisecond,
		Site:      site,
		Seed:      1,
		ThinkTime: 50 * time.Millisecond,
		KeepAlive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// With 50ms think time and a 200ms run, each client manages ≤5.
	if report.Requests > 12 {
		t.Fatalf("think time ignored: %d requests", report.Requests)
	}
}

func TestClientPoolValidation(t *testing.T) {
	site := smallStaticSite(t)
	if _, err := RunClientPool(ClientPoolOptions{Clients: 0, Site: site}); err == nil {
		t.Fatal("zero clients accepted")
	}
	if _, err := RunClientPool(ClientPoolOptions{Clients: 1}); err == nil {
		t.Fatal("nil site accepted")
	}
}

func TestClientPoolUnreachableServer(t *testing.T) {
	site := smallStaticSite(t)
	report, err := RunClientPool(ClientPoolOptions{
		Addr:     "127.0.0.1:1", // nothing listens there
		Clients:  2,
		Duration: 100 * time.Millisecond,
		Site:     site,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors == 0 {
		t.Fatal("unreachable server produced no errors")
	}
	if report.Errors != report.Requests {
		t.Fatalf("errors %d != attempts %d", report.Errors, report.Requests)
	}
}

func TestReportClassThroughput(t *testing.T) {
	r := Report{
		Requests: 100,
		Elapsed:  2 * time.Second,
		PerClass: map[string]ClassReport{"html": {Requests: 50}},
	}
	if r.Throughput() != 50 {
		t.Fatalf("throughput = %g", r.Throughput())
	}
	if r.ClassThroughput("html") != 25 {
		t.Fatalf("class throughput = %g", r.ClassThroughput("html"))
	}
	if r.ClassThroughput("ghost") != 0 {
		t.Fatal("ghost class throughput nonzero")
	}
}

func TestSessionGeneratorVisits(t *testing.T) {
	site, err := content.GenerateSite(content.GenParams{
		Objects:         300,
		Seed:            4,
		DynamicFraction: 0.1,
		MeanStaticBytes: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewSessionGenerator(site, 0, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	totalEmbedded := 0
	const visits = 2000
	for i := 0; i < visits; i++ {
		v := gen.Next()
		switch v.Page.Class {
		case content.ClassHTML, content.ClassCGI, content.ClassASP:
		default:
			t.Fatalf("page class = %v", v.Page.Class)
		}
		for _, e := range v.Embedded {
			if e.Class != content.ClassImage {
				t.Fatalf("embedded class = %v", e.Class)
			}
		}
		totalEmbedded += len(v.Embedded)
		if got := len(v.Objects()); got != 1+len(v.Embedded) {
			t.Fatalf("Objects() = %d", got)
		}
	}
	mean := float64(totalEmbedded) / visits
	if mean < 3 || mean > 5 {
		t.Fatalf("mean embedded = %.2f, want ≈4", mean)
	}
}

func TestSessionGeneratorNoImages(t *testing.T) {
	site, err := content.NewSite([]content.Object{
		{Path: "/a.html", Size: 10, Class: content.ClassHTML},
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewSessionGenerator(site, 0, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	v := gen.Next()
	if len(v.Embedded) != 0 {
		t.Fatal("embedded objects without images in site")
	}
}

func TestSessionGeneratorNoPages(t *testing.T) {
	site, err := content.NewSite([]content.Object{
		{Path: "/i.gif", Size: 10, Class: content.ClassImage},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSessionGenerator(site, 0, 4, 1); err == nil {
		t.Fatal("pageless site accepted")
	}
}

// TestRunSessionPool also holds RunSessionPool's user goroutines to the
// no-leak rule: every one has returned by the time the pool does.
func TestRunSessionPool(t *testing.T) {
	testutil.NoLeaks(t)
	site := smallStaticSite(t)
	addr := startBackend(t, site)
	report, err := RunSessionPool(SessionPoolOptions{
		Addr:      addr,
		Users:     3,
		Duration:  400 * time.Millisecond,
		Site:      site,
		MeanThink: 10 * time.Millisecond,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.PageVisits == 0 || report.Requests < report.PageVisits {
		t.Fatalf("report = %+v", report)
	}
	if report.Errors != 0 {
		t.Fatalf("errors = %d", report.Errors)
	}
	if report.MeanPageTime <= 0 {
		t.Fatal("no page-time samples")
	}
	if report.String() == "" {
		t.Fatal("empty String")
	}
}

func TestRunSessionPoolValidation(t *testing.T) {
	site := smallStaticSite(t)
	if _, err := RunSessionPool(SessionPoolOptions{Users: 0, Site: site}); err == nil {
		t.Fatal("zero users accepted")
	}
	if _, err := RunSessionPool(SessionPoolOptions{Users: 1}); err == nil {
		t.Fatal("nil site accepted")
	}
}
