// Quickstart: launch a 3-node heterogeneous cluster in one process,
// partition a small site by content type, and fetch pages through the
// content-aware distributor.
package main

import (
	"fmt"
	"log"

	"webcluster/internal/content"
	"webcluster/internal/core"
	"webcluster/internal/loadbal"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Launch the cluster: three back ends (350/200/150 MHz), each
	// with a web server and a management broker, fronted by the
	// content-aware distributor.
	cluster, err := core.Launch(core.Options{})
	if err != nil {
		return err
	}
	defer func() { _ = cluster.Close() }()

	// 2. Generate a small synthetic site and partition it by type: CGI/ASP
	// on the fast node, video on the big-disk node, statics spread over
	// the slower nodes by memory, the hottest and critical pages replicated.
	site, err := content.GenerateSite(content.GenParams{
		Objects:          200,
		Seed:             42,
		DynamicFraction:  0.1,
		VideoFraction:    0.01,
		MeanStaticBytes:  4 * 1024,
		CriticalFraction: 0.02,
	})
	if err != nil {
		return err
	}
	holders, err := loadbal.Partition(site, cluster.Spec, loadbal.DefaultPlacementOptions())
	if err != nil {
		return err
	}
	if err := cluster.PlaceSite(site, holders); err != nil {
		return err
	}
	fmt.Println("cluster up —")
	fmt.Print(cluster.Summary())

	// 3. Fetch a few objects through the distributor and show which
	// node actually served each one (the X-Served-By header).
	fmt.Println("\nfetching through the content-aware distributor:")
	shown := 0
	for rank := 0; rank < site.Len() && shown < 8; rank++ {
		obj := site.ByRank(rank)
		resp, err := cluster.Get(obj.Path)
		if err != nil {
			return fmt.Errorf("GET %s: %w", obj.Path, err)
		}
		fmt.Printf("GET %-38s → %d  %6dB  class=%-5s served-by=%s\n",
			obj.Path, resp.StatusCode, len(resp.Body), obj.Class,
			resp.Header.Get("X-Served-By"))
		shown++
	}

	// 4. A request for a missing object is rejected at the front end —
	// the URL table is authoritative.
	resp, err := cluster.Get("/no/such/page.html")
	if err != nil {
		return err
	}
	fmt.Printf("GET /no/such/page.html → %d (no URL-table entry)\n", resp.StatusCode)

	fmt.Printf("\ndistributor routed %d requests (%d unroutable), mean routing overhead %v\n",
		cluster.Distributor.Routed(), cluster.Distributor.NoRoute(),
		cluster.Distributor.MeanRouteOverhead())
	return nil
}
