package core_test

import (
	"fmt"
	"log"

	"webcluster/internal/content"
	"webcluster/internal/core"
	"webcluster/internal/loadbal"
)

// Example launches a complete in-process cluster, partitions a generated
// site by content type, and serves a request through the content-aware
// distributor. (No Output comment: the example binds ephemeral ports, so
// it is compile-checked rather than executed.)
func Example() {
	cluster, err := core.Launch(core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()

	site, err := content.GenerateSite(content.DefaultGenParams())
	if err != nil {
		log.Fatal(err)
	}
	holders, err := loadbal.Partition(site, cluster.Spec, loadbal.DefaultPlacementOptions())
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.PlaceSite(site, holders); err != nil {
		log.Fatal(err)
	}

	resp, err := cluster.Get(site.ByRank(0).Path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(resp.StatusCode, resp.Header.Get("X-Served-By"))
}
