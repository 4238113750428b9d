package urltable_test

import (
	"fmt"

	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/urltable"
)

// Example shows the distributor's routing data path: populate the
// multi-level hash table with placed content, then resolve request URLs
// to replica sets.
func Example() {
	table := urltable.New(urltable.Options{})

	// The administrator partitions content across the cluster.
	pages := []struct {
		obj   content.Object
		nodes []string
	}{
		{content.Object{Path: "/docs/index.html", Size: 4096, Class: content.ClassHTML}, []string{"n1", "n2"}},
		{content.Object{Path: "/cgi-bin/search.cgi", Size: 2048, Class: content.ClassCGI, CPUCost: 2}, []string{"n6"}},
		{content.Object{Path: "/video/demo.mpg", Size: 8 << 20, Class: content.ClassVideo}, []string{"n9"}},
	}
	for _, p := range pages {
		ids := make([]config.NodeID, 0, len(p.nodes))
		for _, n := range p.nodes {
			ids = append(ids, config.NodeID(n))
		}
		if err := table.Insert(p.obj, ids...); err != nil {
			fmt.Println("insert:", err)
			return
		}
	}

	// Per incoming request, the distributor resolves the URL and counts
	// the hit for §3.3 load balancing.
	rec, err := table.Route("/cgi-bin/search.cgi")
	if err != nil {
		fmt.Println("route:", err)
		return
	}
	fmt.Printf("%s → %v (class %s)\n", rec.Path, rec.Locations, rec.Class)

	rec, _ = table.Lookup("/cgi-bin/search.cgi")
	fmt.Printf("hits after one route: %d\n", rec.Hits)

	// Output:
	// /cgi-bin/search.cgi → [n6] (class cgi)
	// hits after one route: 1
}
