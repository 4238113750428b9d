// Hosting: the §4 scenario — a web-hosting provider serving multiple
// third-party customers with differentiated service levels. Premium
// content is replicated across the whole static group and marked high
// priority; budget content gets one copy on the slowest node; a customer's
// mutable catalogue is pinned to a single dedicated node so consistency
// can be managed centrally (no replicas to keep in sync).
package main

import (
	"fmt"
	"log"

	"webcluster/internal/backend"
	"webcluster/internal/content"
	"webcluster/internal/core"
	"webcluster/internal/doctree"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cluster, err := core.Launch(core.Options{ConsoleAddr: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer func() { _ = cluster.Close() }()
	ctl := cluster.Controller

	// Premium customer: pages replicated on every node, priority 2.
	for i := 0; i < 4; i++ {
		path := fmt.Sprintf("/customers/premium/page%d.html", i)
		obj := content.Object{Path: path, Size: 2048, Class: content.ClassHTML, Priority: 2}
		if err := ctl.Insert(obj, backend.SynthesizeBody(path, obj.Size),
			"fast-1", "mid-1", "slow-1"); err != nil {
			return err
		}
	}
	// Budget customer: single copy on the cheapest node.
	for i := 0; i < 4; i++ {
		path := fmt.Sprintf("/customers/budget/page%d.html", i)
		obj := content.Object{Path: path, Size: 2048, Class: content.ClassHTML}
		if err := ctl.Insert(obj, backend.SynthesizeBody(path, obj.Size), "slow-1"); err != nil {
			return err
		}
	}
	// Mutable catalogue: dedicated to mid-1 so updates need no
	// cross-node consistency protocol (§4).
	catalogue := "/customers/shop/catalogue.html"
	if err := ctl.Insert(
		content.Object{Path: catalogue, Size: 4096, Class: content.ClassHTML, Priority: 1},
		backend.SynthesizeBody(catalogue, 4096), "mid-1"); err != nil {
		return err
	}

	fmt.Println("single-system-image view of the hosted tree:")
	fmt.Print(renderTree(cluster))

	// The premium pages are served by whichever replica is least
	// loaded; the catalogue always by its dedicated node.
	fmt.Println("serving:")
	for _, path := range []string{
		"/customers/premium/page0.html",
		"/customers/budget/page0.html",
		catalogue,
	} {
		resp, err := cluster.Get(path)
		if err != nil {
			return err
		}
		fmt.Printf("GET %-36s → %d served-by=%s\n",
			path, resp.StatusCode, resp.Header.Get("X-Served-By"))
	}

	// Pin the mutable catalogue: the auto-replicator will never copy it
	// off its dedicated node, so the provider's consistency model stays
	// centralized (§4).
	if err := ctl.Pin(catalogue, true); err != nil {
		return err
	}

	// The provider updates the mutable catalogue in place: one
	// controller-driven update propagates to its (single) location and
	// invalidates the node's page cache.
	if err := ctl.Update(catalogue, backend.SynthesizeBody(catalogue, 5000)); err != nil {
		return err
	}
	resp, err := cluster.Get(catalogue)
	if err != nil {
		return err
	}
	fmt.Printf("\nafter catalogue update: GET %s → %d, %d bytes (was 4096)\n",
		catalogue, resp.StatusCode, len(resp.Body))

	// Replica-consistency audit on the premium pages: all copies must
	// hash identically.
	consistent, sums, err := ctl.Verify("/customers/premium/page0.html")
	if err != nil {
		return err
	}
	fmt.Printf("premium page0 replica audit: consistent=%v over %d copies\n",
		consistent, len(sums))

	// Demote the budget customer's busiest page onto more nodes when
	// they upgrade their plan: a single console-style replicate call.
	if err := ctl.Replicate("/customers/budget/page0.html", "", "mid-1"); err != nil {
		return err
	}
	rec, err := cluster.Table.Lookup("/customers/budget/page0.html")
	if err != nil {
		return err
	}
	fmt.Printf("budget page0 upgraded: now on %v\n", rec.Locations)

	fmt.Println("\ndecision journal:")
	for _, ev := range cluster.Journal.Snapshot("", 0) {
		fmt.Printf("  %-10s %-9s %s %s\n", ev.Actor, ev.Kind, ev.Path, ev.Detail)
	}
	return nil
}

// renderTree prints the controller's merged single-system-image view.
func renderTree(cluster *core.Cluster) string {
	return doctree.Render(cluster.Controller.View())
}
