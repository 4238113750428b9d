// Failover: the §2.3 primary/backup mechanism. A primary front end serves
// traffic while its replication server (internal/mgmt) streams its
// placement state — the URL table and the cluster spec, as wire.go frames
// — to a backup. When the primary dies, the backup detects the silence,
// attaches a front end over the last replicated table, binds the same
// service address, and keeps serving — then recruits its own backup. The
// connection mapping table is not replicated: the primary's client
// connections die with it, and clients reconnect to the successor.
package main

import (
	"fmt"
	"log"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/core"
	"webcluster/internal/mgmt"
	"webcluster/internal/urltable"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The primary: back-end pool plus front end via core.Launch, with the
	// state-replication server a backup follows.
	cluster, err := core.Launch(core.Options{ReplAddr: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer func() { _ = cluster.Close() }()

	// Place some content.
	for i := 0; i < 6; i++ {
		path := fmt.Sprintf("/site/page%d.html", i)
		obj := content.Object{Path: path, Size: 18, Class: content.ClassHTML}
		if err := cluster.Controller.Insert(
			obj, []byte("<html>page</html>"),
			cluster.Spec.Nodes[i%len(cluster.Spec.Nodes)].ID); err != nil {
			return err
		}
	}
	fmt.Printf("primary serving at %s, replicating state at %s\n",
		cluster.FrontAddr, cluster.ReplAddr)

	// The backup monitors the primary. On takeover it attaches the whole
	// front end — distributor, controller and its own replication server
	// — over the replicated table and spec, on the primary's old service
	// address (the "virtual IP" migrating).
	serviceAddr := cluster.FrontAddr
	var successor *core.Cluster
	promote := func(table *urltable.Table, spec config.ClusterSpec) error {
		c, err := core.Attach(core.Options{
			Table: table, Spec: spec,
			Listen: serviceAddr, ReplAddr: "127.0.0.1:0",
		})
		if err != nil {
			return err
		}
		successor = c
		fmt.Printf("backup promoted: serving at %s\n", c.FrontAddr)
		return nil
	}
	backup := mgmt.NewBackup(cluster.ReplAddr, time.Second, promote)
	if err := backup.Start(); err != nil {
		return err
	}

	// Traffic flows through the primary.
	resp, err := cluster.Get("/site/page0.html")
	if err != nil {
		return err
	}
	fmt.Printf("via primary: GET /site/page0.html → %d (served-by %s)\n",
		resp.StatusCode, resp.Header.Get("X-Served-By"))

	// Let a snapshot replicate, then kill the primary.
	time.Sleep(300 * time.Millisecond)
	fmt.Println("killing primary distributor...")
	// The listener goes first: the backup promotes the moment the
	// replication stream breaks, and binds the address it frees.
	_ = cluster.Distributor.Close()
	_ = cluster.Repl.Close()

	promoted, err := backup.Promoted(5 * time.Second)
	if err != nil {
		return fmt.Errorf("takeover failed: %w", err)
	}
	if !promoted {
		return fmt.Errorf("backup did not take over in time")
	}
	defer func() { _ = successor.Close() }()

	// The same service address answers again, from replicated state.
	resp2, err := cluster.Get("/site/page0.html")
	if err != nil {
		return fmt.Errorf("after takeover: %w", err)
	}
	fmt.Printf("via successor: GET /site/page0.html → %d (served-by %s)\n",
		resp2.StatusCode, resp2.Header.Get("X-Served-By"))
	fmt.Printf("successor URL table: %d entries (replicated)\n", successor.Table.Len())

	// The promoted front end has a controller of its own: management
	// keeps working after the takeover.
	obj := content.Object{Path: "/site/after.html", Size: 19, Class: content.ClassHTML}
	if err := successor.Controller.Insert(obj, []byte("<html>after</html>"), successor.Spec.Nodes[0].ID); err != nil {
		return fmt.Errorf("insert through the successor: %w", err)
	}

	// And it creates its own backup (§2.3: "the backup takes over the job
	// of the primary and creates its own backup").
	backup2 := mgmt.NewBackup(successor.ReplAddr, time.Second, promote)
	if err := backup2.Start(); err != nil {
		return err
	}
	defer backup2.Stop()
	fmt.Printf("successor now replicating to its own backup at %s\n", successor.ReplAddr)
	return nil
}
