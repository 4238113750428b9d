// Command backend runs one back-end node: a web server plus its
// management broker, the pair that lives on every machine of the cluster.
// It parses flags into core.NodeOptions; core.StartNode does the wiring.
//
// Usage:
//
//	backend -id n1 -cpu 350 -mem 128 -disk scsi [-listen :8081] [-broker :9081] [-nfs addr]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"webcluster/internal/backend"
	"webcluster/internal/config"
	"webcluster/internal/core"
	"webcluster/internal/nfs"
)

func main() {
	id := flag.String("id", "node1", "node identity")
	cpu := flag.Int("cpu", 350, "CPU MHz (capacity weighting)")
	mem := flag.Int("mem", 128, "memory MB (page-cache sizing)")
	diskGB := flag.Int("diskgb", 8, "disk size GB")
	disk := flag.String("disk", "scsi", "disk kind: ide|scsi")
	platform := flag.String("platform", "linux", "platform: linux|nt")
	listen := flag.String("listen", "127.0.0.1:0", "web server listen address")
	brokerAddr := flag.String("broker", "127.0.0.1:0", "broker listen address")
	nfsAddr := flag.String("nfs", "", "shared file server address (configuration 2)")
	docroot := flag.String("docroot", "", "serve content from this directory instead of memory")
	adminAddr := flag.String("admin", "", "serve /metrics, /debug/traces, /healthz on this address; empty = off")
	flag.Parse()

	opts := core.NodeOptions{
		Spec: config.NodeSpec{
			ID:       config.NodeID(*id),
			CPUMHz:   *cpu,
			MemoryMB: *mem,
			DiskGB:   *diskGB,
			Disk:     config.DiskSCSI,
			Platform: config.LinuxApache,
		},
		Listen:       *listen,
		BrokerListen: *brokerAddr,
		AdminAddr:    *adminAddr,
	}
	if strings.EqualFold(*disk, "ide") {
		opts.Spec.Disk = config.DiskIDE
	}
	if strings.EqualFold(*platform, "nt") {
		opts.Spec.Platform = config.WindowsNTIIS
	}
	if err := run(opts, *nfsAddr, *docroot); err != nil {
		fmt.Fprintln(os.Stderr, "backend:", err)
		os.Exit(1)
	}
}

// run picks the store the flags name, starts the node and waits for the
// signal.
func run(opts core.NodeOptions, nfsAddr, docroot string) error {
	switch {
	case nfsAddr != "":
		client := nfs.Dial(nfsAddr)
		defer func() { _ = client.Close() }()
		opts.Store = nfs.NewRemoteStore(client)
	case docroot != "":
		ds, err := backend.NewDirStore(docroot)
		if err != nil {
			return err
		}
		opts.Store = ds
	}
	node, err := core.StartNode(opts)
	if err != nil {
		return err
	}
	defer func() { _ = node.Close() }()

	if node.Admin != nil {
		fmt.Printf("admin at http://%s/metrics\n", node.AdminAddr)
	}
	spec := node.Spec
	fmt.Printf("node %s up: web %s broker %s (%d MHz, %d MB, %s, %s)\n",
		spec.ID, node.Addr, node.BrokerAddr, spec.CPUMHz, spec.MemoryMB, spec.Disk, spec.Platform)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	return nil
}
