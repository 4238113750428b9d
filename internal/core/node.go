package core

import (
	"errors"
	"fmt"

	"webcluster/internal/backend"
	"webcluster/internal/config"
	"webcluster/internal/faults"
	"webcluster/internal/httpx"
	"webcluster/internal/journal"
	"webcluster/internal/mgmt"
	"webcluster/internal/telemetry"
)

// NodeOptions describes one back-end node: the web server and the
// management broker that live together on every machine of the cluster.
type NodeOptions struct {
	// Spec is the node's identity and hardware; its Addr and BrokerAddr
	// are ignored (the bound addresses come back in the NodeHandle).
	Spec config.NodeSpec
	// Store holds the node's content; nil means a fresh MemStore.
	Store backend.Store
	// Delay is the service-delay model for hardware emulation; nil for
	// none.
	Delay backend.DelayFunc
	// Faults threads a fault injector through the accept path; nil in
	// production.
	Faults *faults.Injector
	// Listen and BrokerListen are the web server's and the broker's
	// listen addresses; empty means an ephemeral loopback port.
	Listen, BrokerListen string
	// AdminAddr, when non-empty, serves /metrics, /debug/* and /healthz
	// for this node there.
	AdminAddr string
	// JournalSize sizes the node's decision journal; 0 means
	// journal.DefaultSize.
	JournalSize int
}

// NodeHandle bundles one live node's components.
type NodeHandle struct {
	// Spec carries the bound addresses in Addr and BrokerAddr, so a
	// cluster spec built from handles is what Attach needs.
	Spec       config.NodeSpec
	Server     *backend.Server
	Broker     *mgmt.Broker
	Store      backend.Store
	Addr       string // web server address
	BrokerAddr string
	// Admin is the node's admin endpoint, nil unless
	// NodeOptions.AdminAddr was set; AdminAddr is where it listens.
	Admin     *telemetry.AdminServer
	AdminAddr string
}

// StartNode starts one back-end node: store, web server with the
// synthetic dynamic handlers, node journal, broker and the optional admin
// endpoint. On error everything already started is shut down.
func StartNode(opts NodeOptions) (node *NodeHandle, err error) {
	ns := opts.Spec
	store := opts.Store
	if store == nil {
		store = &backend.MemStore{}
	}
	nh := &NodeHandle{Store: store}
	defer func() {
		if err != nil {
			_ = nh.Close()
		}
	}()

	nh.Server, err = backend.NewServer(backend.ServerOptions{
		Spec:   ns,
		Store:  store,
		Delay:  opts.Delay,
		Faults: opts.Faults,
	})
	if err != nil {
		return nil, fmt.Errorf("core: node %s: %w", ns.ID, err)
	}
	// Synthetic CGI/ASP handlers matching the path conventions of the
	// generated sites: the page names the node and echoes the query, and
	// the reported CPU cost drives the load metric.
	dynamic := func(kind string) backend.DynamicHandler {
		return func(req *httpx.Request) ([]byte, float64, error) {
			body := fmt.Sprintf("<html>%s from %s: %s?%s</html>\n", kind, ns.ID, req.Path, req.Query)
			return []byte(body), 1.0, nil
		}
	}
	nh.Server.HandlePrefix("/cgi-bin/", dynamic("cgi"))
	nh.Server.HandlePrefix("/asp/", dynamic("asp"))
	if nh.Addr, err = nh.Server.Start(orEphemeral(opts.Listen)); err != nil {
		return nil, fmt.Errorf("core: node %s: %w", ns.ID, err)
	}

	jnl := journal.New(journal.Options{Node: string(ns.ID), Size: opts.JournalSize})
	nh.Broker = mgmt.NewBroker(mgmt.Env{Node: ns.ID, Store: store, Server: nh.Server, Journal: jnl})
	if nh.BrokerAddr, err = nh.Broker.Start(orEphemeral(opts.BrokerListen)); err != nil {
		return nil, fmt.Errorf("core: broker %s: %w", ns.ID, err)
	}

	if opts.AdminAddr != "" {
		nh.Admin = telemetry.NewAdmin(nh.Server.Telemetry())
		nh.Admin.SetJournal(jnl)
		if nh.AdminAddr, err = nh.Admin.Start(opts.AdminAddr); err != nil {
			return nil, fmt.Errorf("core: admin %s: %w", ns.ID, err)
		}
	}
	ns.Addr, ns.BrokerAddr = nh.Addr, nh.BrokerAddr
	nh.Spec = ns
	return nh, nil
}

func orEphemeral(addr string) string {
	if addr == "" {
		return "127.0.0.1:0"
	}
	return addr
}

// Close stops what StartNode started, last-started first, and joins it.
func (nh *NodeHandle) Close() error {
	var errs []error
	if nh.Admin != nil {
		errs = append(errs, nh.Admin.Close())
	}
	if nh.Broker != nil {
		errs = append(errs, nh.Broker.Close())
	}
	if nh.Server != nil {
		errs = append(errs, nh.Server.Close())
	}
	return errors.Join(errs...)
}
