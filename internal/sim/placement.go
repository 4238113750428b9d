package sim

import (
	"fmt"

	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/loadbal"
	"webcluster/internal/urltable"
)

// Scheme is a content-placement scheme under evaluation (§5.3's three
// configurations).
type Scheme int

// Schemes.
const (
	// SchemeFullReplication: every node holds every object
	// (configuration 1).
	SchemeFullReplication Scheme = iota + 1
	// SchemeNFS: no node holds anything; all content on the shared
	// file server (configuration 2).
	SchemeNFS
	// SchemePartition: the paper's content-aware partitioning
	// (configuration 3): dynamic content on fast-CPU nodes, video on
	// large-disk nodes, static content spread by capacity, hot static
	// objects replicated.
	SchemePartition
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeFullReplication:
		return "full-replication"
	case SchemeNFS:
		return "nfs-shared"
	case SchemePartition:
		return "partition"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// BuildDeployment constructs the simulated cluster for a scheme: nodes
// with placement applied, the NFS server when the scheme needs one, the
// URL table for the content-aware front end, and the front end itself
// (content-aware for SchemePartition, L4-WLC otherwise, matching §5.3).
func BuildDeployment(eng *Engine, hw HardwareParams, spec config.ClusterSpec, site *content.Site, scheme Scheme, opts loadbal.PlacementOptions) (*Cluster, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	nodes := make([]*Node, 0, len(spec.Nodes))
	for _, ns := range spec.Nodes {
		nodes = append(nodes, NewNode(eng, hw, ns))
	}
	cluster := &Cluster{Engine: eng, Nodes: nodes}

	dynamicSite := siteHasDynamic(site)

	switch scheme {
	case SchemeFullReplication:
		for _, n := range nodes {
			n.SetAllContent()
			if dynamicSite {
				n.SetHostsDynamic()
			}
		}
		fe, err := NewFrontend(eng, hw, FrontL4WLC, nodes, nil, nil)
		if err != nil {
			return nil, err
		}
		cluster.Frontend = fe

	case SchemeNFS:
		// The shared file server: a 350 MHz/128 MB SCSI machine, the
		// class of box a site would dedicate to NFS duty.
		nfsSpec := config.NodeSpec{
			ID:       "nfs-server",
			CPUMHz:   350,
			MemoryMB: 128,
			DiskGB:   16,
			Disk:     config.DiskSCSI,
			Platform: config.LinuxApache,
		}
		nfs := NewNFSNode(eng, hw, nfsSpec)
		for _, n := range nodes {
			n.UseNFS(nfs)
			if dynamicSite {
				// Dynamic content executes on the web nodes even
				// when its files live on the shared server.
				n.SetHostsDynamic()
			}
		}
		cluster.NFS = nfs
		fe, err := NewFrontend(eng, hw, FrontL4WLC, nodes, nil, nil)
		if err != nil {
			return nil, err
		}
		cluster.Frontend = fe

	case SchemePartition:
		table, err := PartitionTable(site, spec, opts)
		if err != nil {
			return nil, err
		}
		table.Walk(func(r urltable.Record) {
			for _, id := range r.Locations {
				if n, ok := cluster.NodeByID(id); ok {
					n.Place(r.Path)
				}
			}
		})
		applyDynReserve(cluster, table)
		cluster.Table = table
		fe, err := NewFrontend(eng, hw, FrontContentAware, nodes, table, nil)
		if err != nil {
			return nil, err
		}
		cluster.Frontend = fe

	default:
		return nil, fmt.Errorf("sim: unknown scheme %v", scheme)
	}
	return cluster, nil
}

// BuildCustom assembles a partition-scheme cluster from a pre-built URL
// table and a custom replica picker (the picker ablation's entry point).
func BuildCustom(eng *Engine, hw HardwareParams, spec config.ClusterSpec, table *urltable.Table, picker loadbal.Picker) (*Cluster, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	nodes := make([]*Node, 0, len(spec.Nodes))
	for _, ns := range spec.Nodes {
		nodes = append(nodes, NewNode(eng, hw, ns))
	}
	cluster := &Cluster{Engine: eng, Nodes: nodes, Table: table}
	table.Walk(func(r urltable.Record) {
		for _, id := range r.Locations {
			if n, ok := cluster.NodeByID(id); ok {
				n.Place(r.Path)
			}
		}
	})
	applyDynReserve(cluster, table)
	fe, err := NewFrontend(eng, hw, FrontContentAware, nodes, table, picker)
	if err != nil {
		return nil, err
	}
	cluster.Frontend = fe
	return cluster, nil
}

// siteHasDynamic reports whether site contains CGI/ASP objects.
func siteHasDynamic(site *content.Site) bool {
	for rank := 0; rank < site.Len(); rank++ {
		if site.ByRank(rank).Class.Dynamic() {
			return true
		}
	}
	return false
}

// applyDynReserve shrinks the page cache of every node that hosts dynamic
// content according to table placement.
func applyDynReserve(cluster *Cluster, table *urltable.Table) {
	hostsDyn := make(map[config.NodeID]bool)
	table.Walk(func(r urltable.Record) {
		if !r.Dynamic() {
			return
		}
		for _, id := range r.Locations {
			hostsDyn[id] = true
		}
	})
	for _, n := range cluster.Nodes {
		if hostsDyn[n.Spec.ID] {
			n.SetHostsDynamic()
		}
	}
}

// PartitionTable places site over spec's nodes with loadbal.Partition
// (§5.3's configuration 3) and returns the URL table the content-aware
// front end routes by.
func PartitionTable(site *content.Site, spec config.ClusterSpec, opts loadbal.PlacementOptions) (*urltable.Table, error) {
	holders, err := loadbal.Partition(site, spec, opts)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	table := urltable.New(urltable.Options{})
	for rank, locs := range holders {
		obj := site.ByRank(rank)
		if err := table.Insert(obj, locs...); err != nil {
			return nil, fmt.Errorf("sim: placing %s: %w", obj.Path, err)
		}
	}
	return table, nil
}
