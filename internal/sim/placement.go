package sim

import (
	"fmt"
	"sort"

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

// PlacementOptions tunes SchemePartition.
type PlacementOptions struct {
	// HotReplicaFraction of the most popular static objects get
	// HotReplicas copies for load balancing.
	HotReplicaFraction float64
	// HotReplicas is the copy count for hot objects (≥1).
	HotReplicas int
	// SegregateStatic keeps static content off the dynamic-content
	// nodes entirely (full segregation); false mixes hot static
	// replicas onto fast nodes too. The Figure 4 ablation flips this.
	SegregateStatic bool
	// DynReplicas is the copy count for each dynamic object across the
	// fast-CPU group (scripts are tiny; replicating them buys the
	// distributor load-spreading freedom). ≥1.
	DynReplicas int
}

// DefaultPlacementOptions mirrors the paper's description: rough
// partition by type, hot content replicated, static kept clear of the
// dynamic servers.
func DefaultPlacementOptions() PlacementOptions {
	return PlacementOptions{
		HotReplicaFraction: 0.05,
		HotReplicas:        3,
		SegregateStatic:    true,
		DynReplicas:        4,
	}
}

// BuildDeployment constructs the simulated cluster for a scheme: nodes
// with placement applied, the NFS server when the scheme needs one, the
// URL table for the content-aware front end, and the front end itself
// (content-aware for SchemePartition, L4-WLC otherwise, matching §5.3).
func BuildDeployment(eng *Engine, hw HardwareParams, spec config.ClusterSpec, site *content.Site, scheme Scheme, opts PlacementOptions) (*Cluster, error) {
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
		table, err := PartitionSite(site, spec, opts)
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

// PartitionSite computes the §5.3 configuration-3 placement for site over
// spec's nodes and returns the populated URL table:
//
//   - CGI and ASP objects go to the fastest-CPU nodes (ASP preferring
//     NT/IIS nodes among them, CGI preferring Linux/Apache).
//   - Video files go to the nodes with the largest disks (SCSI preferred).
//   - Static objects are spread across the static node group
//     (all nodes, or only non-dynamic nodes under SegregateStatic),
//     weighted by memory so cache capacity is used proportionally.
//   - The hottest static objects are replicated HotReplicas ways within
//     the static group.
func PartitionSite(site *content.Site, spec config.ClusterSpec, opts PlacementOptions) (*urltable.Table, error) {
	if opts.HotReplicas < 1 {
		opts.HotReplicas = 1
	}
	nodes := spec.Nodes
	if len(nodes) == 0 {
		return nil, fmt.Errorf("sim: no nodes to place on")
	}

	// Does the site contain dynamic content at all? Segregation only
	// exists to keep CPU-bound requests away from static service; with a
	// purely static site (Workload A) every node serves statics.
	hasDynamic := false
	for rank := 0; rank < site.Len(); rank++ {
		if site.ByRank(rank).Class.Dynamic() {
			hasDynamic = true
			break
		}
	}

	// Node groups.
	maxMHz := 0
	for _, n := range nodes {
		if n.CPUMHz > maxMHz {
			maxMHz = n.CPUMHz
		}
	}
	var fastNodes, staticNodes, videoNodes []config.NodeSpec
	for _, n := range nodes {
		if n.CPUMHz == maxMHz {
			fastNodes = append(fastNodes, n)
		} else {
			staticNodes = append(staticNodes, n)
		}
	}
	if len(staticNodes) == 0 || !opts.SegregateStatic || !hasDynamic {
		// Single-speed clusters, non-segregated placement, or a
		// dynamic-free site: spread static content over everything.
		staticNodes = append([]config.NodeSpec(nil), nodes...)
	}
	// Video: largest disks first, SCSI preferred, at most 4 holders.
	sorted := append([]config.NodeSpec(nil), nodes...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].DiskGB != sorted[j].DiskGB {
			return sorted[i].DiskGB > sorted[j].DiskGB
		}
		return sorted[i].Disk == config.DiskSCSI && sorted[j].Disk != config.DiskSCSI
	})
	nVideo := 4
	if nVideo > len(sorted) {
		nVideo = len(sorted)
	}
	videoNodes = sorted[:nVideo]

	table := urltable.New(urltable.Options{})

	// Static spreading: weighted round-robin by memory.
	staticWeight := make([]float64, len(staticNodes))
	var totalMem float64
	for i, n := range staticNodes {
		staticWeight[i] = float64(n.MemoryMB)
		totalMem += staticWeight[i]
	}
	staticCredit := make([]float64, len(staticNodes))

	// Dynamic spreading: round-robin with platform affinity.
	dynIdx := 0

	hotCut := int(float64(site.Len()) * opts.HotReplicaFraction)
	videoIdx := 0

	for rank := 0; rank < site.Len(); rank++ {
		obj := site.ByRank(rank)
		var locs []config.NodeID
		switch obj.Class {
		case content.ClassCGI, content.ClassASP:
			copies := opts.DynReplicas
			if rank < hotCut {
				// Hot scripts are tiny: replicate them across the
				// whole fast group for maximum dispatch freedom.
				copies = len(fastNodes)
			}
			locs = pickDynamic(fastNodes, copies, &dynIdx)
		case content.ClassVideo:
			locs = []config.NodeID{videoNodes[videoIdx%len(videoNodes)].ID}
			videoIdx++
		default:
			// Pick the static node with the most spare credit,
			// replicating hot objects.
			copies := 1
			if rank < hotCut {
				copies = opts.HotReplicas
				if copies > len(staticNodes) {
					copies = len(staticNodes)
				}
			}
			locs = pickStatic(staticNodes, staticWeight, staticCredit, obj.Size, copies)
		}
		if err := table.Insert(obj, locs...); err != nil {
			return nil, fmt.Errorf("sim: placing %s: %w", obj.Path, err)
		}
	}
	return table, nil
}

// pickDynamic places a dynamic object on `copies` distinct fast nodes,
// round-robin over the whole fast group. The paper's testbed ties ASP to
// NT/IIS and CGI to Apache, but pinning a class to the lone fast node of
// one platform would idle the other fast CPUs — the management layer's
// whole point is masking that heterogeneity — so placement treats the
// fast group as uniform execution capacity.
func pickDynamic(fast []config.NodeSpec, copies int, idx *int) []config.NodeID {
	if copies < 1 {
		copies = 1
	}
	if copies > len(fast) {
		copies = len(fast)
	}
	locs := make([]config.NodeID, 0, copies)
	for i := 0; i < copies; i++ {
		locs = append(locs, fast[(*idx+i)%len(fast)].ID)
	}
	*idx++
	return locs
}

// pickStatic places one static object on `copies` distinct nodes using
// memory-weighted deficit round-robin: each node accrues credit
// proportional to its weight and the emptiest-credit nodes take the
// object.
func pickStatic(nodes []config.NodeSpec, weight, credit []float64, size int64, copies int) []config.NodeID {
	type cand struct {
		idx  int
		need float64
	}
	cands := make([]cand, len(nodes))
	for i := range nodes {
		cands[i] = cand{idx: i, need: credit[i] / weight[i]}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].need != cands[b].need {
			return cands[a].need < cands[b].need
		}
		return cands[a].idx < cands[b].idx
	})
	if copies > len(cands) {
		copies = len(cands)
	}
	locs := make([]config.NodeID, 0, copies)
	for i := 0; i < copies; i++ {
		c := cands[i]
		credit[c.idx] += float64(size)
		locs = append(locs, nodes[c.idx].ID)
	}
	return locs
}
