package loadbal

import (
	"errors"
	"sort"

	"webcluster/internal/config"
	"webcluster/internal/content"
)

// PlacementOptions tunes Partition.
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

// Partition computes the paper's content-aware placement (§4, and §5.3's
// configuration 3) of site over spec's nodes. Entry i of the result lists
// the holders of site.ByRank(i):
//
//   - CGI and ASP objects go to the fastest-CPU nodes.
//   - Video files go to the nodes with the largest disk, SCSI first, one
//     holder each in turn.
//   - Static objects are spread across the static node group
//     (all nodes, or only non-dynamic nodes under SegregateStatic),
//     weighted by memory so cache capacity is used proportionally.
//   - The hottest static objects, and critical ones (Priority > 0), are
//     replicated HotReplicas ways within the static group.
//
// The simulator builds its URL table from the result and a live cluster
// inserts each object on its holders, so both run this one rule.
func Partition(site *content.Site, spec config.ClusterSpec, opts PlacementOptions) ([][]config.NodeID, error) {
	if opts.HotReplicas < 1 {
		opts.HotReplicas = 1
	}
	nodes := spec.Nodes
	if len(nodes) == 0 {
		return nil, errors.New("loadbal: no nodes to place on")
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
	maxMHz, maxDisk := 0, 0
	for _, n := range nodes {
		if n.CPUMHz > maxMHz {
			maxMHz = n.CPUMHz
		}
		if n.DiskGB > maxDisk {
			maxDisk = n.DiskGB
		}
	}
	var fastNodes, staticNodes, videoNodes []config.NodeSpec
	for _, n := range nodes {
		if n.CPUMHz == maxMHz {
			fastNodes = append(fastNodes, n)
		} else {
			staticNodes = append(staticNodes, n)
		}
		if n.DiskGB == maxDisk {
			videoNodes = append(videoNodes, n)
		}
	}
	if len(staticNodes) == 0 || !opts.SegregateStatic || !hasDynamic {
		// Single-speed clusters, non-segregated placement, or a
		// dynamic-free site: spread static content over everything.
		staticNodes = append([]config.NodeSpec(nil), nodes...)
	}
	sort.SliceStable(videoNodes, func(i, j int) bool {
		return videoNodes[i].Disk == config.DiskSCSI && videoNodes[j].Disk != config.DiskSCSI
	})

	// Static spreading: weighted round-robin by memory.
	staticWeight := make([]float64, len(staticNodes))
	for i, n := range staticNodes {
		staticWeight[i] = float64(n.MemoryMB)
	}
	staticCredit := make([]float64, len(staticNodes))

	// Dynamic spreading: round-robin over the fast group.
	dynIdx := 0

	hotCut := int(float64(site.Len()) * opts.HotReplicaFraction)
	videoIdx := 0

	holders := make([][]config.NodeID, site.Len())
	for rank := range holders {
		obj := site.ByRank(rank)
		switch obj.Class {
		case content.ClassCGI, content.ClassASP:
			copies := opts.DynReplicas
			if rank < hotCut {
				// Hot scripts are tiny: replicate them across the
				// whole fast group for maximum dispatch freedom.
				copies = len(fastNodes)
			}
			holders[rank] = pickDynamic(fastNodes, copies, &dynIdx)
		case content.ClassVideo:
			holders[rank] = []config.NodeID{videoNodes[videoIdx%len(videoNodes)].ID}
			videoIdx++
		default:
			// Pick the static node with the most spare credit,
			// replicating hot objects, and critical ones so that they
			// outlive a node (§3.2).
			copies := 1
			if rank < hotCut || obj.Priority > 0 {
				copies = opts.HotReplicas
				if copies > len(staticNodes) {
					copies = len(staticNodes)
				}
			}
			holders[rank] = pickStatic(staticNodes, staticWeight, staticCredit, obj.Size, copies)
		}
	}
	return holders, nil
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
