package loadbal

import (
	"testing"

	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/workload"
)

func partitionSite(t *testing.T, kind workload.Kind, objects int) (*content.Site, config.ClusterSpec, [][]config.NodeID) {
	t.Helper()
	site, err := workload.BuildSite(kind, objects, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := config.PaperTestbed()
	holders, err := Partition(site, spec, DefaultPlacementOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(holders) != site.Len() {
		t.Fatalf("placed %d of %d", len(holders), site.Len())
	}
	return site, spec, holders
}

func TestPartitionSitePlacesEverything(t *testing.T) {
	site, spec, holders := partitionSite(t, workload.KindB, 2000)
	fast := map[config.NodeID]bool{}
	bigDisk := map[config.NodeID]bool{}
	for _, n := range spec.Nodes {
		fast[n.ID] = n.CPUMHz == 350
		bigDisk[n.ID] = n.DiskGB == 8
	}
	for rank, locs := range holders {
		obj := site.ByRank(rank)
		if len(locs) == 0 {
			t.Errorf("%s has no locations", obj.Path)
			continue
		}
		for _, loc := range locs {
			switch {
			case obj.Class.Dynamic():
				if !fast[loc] {
					t.Errorf("dynamic %s on slow node %s", obj.Path, loc)
				}
			case obj.Class == content.ClassVideo:
				if !bigDisk[loc] {
					t.Errorf("video %s on small-disk node %s", obj.Path, loc)
				}
			default:
				// Segregated statics avoid the dynamic (fast) group.
				if fast[loc] {
					t.Errorf("static %s on dynamic node %s", obj.Path, loc)
				}
			}
		}
	}
}

func TestPartitionSiteWorkloadAUsesAllNodes(t *testing.T) {
	_, spec, holders := partitionSite(t, workload.KindA, 1000)
	used := map[config.NodeID]bool{}
	for _, locs := range holders {
		for _, loc := range locs {
			used[loc] = true
		}
	}
	if len(used) != len(spec.Nodes) {
		t.Fatalf("static-only site uses %d of %d nodes", len(used), len(spec.Nodes))
	}
}

func TestPartitionSiteHotReplicas(t *testing.T) {
	site, _, holders := partitionSite(t, workload.KindA, 1000)
	// The hottest static object must be multi-copy.
	for rank, locs := range holders {
		obj := site.ByRank(rank)
		if obj.Class != content.ClassHTML && obj.Class != content.ClassImage {
			continue
		}
		if want := DefaultPlacementOptions().HotReplicas; len(locs) != want {
			t.Fatalf("hottest static %s has %d copies, want %d", obj.Path, len(locs), want)
		}
		break
	}
}

// Critical content is replicated wherever it ranks, not only when it
// happens to be among the hottest objects.
func TestPartitionReplicatesCriticalContent(t *testing.T) {
	site, err := content.GenerateSite(content.GenParams{
		Objects: 400, Seed: 3, DynamicFraction: 0.1, MeanStaticBytes: 1024, CriticalFraction: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	holders, err := Partition(site, config.PaperTestbed(), DefaultPlacementOptions())
	if err != nil {
		t.Fatal(err)
	}
	critical := 0
	for rank, locs := range holders {
		if obj := site.ByRank(rank); obj.Priority > 0 {
			critical++
			if len(locs) < 2 {
				t.Fatalf("critical %s (rank %d) on %v", obj.Path, rank, locs)
			}
		}
	}
	if critical <= int(float64(site.Len())*DefaultPlacementOptions().HotReplicaFraction) {
		t.Fatalf("only %d critical objects: the site must hold more than the hot cut", critical)
	}
}

func TestPartitionRejectsEmptySpec(t *testing.T) {
	site, err := workload.BuildSite(workload.KindA, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Partition(site, config.ClusterSpec{}, DefaultPlacementOptions()); err == nil {
		t.Fatal("empty spec accepted")
	}
}
