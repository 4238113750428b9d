package loadbal

import (
	"fmt"
	"math"
	"sort"

	"webcluster/internal/config"
	"webcluster/internal/urltable"
)

// ActionKind distinguishes planner decisions.
type ActionKind int

// Action kinds.
const (
	// ActionReplicate copies content to an underutilized node.
	ActionReplicate ActionKind = iota + 1
	// ActionOffload removes a copy from an overloaded node.
	ActionOffload
)

// String names the kind.
func (k ActionKind) String() string {
	switch k {
	case ActionReplicate:
		return "replicate"
	case ActionOffload:
		return "offload"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// Action is one placement change the controller should apply: copy Path
// from Source to Target (replicate) or drop Path's copy on Target
// (offload).
type Action struct {
	Kind   ActionKind
	Path   string
	Source config.NodeID // replicate only: a node currently holding Path
	Target config.NodeID
}

// String formats the action for logs.
func (a Action) String() string {
	switch a.Kind {
	case ActionReplicate:
		return fmt.Sprintf("replicate %s %s→%s", a.Path, a.Source, a.Target)
	case ActionOffload:
		return fmt.Sprintf("offload %s from %s", a.Path, a.Target)
	default:
		return fmt.Sprintf("unknown action on %s", a.Path)
	}
}

// PlannerOptions tunes the auto-replication planner.
type PlannerOptions struct {
	// Threshold is the §3.3 deviation fraction from the average load
	// that marks a node over/under-utilized.
	Threshold float64
	// MaxActionsPerNode caps placement changes per node per interval so
	// the system converges instead of thrashing.
	MaxActionsPerNode int
	// MinHits is the popularity floor: content with fewer interval hits
	// is never replicated (it cannot be a hot spot).
	MinHits int64
	// PriorityMinCopies is the availability floor for critical content
	// (Priority > 0): the planner replicates it up to this copy count
	// regardless of load (§1.2: "replicate some critical content to
	// multiple nodes for achieving high availability"). 0 disables.
	PriorityMinCopies int
}

// DefaultPlannerOptions returns conservative defaults.
func DefaultPlannerOptions() PlannerOptions {
	return PlannerOptions{
		Threshold:         0.25,
		MaxActionsPerNode: 3,
		MinHits:           10,
		PriorityMinCopies: 2,
	}
}

// Decision is one planner action together with the inputs that
// produced it — what the journal records so `console explain` can
// answer "what did the planner see when it placed this".
type Decision struct {
	Action
	// LoadCV is the coefficient of variation of the interval loads the
	// planner ran against.
	LoadCV float64
	// Hits is the document's interval hit count (its demand reading).
	Hits int64
	// SourceLoad and TargetLoad are the load readings of the chosen
	// nodes (offloads have no source).
	SourceLoad float64
	TargetLoad float64
	// Reason names the planner branch: "availability-floor",
	// "replicate-hot-to-cold", "offload-hot", or "stage-sole-copy".
	Reason string
	// Rejected lists alternatives considered and passed over —
	// candidate source replicas with their loads for replications,
	// sole-copy paths that could not be shed for offloads.
	Rejected []string
	// Err is what applying the decision came to in Round.Run: nil once
	// applied. PlanDecisions leaves it nil.
	Err error
}

// Outcome reads Err for operators: "applied", or the error.
func (d Decision) Outcome() string {
	if d.Err != nil {
		return d.Err.Error()
	}
	return "applied"
}

// PlanDecisions computes the interval's placement decisions from per-node
// loads and the URL table (§3.3): underutilized nodes receive replicas of
// the most popular content they lack; overloaded nodes shed copies of
// their hottest content that another live node also holds, and when they
// hold sole copies only, the planner first replicates the hottest one to
// the least-loaded node so a later interval can complete the offload.
//
// loads' keys are the live set. A copy on a node outside it counts as no
// holder — never a replication source, never the copy an offload leaves
// behind — and such a node is never a target. The availability floor
// alone counts every recorded copy: a copy on a node that is down for
// maintenance still exists, and re-replicating critical content whenever
// a holder misses a probe would churn.
func PlanDecisions(loads map[config.NodeID]float64, table *urltable.Table, opts PlannerOptions) []Decision {
	if opts.MaxActionsPerNode <= 0 {
		opts.MaxActionsPerNode = 3
	}
	levels := Classify(loads, opts.Threshold)
	order := SortedNodes(loads) // coldest first
	cv := LoadCV(loads)

	var actions []Decision
	// pairSeen dedups (path → target) decisions across branches;
	// perTarget enforces MaxActionsPerNode on receiving nodes too.
	pairSeen := make(map[string]bool)
	perTarget := make(map[config.NodeID]int)
	add := func(d Decision) bool {
		a := d.Action
		key := a.Path + "→" + string(a.Target) + "/" + a.Kind.String()
		if pairSeen[key] {
			return false
		}
		if a.Kind == ActionReplicate && perTarget[a.Target] >= opts.MaxActionsPerNode {
			return false
		}
		pairSeen[key] = true
		if a.Kind == ActionReplicate {
			perTarget[a.Target]++
		}
		d.LoadCV = cv
		d.SourceLoad = loads[a.Source]
		d.TargetLoad = loads[a.Target]
		actions = append(actions, d)
		return true
	}

	// Global popularity ranking for replication to cold nodes. Pinned
	// content never moves: its placement encodes an administrative
	// decision (mutable content with centralized consistency, §4).
	var all []urltable.Record
	var underReplicated []urltable.Record
	table.Walk(func(r urltable.Record) {
		if r.Pinned {
			return
		}
		if r.Hits >= opts.MinHits {
			all = append(all, r)
		}
		if opts.PriorityMinCopies > 0 && r.Priority > 0 &&
			len(r.Locations) < opts.PriorityMinCopies {
			underReplicated = append(underReplicated, r)
		}
	})
	sortByHits(all)

	// Availability floor first: critical content below its copy floor is
	// replicated to the coldest nodes regardless of load levels.
	sort.Slice(underReplicated, func(i, j int) bool {
		if underReplicated[i].Priority != underReplicated[j].Priority {
			return underReplicated[i].Priority > underReplicated[j].Priority
		}
		return underReplicated[i].Path < underReplicated[j].Path
	})
	for _, r := range underReplicated {
		live := liveHolders(r.Locations, loads)
		if len(live) == 0 {
			continue // no live copy to seed a replica from
		}
		source := leastLoadedOf(live, loads)
		need := opts.PriorityMinCopies - len(r.Locations)
		for _, target := range order {
			if need <= 0 {
				break
			}
			if r.HasLocation(target) {
				continue
			}
			if add(Decision{
				Action: Action{
					Kind:   ActionReplicate,
					Path:   r.Path,
					Source: source,
					Target: target,
				},
				Hits:     r.Hits,
				Reason:   "availability-floor",
				Rejected: rejectedSources(live, source, loads),
			}) {
				need--
			}
		}
	}

	// Replicate hot content to each underutilized node, hottest first,
	// skipping content it already holds.
	for _, id := range order {
		if levels[id] != LevelUnderutilized {
			continue
		}
		n := 0
		for _, r := range all {
			if n >= opts.MaxActionsPerNode {
				break
			}
			if r.HasLocation(id) {
				continue
			}
			live := liveHolders(r.Locations, loads)
			if len(live) == 0 {
				continue
			}
			source := leastLoadedOf(live, loads)
			if add(Decision{
				Action: Action{
					Kind:   ActionReplicate,
					Path:   r.Path,
					Source: source,
					Target: id,
				},
				Hits:     r.Hits,
				Reason:   "replicate-hot-to-cold",
				Rejected: rejectedSources(live, source, loads),
			}) {
				n++
			}
		}
	}

	// Offload the hottest multi-copy content from each overloaded node.
	// holders counts each path's live copies still standing after the
	// offloads planned so far.
	holders := make(map[string]int)
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		if levels[id] != LevelOverloaded {
			continue
		}
		entries := table.EntriesAt(id) // already hottest-first
		n := 0
		soleHot := ""
		var soleHits int64
		var soleSkipped []string
		for _, r := range entries {
			if n >= opts.MaxActionsPerNode {
				break
			}
			if r.Hits < opts.MinHits {
				break
			}
			if r.Pinned {
				continue
			}
			left, seen := holders[r.Path]
			if !seen {
				left = len(liveHolders(r.Locations, loads))
			}
			if left < 2 {
				if soleHot == "" {
					soleHot = r.Path
					soleHits = r.Hits
				}
				if len(soleSkipped) < 3 {
					soleSkipped = append(soleSkipped, r.Path+":sole-copy")
				}
				continue
			}
			if add(Decision{
				Action:   Action{Kind: ActionOffload, Path: r.Path, Target: id},
				Hits:     r.Hits,
				Reason:   "offload-hot",
				Rejected: soleSkipped,
			}) {
				holders[r.Path] = left - 1
				n++
			}
		}
		if n == 0 && soleHot != "" && len(order) > 1 {
			// Sole copies only: stage a replica on the coldest other node.
			target := order[0]
			if target == id {
				target = order[1]
			}
			add(Decision{
				Action: Action{
					Kind:   ActionReplicate,
					Path:   soleHot,
					Source: id,
					Target: target,
				},
				Hits:   soleHits,
				Reason: "stage-sole-copy",
			})
		}
	}
	return actions
}

// rejectedSources formats the replica locations that were NOT picked as
// the replication source, with the loads that ruled them out.
func rejectedSources(locs []config.NodeID, chosen config.NodeID, loads map[config.NodeID]float64) []string {
	if len(locs) < 2 {
		return nil
	}
	out := make([]string, 0, len(locs)-1)
	for _, id := range locs {
		if id == chosen {
			continue
		}
		out = append(out, fmt.Sprintf("%s(%.3f)", id, loads[id]))
	}
	return out
}

// LoadCV is the coefficient of variation (stddev/mean) of the load
// readings — the §3.3 imbalance measure the planner's decisions are
// judged against. Nodes are summed in sorted order so the float result
// is deterministic for a given map.
func LoadCV(loads map[config.NodeID]float64) float64 {
	if len(loads) == 0 {
		return 0
	}
	order := SortedNodes(loads)
	var sum float64
	for _, id := range order {
		sum += loads[id]
	}
	mean := sum / float64(len(order))
	if mean == 0 {
		return 0
	}
	var varsum float64
	for _, id := range order {
		d := loads[id] - mean
		varsum += d * d
	}
	return math.Sqrt(varsum/float64(len(order))) / mean
}

// sortByHits orders records hottest-first with path tiebreak for
// determinism.
func sortByHits(recs []urltable.Record) {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Hits != recs[j].Hits {
			return recs[i].Hits > recs[j].Hits
		}
		return recs[i].Path < recs[j].Path
	})
}

// liveHolders returns the locations in the live set (loads' keys).
func liveHolders(locs []config.NodeID, loads map[config.NodeID]float64) []config.NodeID {
	var live []config.NodeID
	for _, id := range locs {
		if _, up := loads[id]; up {
			live = append(live, id)
		}
	}
	return live
}

// leastLoadedOf returns the location with the smallest load (replication
// source that disturbs the cluster least).
func leastLoadedOf(locs []config.NodeID, loads map[config.NodeID]float64) config.NodeID {
	best := locs[0]
	for _, id := range locs[1:] {
		if loads[id] < loads[best] {
			best = id
		}
	}
	return best
}
