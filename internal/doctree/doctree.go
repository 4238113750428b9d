// Package doctree provides the single-system-image view of the distributed
// document tree (§3.2) and turns administrator file-manager operations
// (insert, delete, rename, replicate, offload, assign) into executable
// plans: per-node file steps for the agents to carry out plus the URL-table
// update that makes the distributor see the change.
package doctree

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"

	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/urltable"
)

// StepKind is one node-level file operation.
type StepKind int

// Step kinds.
const (
	// StepStore places object bytes on a node.
	StepStore StepKind = iota + 1
	// StepDelete removes an object from a node.
	StepDelete
	// StepCopy copies an object from one node to another.
	StepCopy
)

// String names the kind.
func (k StepKind) String() string {
	switch k {
	case StepStore:
		return "store"
	case StepDelete:
		return "delete"
	case StepCopy:
		return "copy"
	default:
		return fmt.Sprintf("StepKind(%d)", int(k))
	}
}

// Step is one file operation for one node.
type Step struct {
	Kind StepKind
	// Node is the node the operation applies to (the copy target for
	// StepCopy).
	Node config.NodeID
	// Source is the node copied from (StepCopy only).
	Source config.NodeID
	Path   string
	// DestPath is the destination path for StepCopy when it differs
	// from Path (rename); empty means copy under the same path.
	DestPath string
	// Data is the object bytes for StepStore; nil means synthesize
	// SyntheticSize bytes (placement without transfer). On a StepCopy
	// SyntheticSize is the size the table lists, which the target checks
	// the copy against.
	Data          []byte
	SyntheticSize int64
}

// String formats the step for logs.
func (s Step) String() string {
	switch s.Kind {
	case StepCopy:
		return fmt.Sprintf("copy %s %s→%s", s.Path, s.Source, s.Node)
	default:
		return fmt.Sprintf("%s %s on %s", s.Kind, s.Path, s.Node)
	}
}

// Plan is an executable management operation: the file steps, then the
// URL-table update that publishes the change to the distributor. The steps
// must succeed before Apply runs, so a failed agent never leaves the table
// pointing at content that is not there.
type Plan struct {
	// Path is the document the plan changes — after a rename, its new
	// name — and Describe summarizes the operation; both go into the
	// journal.
	Path     string
	Describe string
	Steps    []Step
	// Apply publishes the change in the URL table.
	Apply func(t *urltable.Table) error
}

// Errors.
var (
	// ErrNoNodes reports an insert with no target nodes.
	ErrNoNodes = errors.New("doctree: no target nodes")
)

// InsertPlan places a new object (with its bytes, or synthetic if data is
// nil) on nodes and registers it in the table.
func InsertPlan(obj content.Object, data []byte, nodes ...config.NodeID) (Plan, error) {
	if len(nodes) == 0 {
		return Plan{}, ErrNoNodes
	}
	steps := make([]Step, 0, len(nodes))
	for _, n := range nodes {
		steps = append(steps, Step{
			Kind:          StepStore,
			Node:          n,
			Path:          obj.Path,
			Data:          data,
			SyntheticSize: obj.Size,
		})
	}
	targets := append([]config.NodeID(nil), nodes...)
	return Plan{
		Path:     obj.Path,
		Describe: fmt.Sprintf("insert %s on %v", obj.Path, nodes),
		Steps:    steps,
		Apply: func(t *urltable.Table) error {
			return t.Insert(obj, targets...)
		},
	}, nil
}

// DeletePlan removes an object from every node holding it and from the
// table.
func DeletePlan(t *urltable.Table, p string) (Plan, error) {
	rec, err := t.Lookup(p)
	if err != nil {
		return Plan{}, fmt.Errorf("doctree: %w", err)
	}
	steps := make([]Step, 0, len(rec.Locations))
	for _, n := range rec.Locations {
		steps = append(steps, Step{Kind: StepDelete, Node: n, Path: p})
	}
	return Plan{
		Path:     p,
		Describe: fmt.Sprintf("delete %s from %v", p, rec.Locations),
		Steps:    steps,
		Apply: func(t *urltable.Table) error {
			return t.Remove(p)
		},
	}, nil
}

// RenamePlan renames an object on every holder and in the table. On the
// nodes this is copy-then-delete through the broker.
func RenamePlan(t *urltable.Table, oldPath, newPath string) (Plan, error) {
	rec, err := t.Lookup(oldPath)
	if err != nil {
		return Plan{}, fmt.Errorf("doctree: %w", err)
	}
	steps := make([]Step, 0, 2*len(rec.Locations))
	for _, n := range rec.Locations {
		// Copy node→itself under the new name, then delete the old.
		steps = append(steps, Step{
			Kind:          StepCopy,
			Node:          n,
			Source:        n,
			Path:          oldPath,
			DestPath:      newPath,
			SyntheticSize: rec.Size,
		})
		steps = append(steps, Step{Kind: StepDelete, Node: n, Path: oldPath})
	}
	return Plan{
		Path:     newPath,
		Describe: fmt.Sprintf("rename %s → %s on %v", oldPath, newPath, rec.Locations),
		Steps:    steps,
		Apply: func(t *urltable.Table) error {
			return t.Rename(oldPath, newPath)
		},
	}, nil
}

// ReplicatePlan copies an object from source (auto-chosen first holder when
// empty) to target and adds the location.
func ReplicatePlan(t *urltable.Table, p string, source, target config.NodeID) (Plan, error) {
	rec, err := t.Lookup(p)
	if err != nil {
		return Plan{}, fmt.Errorf("doctree: %w", err)
	}
	if len(rec.Locations) == 0 {
		return Plan{}, fmt.Errorf("doctree: %s has no holders", p)
	}
	if source == "" {
		source = rec.Locations[0]
	} else if !rec.HasLocation(source) {
		return Plan{}, fmt.Errorf("doctree: source %s does not hold %s", source, p)
	}
	if rec.HasLocation(target) {
		return Plan{}, fmt.Errorf("doctree: %s already holds %s", target, p)
	}
	return Plan{
		Path:     p,
		Describe: fmt.Sprintf("replicate %s %s→%s", p, source, target),
		Steps: []Step{{
			Kind:          StepCopy,
			Node:          target,
			Source:        source,
			Path:          p,
			SyntheticSize: rec.Size,
		}},
		Apply: func(t *urltable.Table) error {
			return t.AddLocation(p, target)
		},
	}, nil
}

// OffloadPlan removes node's copy of an object, keeping at least one other
// replica.
func OffloadPlan(t *urltable.Table, p string, node config.NodeID) (Plan, error) {
	rec, err := t.Lookup(p)
	if err != nil {
		return Plan{}, fmt.Errorf("doctree: %w", err)
	}
	if !rec.HasLocation(node) {
		return Plan{}, fmt.Errorf("doctree: %s does not hold %s", node, p)
	}
	if len(rec.Locations) < 2 {
		return Plan{}, fmt.Errorf("doctree: refusing to remove the last copy of %s", p)
	}
	return Plan{
		Path:     p,
		Describe: fmt.Sprintf("offload %s from %s", p, node),
		Steps:    []Step{{Kind: StepDelete, Node: node, Path: p}},
		Apply: func(t *urltable.Table) error {
			return t.RemoveLocation(p, node)
		},
	}, nil
}

// AssignPlan moves an object so it is held exactly by nodes: missing
// replicas are copied in, surplus copies deleted. The administrator uses
// this to dedicate content to specific servers (§4: mutable content on one
// node, CGI on fast-CPU nodes).
func AssignPlan(t *urltable.Table, p string, nodes ...config.NodeID) (Plan, error) {
	if len(nodes) == 0 {
		return Plan{}, ErrNoNodes
	}
	rec, err := t.Lookup(p)
	if err != nil {
		return Plan{}, fmt.Errorf("doctree: %w", err)
	}
	want := make(map[config.NodeID]bool, len(nodes))
	for _, n := range nodes {
		want[n] = true
	}
	have := make(map[config.NodeID]bool, len(rec.Locations))
	for _, n := range rec.Locations {
		have[n] = true
	}
	if len(rec.Locations) == 0 {
		return Plan{}, fmt.Errorf("doctree: %s has no holders", p)
	}
	source := rec.Locations[0]

	var steps []Step
	var adds, removes []config.NodeID
	for _, n := range nodes {
		if !have[n] {
			steps = append(steps, Step{
				Kind:          StepCopy,
				Node:          n,
				Source:        source,
				Path:          p,
				SyntheticSize: rec.Size,
			})
			adds = append(adds, n)
		}
	}
	for _, n := range rec.Locations {
		if !want[n] {
			steps = append(steps, Step{Kind: StepDelete, Node: n, Path: p})
			removes = append(removes, n)
		}
	}
	return Plan{
		Path:     p,
		Describe: fmt.Sprintf("assign %s to %v", p, nodes),
		Steps:    steps,
		Apply: func(t *urltable.Table) error {
			for _, n := range adds {
				if err := t.AddLocation(p, n); err != nil {
					return err
				}
			}
			for _, n := range removes {
				if err := t.RemoveLocation(p, n); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}

// FileInfo is one file in the merged tree view.
type FileInfo struct {
	Path      string
	Size      int64
	Class     content.Class
	Priority  int
	Pinned    bool
	Hits      int64
	Locations []config.NodeID
}

// Dir is one directory in the merged tree view.
type Dir struct {
	Path  string
	Dirs  []*Dir
	Files []FileInfo
}

// View builds the single, coherent view of the document tree "comprised of
// portions that actually reside on several different server nodes" (§3.2).
func View(t *urltable.Table) *Dir {
	root := &Dir{Path: "/"}
	index := map[string]*Dir{"/": root}
	var ensure func(p string) *Dir
	ensure = func(p string) *Dir {
		if d, ok := index[p]; ok {
			return d
		}
		parent := ensure(path.Dir(p))
		d := &Dir{Path: p}
		parent.Dirs = append(parent.Dirs, d)
		index[p] = d
		return d
	}
	t.Walk(func(r urltable.Record) {
		d := ensure(path.Dir(r.Path))
		d.Files = append(d.Files, FileInfo{
			Path:      r.Path,
			Size:      r.Size,
			Class:     r.Class,
			Priority:  r.Priority,
			Pinned:    r.Pinned,
			Hits:      r.Hits,
			Locations: r.Locations,
		})
	})
	sortDir(root)
	return root
}

// sortDir orders the view deterministically.
func sortDir(d *Dir) {
	sort.Slice(d.Dirs, func(i, j int) bool { return d.Dirs[i].Path < d.Dirs[j].Path })
	sort.Slice(d.Files, func(i, j int) bool { return d.Files[i].Path < d.Files[j].Path })
	for _, sub := range d.Dirs {
		sortDir(sub)
	}
}

// Render formats the view as an indented listing (the text analogue of the
// remote console's file-manager pane).
func Render(d *Dir) string {
	var b strings.Builder
	var walk func(d *Dir, depth int)
	walk = func(d *Dir, depth int) {
		indent := strings.Repeat("  ", depth)
		fmt.Fprintf(&b, "%s%s/\n", indent, strings.TrimSuffix(d.Path, "/"))
		for _, f := range d.Files {
			pin := ""
			if f.Pinned {
				pin = ", pinned"
			}
			fmt.Fprintf(&b, "%s  %s  [%s, %dB, prio %d%s] @ %v\n",
				indent, path.Base(f.Path), f.Class, f.Size, f.Priority, pin, f.Locations)
		}
		for _, sub := range d.Dirs {
			walk(sub, depth+1)
		}
	}
	walk(d, 0)
	return b.String()
}
