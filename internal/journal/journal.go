// Package journal is the cluster's structured decision journal: a
// fixed-memory ring of flat Event values that every control-plane actor —
// planner, controller, distributor, monitor, fault injector, node agents
// — records into, and the management plane's only record of what it did.
// It answers "why does the cluster look like this": which decision placed
// a document, what the planner saw when it decided, which fault started
// an incident and what the repair chain did about it.
//
// Memory model: the journal is one ring.Ring of capacity events, the
// store the telemetry span ring uses too; recording never allocates
// (events are value structs copied into pre-allocated slots) and never
// blocks beyond one brief per-slot mutex. Events are recorded on error
// and control-plane paths only, so one ring needs no striping. Drop
// policy under overflow: the oldest event is overwritten — the journal
// keeps the newest capacity events and forgets the past, which is the
// right trade for an always-on flight recorder.
//
// Causality: Incident(node) opens (or joins) a trace for a node's
// ongoing incident; every actor that touches the incident records with
// that trace ID, and EndIncident closes it on recovery. A merged
// cluster stream filtered by one trace is the incident's full story.
package journal

import (
	"slices"
	"sort"
	"sync"
	"time"

	"webcluster/internal/ring"
)

// Options configures a Journal.
type Options struct {
	// Node labels every event's Src field ("front", "n3").
	Node string
	// Clock overrides time.Now, for deterministic tests.
	Clock func() time.Time
}

// capacity is how many events a journal keeps.
const capacity = 4096

// Journal is a fixed-memory structured event log. The zero value is
// not usable; a nil *Journal is: every method no-ops (Record drops,
// queries return nothing), so call sites need no "is journaling on"
// branches.
type Journal struct {
	node  string
	clock func() time.Time
	// ring's sequence numbers are the events' Seq.
	ring *ring.Ring[Event]
	ids  ring.IDs

	// mu guards the incident table. Never held while recording.
	mu        sync.Mutex
	incidents map[string]uint64
	lastTrace uint64
}

// New builds a journal.
func New(o Options) *Journal {
	j := &Journal{
		node:      o.Node,
		clock:     o.Clock,
		ring:      ring.New[Event](capacity),
		incidents: make(map[string]uint64),
	}
	if j.clock == nil {
		j.clock = time.Now
	}
	return j
}

// Node returns the label stamped into events' Src field.
func (j *Journal) Node() string {
	if j == nil {
		return ""
	}
	return j.node
}

// Record stamps ev's Seq, Time, and Src and copies it into the ring,
// overwriting the oldest entry when full. It performs no allocation and
// no blocking call — safe on the relay fast path — and is a no-op on a
// nil journal.
func (j *Journal) Record(ev Event) {
	if j == nil {
		return
	}
	ev.Seq = j.ring.Next()
	ev.Time = j.clock().UnixNano()
	ev.Src = j.node
	j.ring.Put(ev.Seq, &ev)
}

// Recorded returns the number of events ever recorded (including ones
// the ring has since overwritten).
func (j *Journal) Recorded() uint64 {
	if j == nil {
		return 0
	}
	return j.ring.Claimed()
}

// Dropped returns how many events have been overwritten: recorded minus
// capacity, floored at zero.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	n, c := j.ring.Claimed(), uint64(j.ring.Cap())
	if n <= c {
		return 0
	}
	return n - c
}

// Incident returns the trace ID of node's open incident, opening one
// if none exists. Every actor touching the same node incident gets the
// same trace, which is what links a fault to its failovers, the
// monitor transition, and the eventual repair. Returns 0 on a nil
// journal.
func (j *Journal) Incident(node string) uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if t, ok := j.incidents[node]; ok {
		return t
	}
	t := j.ids.Next()
	j.incidents[node] = t
	j.lastTrace = t
	return t
}

// IncidentTrace returns node's open incident trace without opening
// one; 0 when the node has no open incident.
func (j *Journal) IncidentTrace(node string) uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.incidents[node]
}

// EndIncident closes node's incident and returns its trace (0 if none
// was open). The recovery event itself should carry the returned trace
// so the incident's story has an explicit end marker.
func (j *Journal) EndIncident(node string) uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	t := j.incidents[node]
	delete(j.incidents, node)
	return t
}

// AnyIncident returns the most recently opened incident trace that is
// still open, or 0 when the cluster is quiet. Planner rounds record
// their decisions under this trace: repair decisions made while an
// incident is open are part of its causal story.
func (j *Journal) AnyIncident() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.incidents) == 0 {
		return 0
	}
	for _, t := range j.incidents {
		if t == j.lastTrace {
			return t
		}
	}
	// lastTrace's incident already closed; return any open one.
	for _, t := range j.incidents {
		return t
	}
	return 0
}

// Snapshot returns up to limit of the newest events about path — every
// event when path is empty — in sequence order, oldest first; limit <= 0
// means no cap. The path filter runs before the cap, so a document's
// history is not crowded out by newer events about other documents.
func (j *Journal) Snapshot(path string, limit int) []Event {
	if j == nil {
		return nil
	}
	evs := j.ring.Snapshot(0)
	if path != "" {
		evs = slices.DeleteFunc(evs, func(ev Event) bool { return ev.Path != path })
	}
	if limit > 0 && len(evs) > limit {
		evs = evs[:limit]
	}
	slices.Reverse(evs)
	return evs
}

// Merge interleaves several journals' event lists into one stream
// ordered by time, with (Src, Seq) as the tiebreak so each origin's
// own order is preserved — the controller's single-system-image view
// of the cluster journal.
func Merge(lists ...[]Event) []Event {
	var out []Event
	for _, l := range lists {
		out = append(out, l...)
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Time != out[b].Time {
			return out[a].Time < out[b].Time
		}
		if out[a].Src != out[b].Src {
			return out[a].Src < out[b].Src
		}
		return out[a].Seq < out[b].Seq
	})
	return out
}
