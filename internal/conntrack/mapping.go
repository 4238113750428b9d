package conntrack

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"webcluster/internal/config"
)

// Errors returned by the mapping table.
var (
	// ErrEntryExists reports a duplicate client key.
	ErrEntryExists = errors.New("conntrack: entry already exists")
	// ErrEntryNotFound reports an unknown client key.
	ErrEntryNotFound = errors.New("conntrack: entry not found")
)

// ClientKey identifies a client connection the way the paper's mapping
// table does: by source IP address and port.
type ClientKey struct {
	IP   string
	Port int
}

// String formats the key as ip:port.
func (k ClientKey) String() string { return fmt.Sprintf("%s:%d", k.IP, k.Port) }

// Entry is one mapping-table row: the tracked connection's state, TCP
// bookkeeping, and — once bound — the chosen back end.
type Entry struct {
	Key   ClientKey
	State State
	// Seq and Ack capture the TCP state the paper records at SYN time so
	// a backup distributor can resume relaying (sequence-number deltas).
	Seq uint32
	Ack uint32
	// Backend is the node this connection is currently bound to; empty
	// until a request has been routed.
	Backend config.NodeID
	// Requests counts HTTP requests served on this connection
	// (>1 under keep-alive).
	Requests int
	// Created is when the entry was installed.
	Created time.Time
}

// MappingTable tracks all live client connections. The zero value is not
// usable; construct with NewMappingTable.
type MappingTable struct {
	mu      sync.RWMutex
	entries map[ClientKey]*Entry
	now     func() time.Time

	installed int64
	deleted   int64
}

// NewMappingTable returns an empty table using the wall clock.
func NewMappingTable() *MappingTable {
	return NewMappingTableAt(time.Now)
}

// NewMappingTableAt returns an empty table reading time from now.
func NewMappingTableAt(now func() time.Time) *MappingTable {
	return &MappingTable{entries: make(map[ClientKey]*Entry), now: now}
}

// Install creates the entry for a new connection in SYN_RECEIVED state,
// recording the client's initial sequence number as the paper's distributor
// does on SYN receipt.
func (t *MappingTable) Install(key ClientKey, seq, ack uint32) (*Entry, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.entries[key]; ok {
		return nil, fmt.Errorf("%w: %s", ErrEntryExists, key)
	}
	e := &Entry{
		Key:     key,
		State:   StateSynReceived,
		Seq:     seq,
		Ack:     ack,
		Created: t.now(),
	}
	t.entries[key] = e
	t.installed++
	return e, nil
}

// Advance applies ev to the entry for key, deleting it when it reaches
// CLOSED. It returns the post-event state.
func (t *MappingTable) Advance(key ClientKey, ev Event) (State, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[key]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrEntryNotFound, key)
	}
	next, err := Next(e.State, ev)
	if err != nil {
		return e.State, err
	}
	e.State = next
	if ev == EventRequestBound {
		e.Requests++
	}
	if next == StateClosed {
		delete(t.entries, key)
		t.deleted++
	}
	return next, nil
}

// Bind records the back end chosen for key's current request.
func (t *MappingTable) Bind(key ClientKey, backend config.NodeID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[key]
	if !ok {
		return fmt.Errorf("%w: %s", ErrEntryNotFound, key)
	}
	e.Backend = backend
	return nil
}

// Get returns a copy of the entry for key.
func (t *MappingTable) Get(key ClientKey) (Entry, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, ok := t.entries[key]
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

// Len returns the number of live entries.
func (t *MappingTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// Snapshot returns copies of all live entries (state-replication input for
// the backup distributor).
func (t *MappingTable) Snapshot() []Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Entry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, *e)
	}
	return out
}

// Restore installs entries wholesale (backup takeover path). Existing
// entries with the same key are overwritten.
func (t *MappingTable) Restore(entries []Entry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range entries {
		copied := e
		t.entries[e.Key] = &copied
	}
}

// Counts reports lifetime install/delete totals and the live count.
func (t *MappingTable) Counts() (installed, deleted int64, live int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.installed, t.deleted, len(t.entries)
}
