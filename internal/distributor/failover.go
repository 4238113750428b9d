package distributor

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/conntrack"
	"webcluster/internal/content"
	"webcluster/internal/faults"
	"webcluster/internal/lifecycle"
	"webcluster/internal/urltable"
)

// contentObject converts a wire record back into a content object.
func contentObject(r snapshotRecord) content.Object {
	return content.Object{
		Path:     r.Path,
		Size:     r.Size,
		Class:    content.Class(r.Class),
		Priority: r.Priority,
	}
}

// The primary/backup protocol (§2.3): the backup connects to the primary's
// replication port, receives heartbeats and periodic state snapshots (URL
// table + mapping table + cluster spec), and — when the primary stops
// responding — takes over by binding the service address itself and
// recreating the distributor from the replicated state.

// snapshotRecord is the wire form of one URL-table entry.
type snapshotRecord struct {
	Path      string          `json:"path"`
	Size      int64           `json:"size"`
	Class     int             `json:"class"`
	Priority  int             `json:"priority"`
	Pinned    bool            `json:"pinned,omitempty"`
	Hits      int64           `json:"hits"`
	Locations []config.NodeID `json:"locations"`
}

// snapshotMapping is the wire form of one mapping-table entry.
type snapshotMapping struct {
	IP       string        `json:"ip"`
	Port     int           `json:"port"`
	State    int           `json:"state"`
	Backend  config.NodeID `json:"backend"`
	Requests int           `json:"requests"`
}

// replMessage is one line of the replication stream.
type replMessage struct {
	Type    string              `json:"type"` // "hb" | "snapshot"
	Cluster *config.ClusterSpec `json:"cluster,omitempty"`
	Table   []snapshotRecord    `json:"table,omitempty"`
	Mapping []snapshotMapping   `json:"mapping,omitempty"`
}

// ReplicationServer streams distributor state to connected backups.
// Construct with NewReplicationServer.
type ReplicationServer struct {
	d        *Distributor
	interval time.Duration
	// writeTimeout bounds each stream write so one stalled backup
	// cannot pin its feed goroutine (and its connection slot) forever.
	writeTimeout time.Duration

	life lifecycle.Group
}

// NewReplicationServer returns a replication source for d snapshotting at
// the given interval (default 200ms when non-positive).
func NewReplicationServer(d *Distributor, interval time.Duration) *ReplicationServer {
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	writeTimeout := 4 * interval
	if writeTimeout < time.Second {
		writeTimeout = time.Second
	}
	return &ReplicationServer{
		d:            d,
		interval:     interval,
		writeTimeout: writeTimeout,
	}
}

// SetFaults attaches a fault injector to the replication stream (point
// "repl.feed": truncation, corruption, stalls on the feed toward
// backups). Call before Start.
func (rs *ReplicationServer) SetFaults(in *faults.Injector) {
	rs.life.Wrap = func(c net.Conn) net.Conn { return in.Conn("repl.feed", c) }
}

// Start listens for backups on addr (":0" for ephemeral), returning the
// bound address.
func (rs *ReplicationServer) Start(addr string) (string, error) {
	bound, err := rs.life.Listen(addr, rs.feed)
	if err != nil {
		return "", fmt.Errorf("replication: listen: %w", err)
	}
	return bound, nil
}

// snapshot captures the distributor's replicable state.
func (rs *ReplicationServer) snapshot() replMessage {
	var records []snapshotRecord
	rs.d.table.Walk(func(r urltable.Record) {
		records = append(records, snapshotRecord{
			Path:      r.Path,
			Size:      r.Size,
			Class:     int(r.Class),
			Priority:  r.Priority,
			Pinned:    r.Pinned,
			Hits:      r.Hits,
			Locations: r.Locations,
		})
	})
	entries := rs.d.mapping.Snapshot()
	mappings := make([]snapshotMapping, 0, len(entries))
	for _, e := range entries {
		mappings = append(mappings, snapshotMapping{
			IP:       e.Key.IP,
			Port:     e.Key.Port,
			State:    int(e.State),
			Backend:  e.Backend,
			Requests: e.Requests,
		})
	}
	cluster := rs.d.cluster
	return replMessage{
		Type:    "snapshot",
		Cluster: &cluster,
		Table:   records,
		Mapping: mappings,
	}
}

// feed streams heartbeats and snapshots to one backup until error or
// close. Every write runs under the write deadline: a backup that stops
// draining (slow-loris reader) gets its stream cut instead of wedging the
// feed goroutine.
func (rs *ReplicationServer) feed(conn net.Conn) {
	enc := json.NewEncoder(conn)
	send := func(msg replMessage) error {
		if err := conn.SetWriteDeadline(time.Now().Add(rs.writeTimeout)); err != nil {
			return err
		}
		return enc.Encode(msg)
	}
	ticker := time.NewTicker(rs.interval)
	defer ticker.Stop()
	// Immediate first snapshot so a new backup is current at once.
	if err := send(rs.snapshot()); err != nil {
		return
	}
	hb := 0
	closed := rs.life.Done()
	for {
		select {
		case <-closed:
			return
		case <-ticker.C:
			var msg replMessage
			// Heartbeat between snapshots: every tick sends a
			// heartbeat; every 4th carries full state.
			if hb%4 == 3 {
				msg = rs.snapshot()
			} else {
				msg = replMessage{Type: "hb"}
			}
			hb++
			if err := send(msg); err != nil {
				return
			}
		}
	}
}

// Close stops replication and joins all goroutines.
func (rs *ReplicationServer) Close() error { return rs.life.Close() }

// PromoteFunc builds and starts the successor distributor during takeover.
// It receives the replicated URL table and cluster spec and must return
// the running replacement (typically via New + Start on the service
// address the failed primary held).
type PromoteFunc func(table *urltable.Table, cluster config.ClusterSpec) (*Distributor, error)

// Backup monitors a primary distributor and takes over when it fails.
// Construct with NewBackup.
type Backup struct {
	replAddr string
	timeout  time.Duration
	promote  PromoteFunc

	mu        sync.Mutex
	lastState replMessage
	promoted  *Distributor
	err       error

	done     chan struct{}
	stopOnce sync.Once
	stopped  chan struct{}
	wg       sync.WaitGroup

	faults *faults.Injector
}

// SetFaults installs a fault injector consulted around the replication
// dial (points "backup.dial" and "backup.conn"). Call before Start.
func (b *Backup) SetFaults(in *faults.Injector) { b.faults = in }

// NewBackup returns a backup that monitors the primary's replication
// endpoint at replAddr, declares it dead after timeout without traffic,
// and calls promote to take over.
func NewBackup(replAddr string, timeout time.Duration, promote PromoteFunc) *Backup {
	if timeout <= 0 {
		timeout = time.Second
	}
	return &Backup{
		replAddr: replAddr,
		timeout:  timeout,
		promote:  promote,
		done:     make(chan struct{}),
		stopped:  make(chan struct{}),
	}
}

// Start begins monitoring in the background.
func (b *Backup) Start() error {
	// The dial is bounded like the reads: an unresponsive primary at
	// connect time should not block backup startup indefinitely.
	if err := b.faults.Fail("backup.dial"); err != nil {
		return fmt.Errorf("backup: connecting to primary: %w", err)
	}
	conn, err := net.DialTimeout("tcp", b.replAddr, b.timeout)
	if err != nil {
		return fmt.Errorf("backup: connecting to primary: %w", err)
	}
	conn = b.faults.Conn("backup.conn", conn)
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		b.monitor(conn)
	}()
	return nil
}

// monitor consumes the replication stream; when it breaks or goes silent,
// the backup promotes itself.
func (b *Backup) monitor(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	br := bufio.NewReader(conn)
	dec := json.NewDecoder(br)
	for {
		select {
		case <-b.stopped:
			return
		default:
		}
		if err := conn.SetReadDeadline(time.Now().Add(b.timeout)); err != nil {
			b.takeover()
			return
		}
		var msg replMessage
		if err := dec.Decode(&msg); err != nil {
			// Stream broken or heartbeat missed: the primary is dead.
			b.takeover()
			return
		}
		if msg.Type == "snapshot" {
			b.mu.Lock()
			b.lastState = msg
			b.mu.Unlock()
		}
	}
}

// StateReceived reports whether at least one full snapshot has landed —
// the point after which a takeover can restore state.
func (b *Backup) StateReceived() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastState.Cluster != nil
}

// takeover rebuilds the distributor from replicated state via promote.
func (b *Backup) takeover() {
	select {
	case <-b.stopped:
		return // deliberate shutdown, not a failure
	default:
	}
	b.mu.Lock()
	state := b.lastState
	b.mu.Unlock()

	defer close(b.done)
	if state.Cluster == nil {
		b.setErr(errors.New("backup: no replicated state at takeover"))
		return
	}
	table := urltable.New(urltable.Options{})
	if err := RestoreTable(table, state); err != nil {
		b.setErr(fmt.Errorf("backup: restoring table: %w", err))
		return
	}
	d, err := b.promote(table, *state.Cluster)
	if err != nil {
		b.setErr(fmt.Errorf("backup: promote: %w", err))
		return
	}
	// Restore the replicated mapping entries for observability; the
	// underlying client TCP connections died with the primary, so these
	// entries represent connections the clients must re-establish.
	restored := make([]conntrack.Entry, 0, len(state.Mapping))
	for _, m := range state.Mapping {
		restored = append(restored, conntrack.Entry{
			Key:      conntrack.ClientKey{IP: m.IP, Port: m.Port},
			State:    conntrack.State(m.State),
			Backend:  m.Backend,
			Requests: m.Requests,
		})
	}
	d.Mapping().Restore(restored)
	b.mu.Lock()
	b.promoted = d
	b.mu.Unlock()
}

// RestoreTable loads a replicated snapshot into table.
func RestoreTable(table *urltable.Table, msg replMessage) error {
	for _, r := range msg.Table {
		obj := contentObject(r)
		if err := table.Insert(obj, r.Locations...); err != nil {
			return err
		}
		if r.Pinned {
			if err := table.SetPinned(r.Path, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// setErr records a takeover failure.
func (b *Backup) setErr(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.err = err
}

// Promoted blocks until takeover completes (or ctx-free timeout d) and
// returns the successor distributor, nil if monitoring is still healthy
// after d, or the takeover error.
func (b *Backup) Promoted(d time.Duration) (*Distributor, error) {
	select {
	case <-b.done:
	case <-time.After(d):
		return nil, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.promoted, b.err
}

// Stop ends monitoring without promoting.
func (b *Backup) Stop() {
	b.stopOnce.Do(func() { close(b.stopped) })
	b.wg.Wait()
}
