package mgmt

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/faults"
	"webcluster/internal/lifecycle"
	"webcluster/internal/urltable"
)

// The primary/backup protocol (§2.3): the backup connects to the primary's
// replication port and reads wire.go frames — a heartbeat every tick and,
// every fourth tick, a snapshot: the cluster spec in the envelope and the
// URL table as the payload, in its one serialized form (MarshalJSON). The
// backup loads each snapshot as it arrives; when the stream breaks, goes
// silent or delivers a snapshot that does not load, it takes over with
// the last table that did.
//
// The connection mapping table is not replicated. The client connections
// it tracks belong to the primary's process and die with it, so a
// restored entry would name a connection that no longer exists: it would
// never reach CLOSED, and a client reconnecting from the same ip:port
// would be refused as a duplicate.

// replHeader is the envelope of one replication frame.
type replHeader struct {
	Type    string              `json:"type"` // "hb" | "snapshot"
	Cluster *config.ClusterSpec `json:"cluster,omitempty"`
}

// ReplicationServer streams the front end's placement state to connected
// backups. Construct with NewReplicationServer.
type ReplicationServer struct {
	table    *urltable.Table
	cluster  config.ClusterSpec
	interval time.Duration
	// writeTimeout bounds each stream write so one stalled backup
	// cannot pin its feed goroutine (and its connection slot) forever.
	writeTimeout time.Duration

	life lifecycle.Group
}

// NewReplicationServer returns a replication source for table and the
// cluster it routes over, snapshotting at the given interval (default
// 200ms when non-positive).
func NewReplicationServer(table *urltable.Table, cluster config.ClusterSpec, interval time.Duration) *ReplicationServer {
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	writeTimeout := 4 * interval
	if writeTimeout < time.Second {
		writeTimeout = time.Second
	}
	return &ReplicationServer{
		table:        table,
		cluster:      cluster,
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

// feed streams heartbeats and snapshots to one backup until error or
// close. Every write runs under the write deadline: a backup that stops
// draining (slow-loris reader) gets its stream cut instead of wedging the
// feed goroutine.
func (rs *ReplicationServer) feed(conn net.Conn) {
	var f framer
	send := func(snapshot bool) error {
		hdr, payload := replHeader{Type: "hb"}, []byte(nil)
		if snapshot {
			var err error
			if payload, err = rs.table.MarshalJSON(); err != nil {
				return err
			}
			hdr = replHeader{Type: "snapshot", Cluster: &rs.cluster}
		}
		if err := conn.SetWriteDeadline(time.Now().Add(rs.writeTimeout)); err != nil {
			return err
		}
		return f.write(conn, hdr, payload)
	}
	ticker := time.NewTicker(rs.interval)
	defer ticker.Stop()
	// Immediate first snapshot so a new backup is current at once.
	if err := send(true); err != nil {
		return
	}
	closed := rs.life.Done()
	for tick := 0; ; tick++ {
		select {
		case <-closed:
			return
		case <-ticker.C:
			// Heartbeat between snapshots: every tick sends a
			// heartbeat; every 4th carries full state.
			if err := send(tick%4 == 3); err != nil {
				return
			}
		}
	}
}

// Close stops replication and joins all goroutines.
func (rs *ReplicationServer) Close() error { return rs.life.Close() }

// PromoteFunc builds and starts the successor front end during takeover
// from the replicated URL table and cluster spec — typically on the
// service address the failed primary held. The caller keeps the
// successor it builds.
type PromoteFunc func(table *urltable.Table, cluster config.ClusterSpec) error

// Backup monitors a primary front end and takes over when it fails.
// Construct with NewBackup.
type Backup struct {
	replAddr string
	timeout  time.Duration
	promote  PromoteFunc

	mu sync.Mutex
	// table and cluster are the last snapshot that loaded; table is nil
	// until one has.
	table   *urltable.Table
	cluster config.ClusterSpec
	err     error
	// conn is the stream from the primary, nil until Start dials it.
	conn net.Conn

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
	conn, err := dialRaw(b.replAddr, b.timeout)
	if err != nil {
		return fmt.Errorf("backup: connecting to primary: %w", err)
	}
	conn = b.faults.Conn("backup.conn", conn)
	b.mu.Lock()
	b.conn = conn
	b.mu.Unlock()
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		b.monitor(conn)
	}()
	return nil
}

// monitor consumes the replication stream; when it breaks, goes silent
// or carries a snapshot that does not load, the backup promotes itself.
func (b *Backup) monitor(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	br := bufio.NewReader(conn)
	var f framer
	for {
		select {
		case <-b.stopped:
			return
		default:
		}
		err := conn.SetReadDeadline(time.Now().Add(b.timeout))
		if err == nil {
			err = b.receive(br, &f)
		}
		if err != nil {
			// Stream broken, heartbeat missed or state undecodable: the
			// primary is dead.
			b.takeover(err)
			return
		}
	}
}

// receive reads one frame and keeps the state a snapshot carries.
func (b *Backup) receive(br *bufio.Reader, f *framer) error {
	var hdr replHeader
	payload, err := f.read(br, &hdr, nil)
	if err != nil {
		return err
	}
	switch {
	case hdr.Type == "hb":
		return nil
	case hdr.Type != "snapshot" || hdr.Cluster == nil:
		return fmt.Errorf("mgmt: unexpected replication frame %q", hdr.Type)
	}
	table, err := urltable.Load(bytes.NewReader(payload), urltable.Options{})
	if err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.table, b.cluster = table, *hdr.Cluster
	return nil
}

// StateReceived reports whether at least one full snapshot has landed —
// the point after which a takeover can restore state.
func (b *Backup) StateReceived() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.table != nil
}

// takeover hands the last replicated state to promote; cause is why the
// stream ended, reported when there is no state to hand over (a primary
// that speaks another wire version never sends any).
func (b *Backup) takeover(cause error) {
	select {
	case <-b.stopped:
		return // deliberate shutdown, not a failure
	default:
	}
	b.mu.Lock()
	table, cluster := b.table, b.cluster
	b.mu.Unlock()

	defer close(b.done)
	if table == nil {
		b.setErr(fmt.Errorf("backup: no replicated state at takeover: %w", cause))
		return
	}
	if err := b.promote(table, cluster); err != nil {
		b.setErr(fmt.Errorf("backup: promote: %w", err))
	}
}

// setErr records a takeover failure.
func (b *Backup) setErr(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.err = err
}

// Promoted waits up to d for a takeover to complete. It reports true once
// promote has returned the successor running, false with a nil error
// while monitoring is still healthy after d, and the takeover's error if
// it failed.
func (b *Backup) Promoted(d time.Duration) (bool, error) {
	select {
	case <-b.done:
	case <-time.After(d):
		return false, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err == nil, b.err
}

// closeConn closes the stream, so a monitor waiting out its read
// deadline wakes now.
func (b *Backup) closeConn() {
	b.mu.Lock()
	conn := b.conn
	b.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// Stop ends monitoring without promoting.
func (b *Backup) Stop() {
	b.stopOnce.Do(func() { close(b.stopped); b.closeConn() })
	b.wg.Wait()
}
