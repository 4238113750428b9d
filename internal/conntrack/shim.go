package conntrack

import "webcluster/internal/config"

// The names below are a no-op shim of the per-connection mapping table the
// distributor no longer keeps. The benchmark's layer walk still calls them
// as its conntrack.mapping_cycle stage, which therefore times nothing; they
// go when that harness is next opened (ROADMAP item 11). Nothing else in
// the module may use them.

// ClientKey names a client connection by source address and port.
type ClientKey struct {
	IP   string
	Port int
}

// Event is a connection event the walk replays.
type Event int

// The events the walk replays.
const (
	EventHandshakeDone Event = iota + 1
	EventRequestBound
	EventRequestDone
)

// MappingTable records nothing.
type MappingTable struct{}

// NewMappingTable returns the no-op table.
func NewMappingTable() *MappingTable { return &MappingTable{} }

// Install does nothing.
func (*MappingTable) Install(ClientKey, uint32, uint32) (struct{}, error) { return struct{}{}, nil }

// Advance does nothing.
func (*MappingTable) Advance(ClientKey, Event) (struct{}, error) { return struct{}{}, nil }

// Bind does nothing.
func (*MappingTable) Bind(ClientKey, config.NodeID) error { return nil }
