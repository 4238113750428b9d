package distributor

import (
	"encoding/json"
	"reflect"
	"testing"

	"webcluster/internal/config"
	"webcluster/internal/urltable"
)

// TestReplMessageGoldenWireFormat pins the replication wire format: a
// primary and a backup from different builds must agree on it, so any
// field rename or type change fails here before it breaks takeover.
func TestReplMessageGoldenWireFormat(t *testing.T) {
	msg := replMessage{
		Type: "snapshot",
		Cluster: &config.ClusterSpec{
			DistributorCPUMHz: 350,
			Nodes: []config.NodeSpec{{
				ID: "n1", CPUMHz: 350, MemoryMB: 64,
				Disk: config.DiskSCSI, Platform: config.LinuxApache,
				Addr: "127.0.0.1:9001",
			}},
		},
		Table: []snapshotRecord{{
			Path: "/a.html", Size: 12, Class: 1, Priority: 2,
			Pinned: true, Hits: 7, Locations: []config.NodeID{"n1"},
		}},
		Mapping: []snapshotMapping{{
			IP: "10.0.0.9", Port: 4242, State: 3,
			Backend: "n1", Requests: 5,
		}},
	}
	got, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	golden := `{"type":"snapshot",` +
		`"cluster":{"distributorCPUMHz":350,"nodes":[{"id":"n1","cpuMHz":350,"memoryMB":64,"diskGB":0,"disk":"SCSI","platform":"Linux/Apache","addr":"127.0.0.1:9001"}]},` +
		`"table":[{"path":"/a.html","size":12,"class":1,"priority":2,"pinned":true,"hits":7,"locations":["n1"]}],` +
		`"mapping":[{"ip":"10.0.0.9","port":4242,"state":3,"backend":"n1","requests":5}]}`
	if string(got) != golden {
		t.Fatalf("wire format drifted:\n got: %s\nwant: %s", got, golden)
	}
}

// TestReplMessageRoundTrip: decode(encode(msg)) == msg for snapshots and
// heartbeats, including omitted optional fields.
func TestReplMessageRoundTrip(t *testing.T) {
	cases := []replMessage{
		{Type: "hb"},
		{
			Type:    "snapshot",
			Cluster: &config.ClusterSpec{DistributorCPUMHz: 200},
			Table: []snapshotRecord{
				{Path: "/x", Size: 1, Class: 2, Locations: []config.NodeID{"a", "b"}},
				{Path: "/y", Size: 0, Class: 5, Priority: 1, Hits: 3},
			},
			Mapping: []snapshotMapping{
				{IP: "1.2.3.4", Port: 1, State: 6, Backend: "a"},
			},
		},
	}
	for _, in := range cases {
		data, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		var out replMessage
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip changed message:\n in: %+v\nout: %+v", in, out)
		}
	}
}

// TestRestoreTableFromWire: a decoded snapshot restores the URL table
// with locations, pins and objects intact (the takeover path).
func TestRestoreTableFromWire(t *testing.T) {
	raw := `{"type":"snapshot","cluster":{"distributorCPUMHz":350,"nodes":[]},` +
		`"table":[{"path":"/p.html","size":9,"class":1,"priority":0,"pinned":true,"hits":2,"locations":["n1","n2"]}]}`
	var msg replMessage
	if err := json.Unmarshal([]byte(raw), &msg); err != nil {
		t.Fatal(err)
	}
	table := urltable.New(urltable.Options{})
	if err := RestoreTable(table, msg); err != nil {
		t.Fatal(err)
	}
	rec, err := table.Lookup("/p.html")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Locations) != 2 || !rec.Pinned {
		t.Fatalf("restored record = %+v", rec)
	}
}
