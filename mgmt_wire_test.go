package webcluster

import (
	"bytes"
	"math/rand"
	"testing"

	"webcluster/internal/backend"
	"webcluster/internal/core"
	"webcluster/internal/mgmt"
	"webcluster/internal/testutil"
)

// TestConsoleObjectLifecycleOverTheWire drives the whole management byte
// path — console → console server → controller → brokers, file bytes as
// raw frame payloads — through insert, update, replicate, verify, an
// HTTP fetch and delete on two nodes, for the three shapes of Data the
// wire must keep apart: a 1 MiB object, a zero-length object (empty, not
// absent) and a Size-only synthetic object (absent, not empty).
func TestConsoleObjectLifecycleOverTheWire(t *testing.T) {
	testutil.NoLeaks(t)
	spec := core.DefaultSpec()
	spec.Nodes = spec.Nodes[:2]
	cluster, err := core.Launch(core.Options{Spec: spec, ConsoleAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	console, err := mgmt.DialConsole(cluster.ConsoleAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = console.Close() }()
	ids := cluster.Spec.NodeIDs()
	do := func(req mgmt.ConsoleRequest) mgmt.ConsoleResponse {
		t.Helper()
		resp, err := console.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", req.Op, req.Path, err)
		}
		return resp
	}
	fetch := func(path string, want []byte) {
		t.Helper()
		resp, err := cluster.Get(path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != 200 || !bytes.Equal(resp.Body, want) {
			t.Fatalf("GET %s: status %d, %d bytes; want 200 and the %d placed", path, resp.StatusCode, len(resp.Body), len(want))
		}
	}

	rng := rand.New(rand.NewSource(15))
	big, bigger := make([]byte, 1<<20), make([]byte, 1<<20+1)
	rng.Read(big)
	rng.Read(bigger)
	const syntheticSize = 5000
	cases := []struct {
		name    string
		insert  mgmt.ConsoleRequest
		placed  []byte // what the insert must leave on the node
		updated []byte
	}{
		{"1 MiB", mgmt.ConsoleRequest{Path: "/wire/big.html", Size: 1 << 20, Data: big}, big, bigger},
		{"zero-length", mgmt.ConsoleRequest{Path: "/wire/zero.html", Data: []byte{}}, []byte{}, []byte{}},
		{"synthetic", mgmt.ConsoleRequest{Path: "/wire/synthetic.html", Size: syntheticSize},
			backend.SynthesizeBody("/wire/synthetic.html", syntheticSize), []byte("no longer synthetic")},
	}
	for _, tc := range cases {
		path := tc.insert.Path
		tc.insert.Op, tc.insert.Nodes = "insert", ids[:1]
		do(tc.insert)
		fetch(path, tc.placed)
		do(mgmt.ConsoleRequest{Op: "update", Path: path, Data: tc.updated})
		do(mgmt.ConsoleRequest{Op: "replicate", Path: path, Source: ids[0], Target: ids[1]})
		if v := do(mgmt.ConsoleRequest{Op: "verify", Path: path}); v.Message != "CONSISTENT" || len(v.Actions) != 2 {
			t.Fatalf("%s: verify = %q over %v, want CONSISTENT over two copies", tc.name, v.Message, v.Actions)
		}
		for _, id := range ids {
			stored, err := cluster.Nodes[id].Store.Fetch(path)
			if err != nil || !bytes.Equal(stored, tc.updated) {
				t.Fatalf("%s: node %s holds %d bytes (err %v), want the %d of the update", tc.name, id, len(stored), err, len(tc.updated))
			}
		}
		fetch(path, tc.updated)
		do(mgmt.ConsoleRequest{Op: "delete", Path: path})
		if resp, err := cluster.Get(path); err != nil || resp.StatusCode != 404 {
			t.Fatalf("%s: GET after delete = %v, %v; want 404", tc.name, resp, err)
		}
		for _, id := range ids {
			if cluster.Nodes[id].Store.Has(path) {
				t.Fatalf("%s: node %s still holds %s after delete", tc.name, id, path)
			}
		}
	}
}
