package webcluster

import (
	"net"
	"testing"
	"time"

	"webcluster/internal/backend"
	"webcluster/internal/config"
	"webcluster/internal/distributor"
	"webcluster/internal/l4router"
	"webcluster/internal/mgmt"
	"webcluster/internal/nfs"
	"webcluster/internal/telemetry"
	"webcluster/internal/testutil"
	"webcluster/internal/urltable"
)

// listener is what the eight networked components have in common.
type listener interface {
	Start(addr string) (string, error)
	Close() error
}

var lifecycleNode = config.NodeSpec{
	ID: "n1", CPUMHz: 350, MemoryMB: 64,
	Disk: config.DiskSCSI, Platform: config.LinuxApache,
}

func lifecycleBackend(t *testing.T) *backend.Server {
	t.Helper()
	srv, err := backend.NewServer(backend.ServerOptions{Spec: lifecycleNode, Store: &backend.MemStore{}})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// lifecycleDistributor returns an unstarted distributor over the one back
// end at web.
func lifecycleDistributor(t *testing.T, web string) *distributor.Distributor {
	t.Helper()
	node := lifecycleNode
	node.Addr = web
	d, err := distributor.New(distributor.Options{
		Table:   urltable.New(urltable.Options{}),
		Cluster: config.ClusterSpec{DistributorCPUMHz: 350, Nodes: []config.NodeSpec{node}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// closeBounded fails the test when s.Close takes longer than 5 s.
func closeBounded(t *testing.T, s listener, what string) {
	t.Helper()
	if !closes(s) {
		t.Fatalf("%s: Close hung", what)
	}
}

// closes reports whether s.Close returns within 5 s.
func closes(s listener) bool {
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case <-done:
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

// TestServerLifecycle holds every networked component to the contract
// written on lifecycle.Group — the admin server too, which keeps it
// without a Group because net/http owns its connections. The racing
// rounds pin the register-after-sweep
// hang: a connection accepted just before Close must not enter the
// connection set after Close has swept it, or it idles in its read forever
// and Close never joins it.
func TestServerLifecycle(t *testing.T) {
	rows := []struct {
		name string
		// make builds an unstarted component; web is a live back end for
		// the ones that dial one.
		make func(t *testing.T, web string) listener
	}{
		{"distributor", func(t *testing.T, web string) listener { return lifecycleDistributor(t, web) }},
		{"replication", func(t *testing.T, web string) listener {
			return distributor.NewReplicationServer(lifecycleDistributor(t, web), time.Millisecond)
		}},
		{"backend", func(t *testing.T, _ string) listener { return lifecycleBackend(t) }},
		{"broker", func(*testing.T, string) listener {
			return mgmt.NewBroker(mgmt.Env{Node: "n1", Store: &backend.MemStore{}})
		}},
		{"console", func(*testing.T, string) listener {
			return mgmt.NewConsoleServer(mgmt.NewController(urltable.New(urltable.Options{})), nil)
		}},
		{"nfs", func(*testing.T, string) listener { return nfs.NewServer(&backend.MemStore{}) }},
		{"l4router", func(t *testing.T, web string) listener {
			r, err := l4router.New(nil, []l4router.Backend{{ID: "n1", Weight: 1, Addr: web}})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{"admin", func(*testing.T, string) listener {
			return telemetry.NewAdmin(telemetry.New(telemetry.Options{Node: "front"}))
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			testutil.NoLeaks(t) // registered first, so it checks after web closes
			webSrv := lifecycleBackend(t)
			web, err := webSrv.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = webSrv.Close() })

			t.Run("close races accept", func(t *testing.T) {
				for i := 0; i < 300; i++ {
					s := row.make(t, web)
					addr, err := s.Start("127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					conn, err := net.Dial("tcp", addr)
					if err != nil {
						t.Fatal(err)
					}
					ok := closes(s)
					_ = conn.Close() // lets a stuck reader go, so only this test fails
					if !ok {
						t.Fatalf("round %d: Close hung on a connection accepted during shutdown", i)
					}
				}
			})

			t.Run("close before start, twice", func(t *testing.T) {
				s := row.make(t, web)
				closeBounded(t, s, "before Start")
				closeBounded(t, s, "second Close")
			})

			t.Run("start after close", func(t *testing.T) {
				s := row.make(t, web)
				addr, err := s.Start("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				closeBounded(t, s, "idle")
				if again, err := s.Start(addr); err == nil {
					t.Errorf("Start after Close succeeded, listening at %s", again)
				}
				l, err := net.Listen("tcp", addr)
				if err != nil {
					t.Fatalf("port not free after Close and a refused Start: %v", err)
				}
				_ = l.Close()
				closeBounded(t, s, "after a refused Start")
			})
		})
	}
}
