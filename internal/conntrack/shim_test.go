package conntrack

import "testing"

// TestMappingShimIsNoOp: the shim the benchmark's layer walk calls accepts
// its whole cycle, records nothing and allocates nothing.
func TestMappingShimIsNoOp(t *testing.T) {
	mt := NewMappingTable()
	key := ClientKey{IP: "127.0.0.1", Port: 1}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := mt.Install(key, 0, 0); err != nil {
			t.Fatal(err)
		}
		for _, ev := range []Event{EventHandshakeDone, EventRequestBound, EventRequestDone} {
			if _, err := mt.Advance(key, ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := mt.Bind(key, "n1"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("shim cycle allocates %.1f times", allocs)
	}
}
