package ring

import "testing"

// A writer that claimed its number a whole lap before a faster one must
// not overwrite the newer value, and a snapshot never returns the stale
// one in its place.
func TestLateWriterKeepsNewerValue(t *testing.T) {
	r := New[int](4)
	for i := 1; i <= 4; i++ {
		r.Put(r.Next(), &i)
	}
	late, fast := 5, 9
	seqLate, seqFast := r.Next(), uint64(9)
	for r.Claimed() < seqFast {
		r.Next()
	}
	r.Put(seqFast, &fast) // same slot as seqLate, one lap ahead
	r.Put(seqLate, &late)
	got := r.Snapshot(0)
	if len(got) != 1 || got[0] != fast {
		t.Fatalf("snapshot = %v, want only the newer value %d", got, fast)
	}
}

func TestSnapshotNewestFirstAndBounded(t *testing.T) {
	r := New[int](5) // rounds up to 8
	if r.Cap() != 8 || len(r.Snapshot(0)) != 0 {
		t.Fatalf("cap %d, empty snapshot %v", r.Cap(), r.Snapshot(0))
	}
	for i := 1; i <= 20; i++ {
		r.Put(r.Next(), &i)
	}
	got := r.Snapshot(0)
	if len(got) != 8 || got[0] != 20 || got[7] != 13 {
		t.Fatalf("snapshot = %v, want 20 down to 13", got)
	}
	if got := r.Snapshot(3); len(got) != 3 || got[2] != 18 {
		t.Fatalf("Snapshot(3) = %v, want 20 19 18", got)
	}
}

func TestIDsAreNonZeroAndDistinct(t *testing.T) {
	g := IDs{Seed: 7}
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := g.Next()
		if id == 0 || seen[id] {
			t.Fatalf("id %d: %x (zero or repeated)", i, id)
		}
		seen[id] = true
	}
}
