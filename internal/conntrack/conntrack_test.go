package conntrack

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/faults"
	"webcluster/internal/testutil"
)

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		StateSynReceived: "SYN_RECEIVED",
		StateEstablished: "ESTABLISHED",
		StateBound:       "BOUND",
		StateFinReceived: "FIN_RECEIVED",
		StateHalfClosed:  "HALF_CLOSED",
		StateClosed:      "CLOSED",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), str)
		}
	}
}

func TestHappyPathLifecycle(t *testing.T) {
	// The §2.2 teardown: SYN → ESTABLISHED → BOUND → ... → CLOSED.
	steps := []struct {
		ev   Event
		want State
	}{
		{EventHandshakeDone, StateEstablished},
		{EventRequestBound, StateBound},
		{EventRequestDone, StateEstablished},
		{EventRequestBound, StateBound}, // keep-alive: second request
		{EventRequestDone, StateEstablished},
		{EventClientFin, StateFinReceived},
		{EventFinAcked, StateHalfClosed},
		{EventLastAck, StateClosed},
	}
	s := StateSynReceived
	for i, step := range steps {
		next, err := Next(s, step.ev)
		if err != nil {
			t.Fatalf("step %d (%v in %v): %v", i, step.ev, s, err)
		}
		if next != step.want {
			t.Fatalf("step %d: %v, want %v", i, next, step.want)
		}
		s = next
	}
}

func TestFinWhileBound(t *testing.T) {
	s, err := Next(StateBound, EventClientFin)
	if err != nil || s != StateFinReceived {
		t.Fatalf("FIN in BOUND → %v, %v", s, err)
	}
}

func TestResetFromEveryLiveState(t *testing.T) {
	for _, s := range []State{StateSynReceived, StateEstablished, StateBound, StateFinReceived, StateHalfClosed} {
		next, err := Next(s, EventReset)
		if err != nil || next != StateClosed {
			t.Errorf("reset from %v → %v, %v", s, next, err)
		}
	}
	if _, err := Next(StateClosed, EventReset); err == nil {
		t.Error("reset from CLOSED accepted")
	}
}

// TestPropertyInvalidTransitionsRejected: exhaustively check that every
// (state, event) pair either transitions to a valid state or returns
// ErrBadTransition with the pair recorded.
func TestExhaustiveTransitionTable(t *testing.T) {
	states := []State{StateSynReceived, StateEstablished, StateBound, StateFinReceived, StateHalfClosed, StateClosed}
	events := []Event{EventHandshakeDone, EventRequestBound, EventRequestDone, EventClientFin, EventFinAcked, EventLastAck, EventReset}
	valid := 0
	for _, s := range states {
		for _, ev := range events {
			next, err := Next(s, ev)
			if err != nil {
				var bad *ErrBadTransition
				if !errors.As(err, &bad) {
					t.Fatalf("error type %T", err)
				}
				if bad.From != s || bad.Event != ev {
					t.Fatalf("error fields %+v for (%v,%v)", bad, s, ev)
				}
				if next != s {
					t.Fatalf("failed transition moved state %v → %v", s, next)
				}
				continue
			}
			valid++
			if next < StateSynReceived || next > StateClosed {
				t.Fatalf("transition to invalid state %d", next)
			}
		}
	}
	// Happy-path transitions plus FIN-from-BOUND plus 5 resets.
	if valid != 12 {
		t.Fatalf("valid transition count = %d, want 12", valid)
	}
}

func TestMappingInstallAdvance(t *testing.T) {
	mt := NewMappingTable()
	key := ClientKey{IP: "10.0.0.1", Port: 1234}
	e, err := mt.Install(key, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if e.State != StateSynReceived || e.Seq != 100 || e.Ack != 200 {
		t.Fatalf("entry = %+v", e)
	}
	if _, err := mt.Install(key, 1, 2); !errors.Is(err, ErrEntryExists) {
		t.Fatalf("duplicate install: %v", err)
	}
	if mt.Len() != 1 {
		t.Fatalf("len = %d", mt.Len())
	}
	if _, err := mt.Advance(key, EventHandshakeDone); err != nil {
		t.Fatal(err)
	}
	got, ok := mt.Get(key)
	if !ok || got.State != StateEstablished {
		t.Fatalf("entry after advance = %+v %v", got, ok)
	}
}

func TestMappingCloseDeletesEntry(t *testing.T) {
	mt := NewMappingTable()
	key := ClientKey{IP: "1.2.3.4", Port: 80}
	_, _ = mt.Install(key, 0, 0)
	for _, ev := range []Event{EventHandshakeDone, EventClientFin, EventFinAcked, EventLastAck} {
		if _, err := mt.Advance(key, ev); err != nil {
			t.Fatal(err)
		}
	}
	if mt.Len() != 0 {
		t.Fatal("closed entry not deleted")
	}
	installed, deleted, live := mt.Counts()
	if installed != 1 || deleted != 1 || live != 0 {
		t.Fatalf("counts = %d %d %d", installed, deleted, live)
	}
	if _, err := mt.Advance(key, EventReset); !errors.Is(err, ErrEntryNotFound) {
		t.Fatalf("advance after delete: %v", err)
	}
}

func TestMappingBindAndRequests(t *testing.T) {
	mt := NewMappingTable()
	key := ClientKey{IP: "9.9.9.9", Port: 999}
	_, _ = mt.Install(key, 0, 0)
	_, _ = mt.Advance(key, EventHandshakeDone)
	if err := mt.Bind(key, config.NodeID("n7")); err != nil {
		t.Fatal(err)
	}
	_, _ = mt.Advance(key, EventRequestBound)
	_, _ = mt.Advance(key, EventRequestDone)
	_, _ = mt.Advance(key, EventRequestBound)
	e, _ := mt.Get(key)
	if e.Backend != "n7" || e.Requests != 2 {
		t.Fatalf("entry = %+v", e)
	}
	if err := mt.Bind(ClientKey{IP: "x"}, "n1"); !errors.Is(err, ErrEntryNotFound) {
		t.Fatalf("bind missing: %v", err)
	}
}

func TestMappingBadTransitionKeepsEntry(t *testing.T) {
	mt := NewMappingTable()
	key := ClientKey{IP: "1.1.1.1", Port: 1}
	_, _ = mt.Install(key, 0, 0)
	if _, err := mt.Advance(key, EventLastAck); err == nil {
		t.Fatal("invalid event accepted")
	}
	if mt.Len() != 1 {
		t.Fatal("entry dropped on invalid event")
	}
}

func TestClientKeyString(t *testing.T) {
	k := ClientKey{IP: "1.2.3.4", Port: 80}
	if k.String() != "1.2.3.4:80" {
		t.Fatalf("String = %q", k.String())
	}
}

// TestPropertyMappingNeverNegative: random event sequences never corrupt
// the live count (len == installed - deleted).
func TestPropertyMappingAccounting(t *testing.T) {
	f := func(ops []uint8) bool {
		mt := NewMappingTable()
		events := []Event{EventHandshakeDone, EventRequestBound, EventRequestDone,
			EventClientFin, EventFinAcked, EventLastAck, EventReset}
		for i, op := range ops {
			key := ClientKey{IP: "k", Port: int(op % 8)}
			if op%5 == 0 {
				_, _ = mt.Install(key, uint32(i), 0)
			} else {
				_, _ = mt.Advance(key, events[int(op)%len(events)])
			}
			installed, deleted, live := mt.Counts()
			if int64(live) != installed-deleted || live < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// poolServer accepts and holds connections for pool tests.
func poolServer(t *testing.T) (addr string, accepted *atomic.Int32, cleanup func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	count := new(atomic.Int32)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			count.Add(1)
		}
	}()
	return l.Addr().String(), count, func() {
		_ = l.Close()
		mu.Lock()
		for _, c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
		wg.Wait()
	}
}

func testDialer(addr string) Dialer {
	return func(config.NodeID) (net.Conn, error) {
		return net.Dial("tcp", addr)
	}
}

func TestPoolPrefork(t *testing.T) {
	addr, accepted, cleanup := poolServer(t)
	defer cleanup()
	p := NewPool(testDialer(addr), 3, 8)
	defer func() { _ = p.Close() }()
	if err := p.Prefork([]config.NodeID{"n1", "n2"}); err != nil {
		t.Fatal(err)
	}
	if p.IdleCount("n1") != 3 || p.IdleCount("n2") != 3 {
		t.Fatalf("idle counts = %d, %d", p.IdleCount("n1"), p.IdleCount("n2"))
	}
	testutil.Eventually(t, time.Second, func() bool {
		return accepted.Load() >= 6
	}, "server accepted %d connections, want 6", accepted.Load())
	if got := accepted.Load(); got != 6 {
		t.Fatalf("server accepted %d connections, want 6", got)
	}
}

func TestPoolAcquireReusesIdle(t *testing.T) {
	addr, accepted, cleanup := poolServer(t)
	defer cleanup()
	p := NewPool(testDialer(addr), 2, 4)
	defer func() { _ = p.Close() }()
	if err := p.Prefork([]config.NodeID{"n1"}); err != nil {
		t.Fatal(err)
	}
	pc, err := p.Acquire("n1")
	if err != nil {
		t.Fatal(err)
	}
	p.Release(pc)
	pc2, err := p.Acquire("n1")
	if err != nil {
		t.Fatal(err)
	}
	if pc2 != pc {
		t.Fatal("idle connection not reused (LIFO expected)")
	}
	if pc2.Uses != 1 {
		t.Fatalf("uses = %d", pc2.Uses)
	}
	p.Release(pc2)
	testutil.Eventually(t, time.Second, func() bool {
		return accepted.Load() >= 2
	}, "server never saw the preforked pair")
	if got := accepted.Load(); got != 2 {
		t.Fatalf("accepted = %d, want only the preforked pair", got)
	}
	if p.OverflowDials() != 0 {
		t.Fatal("overflow dial recorded for idle reuse")
	}
}

func TestPoolOverflowDial(t *testing.T) {
	addr, _, cleanup := poolServer(t)
	defer cleanup()
	p := NewPool(testDialer(addr), 1, 3)
	defer func() { _ = p.Close() }()
	if err := p.Prefork([]config.NodeID{"n1"}); err != nil {
		t.Fatal(err)
	}
	a, _ := p.Acquire("n1")
	b, err := p.Acquire("n1") // beyond prefork, under max
	if err != nil {
		t.Fatal(err)
	}
	if p.OverflowDials() != 1 {
		t.Fatalf("overflow = %d", p.OverflowDials())
	}
	p.Release(a)
	p.Release(b)
}

func TestPoolBlocksAtMax(t *testing.T) {
	addr, _, cleanup := poolServer(t)
	defer cleanup()
	p := NewPool(testDialer(addr), 0, 1)
	defer func() { _ = p.Close() }()
	a, err := p.Acquire("n1")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan *PooledConn)
	go func() {
		pc, err := p.Acquire("n1")
		if err != nil {
			close(got)
			return
		}
		got <- pc
	}()
	select {
	case <-got:
		t.Fatal("Acquire did not block at max")
	case <-time.After(50 * time.Millisecond):
	}
	p.Release(a)
	select {
	case pc := <-got:
		if pc == nil {
			t.Fatal("blocked Acquire failed")
		}
		p.Release(pc)
	case <-time.After(time.Second):
		t.Fatal("blocked Acquire never woke")
	}
}

func TestPoolDiscardFreesSlot(t *testing.T) {
	addr, _, cleanup := poolServer(t)
	defer cleanup()
	p := NewPool(testDialer(addr), 0, 1)
	defer func() { _ = p.Close() }()
	a, _ := p.Acquire("n1")
	p.Discard(a)
	b, err := p.Acquire("n1")
	if err != nil {
		t.Fatal(err)
	}
	if b == a {
		t.Fatal("discarded connection returned")
	}
	p.Release(b)
}

func TestPoolDialFailure(t *testing.T) {
	p := NewPool(func(config.NodeID) (net.Conn, error) {
		return nil, errors.New("refused")
	}, 0, 2)
	defer func() { _ = p.Close() }()
	if _, err := p.Acquire("n1"); err == nil {
		t.Fatal("acquire with failing dialer succeeded")
	}
	// The failed dial must release its slot: the next attempt still
	// tries (and fails) rather than blocking forever.
	errCh := make(chan error, 1)
	go func() {
		_, err := p.Acquire("n1")
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("second acquire succeeded")
		}
	case <-time.After(time.Second):
		t.Fatal("slot leaked by failed dial")
	}
}

func TestPoolCloseUnblocksWaiters(t *testing.T) {
	addr, _, cleanup := poolServer(t)
	defer cleanup()
	p := NewPool(testDialer(addr), 0, 1)
	a, _ := p.Acquire("n1")
	errCh := make(chan error, 1)
	go func() {
		_, err := p.Acquire("n1")
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	_ = p.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("waiter error = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not unblock waiter")
	}
	_ = a.Conn.Close()
}

func TestPoolUseAfterClose(t *testing.T) {
	addr, _, cleanup := poolServer(t)
	defer cleanup()
	p := NewPool(testDialer(addr), 0, 2)
	_ = p.Close()
	if _, err := p.Acquire("n1"); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("acquire after close: %v", err)
	}
	if err := p.Prefork([]config.NodeID{"n1"}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("prefork after close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// A checkout of an idle connection builds nothing on the heap: the node's
// fault-point names are made once, with its pool.
func TestPoolAcquireReleaseAllocFree(t *testing.T) {
	addr, _, cleanup := poolServer(t)
	defer cleanup()
	p := NewPool(testDialer(addr), 1, 1)
	defer func() { _ = p.Close() }()
	if err := p.Prefork([]config.NodeID{"n1"}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		pc, err := p.Acquire("n1")
		if err != nil {
			t.Fatal(err)
		}
		p.Release(pc)
	})
	if allocs != 0 {
		t.Fatalf("Acquire+Release allocates %.1f times per call, want 0", allocs)
	}
}

// The per-node fault points keep their names: pool.checkout/<node> and
// pool.dial/<node> refuse exactly that node.
func TestPoolFaultPoints(t *testing.T) {
	addr, _, cleanup := poolServer(t)
	defer cleanup()
	in := faults.New(1)
	p := NewPool(testDialer(addr), 0, 2)
	p.SetFaults(in)
	defer func() { _ = p.Close() }()
	in.Set("pool.checkout/n1", faults.Rule{Refuse: true})
	if _, err := p.Acquire("n1"); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("checkout under a refuse rule: %v", err)
	}
	if got := in.Fired("pool.checkout/n1"); got != 1 {
		t.Fatalf("pool.checkout/n1 fired %d times, want 1", got)
	}
	pc, err := p.Acquire("n2")
	if err != nil {
		t.Fatalf("checkout of another node: %v", err)
	}
	p.Release(pc)
	in.Clear("pool.checkout/n1")
	in.Set("pool.dial/n1", faults.Rule{Refuse: true})
	if _, err := p.Acquire("n1"); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("dial under a refuse rule: %v", err)
	}
	if got := in.Fired("pool.dial/n1"); got != 1 {
		t.Fatalf("pool.dial/n1 fired %d times, want 1", got)
	}
}

func TestPoolConcurrentAcquireRelease(t *testing.T) {
	addr, _, cleanup := poolServer(t)
	defer cleanup()
	p := NewPool(testDialer(addr), 2, 4)
	defer func() { _ = p.Close() }()
	if err := p.Prefork([]config.NodeID{"n1"}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				pc, err := p.Acquire("n1")
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				p.Release(pc)
			}
		}()
	}
	wg.Wait()
}

func TestEventStrings(t *testing.T) {
	for _, ev := range []Event{EventHandshakeDone, EventRequestBound, EventRequestDone,
		EventClientFin, EventFinAcked, EventLastAck, EventReset} {
		if s := ev.String(); s == "" || s == fmt.Sprintf("Event(%d)", int(ev)) {
			t.Errorf("event %d has no name", ev)
		}
	}
}
