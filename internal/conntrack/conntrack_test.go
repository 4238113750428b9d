package conntrack

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/faults"
	"webcluster/internal/testutil"
)

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

// A back-end connection's reader is its own: made at dial with room for a
// small response whole, kept through Discard and Close — no pool takes it
// back to hand to another connection — and a dial after a discard makes a
// fresh one.
func TestPoolConnOwnsItsReader(t *testing.T) {
	addr, _, cleanup := poolServer(t)
	defer cleanup()
	p := NewPool(testDialer(addr), 1, 1)
	defer func() { _ = p.Close() }()
	if err := p.Prefork([]config.NodeID{"n1"}); err != nil {
		t.Fatal(err)
	}
	a, err := p.Acquire("n1")
	if err != nil {
		t.Fatal(err)
	}
	ra := a.Reader
	if ra == nil || ra.Size() != backendReaderSize {
		t.Fatalf("dialed connection's reader: %v, want %d bytes", ra, backendReaderSize)
	}
	p.Discard(a)
	if a.Reader != ra {
		t.Fatal("Discard took the connection's reader back")
	}
	b, err := p.Acquire("n1") // the discard freed the only slot: a new dial
	if err != nil {
		t.Fatal(err)
	}
	if b.Reader == ra || b.Reader.Size() != backendReaderSize {
		t.Fatal("a dial after a discard reused the discarded connection's reader")
	}
	p.Release(b)
	rb := b.Reader
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if b.Reader != rb {
		t.Fatal("Close took the idle connection's reader back")
	}
}

// Dial never hands out an idle connection: under the maximum it dials
// beside the idle ones, at the maximum it closes one and dials in its slot.
func TestPoolDialSkipsIdle(t *testing.T) {
	addr, accepted, cleanup := poolServer(t)
	defer cleanup()
	p := NewPool(testDialer(addr), 1, 2)
	defer func() { _ = p.Close() }()
	if err := p.Prefork([]config.NodeID{"n1"}); err != nil {
		t.Fatal(err)
	}
	idle, err := p.Acquire("n1")
	if err != nil {
		t.Fatal(err)
	}
	p.Release(idle)
	a, err := p.Dial("n1") // under the maximum: a second connection
	if err != nil {
		t.Fatal(err)
	}
	if a == idle || p.IdleCount("n1") != 1 {
		t.Fatalf("Dial under the maximum took the idle connection (idle left %d)", p.IdleCount("n1"))
	}
	b, err := p.Dial("n1") // at the maximum: the idle one gives its slot
	if err != nil {
		t.Fatal(err)
	}
	if b == idle || p.IdleCount("n1") != 0 {
		t.Fatalf("Dial at the maximum took the idle connection (idle left %d)", p.IdleCount("n1"))
	}
	if _, err := idle.Conn.Write([]byte("x")); err == nil {
		t.Fatal("the idle connection whose slot was dialed is still open")
	}
	testutil.Eventually(t, 5*time.Second, func() bool { return accepted.Load() == 3 },
		"server accepted %d connections, want 3 (prefork + two dials)", accepted.Load())
	p.Release(a)
	p.Release(b)
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
