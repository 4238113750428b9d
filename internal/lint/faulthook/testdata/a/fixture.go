// Fixture for the faulthook analyzer: data-plane dial sites must
// consult the internal/faults injector (flagged when they bypass it),
// except function literals serving as conntrack-style Dialers, where
// the pool injects faults at its own boundary.
package fixture

import (
	"net"
	"time"

	"webcluster/internal/faults"
)

type server struct {
	faults *faults.Injector
}

// --- flagged ---

func (s *server) badDial(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, time.Second) // want `dial site bypasses internal/faults`
}

func bareFunctionDial(addr string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr) // want `dial site bypasses internal/faults`
	if err != nil {
		return nil, err
	}
	return conn, nil
}

// closureConsultDoesNotCount: an injector consult inside a nested
// callback does not guard the outer dial.
func (s *server) closureConsultDoesNotCount(addr string) (net.Conn, error) {
	cleanup := func() { _ = s.faults.Fail("fixture.cleanup") }
	defer cleanup()
	return net.DialTimeout("tcp", addr, time.Second) // want `dial site bypasses internal/faults`
}

// --- allowed ---

func (s *server) goodDial(addr string) (net.Conn, error) {
	if err := s.faults.Fail("fixture.dial"); err != nil {
		return nil, err
	}
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	return s.faults.Conn("fixture.conn", conn), nil
}

// Dialer mirrors conntrack.Dialer: raw dial closures handed to the pool
// stay fault-free because the pool wraps every dial it makes.
type Dialer func(addr string) (net.Conn, error)

type pool struct {
	dial Dialer
	in   *faults.Injector
}

func newPool(dial Dialer) *pool { return &pool{dial: dial} }

func dialerArgumentIsExempt() *pool {
	return newPool(func(addr string) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, time.Second)
	})
}

func dialerConversionIsExempt() Dialer {
	d := Dialer(func(addr string) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, time.Second)
	})
	return d
}

// poolDialGoesThroughInjector is the pool-boundary pattern the
// exemption exists for.
func (p *pool) get(addr string) (net.Conn, error) {
	if err := p.in.Fail("pool.dial"); err != nil {
		return nil, err
	}
	conn, err := p.dial(addr)
	if err != nil {
		return nil, err
	}
	return p.in.Conn("pool.conn", conn), nil
}

// --- a same-package helper in another file ---

func helperInAnotherFile(addr string) (net.Conn, error) {
	return dialHelper(addr) // want `call reaches an unhooked dial`
}

func (s *server) helperInAnotherFileHooked(addr string) (net.Conn, error) {
	if err := s.faults.Fail("fixture.dial"); err != nil {
		return nil, err
	}
	return dialHelper(addr)
}
