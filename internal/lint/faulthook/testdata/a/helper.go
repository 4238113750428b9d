package fixture

import (
	"net"
	"time"
)

// dialHelper dials with no injector consult; its callers in other files
// must consult one.
func dialHelper(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, time.Second) // want `dial site bypasses internal/faults`
}
