//go:build !linux

package backend

import "testing"

// firstHit runs a static hit's first exchange. Off Linux no body leaves by
// sendfile(2), so there is no body memfd to check.
func firstHit(_ *testing.T, _ int, exchange func() []byte) []byte { return exchange() }
