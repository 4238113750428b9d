//go:build !linux

package httpx

import (
	"errors"
	"net"
)

// Off Linux there is no raw socket: the kernel paths (splice(2),
// sendfile(2) from a memfd) and the syscall numbers they are issued by
// are Linux's. WrapTCP leaves every connection as it is, so no *TCPConn
// exists, acquirePipe finds no pipe and NewBodyFile no memfd: the relay
// and the back end take their copy and writev paths, which serve the same
// bytes.

// TCPConn is the raw connection of the Linux build; WrapTCP never makes
// one here.
type TCPConn struct {
	*net.TCPConn
}

// WrapTCP returns c unchanged.
func WrapTCP(c net.Conn) net.Conn { return c }

// writev writes head then body.
func (c *TCPConn) writev(head, body []byte) (int64, error) {
	bufs := net.Buffers{head, body}
	return bufs.WriteTo(c.TCPConn)
}

// sendFile sends nothing: no BodyFile exists off Linux.
func (c *TCPConn) sendFile([]byte, *BodyFile) (int64, error) {
	return 0, errFileClosed
}

// pipe stands for the kernel pipe a splice moves bytes through.
type pipe struct{}

// acquirePipe reports that no pipe can be opened, so callers copy.
func acquirePipe() *pipe { return nil }

func releasePipe(*pipe) {}

// spliceBody is never reached: acquirePipe returns no pipe.
func spliceBody(_, _ *TCPConn, _ *pipe, _, _ int64) (int64, error) {
	return 0, errors.ErrUnsupported
}

// BodyFile is the sealed memfd body of the Linux build.
type BodyFile struct{}

// NewBodyFile reports that there is no kernel body path here.
func NewBodyFile([]byte) (*BodyFile, error) { return nil, errors.ErrUnsupported }

// Close does nothing.
func (*BodyFile) Close() error { return nil }
