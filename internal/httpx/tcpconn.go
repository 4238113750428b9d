//go:build linux

package httpx

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// This file is the tree's one raw socket: the only place that imports
// unsafe or calls RawSyscall. Linux only (splice(2), sendfile(2),
// memfd_create(2)).
//
// Why it exists. Every syscall.Syscall runs the runtime's entersyscall
// (runtime/proc.go). On a process whose only P has just been idle, that
// wakes sysmon from its deep sleep (entersyscall_sysmon), and sysmon then
// hands the P to another thread whenever it sees a syscall last longer
// than 20 µs. For a relay that does one short read and one short write per
// request, those wake-ups and hand-offs cost more than the work. The same
// read(2), writev(2) and splice(2) issued with RawSyscall inside
// syscall.RawConn's Read/Write callbacks skip entersyscall entirely, while
// the callbacks keep what matters of the net package: a call that would
// block returns EAGAIN and the goroutine parks in the netpoller, and
// deadlines and Close wake it exactly as they wake a *net.TCPConn.

// TCPConn is a *net.TCPConn whose Read, vectored write, body splice and
// body sendfile enter the kernel without the runtime's syscall hand-off.
// Everything else — deadlines, Close, CloseWrite, addresses — is the
// embedded connection's. Its errors are the ones a *net.TCPConn returns:
// io.EOF, a *net.OpError wrapping os.ErrDeadlineExceeded (Timeout reports
// true), net.ErrClosed, or an *os.SyscallError holding the syscall.Errno.
// Build one with WrapTCP; bareTCP accepts only this type.
type TCPConn struct {
	*net.TCPConn
	rc syscall.RawConn

	// The read side: Read and a splice's drain step, serialised by rmu.
	// The callbacks are bound once, so an operation allocates nothing.
	rmu     sync.Mutex
	rbuf    []byte
	rpipe   *pipe
	rmax    int
	rn      int
	rerrno  syscall.Errno
	readFn  func(fd uintptr) bool
	drainFn func(fd uintptr) bool

	// The write side: writev, a splice's pump step and sendFile, under
	// wmu. sendFile sends wsegs[0] ahead of the file's bytes.
	wmu     sync.Mutex
	wsegs   [2][]byte
	iov     [2]syscall.Iovec
	wpipe   *pipe
	wfile   *BodyFile
	wfd     uintptr
	woff    int64
	wn      int64
	werrno  syscall.Errno
	werr    error
	writeFn func(fd uintptr) bool
	pumpFn  func(fd uintptr) bool
	sendFn  func(fd uintptr) bool
	holdFn  func(fd uintptr)

	closed atomic.Bool
}

// WrapTCP returns c as a *TCPConn when it is a bare *net.TCPConn and c
// unchanged otherwise, so a wrapped connection (fault injection, a test
// double) is never made raw underneath its wrapper.
func WrapTCP(c net.Conn) net.Conn {
	tc, ok := c.(*net.TCPConn)
	if !ok {
		return c
	}
	rc, err := tc.SyscallConn()
	if err != nil {
		return c
	}
	r := &TCPConn{TCPConn: tc, rc: rc}
	r.readFn, r.drainFn = r.read, r.drain
	r.writeFn, r.pumpFn = r.write, r.pump
	r.sendFn, r.holdFn = r.send, r.hold
	holdTick()
	return r
}

// Close closes the connection; the first call also lets go of the
// preemption tick.
func (c *TCPConn) Close() error {
	err := c.TCPConn.Close()
	if c.closed.CompareAndSwap(false, true) {
		releaseTick()
	}
	return err
}

// Read reads like (*net.TCPConn).Read.
func (c *TCPConn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	c.rmu.Lock()
	c.rbuf = p
	err := c.rc.Read(c.readFn)
	n, errno := c.rn, c.rerrno
	c.rbuf = nil
	c.rmu.Unlock()
	if err != nil || errno != 0 {
		return 0, c.opError("read", err, errno)
	}
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// read is Read's callback.
func (c *TCPConn) read(fd uintptr) bool {
	for {
		n, _, e := syscall.RawSyscall(syscall.SYS_READ, fd, uintptr(unsafe.Pointer(&c.rbuf[0])), uintptr(len(c.rbuf)))
		switch e {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		}
		c.rn, c.rerrno = int(n), e
		return true
	}
}

// Write writes like (*net.TCPConn).Write.
func (c *TCPConn) Write(p []byte) (int, error) {
	n, err := c.writev(p, nil)
	return int(n), err
}

// writev writes head then body in as few writev(2) calls as the socket
// buffer allows, returning the bytes written.
func (c *TCPConn) writev(head, body []byte) (int64, error) {
	c.wmu.Lock()
	c.wsegs = [2][]byte{head, body}
	c.wn, c.werrno = 0, 0
	err := c.rc.Write(c.writeFn)
	n, errno := c.wn, c.werrno
	c.wsegs = [2][]byte{}
	c.iov = [2]syscall.Iovec{}
	c.wmu.Unlock()
	if err != nil || errno != 0 {
		return n, c.opError("write", err, errno)
	}
	return n, nil
}

// write is writev's callback: it drains wsegs, advancing past partial
// writes, and asks to wait when the socket buffer is full.
func (c *TCPConn) write(fd uintptr) bool {
	for {
		cnt := 0
		for _, s := range c.wsegs {
			if len(s) > 0 {
				c.iov[cnt].Base = &s[0]
				c.iov[cnt].SetLen(len(s))
				cnt++
			}
		}
		if cnt == 0 {
			return true
		}
		n, _, e := syscall.RawSyscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&c.iov[0])), uintptr(cnt))
		switch e {
		case 0:
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		default:
			c.werrno = e
			return true
		}
		c.wn += int64(n)
		for i := range c.wsegs {
			k := min(int(n), len(c.wsegs[i]))
			c.wsegs[i] = c.wsegs[i][k:]
			n -= uintptr(k)
		}
	}
}

// opError builds the error a *net.TCPConn would return for op: the
// readiness loop's (deadline, close) with its "raw-" prefix dropped, or
// errno as an *os.SyscallError named op.
func (c *TCPConn) opError(op string, err error, errno syscall.Errno) error {
	var oe *net.OpError
	if errors.As(err, &oe) {
		oe.Op = op
		return oe
	}
	if err == nil {
		err = os.NewSyscallError(op, errno)
	}
	return &net.OpError{Op: op, Net: "tcp", Source: c.LocalAddr(), Addr: c.RemoteAddr(), Err: err}
}

// Splice flags (linux/splice.h).
const (
	spliceMove     = 0x1
	spliceNonblock = 0x2
)

// drain is the splice's first step, run under src's readiness loop:
// socket to pipe, at most max bytes. n == 0 with no error is EOF.
func (c *TCPConn) drain(fd uintptr) bool {
	for {
		n, _, e := syscall.RawSyscall6(syscall.SYS_SPLICE, fd, 0, uintptr(c.rpipe.w), 0, uintptr(c.rmax), spliceMove|spliceNonblock)
		switch e {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		}
		c.rn, c.rerrno = int(n), e
		return true
	}
}

// pump is the second step, run under dst's readiness loop: everything in
// the pipe to the socket.
func (c *TCPConn) pump(fd uintptr) bool {
	for c.wpipe.n > 0 {
		n, _, e := syscall.RawSyscall6(syscall.SYS_SPLICE, uintptr(c.wpipe.r), 0, fd, 0, uintptr(c.wpipe.n), spliceMove|spliceNonblock)
		switch {
		case e == syscall.EINTR:
		case e == syscall.EAGAIN:
			return false
		case e != 0:
			c.werrno = e
			return true
		case n == 0:
			c.werrno = syscall.EIO // a pipe with data that moves nothing
			return true
		default:
			c.wpipe.n -= int(n)
			c.wn += int64(n)
		}
	}
	return true
}

// drainTo moves up to max bytes from c into p.
func (c *TCPConn) drainTo(p *pipe, max int) (int, error) {
	c.rmu.Lock()
	c.rpipe, c.rmax = p, max
	err := c.rc.Read(c.drainFn)
	n, errno := c.rn, c.rerrno
	c.rpipe = nil
	c.rmu.Unlock()
	if err != nil || errno != 0 {
		return 0, c.opError("splice", err, errno)
	}
	p.n += n
	return n, nil
}

// pumpFrom moves everything p holds to c.
func (c *TCPConn) pumpFrom(p *pipe) (int64, error) {
	c.wmu.Lock()
	c.wpipe, c.wn, c.werrno = p, 0, 0
	err := c.rc.Write(c.pumpFn)
	n, errno := c.wn, c.werrno
	c.wpipe = nil
	c.wmu.Unlock()
	if err != nil || errno != 0 {
		return n, c.opError("splice", err, errno)
	}
	return n, nil
}

// pipe is one kernel pipe a splice moves bytes through; n is what it
// holds. A pipe goes back to its pool only empty.
type pipe struct {
	r, w, size, n int
}

// pipeSize is what a pipe asks the kernel for: the default
// /proc/sys/fs/pipe-max-size, so one drain can take a whole 1 MiB body.
const pipeSize = 1 << 20

// F_SETPIPE_SZ and F_GETPIPE_SZ (linux/fcntl.h).
const (
	fSetPipeSz = 1031
	fGetPipeSz = 1032
)

// pipes holds idle pipes. A pipe the pool drops is closed by its
// finalizer.
var pipes = sync.Pool{New: func() any {
	p, err := newPipe()
	if err != nil {
		return nil
	}
	runtime.SetFinalizer(p, (*pipe).close)
	return p
}}

// newPipe opens a non-blocking pipe and grows it to pipeSize, keeping the
// kernel's default size when the limit refuses.
func newPipe() (*pipe, error) {
	var fds [2]int
	if err := syscall.Pipe2(fds[:], syscall.O_CLOEXEC|syscall.O_NONBLOCK); err != nil {
		return nil, err
	}
	p := &pipe{r: fds[0], w: fds[1]}
	sz, _, e := syscall.Syscall(syscall.SYS_FCNTL, uintptr(p.w), fSetPipeSz, pipeSize)
	if e != 0 {
		sz, _, e = syscall.Syscall(syscall.SYS_FCNTL, uintptr(p.w), fGetPipeSz, 0)
	}
	if e != 0 {
		p.close()
		return nil, os.NewSyscallError("fcntl", e)
	}
	p.size = int(sz)
	return p, nil
}

func (p *pipe) close() {
	_ = syscall.Close(p.r)
	_ = syscall.Close(p.w)
}

// acquirePipe returns an empty pooled pipe, or nil when none can be
// opened (the caller copies instead).
func acquirePipe() *pipe {
	p, _ := pipes.Get().(*pipe)
	return p
}

// releasePipe pools p if it is empty and closes it otherwise: bytes left
// in a pipe belong to a relay that failed.
func releasePipe(p *pipe) {
	if p.n != 0 {
		runtime.SetFinalizer(p, nil)
		p.close()
		return
	}
	pipes.Put(p)
}

// spliceBody moves the last n of a body's total bytes from src to dst in
// the kernel. The two steps fail separately: a drain that ends early or
// fails is the source's (ErrBodyTruncated), a pump that fails is the
// destination's.
func spliceBody(dst, src *TCPConn, p *pipe, n, total int64) (int64, error) {
	var moved int64
	for moved < n {
		got, err := src.drainTo(p, int(min(n-moved, int64(p.size))))
		if got == 0 {
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return moved, fmt.Errorf("%w after %d/%d bytes: %v", ErrBodyTruncated, total-n+moved, total, err)
		}
		m, err := dst.pumpFrom(p)
		moved += m
		if err != nil {
			return moved, fmt.Errorf("relaying body: %w", err)
		}
	}
	return moved, nil
}

// BodyFile is a response body sealed into a memfd, which TCPConn's
// sendFile moves to a socket by sendfile(2) without the body entering user
// space. The seal is what makes that safe: the socket holds references to
// the file's pages rather than a snapshot of them, so the kernel must
// refuse any write, shrink or grow while bytes are in flight.
type BodyFile struct {
	f  *os.File
	rc syscall.RawConn
	n  int64
}

// memfd_create(2) flags and fcntl(2) sealing (linux/memfd.h, fcntl.h).
const (
	mfdCloexec      = 0x1
	mfdAllowSealing = 0x2
	fAddSeals       = 1033
	fSealSeal       = 0x1
	fSealShrink     = 0x2
	fSealGrow       = 0x4
	fSealWrite      = 0x8
)

// sysMemfdCreate and sysSendto are memfd_create(2) and sendto(2) by
// number: the syscall package names the first on arm64 alone and the
// second not on 386. 0 is an architecture without the kernel body path.
var sysMemfdCreate, sysSendto = func() (uintptr, uintptr) {
	switch runtime.GOARCH {
	case "amd64":
		return 319, 44
	case "arm64":
		return 279, 206
	}
	return 0, 0
}()

// memfdName is the name every body memfd shows in /proc/<pid>/fd.
var memfdName = [...]byte{'h', 't', 't', 'p', 'x', '-', 'b', 'o', 'd', 'y', 0}

// NewBodyFile copies body into a new memfd and seals it. The file is
// opened blocking, so it never joins the netpoller and Close never waits
// on a send in flight: the send's reference keeps the descriptor open
// until the send returns.
func NewBodyFile(body []byte) (*BodyFile, error) {
	if sysMemfdCreate == 0 {
		return nil, errors.ErrUnsupported
	}
	fd, _, e := syscall.Syscall(sysMemfdCreate, uintptr(unsafe.Pointer(&memfdName[0])), mfdCloexec|mfdAllowSealing, 0)
	if e != 0 {
		return nil, os.NewSyscallError("memfd_create", e)
	}
	f := os.NewFile(fd, "httpx-body")
	b := &BodyFile{f: f, n: int64(len(body))}
	if _, err := f.Write(body); err != nil {
		_ = f.Close()
		return nil, err
	}
	if _, _, e := syscall.Syscall(syscall.SYS_FCNTL, fd, fAddSeals, fSealSeal|fSealShrink|fSealGrow|fSealWrite); e != 0 {
		_ = f.Close()
		return nil, os.NewSyscallError("fcntl", e)
	}
	rc, err := f.SyscallConn()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	b.rc = rc
	return b, nil
}

// Close closes the memfd. A send already in flight completes; one that
// starts after reports errFileClosed.
func (b *BodyFile) Close() error { return b.f.Close() }

// send(2) flags (linux/socket.h).
const (
	msgNoSignal = 0x4000
	msgMore     = 0x8000
)

// sendFile writes head and then all of f: the header by send(2) with
// MSG_MORE, so header and body share segments, and the body by
// sendfile(2). It returns the bytes written.
func (c *TCPConn) sendFile(head []byte, f *BodyFile) (int64, error) {
	c.wmu.Lock()
	c.wsegs[0], c.wfile, c.woff = head, f, 0
	c.wn, c.werrno, c.werr = 0, 0, nil
	cerr := f.rc.Control(c.holdFn)
	n, errno, err := c.wn, c.werrno, c.werr
	c.wsegs[0], c.wfile, c.werr = nil, nil, nil
	c.wmu.Unlock()
	if cerr != nil {
		return 0, errFileClosed
	}
	if err != nil || errno != 0 {
		return n, c.opError("sendfile", err, errno)
	}
	return n, nil
}

// hold is sendFile's step under the memfd's Control: the file's
// descriptor is fd, and stays open until hold returns whatever Close does
// meanwhile, so the socket's readiness loop runs inside it.
func (c *TCPConn) hold(fd uintptr) {
	c.wfd = fd
	c.werr = c.rc.Write(c.sendFn)
}

// send is the readiness loop's callback: the header, then the file from
// woff, advancing past partial sends, and asking to wait when the socket
// buffer is full.
func (c *TCPConn) send(fd uintptr) bool {
	for head := c.wsegs[0]; len(head) > 0; head = c.wsegs[0] {
		n, _, e := syscall.RawSyscall6(sysSendto, fd, uintptr(unsafe.Pointer(&head[0])), uintptr(len(head)), msgMore|msgNoSignal, 0, 0)
		switch e {
		case 0:
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		default:
			c.werrno = e
			return true
		}
		c.wn += int64(n)
		c.wsegs[0] = head[n:]
	}
	for c.woff < c.wfile.n {
		n, _, e := syscall.RawSyscall6(syscall.SYS_SENDFILE, fd, c.wfd, uintptr(unsafe.Pointer(&c.woff)), uintptr(c.wfile.n-c.woff), 0, 0)
		switch {
		case e == syscall.EINTR:
		case e == syscall.EAGAIN:
			return false
		case e != 0:
			c.werrno = e
			return true
		case n == 0:
			c.werrno = syscall.EIO // a sealed file that ends early
			return true
		default:
			c.wn += int64(n) // sendfile advanced woff
		}
	}
	return true
}

// The preemption tick. sysmon, the runtime thread that preempts a
// goroutine running past 10 ms, sleeps until the earliest pending timer
// once every P has been idle, and with the raw path no syscall wakes it:
// a goroutine a raw read wakes would never be time-sliced, and one
// CPU-bound handler could stall every other exchange of a one-P process.
// While any TCPConn is open a timer is therefore kept due within
// preemptTick, so sysmon wakes at least that often. The state is
// package-level because sysmon is process-wide: one timer serves every
// connection.
const preemptTick = 10 * time.Millisecond

var tick struct {
	sync.Mutex
	open int
	t    *time.Timer
}

// holdTick counts one more open TCPConn, starting the tick at the first.
func holdTick() {
	tick.Lock()
	defer tick.Unlock()
	tick.open++
	if tick.open > 1 {
		return
	}
	if tick.t == nil {
		tick.t = time.AfterFunc(preemptTick, rearmTick)
		return
	}
	tick.t.Reset(preemptTick)
}

// releaseTick counts one TCPConn closed, stopping the tick at the last.
func releaseTick() {
	tick.Lock()
	defer tick.Unlock()
	if tick.open--; tick.open == 0 {
		tick.t.Stop()
	}
}

// rearmTick is the tick itself: it does nothing but keep a timer pending.
func rearmTick() {
	tick.Lock()
	defer tick.Unlock()
	if tick.open > 0 {
		tick.t.Reset(preemptTick)
	}
}
