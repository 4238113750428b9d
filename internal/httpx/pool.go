package httpx

import (
	"bufio"
	"io"
	"sync"
)

// Pool sizing. Reader buffers are sized for this system's messages
// (request lines plus a handful of headers fit in 4 KiB); copy buffers are
// 256 KiB so a relay that cannot move bytes in the kernel moves them in a
// handful of syscalls without large per-request allocations.
const (
	readerBufSize = 4 << 10
	// CopyBufSize is the size of the pooled buffers CopyBody and Relay's
	// copy loop relay with.
	CopyBufSize = 256 << 10
	// headerBufSize is the staging capacity for a serialized header
	// section (writeVectored); oversized sections grow the slice and the
	// release path drops outliers.
	headerBufSize    = 4 << 10
	maxHeaderBufSize = 16 << 10
)

// Pools is one independent set of the buffer pools the message fast path
// draws from: bufio readers, reusable Requests, relay copy
// buffers and header staging buffers. The distributor owns
// one for its data plane (sync.Pool is already per-P, so one set serves
// every connection); everything else uses the package default via the
// package-level Acquire/Release functions. Values acquired from a Pools
// are released back to the same Pools.
type Pools struct {
	// Targets, when set, resolves a request-target's bytes to a string the
	// caller already holds (the distributor's URL-table paths), so parsing
	// a request for one allocates no target string. It reports false for
	// anything it does not hold, and must not retain or alias the bytes.
	// Set it before the pools parse; the package default has none.
	Targets func(target []byte) (string, bool)

	readers  sync.Pool
	requests sync.Pool
	copyBufs sync.Pool
	headers  sync.Pool
}

// NewPools returns an independent pool set.
func NewPools() *Pools {
	p := &Pools{}
	p.readers.New = func() any { return bufio.NewReaderSize(nil, readerBufSize) }
	p.requests.New = func() any { return &Request{Header: make(Header, 0, 8)} }
	p.copyBufs.New = func() any {
		b := make([]byte, CopyBufSize)
		return &b
	}
	p.headers.New = func() any {
		b := make([]byte, 0, headerBufSize)
		return &b
	}
	return p
}

// defaultPools backs the package-level Acquire/Release functions: the
// shared pool set for callers without one of their own (backends,
// management plane, tests).
var defaultPools = NewPools()

// AcquireReader returns a pooled bufio.Reader reset to read from r.
// Release it with ReleaseReader once no buffered bytes are needed — for a
// persistent connection that means when the connection is closed, not
// between requests (the buffer may hold pipelined bytes).
func (p *Pools) AcquireReader(r io.Reader) *bufio.Reader {
	br := p.readers.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

// ReleaseReader returns br to the pool. The caller must not use br again.
func (p *Pools) ReleaseReader(br *bufio.Reader) {
	if br == nil {
		return
	}
	br.Reset(nil)
	p.readers.Put(br)
}

// AcquireRequest returns a pooled Request ready for ReadRequestInto.
func (p *Pools) AcquireRequest() *Request {
	return p.requests.Get().(*Request)
}

// ReleaseRequest returns req to the pool. Oversized body and header
// storage is dropped so one large upload doesn't pin memory forever.
func (p *Pools) ReleaseRequest(req *Request) {
	if req == nil {
		return
	}
	if cap(req.Body) > CopyBufSize {
		req.Body = nil
	}
	if cap(req.Header) > maxHeaderLines {
		req.Header = nil
	}
	req.reset()
	p.requests.Put(req)
}

// acquireCopyBuf returns a pooled CopyBufSize relay buffer.
func (p *Pools) acquireCopyBuf() *[]byte {
	return p.copyBufs.Get().(*[]byte)
}

// releaseCopyBuf returns a relay buffer to the pool.
func (p *Pools) releaseCopyBuf(b *[]byte) {
	p.copyBufs.Put(b)
}

// acquireHeaderBuf returns an empty staging buffer for a header section.
func (p *Pools) acquireHeaderBuf() *[]byte {
	return p.headers.Get().(*[]byte)
}

// releaseHeaderBuf returns a staging buffer, dropping outliers a huge
// header section grew.
func (p *Pools) releaseHeaderBuf(b *[]byte) {
	if cap(*b) > maxHeaderBufSize {
		return
	}
	*b = (*b)[:0]
	p.headers.Put(b)
}

// AcquireReader returns a bufio.Reader from the default pool set; see
// Pools.AcquireReader.
func AcquireReader(r io.Reader) *bufio.Reader { return defaultPools.AcquireReader(r) }

// ReleaseReader returns br to the default pool set.
func ReleaseReader(br *bufio.Reader) { defaultPools.ReleaseReader(br) }

// AcquireRequest returns a pooled Request from the default pool set.
func AcquireRequest() *Request { return defaultPools.AcquireRequest() }

// ReleaseRequest returns req to the default pool set.
func ReleaseRequest(req *Request) { defaultPools.ReleaseRequest(req) }
